package rng

import "math/bits"

// Leap advances a stream by a fixed number of draws without making them.
//
// One xoshiro256 draw maps the 256-bit state through a fixed linear map T
// over GF(2) — xors, shifts and one rotation — so d draws are the matrix
// T^d, whatever the state. A Leap holds T^d as 64 nibble tables: entry
// [g][v] is the image of the state whose only set bits are the value v in
// nibble g (bits 4g..4g+3, word g/16 first), and the image of any state
// is the xor of its 64 nibbles' entries. That is 32 KiB per d, and one
// Apply costs about as much as 70 draws whatever d is.
//
// Leaping is not drawing: a stream leapt over d draws is where d Uint64
// calls would have left it, but nothing those draws would have returned
// exists. The split counter is not part of the chain; a Leap leaves it
// alone, as draws do. A Leap is read-only after NewLeap, so any number of
// goroutines may Apply one to their own streams.
type Leap struct {
	draws int
	tab   [64][16][4]uint64
}

// NewLeap returns the leap over d draws. It builds T^d by repeated
// squaring, one table product per bit of d, so the cost grows with
// log d, not d. It panics if d < 0.
func NewLeap(d int) *Leap {
	if d < 0 {
		panic("rng: NewLeap called with d < 0")
	}
	// cols holds the columns of T^e for the bits of d consumed so far
	// (column i is the image of the state with only bit i set); pow holds
	// T^(2^k)'s, and l's tables hold T^(2^k) until the last fill.
	var cols, pow [256][4]uint64
	for i := range cols {
		cols[i][i>>6] = 1 << (uint(i) & 63)
		one := Source{s: cols[i]}
		one.Uint64()
		pow[i] = one.s
	}
	l := &Leap{draws: d}
	l.fill(&pow)
	for k := d; k > 0; k >>= 1 {
		if k&1 != 0 {
			for i := range cols {
				cols[i] = l.image(cols[i])
			}
		}
		if k > 1 {
			// T^(2^(k+1)) e_i = T^(2^k) (T^(2^k) e_i).
			for i := range pow {
				pow[i] = l.image(pow[i])
			}
			l.fill(&pow)
		}
	}
	l.fill(&cols)
	return l
}

// Draws returns the number of draws the leap skips.
func (l *Leap) Draws() int { return l.draws }

// Apply advances r by l.Draws() draws without making them.
func (l *Leap) Apply(r *Source) { r.s = l.image(r.s) }

// fill sets the nibble tables from a map's columns: cols[i] is the image
// of the state whose only set bit is bit i&63 of word i>>6.
func (l *Leap) fill(cols *[256][4]uint64) {
	for g := range l.tab {
		t := &l.tab[g]
		t[0] = [4]uint64{}
		for v := 1; v < 16; v++ {
			prev, col := &t[v&(v-1)], &cols[4*g+bits.TrailingZeros(uint(v))]
			t[v] = [4]uint64{prev[0] ^ col[0], prev[1] ^ col[1], prev[2] ^ col[2], prev[3] ^ col[3]}
		}
	}
}

// image returns the map applied to state s.
func (l *Leap) image(s [4]uint64) [4]uint64 {
	var o0, o1, o2, o3 uint64
	for w, x := range s {
		t := l.tab[16*w : 16*w+16]
		for j := range t {
			e := &t[j][x&15]
			o0 ^= e[0]
			o1 ^= e[1]
			o2 ^= e[2]
			o3 ^= e[3]
			x >>= 4
		}
	}
	return [4]uint64{o0, o1, o2, o3}
}
