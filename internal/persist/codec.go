// The population codec: one fixed little-endian layout shared by
// checkpoints (Checkpoint.Population) and migration frames
// (internal/transport appends it behind its frame header).
//
//	population := u8 version (=2) | u32 count | count × individual
//	individual := u8 class | u8 evaluated (0|1) | f64 fitness | u32 n | genes
//	genes, by class:
//	  1 bits   ⌈n/64⌉ × u64   BitString.Words as stored, LSB-first
//	  2 real   3·n × f64      Genes, then Lo, then Hi
//	  3 int    u32 card | n × u32
//	  4 perm   n × u32
//
// Floats travel as their IEEE-754 bit patterns, so NaN payloads, ±Inf
// and −0 survive. Format 1 was a JSON document; it never carried a
// version byte and is recognised by its leading '{'.
//
// Decoding trusts nothing: every count and length is checked against the
// bytes that remain before anything is allocated (what one input can
// make the decoder allocate is bounded by a small multiple of the
// input's own length), and the invariants the rest of the library relies
// on — clean tail bits, int genes inside [0, card), permutation
// integrity — are checked on the decoded genome. An accepted encoding is
// canonical: re-encoding the result yields the same bytes.

package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"pga/internal/core"
	"pga/internal/genome"
)

const (
	// codecVersion is the first byte of every population encoding.
	codecVersion = 2
	// jsonLead is how a format-1 (JSON) population document starts.
	jsonLead = '{'

	popHeaderLen = 1 + 4         // version, count
	indHeaderLen = 1 + 1 + 8 + 4 // class, evaluated, fitness, n
)

// Genome class tags. Zero is deliberately unassigned so a zeroed buffer
// does not decode.
const (
	tagBits = 1 + iota
	tagReal
	tagInt
	tagPerm
)

var le = binary.LittleEndian

// EncodedLen returns the number of bytes AppendPopulation appends for
// members, so a caller can size its buffer once. It is exact for every
// population AppendPopulation accepts.
func EncodedLen(members []*core.Individual) int {
	size := popHeaderLen + indHeaderLen*len(members)
	for _, ind := range members {
		switch v := ind.Genome.(type) {
		case *genome.BitString:
			size += 8 * len(v.Words)
		case *genome.RealVector:
			size += 24 * len(v.Genes)
		case *genome.IntVector:
			size += 4 + 4*len(v.Genes)
		case *genome.Permutation:
			size += 4 * len(v.Perm)
		}
	}
	return size
}

// AppendPopulation appends the encoding of members to dst and returns
// the extended slice. It rejects what the layout cannot carry — an
// unsupported genome type, a length, cardinality or gene outside u32, a
// BitString whose word count disagrees with N, real bounds of the wrong
// length — instead of truncating it.
func AppendPopulation(dst []byte, members []*core.Individual) ([]byte, error) {
	count, err := u32(len(members), "population size")
	if err != nil {
		return nil, err
	}
	dst = append(dst, codecVersion)
	dst = le.AppendUint32(dst, count)
	for i, ind := range members {
		if dst, err = appendIndividual(dst, ind); err != nil {
			return nil, fmt.Errorf("persist: member %d: %w", i, err)
		}
	}
	return dst, nil
}

func appendIndividual(dst []byte, ind *core.Individual) ([]byte, error) {
	var err error
	switch v := ind.Genome.(type) {
	case *genome.BitString:
		if v.N < 0 || len(v.Words) != (v.N+63)/64 {
			return nil, fmt.Errorf("bit genome of %d bits holds %d words", v.N, len(v.Words))
		}
		if dst, err = appendHeader(dst, tagBits, ind, v.N); err != nil {
			return nil, err
		}
		for _, w := range v.Words {
			dst = le.AppendUint64(dst, w)
		}
	case *genome.RealVector:
		// The layout has one n for genes, lo and hi, so this is the only
		// place a bounds length mismatch can be caught.
		if len(v.Lo) != len(v.Genes) || len(v.Hi) != len(v.Genes) {
			return nil, errors.New("real genome bounds length mismatch")
		}
		if dst, err = appendHeader(dst, tagReal, ind, len(v.Genes)); err != nil {
			return nil, err
		}
		for _, block := range [3][]float64{v.Genes, v.Lo, v.Hi} {
			for _, x := range block {
				dst = le.AppendUint64(dst, math.Float64bits(x))
			}
		}
	case *genome.IntVector:
		card, err := u32(v.Card, "int genome cardinality")
		if err != nil {
			return nil, err
		}
		if dst, err = appendHeader(dst, tagInt, ind, len(v.Genes)); err != nil {
			return nil, err
		}
		dst = le.AppendUint32(dst, card)
		return appendInts(dst, v.Genes, "int gene")
	case *genome.Permutation:
		if dst, err = appendHeader(dst, tagPerm, ind, len(v.Perm)); err != nil {
			return nil, err
		}
		return appendInts(dst, v.Perm, "permutation entry")
	default:
		return nil, fmt.Errorf("unsupported genome type %T", ind.Genome)
	}
	return dst, nil
}

// appendHeader appends the fixed part of an individual whose genome has
// length genes.
func appendHeader(dst []byte, tag byte, ind *core.Individual, length int) ([]byte, error) {
	n, err := u32(length, "genome length")
	if err != nil {
		return nil, err
	}
	evaluated := byte(0)
	if ind.Evaluated {
		evaluated = 1
	}
	dst = append(dst, tag, evaluated)
	dst = le.AppendUint64(dst, math.Float64bits(ind.Fitness))
	return le.AppendUint32(dst, n), nil
}

// appendInts appends xs as u32s, into a block reserved once rather than
// an append per gene: permutations are the longest genomes sent.
func appendInts(dst []byte, xs []int, what string) ([]byte, error) {
	at := len(dst)
	dst = slices.Grow(dst, 4*len(xs))[:at+4*len(xs)]
	block := dst[at:]
	for _, x := range xs {
		if uint64(x) > math.MaxUint32 { // a negative x converts to above it
			return nil, errNotU32(what, x)
		}
		le.PutUint32(block, uint32(x))
		block = block[4:]
	}
	return dst, nil
}

// u32 converts x, rejecting values the layout's 32-bit fields cannot hold.
func u32(x int, what string) (uint32, error) {
	if uint64(x) > math.MaxUint32 { // a negative x converts to above it
		return 0, errNotU32(what, x)
	}
	return uint32(x), nil
}

func errNotU32(what string, x int) error {
	return fmt.Errorf("%s %d does not fit the codec's u32", what, x)
}

// DecodePopulation decodes one population encoding, which must span data
// exactly. The result shares no memory with data.
func DecodePopulation(data []byte) ([]*core.Individual, error) {
	return DecodePopulationInto(nil, data)
}

// DecodePopulationInto is DecodePopulation into dst's storage: it
// decodes over the individuals dst holds up to its capacity, reusing a
// genome whose class and length match the encoded one's and allocating
// what does not match or is missing, and returns dst resized to the
// population. It accepts and refuses exactly what DecodePopulation does,
// with the same error, and its result equals DecodePopulation's value
// for value. Real bounds are never overwritten in place: a genome whose
// encoded bounds differ from the ones it holds gets fresh bound slices,
// so bounds shared by an earlier RealVector.CopyFrom stay as they were.
// On error the individuals of dst may hold anything, but stay reusable.
func DecodePopulationInto(dst []*core.Individual, data []byte) ([]*core.Individual, error) {
	if len(data) == 0 {
		return nil, errors.New("persist: empty population encoding")
	}
	switch v := data[0]; {
	case v == jsonLead:
		return nil, fmt.Errorf("persist: population is a format 1 (JSON) document; this build reads format %d only", codecVersion)
	case v != codecVersion:
		return nil, fmt.Errorf("persist: population codec version %d, want %d", v, codecVersion)
	}
	if len(data) < popHeaderLen {
		return nil, errors.New("persist: truncated population header")
	}
	count := le.Uint32(data[1:])
	rest := data[popHeaderLen:]
	if uint64(count) > uint64(len(rest)/indHeaderLen) {
		return nil, fmt.Errorf("persist: population count %d exceeds what %d bytes can hold", count, len(rest))
	}
	if cap(dst) < int(count) {
		grown := make([]*core.Individual, count)
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	members := dst[:count]
	for i := range members {
		var err error
		if members[i], rest, err = decodeIndividual(members[i], rest); err != nil {
			return nil, fmt.Errorf("persist: member %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after the population", len(rest))
	}
	return members, nil
}

// decodeIndividual decodes the individual at the front of b into ind's
// storage (a fresh individual when ind is nil) and returns it and the
// bytes after it.
func decodeIndividual(ind *core.Individual, b []byte) (*core.Individual, []byte, error) {
	if len(b) < indHeaderLen {
		return nil, nil, errors.New("truncated individual header")
	}
	tag, evaluated := b[0], b[1]
	if evaluated > 1 {
		return nil, nil, fmt.Errorf("evaluated byte %d, want 0 or 1", evaluated)
	}
	fitness := math.Float64frombits(le.Uint64(b[2:]))
	n := le.Uint32(b[10:])
	b = b[indHeaderLen:]
	if ind == nil {
		ind = new(core.Individual)
	}

	var g core.Genome
	switch tag {
	case tagBits:
		block, rest, ok := take(b, (uint64(n)+63)/64, 8)
		if !ok {
			return nil, nil, shortGenes("bit", n, b)
		}
		bs, ok := ind.Genome.(*genome.BitString)
		if !ok || bs.N != int(n) {
			bs = genome.NewBitString(int(n))
		}
		for i := range bs.Words {
			bs.Words[i] = le.Uint64(block[8*i:])
		}
		// The packed words are the persisted form, so the tail-mask
		// invariant every word-wise operator assumes is checked here.
		if w := len(bs.Words); w > 0 && bs.Words[w-1]&^genome.TailMask(bs.N) != 0 {
			return nil, nil, fmt.Errorf("bit genome of %d bits has bits set beyond its length", n)
		}
		g, b = bs, rest
	case tagReal:
		// One n covers genes, lo and hi: bounds of the wrong length cannot
		// be expressed, only a block too short for all three.
		block, rest, ok := take(b, 3*uint64(n), 8)
		if !ok {
			return nil, nil, shortGenes("real", n, b)
		}
		g, b = decodeReal(ind.Genome, int(n), block), rest
	case tagInt:
		if len(b) < 4 {
			return nil, nil, shortGenes("int", n, b)
		}
		card := le.Uint32(b)
		block, rest, ok := take(b[4:], uint64(n), 4)
		if !ok {
			return nil, nil, shortGenes("int", n, b)
		}
		iv, ok := ind.Genome.(*genome.IntVector)
		if !ok || len(iv.Genes) != int(n) {
			iv = &genome.IntVector{Genes: make([]int, n)}
		}
		decodeInts(iv.Genes, block)
		iv.Card = int(card)
		if !iv.Valid() {
			return nil, nil, fmt.Errorf("int genome has a gene outside [0, %d)", card)
		}
		g, b = iv, rest
	case tagPerm:
		block, rest, ok := take(b, uint64(n), 4)
		if !ok {
			return nil, nil, shortGenes("permutation", n, b)
		}
		p, ok := ind.Genome.(*genome.Permutation)
		if !ok || len(p.Perm) != int(n) {
			p = &genome.Permutation{Perm: make([]int, n)}
		}
		decodeInts(p.Perm, block)
		if !p.Valid() {
			return nil, nil, errors.New("corrupt permutation genome")
		}
		g, b = p, rest
	default:
		return nil, nil, fmt.Errorf("unknown genome class tag %d", tag)
	}
	ind.Genome, ind.Fitness, ind.Evaluated = g, fitness, evaluated == 1
	return ind, b, nil
}

// decodeReal decodes a real genome of n genes from block (genes, lo, hi)
// into old when it is a RealVector of n genes, else into a fresh one
// whose three slices share one allocation. Bounds are kept when equal,
// bit for bit, to the encoded ones and replaced otherwise, never written.
func decodeReal(old core.Genome, n int, block []byte) *genome.RealVector {
	at := func(i int) float64 { return math.Float64frombits(le.Uint64(block[8*i:])) }
	rv, ok := old.(*genome.RealVector)
	if !ok || len(rv.Genes) != n {
		all := make([]float64, 3*n)
		for i := range all {
			all[i] = at(i)
		}
		return &genome.RealVector{Genes: all[:n:n], Lo: all[n : 2*n : 2*n], Hi: all[2*n:]}
	}
	for i := range rv.Genes {
		rv.Genes[i] = at(i)
	}
	same := len(rv.Lo) == n && len(rv.Hi) == n
	for i := 0; same && i < n; i++ {
		same = math.Float64bits(rv.Lo[i]) == le.Uint64(block[8*(n+i):]) &&
			math.Float64bits(rv.Hi[i]) == le.Uint64(block[8*(2*n+i):])
	}
	if !same {
		bounds := make([]float64, 2*n)
		for i := range bounds {
			bounds[i] = at(n + i)
		}
		rv.Lo, rv.Hi = bounds[:n:n], bounds[n:]
	}
	return rv
}

// take splits count items of size bytes off the front of b. It reports
// false, before any allocation is sized from count, when b is too short.
func take(b []byte, count uint64, size int) (block, rest []byte, ok bool) {
	if count > uint64(len(b)/size) {
		return nil, nil, false
	}
	k := int(count) * size
	return b[:k], b[k:], true
}

// decodeInts fills out with the u32s of block, one per entry.
func decodeInts(out []int, block []byte) {
	for i := range out {
		out[i] = int(le.Uint32(block[4*i:]))
	}
}

func shortGenes(class string, n uint32, b []byte) error {
	return fmt.Errorf("%s genome length %d exceeds the %d bytes that remain", class, n, len(b))
}
