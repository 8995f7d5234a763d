package rng

// Sixteen streams in two interleaved vector groups.
//
// One xoshiro256** stream is a serial chain: each draw needs the state
// the previous one left, so ChanceMask runs at the chain's latency
// (≈ 2.5 ns per draw on the reference host) however wide the core is.
// Independent streams are independent chains, and one AVX-512 register
// holds the same state word of eight of them: a lane kernel steps eight
// with one instruction per xoshiro operation, and steps a second group
// of eight in the same loop so that the two groups' chains fill the
// vector ports together. The multiplies by 5 and 9 are shifts and adds,
// so the kernels need no 64-bit vector multiply.
//
// A lane is a stream like any other, with a chance of its own:
// Lanes.ChanceMasks leaves lane i with the mask and the state that
// ChanceMask(p_i, n) on a Source holding lane i's state would, bit for
// bit, whatever kernel ran. The kernel is chosen once, from CPUID and
// the OS's saved-state bits (XGETBV), with no switch to override it;
// every body is integer code, so the bytes are the same on every host
// (TestChanceLanesMatchChanceMask runs each body the host can execute).

// MaxLanes is the number of streams a Lanes steps together: two groups
// of eight.
const MaxLanes = 16

// Lanes is up to MaxLanes streams drawn side by side, each at its own
// chance. The state is held word-major, s[k][i] being word k of lane i's
// xoshiro state, so each word of a group of eight lanes is one 64-byte
// vector. The zero value has no lanes.
type Lanes struct {
	s [4][MaxLanes]uint64
	// thr holds each lane's chance as chanceThreshold makes it.
	thr [MaxLanes]uint64
	// ctr holds each lane's split counter, which draws leave alone.
	ctr  [MaxLanes]uint64
	live int
	// out is the kernels' output, kept here so that it never escapes.
	out [MaxLanes]uint64
}

// laneKernel makes n (1 ≤ n ≤ 64) ChanceMask draws on each of the first
// live lanes of s, in place, lane i against thr[i], and sets out[i] to
// lane i's mask. A kernel may step, and write, lanes at or past live.
type laneKernel func(s *[4][MaxLanes]uint64, thr *[MaxLanes]uint64, n, live int, out *[MaxLanes]uint64)

// body is one body of a kernel with several (the lane kernel's, or
// Leap.image's) and whether this host can run it.
type body[F any] struct {
	name string
	fn   F
	ok   bool
}

// fastest returns the first body this host can run. Body lists are
// ordered fastest first and end with a generic body, which runs
// everywhere.
func fastest[F any](bodies []body[F]) F {
	for _, b := range bodies {
		if b.ok {
			return b.fn
		}
	}
	return bodies[len(bodies)-1].fn
}

// chanceLanes is the fastest lane kernel body this host can run.
var chanceLanes = fastest(laneBodies)

// chanceLanesGeneric is the portable body: chanceBits, lane by lane.
func chanceLanesGeneric(s *[4][MaxLanes]uint64, thr *[MaxLanes]uint64, n, live int, out *[MaxLanes]uint64) {
	for i := 0; i < live; i++ {
		st := [4]uint64{s[0][i], s[1][i], s[2][i], s[3][i]}
		out[i] = chanceBits(&st, thr[i], n)
		s[0][i], s[1][i], s[2][i], s[3][i] = st[0], st[1], st[2], st[3]
	}
}

// Reset removes every lane.
func (l *Lanes) Reset() { l.live = 0 }

// Len returns the number of lanes.
func (l *Lanes) Len() int { return l.live }

// Add appends a lane, numbered from 0 in the order added, whose stream
// is at st, a state captured by State, and whose draws are at chance p.
// It panics when l already has MaxLanes lanes, and as Set does.
func (l *Lanes) Add(st [5]uint64, p float64) {
	if l.live == MaxLanes {
		panic("rng: Lanes.Add past MaxLanes")
	}
	l.live++
	l.Set(l.live-1, st, p)
}

// Set puts lane i's stream at st and its chance at p. It panics when
// lane i does not exist, on the all-zero xoshiro state, and as
// SetChance does.
func (l *Lanes) Set(i int, st [5]uint64, p float64) {
	if uint(i) >= uint(l.live) {
		panic("rng: Lanes.Set of a lane that does not exist")
	}
	if st[0]|st[1]|st[2]|st[3] == 0 {
		panic("rng: Lanes.Set with the all-zero xoshiro state")
	}
	for k := range l.s {
		l.s[k][i] = st[k]
	}
	l.ctr[i] = st[4]
	l.SetChance(i, p)
}

// SetChance makes lane i's later draws at chance p. p must draw: it
// panics for p <= 0 and p >= 1, whose masks ChanceMask fixes without a
// draw, and when lane i does not exist.
func (l *Lanes) SetChance(i int, p float64) {
	if uint(i) >= uint(l.live) {
		panic("rng: Lanes.SetChance of a lane that does not exist")
	}
	thr, _, draws := chanceThreshold(p)
	if !draws {
		panic("rng: Lanes.SetChance with a chance that draws nothing")
	}
	l.thr[i] = thr
}

// Remove removes lane i; the last lane takes its number.
func (l *Lanes) Remove(i int) {
	if uint(i) >= uint(l.live) {
		panic("rng: Lanes.Remove of a lane that does not exist")
	}
	l.live--
	j := l.live
	for k := range l.s {
		l.s[k][i] = l.s[k][j]
	}
	l.thr[i], l.ctr[i] = l.thr[j], l.ctr[j]
}

// State returns lane i's state as Source.State would.
func (l *Lanes) State(i int) [5]uint64 {
	if uint(i) >= uint(l.live) {
		panic("rng: Lanes.State of a lane that does not exist")
	}
	return [5]uint64{l.s[0][i], l.s[1][i], l.s[2][i], l.s[3][i], l.ctr[i]}
}

// ChanceMasks returns, at index i for every lane i, ChanceMask(p_i, n)
// drawn on lane i's stream at its chance p_i, and leaves each lane where
// that call would. The masks are l's, valid until its next draw; entries
// past the last lane are undefined. It panics unless 0 <= n <= 64.
func (l *Lanes) ChanceMasks(n int) *[MaxLanes]uint64 {
	return l.chanceMasks(chanceLanes, n)
}

// chanceMasks is ChanceMasks on the kernel body k.
func (l *Lanes) chanceMasks(k laneKernel, n int) *[MaxLanes]uint64 {
	if uint(n) > 64 {
		panic("rng: Lanes.ChanceMasks called with n outside [0, 64]")
	}
	if n == 0 || l.live == 0 {
		l.out = [MaxLanes]uint64{}
	} else {
		k(&l.s, &l.thr, n, l.live, &l.out)
	}
	return &l.out
}
