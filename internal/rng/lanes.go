package rng

// Eight streams per instruction.
//
// One xoshiro256** stream is a serial chain: each draw needs the state
// the previous one left, so ChanceMask runs at the chain's latency
// (≈ 2.5 ns per draw on the reference host) however wide the core is.
// Eight independent streams are eight chains, and one AVX-512 register
// holds the same state word of all eight: a lane kernel steps them with
// one instruction per xoshiro operation and packs each lane's outcomes
// as ChanceMask does. The multiplies by 5 and 9 are shifts and adds, so
// the kernels need no 64-bit vector multiply.
//
// A lane is a stream like any other: Lanes.ChanceMask leaves lane i
// with the mask and the state that ChanceMask on a Source holding lane
// i's state would, bit for bit, whatever kernel ran. The kernel is
// chosen once, from CPUID and the OS's saved-state bits (XGETBV), with
// no switch to override it; every body is integer code, so the bytes are
// the same on every host (TestChanceLanesMatchChanceMask runs each body
// the host can execute).

// MaxLanes is the number of streams a Lanes steps together.
const MaxLanes = 8

// Lanes is up to MaxLanes streams drawn side by side. The state is held
// word-major, s[k][i] being word k of lane i's xoshiro state, so each
// word of all eight lanes is one 64-byte vector. The zero value has no
// lanes.
type Lanes struct {
	s [4][MaxLanes]uint64
	// ctr holds each lane's split counter, which draws leave alone.
	ctr  [MaxLanes]uint64
	live int
	// out is the kernels' output, kept here so that it never escapes.
	out [MaxLanes]uint64
}

// laneKernel makes n (1 ≤ n ≤ 64) ChanceMask draws against thr on each
// of the first live lanes of s, in place, and sets out[i] to lane i's
// mask. A kernel may step, and write, lanes at or past live.
type laneKernel func(s *[4][MaxLanes]uint64, thr uint64, n, live int, out *[MaxLanes]uint64)

// laneBody is one kernel body and whether this host can run it.
type laneBody struct {
	name string
	fn   laneKernel
	ok   bool
}

// chanceLanes is the fastest body this host can run: laneBodies is
// ordered fastest first and ends with the generic body, which runs
// everywhere.
var chanceLanes = func() laneKernel {
	for _, b := range laneBodies {
		if b.ok {
			return b.fn
		}
	}
	return chanceLanesGeneric
}()

// chanceLanesGeneric is the portable body: chanceBits, lane by lane.
func chanceLanesGeneric(s *[4][MaxLanes]uint64, thr uint64, n, live int, out *[MaxLanes]uint64) {
	for i := 0; i < live; i++ {
		st := [4]uint64{s[0][i], s[1][i], s[2][i], s[3][i]}
		out[i] = chanceBits(&st, thr, n)
		s[0][i], s[1][i], s[2][i], s[3][i] = st[0], st[1], st[2], st[3]
	}
}

// Reset removes every lane.
func (l *Lanes) Reset() { l.live = 0 }

// Add appends a lane, numbered from 0 in the order added, whose stream
// is at st, a state captured by State. It panics when l already has
// MaxLanes lanes or on the all-zero xoshiro state.
func (l *Lanes) Add(st [5]uint64) {
	if l.live == MaxLanes {
		panic("rng: Lanes.Add past MaxLanes")
	}
	if st[0]|st[1]|st[2]|st[3] == 0 {
		panic("rng: Lanes.Add with all-zero xoshiro state")
	}
	i := l.live
	for k := range l.s {
		l.s[k][i] = st[k]
	}
	l.ctr[i] = st[4]
	l.live++
}

// State returns lane i's state as Source.State would.
func (l *Lanes) State(i int) [5]uint64 {
	if uint(i) >= uint(l.live) {
		panic("rng: Lanes.State of a lane that does not exist")
	}
	return [5]uint64{l.s[0][i], l.s[1][i], l.s[2][i], l.s[3][i], l.ctr[i]}
}

// ChanceMask returns, at index i for every lane i, ChanceMask(p, n)
// drawn on lane i's stream, and leaves each lane where that call would.
// Entries past the last lane are undefined. It panics unless 0 <= n <= 64.
func (l *Lanes) ChanceMask(p float64, n int) [MaxLanes]uint64 {
	return l.chanceMask(chanceLanes, p, n)
}

// chanceMask is ChanceMask on the kernel body k.
func (l *Lanes) chanceMask(k laneKernel, p float64, n int) [MaxLanes]uint64 {
	if uint(n) > 64 {
		panic("rng: Lanes.ChanceMask called with n outside [0, 64]")
	}
	thr, fixed, draws := chanceThreshold(p)
	if !draws || n == 0 {
		for i := range l.out {
			l.out[i] = fixed >> (64 - uint(n))
		}
	} else {
		k(&l.s, thr, n, l.live, &l.out)
	}
	return l.out
}
