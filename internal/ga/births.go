package ga

// Sixteen pairs at a time, one population, the serial loop's bytes.
//
// The survey's first model is the global PGA: one panmictic population
// whose reproduction is spread over processors without changing the
// algorithm. ParallelGenerational does that with a stream per worker, so
// its bytes depend on its worker count; Generational does it here, in
// SIMD lanes on the goroutine that called Step, with the serial loop's
// bytes on every host.
//
// A generation's births are pairs: two selections and a crossover-chance
// draw, then the pair's crossover (when crossed) and two mutations. When
// both operators declare their draws on the genome's shape
// (operators.FixedDraws: one ChanceMask bit per gene at a fixed
// probability), the stream state after a pair's breed draws is known
// without making them: xoshiro's transition is linear, so a fixed count
// of draws is one rng.Leap. The plan pass makes every selection and
// chance draw in the serial order, through the serial loop's pickPair, on
// a copy of the engine stream, leaps over each pair's breed draws, and
// records where each pair's breed draws start and end. Each pair's breed
// draws are then a stream of their own, and rng.Lanes draws up to
// sixteen such streams side by side, each at its own chance.
//
// One lane schedule covers the generation: the crossed pairs, then the
// copied ones (the longest first, so that the lanes run out together),
// each lane taking the next pair as soon as it finishes one. A pair's
// phases are its crossover words, its first child's mutation words and
// its second child's; every kernel call draws one word on every lane, at
// that lane's phase's chance, and applies it to the pair's children by
// the operators' own SwapWord and FlipWord. A phase that draws nothing
// (a chance of 0 or 1) is applied when the lane enters it, without a
// draw. Every phase that draws is the genome's words, so lanes that
// start together stay at the same word: a tail word narrower than 64
// genes is one shorter call for every lane. The engine stream is set
// where the plan ended.
//
// When a pair's last word is drawn, its lane must stand at the pair's
// recorded end. A wrong declaration fails that check, and the serial
// loop then breeds the generation again from the untouched engine
// stream: a wrong declaration costs time, never bytes.

import (
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/rng"
)

// minLaneDraws is the fewest breed draws a generation must declare for
// Generational to breed it in lanes. The first such generation builds
// the engine's two leaps (≈ 0.3–0.4 ms each), which the short-lived
// engines of the island, p2p and sweep models never earn back; above it
// they are repaid within a few generations (EXPERIMENTS.md, "Eight pairs
// per instruction"; measured again in "Sixteen lanes at the ports'
// floor"). A variable so that tests can move it.
var minLaneDraws = 1 << 14

// newLeap builds the plan pass's leaps; a test swaps in a wrong one.
var newLeap = rng.NewLeap

// pairPlan is one pair of births as the plan pass found it.
type pairPlan struct {
	// a and b index the parents; crossed is the crossover chance's outcome.
	a, b    int
	crossed bool
	// from and to are the engine-stream states where the pair's breed
	// draws start and end.
	from, to [5]uint64
}

// laneBirths is the pooled state of the lane path, built by the first
// generation that takes it.
type laneBirths struct {
	plan []pairPlan
	// order is the lane schedule: the indices in plan of the crossed
	// pairs, then of the copied ones.
	order []int
	// r is the plan pass's copy of the engine stream.
	r rng.Source
	// leaps skip a copied (0) and a crossed (1) pair's breed draws.
	leaps [2]*rng.Leap
	lanes rng.Lanes
	// slots[i] is lane i's place in its pair's breed draws.
	slots [rng.MaxLanes]laneSlot
	// ok reports that the latest generation was bred in lanes.
	ok bool
}

// The phases of a pair's breed draws, in stream order.
const (
	phaseCross = iota // crossover words, swapped between x and y
	phaseMut1         // the first child's mutation words
	phaseMut2         // the second child's
	phaseDone
)

// laneSlot is one lane's place in its pair's breed draws.
type laneSlot struct {
	// a and b are the words the current phase applies its masks to: the
	// crossover swaps between a and b, a mutation flips a (b is nil).
	a, b  []uint64
	phase int
	// pair indexes the plan; x and y are its children.
	pair int
	x, y *genome.BitString
}

// breedLanes breeds the generation's births in lanes when it may, and
// reports whether it did. When it reports false the engine stream is
// untouched and the serial loop breeds the generation, overwriting
// whatever the lanes wrote. e.scratch holds the generation's selection
// plan.
func (e *Generational) breedLanes(births int) bool {
	cfg := &e.cfg
	pairs := (births + 1) / 2
	g, isBits := e.pop.Members[0].Genome.(*genome.BitString)
	if !isBits {
		return false
	}
	dc, okc := operators.FixedDraws(cfg.Crossover, g)
	dm, okm := operators.FixedDraws(cfg.Mutator, g)
	if !okc || !okm || pairs*(dc.Draws()+2*dm.Draws()) < minLaneDraws {
		return false
	}
	if e.lanes == nil {
		e.lanes = &laneBirths{plan: make([]pairPlan, pairs), order: make([]int, 0, pairs)}
	}
	t := e.lanes
	t.ok = false
	r := &t.r
	r.SetState(cfg.RNG.State())
	copied := 2 * dm.Draws()
	for p := range t.plan {
		pp := &t.plan[p]
		pp.a, pp.b, pp.crossed = e.pickPair(r)
		pp.from = r.State()
		t.leap(pp.crossed, dc.Draws()+copied, copied).Apply(r)
		pp.to = r.State()
	}
	t.order = t.order[:0]
	for _, crossed := range [2]bool{true, false} {
		for p := range t.plan {
			if t.plan[p].crossed == crossed {
				t.order = append(t.order, p)
			}
		}
	}
	s := laneSchedule{e: e, births: births, n: g.N, phases: [3]operators.MaskDraws{dc, dm, dm}}
	if !s.run() {
		return false
	}
	cfg.RNG.SetState(r.State())
	t.ok = true
	return true
}

// leap returns the leap over one pair's breed draws: crossed of them when
// the pair is crossed, copied when not.
func (t *laneBirths) leap(isCrossed bool, crossed, copied int) *rng.Leap {
	k, d := 0, copied
	if isCrossed {
		k, d = 1, crossed
	}
	if t.leaps[k] == nil || t.leaps[k].Draws() != d {
		t.leaps[k] = newLeap(d)
	}
	return t.leaps[k]
}

// laneSchedule is one generation's run of the lane schedule.
type laneSchedule struct {
	e      *Generational
	births int
	// n is the genome's length; phases holds each phase's declaration on
	// it (the crossover's, then the mutator's twice).
	n      int
	phases [3]operators.MaskDraws
	// next is the next entry of the schedule to start.
	next int
}

// run breeds every scheduled pair and reports whether every pair fit
// the declarations and ended where the plan says.
//
// Every phase that draws is one word per kernel call, and every lane
// starts a pair where another ended, after whole phases, so all lanes
// stand at the same word of their phases: a call draws that word's
// width on every lane, and every lane's phase ends on the same call.
func (s *laneSchedule) run() bool {
	t := s.e.lanes
	l := &t.lanes
	l.Reset()
	for l.Len() < rng.MaxLanes && s.next < len(t.order) {
		if !s.take(l.Len()) {
			return false
		}
	}
	words := (s.n + 63) >> 6
	for l.Len() > 0 {
		for w := 0; w < words; w++ {
			m := l.ChanceMasks(min(64, s.n-w*64))
			for i := 0; i < l.Len(); i++ {
				t.slots[i].apply(w, m[i])
			}
		}
		// Downward, so that a removed lane's number goes to a lane
		// already moved on.
		for i := l.Len() - 1; i >= 0; i-- {
			sl := &t.slots[i]
			sl.phase++
			if s.settle(sl) {
				l.SetChance(i, s.phases[sl.phase].P)
				continue
			}
			if l.State(i) != t.plan[sl.pair].to || !s.take(i) {
				return false
			}
		}
	}
	return true
}

// take starts the next scheduled pair that draws in lane i, adding lane
// i when i is l.Len(); the scheduled pairs that draw nothing are bred on
// the way. When no pair is left, lane i is removed (or not added), and
// the last lane takes its slot. It reports false when a pair does not
// fit the declarations or a draw-free pair's plan does not stand still.
func (s *laneSchedule) take(i int) bool {
	e, t := s.e, s.e.lanes
	l := &t.lanes
	for s.next < len(t.order) {
		p := t.order[s.next]
		s.next++
		pp := &t.plan[p]
		pa := e.pop.Members[pp.a].Genome.(*genome.BitString)
		pb := e.pop.Members[pp.b].Genome.(*genome.BitString)
		c1, c2 := e.children(2*p, s.births)
		x, y := c1.Genome.(*genome.BitString), c2.Genome.(*genome.BitString)
		if pa.N != s.n || pb.N != s.n || x.N != s.n || y.N != s.n {
			return false // a shape the declarations were not made for
		}
		x.CopyFrom(pa)
		y.CopyFrom(pb)
		c1.Evaluated, c2.Evaluated = false, false
		sl := &t.slots[i]
		*sl = laneSlot{phase: phaseMut1, pair: p, x: x, y: y}
		if pp.crossed {
			sl.phase = phaseCross
		}
		if !s.settle(sl) {
			if pp.from != pp.to {
				return false
			}
			continue
		}
		if p := s.phases[sl.phase].P; i == l.Len() {
			l.Add(pp.from, p)
		} else {
			l.Set(i, pp.from, p)
		}
		return true
	}
	if i < l.Len() {
		l.Remove(i)
		t.slots[i] = t.slots[l.Len()]
	}
	return true
}

// settle applies the draw-free phases from sl's on, and reports whether
// the pair has a phase left that draws; sl is then at it, with the words
// it applies to.
func (s *laneSchedule) settle(sl *laneSlot) bool {
	for ; sl.phase < phaseDone; sl.phase++ {
		switch sl.phase {
		case phaseCross:
			sl.a, sl.b = sl.x.Words, sl.y.Words
		case phaseMut1:
			sl.a, sl.b = sl.x.Words, nil
		default:
			sl.a, sl.b = sl.y.Words, nil
		}
		d := s.phases[sl.phase]
		if d.Draws() > 0 {
			return true
		}
		if d.P < 1 {
			continue
		}
		for w := range sl.a {
			sl.apply(w, ^uint64(0)>>(64-d.Width(w)))
		}
	}
	return false
}

// apply applies mask m to word w as sl's phase does.
func (sl *laneSlot) apply(w int, m uint64) {
	if sl.b != nil {
		operators.SwapWord(&sl.a[w], &sl.b[w], m)
	} else {
		operators.FlipWord(&sl.a[w], m)
	}
}
