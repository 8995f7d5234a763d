package rng

import (
	"fmt"
	"math"
	"testing"
)

// runnable returns the bodies this host can execute; the generic body is
// always among them.
func runnable[F any](bodies []body[F]) []body[F] {
	var out []body[F]
	for _, b := range bodies {
		if b.ok {
			out = append(out, b)
		}
	}
	return out
}

// laneModel is a Lanes beside its oracle: one Source per lane, at the
// lane's state, and the lane's chance.
type laneModel struct {
	l   Lanes
	src []Source
	ps  []float64
}

func (m *laneModel) add(st [5]uint64, p float64) {
	m.l.Add(st, p)
	var r Source
	r.SetState(st)
	m.src, m.ps = append(m.src, r), append(m.ps, p)
}

// set replaces lane i's stream and chance.
func (m *laneModel) set(i int, st [5]uint64, p float64) {
	m.l.Set(i, st, p)
	m.src[i].SetState(st)
	m.ps[i] = p
}

// remove removes lane i; the last lane takes its number.
func (m *laneModel) remove(i int) {
	m.l.Remove(i)
	last := len(m.src) - 1
	m.src[i], m.ps[i] = m.src[last], m.ps[last]
	m.src, m.ps = m.src[:last], m.ps[:last]
}

// check draws one mask of n on every lane through body b, and fails
// unless every lane's mask and state equal ChanceMask's at the lane's
// chance on its oracle.
func (m *laneModel) check(t testing.TB, b body[laneKernel], what string, n int) {
	t.Helper()
	if m.l.Len() != len(m.src) {
		t.Fatalf("%s, %s: %d lanes, the oracle has %d", b.name, what, m.l.Len(), len(m.src))
	}
	out := m.l.chanceMasks(b.fn, n)
	for i := range m.src {
		want := m.src[i].ChanceMask(m.ps[i], n)
		if out[i] != want || m.l.State(i) != m.src[i].State() {
			t.Fatalf("%s, %s, %d lanes, n %d: lane %d at p %v drew %#x to state %v, ChanceMask %#x to %v",
				b.name, what, len(m.src), n, i, m.ps[i], out[i], m.l.State(i), want, m.src[i].State())
		}
	}
}

// chances are the probability branches a lane draws at for a count of
// n: the smallest positive threshold, 1/n (one half below n = 2, where
// 1/n draws nothing), one half and NaN, which draws and sets nothing.
func chances(n int) [4]float64 {
	return [4]float64{0x1p-53, 1 / float64(max(n, 2)), 0.5, math.NaN()}
}

// TestChanceLanesMatchChanceMask holds every kernel body this host can
// run, the generic one included, to ChanceMask lane by lane: masks and
// end states, on random states, 1–16 live lanes (one group and two),
// every count from 1 to 64, and a different probability branch per lane.
// A second mask on the same lanes checks that the kernel stored the
// states it stepped; before a third, one lane takes a new stream and a
// new chance and another is removed.
func TestChanceLanesMatchChanceMask(t *testing.T) {
	bodies := runnable(laneBodies)
	names := make([]string, len(bodies))
	for i, b := range bodies {
		names[i] = b.name
	}
	t.Logf("kernel bodies on this host: %v", names)
	seeds := New(1)
	for _, b := range bodies {
		for live := 1; live <= MaxLanes; live++ {
			for n := 1; n <= 64; n++ {
				for rot := 0; rot < 4; rot++ {
					what := fmt.Sprintf("rotation %d", rot)
					ps := chances(n)
					var m laneModel
					for i := 0; i < live; i++ {
						m.add(New(seeds.Uint64()).State(), ps[(i+rot)%4])
					}
					m.check(t, b, what, n)
					m.check(t, b, what+", second call", 64-n+1)
					m.set(live/2, New(seeds.Uint64()).State(), 0.3)
					m.remove(live - 1 - live/3)
					m.check(t, b, what+", lanes replaced", n)
				}
			}
		}
	}
}

// FuzzChanceLanes: any states, live count, count, probability bits and
// per-lane choice of probability branch give every runnable body
// ChanceMask's masks and end states, over two calls with a lane
// replaced between them.
func FuzzChanceLanes(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(64), math.Float64bits(0.5), uint32(0))
	f.Add(uint64(2), uint8(3), uint8(17), math.Float64bits(math.NaN()), uint32(0x1b))
	f.Add(uint64(3), uint8(1), uint8(1), math.Float64bits(0x1p-53), uint32(7))
	f.Add(uint64(4), uint8(9), uint8(63), math.Float64bits(1-0x1p-53), uint32(0xe4e4e4e4))
	f.Add(uint64(5), uint8(7), uint8(0), math.Float64bits(1), uint32(0x5555))
	f.Fuzz(func(t *testing.T, seed uint64, live, n uint8, pbits uint64, pick uint32) {
		lanes := 1 + int(live)%MaxLanes
		count := int(n) % 65
		ps := chances(count)
		if p := math.Float64frombits(pbits); p > 0 && p < 1 || math.IsNaN(p) {
			ps[2] = p
		}
		src := New(seed)
		states := make([][5]uint64, lanes+1)
		for i := range states {
			states[i] = src.Split().State()
		}
		for _, b := range runnable(laneBodies) {
			var m laneModel
			for i := 0; i < lanes; i++ {
				m.add(states[i], ps[pick>>(2*(i%16))&3])
			}
			m.check(t, b, "first call", count)
			m.set(int(pick%uint32(lanes)), states[lanes], ps[0])
			m.check(t, b, "lane replaced", 64-count)
		}
	})
}

func TestLanesPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"lane past MaxLanes": func() {
			var l Lanes
			for i := 0; i <= MaxLanes; i++ {
				l.Add(New(uint64(i)).State(), 0.5)
			}
		},
		"zero state":        func() { new(Lanes).Add([5]uint64{}, 0.5) },
		"chance 0":          func() { new(Lanes).Add(New(1).State(), 0) },
		"chance 1":          func() { new(Lanes).Add(New(1).State(), 1) },
		"missing lane":      func() { lanesOf(1).State(1) },
		"set missing lane":  func() { lanesOf(1).Set(1, New(2).State(), 0.5) },
		"chance of missing": func() { lanesOf(1).SetChance(1, 0.5) },
		"remove missing":    func() { lanesOf(1).Remove(1) },
		"n 65":              func() { lanesOf(1).ChanceMasks(65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// lanesOf returns live lanes at chance one half.
func lanesOf(live int) *Lanes {
	l := new(Lanes)
	for i := 0; i < live; i++ {
		l.Add(New(uint64(i+1)).State(), 0.5)
	}
	return l
}

// laneSink keeps BenchmarkChanceLanes' masks alive.
var laneSink *[MaxLanes]uint64

// BenchmarkChanceLanes times one 64-draw word on sixteen lanes (two
// groups) and on eight (one) per body, against ChanceMask on sixteen
// streams in turn: ns/op over 64 × lanes is the cost of one draw.
func BenchmarkChanceLanes(b *testing.B) {
	var out [MaxLanes]uint64
	b.Run("serial", func(b *testing.B) {
		var rs [MaxLanes]Source
		for i := range rs {
			rs[i] = *New(uint64(i + 1))
		}
		for i := 0; i < b.N; i++ {
			for j := range rs {
				out[j] = rs[j].ChanceMask(0.5, 64)
			}
		}
	})
	for _, body := range runnable(laneBodies) {
		for _, live := range []int{MaxLanes, 8} {
			b.Run(fmt.Sprintf("%s/lanes-%d", body.name, live), func(b *testing.B) {
				l := lanesOf(live)
				for i := 0; i < b.N; i++ {
					laneSink = l.chanceMasks(body.fn, 64)
				}
			})
		}
	}
}
