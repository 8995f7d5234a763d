package rng

import (
	"math"
	"testing"
)

// runnable returns the lane kernel bodies this host can execute; the
// generic body is always among them.
func runnable() []laneBody {
	var out []laneBody
	for _, b := range laneBodies {
		if b.ok {
			out = append(out, b)
		}
	}
	return out
}

// checkLanes draws one mask of n at p on live lanes started at states
// through body b, and fails unless every lane's mask and state equal
// ChanceMask's on a Source at that lane's state.
func checkLanes(t *testing.T, b laneBody, states [][5]uint64, p float64, n int) {
	t.Helper()
	var l Lanes
	for _, st := range states {
		l.Add(st)
	}
	out := l.chanceMask(b.fn, p, n)
	for i, st := range states {
		var r Source
		r.SetState(st)
		want := r.ChanceMask(p, n)
		if out[i] != want || l.State(i) != r.State() {
			t.Fatalf("%s, %d lanes, p %v, n %d: lane %d drew %#x to state %v, ChanceMask %#x to %v",
				b.name, len(states), p, n, i, out[i], l.State(i), want, r.State())
		}
	}
}

// TestChanceLanesMatchChanceMask holds every kernel body this host can
// run, the generic one included, to ChanceMask lane by lane: masks and
// end states, on random states, 1–8 live lanes, every count from 1 to
// 64 and each probability branch (the smallest positive threshold, 1/n,
// one half, NaN, and the draw-free 0 and 1). A second mask on the same
// lanes checks that the kernel stored the states it stepped.
func TestChanceLanesMatchChanceMask(t *testing.T) {
	bodies := runnable()
	names := make([]string, len(bodies))
	for i, b := range bodies {
		names[i] = b.name
	}
	t.Logf("kernel bodies on this host: %v", names)
	seeds := New(1)
	for _, b := range bodies {
		for live := 1; live <= MaxLanes; live++ {
			for n := 1; n <= 64; n++ {
				for _, p := range []float64{0x1p-53, 1 / float64(n), 0.5, math.NaN(), 0, 1} {
					states := make([][5]uint64, live)
					for i := range states {
						states[i] = New(seeds.Uint64()).State()
					}
					checkLanes(t, b, states, p, n)
					var l Lanes
					for _, st := range states {
						l.Add(st)
					}
					l.chanceMask(b.fn, p, n)
					for i := range states {
						states[i] = l.State(i)
					}
					checkLanes(t, b, states, 0.3, 64-n+1)
				}
			}
		}
	}
}

// FuzzChanceLanes: any states, live count, count and probability bits
// give every runnable body ChanceMask's masks and end states.
func FuzzChanceLanes(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(64), math.Float64bits(0.5))
	f.Add(uint64(2), uint8(3), uint8(17), math.Float64bits(math.NaN()))
	f.Add(uint64(3), uint8(1), uint8(1), math.Float64bits(0x1p-53))
	f.Add(uint64(4), uint8(5), uint8(63), math.Float64bits(1-0x1p-53))
	f.Fuzz(func(t *testing.T, seed uint64, live, n uint8, pbits uint64) {
		lanes := 1 + int(live)%MaxLanes
		count := int(n) % 65
		p := math.Float64frombits(pbits)
		src := New(seed)
		states := make([][5]uint64, lanes)
		for i := range states {
			states[i] = src.Split().State()
		}
		for _, b := range runnable() {
			checkLanes(t, b, states, p, count)
		}
	})
}

func TestLanesPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"ninth lane": func() {
			var l Lanes
			for i := 0; i <= MaxLanes; i++ {
				l.Add(New(uint64(i)).State())
			}
		},
		"zero state": func() { new(Lanes).Add([5]uint64{}) },
		"missing lane": func() {
			var l Lanes
			l.Add(New(1).State())
			l.State(1)
		},
		"n 65": func() {
			new(Lanes).ChanceMask(0.5, 65)
		},
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

// BenchmarkChanceLanes times one 64-draw word on eight lanes per body,
// against ChanceMask on eight streams in turn: ns/op over 512 is the
// cost of one draw.
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
	for _, body := range runnable() {
		b.Run(body.name, func(b *testing.B) {
			var l Lanes
			for i := 0; i < MaxLanes; i++ {
				l.Add(New(uint64(i + 1)).State())
			}
			for i := 0; i < b.N; i++ {
				out = l.chanceMask(body.fn, 0.5, 64)
			}
		})
	}
}
