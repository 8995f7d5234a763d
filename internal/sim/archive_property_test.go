package sim

import (
	"math"
	"testing"
	"testing/quick"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// TestArchiveMutualNonDominanceProperty: after any sequence of random
// insertions, no archived item dominates another and the size never
// exceeds the cap — the defining invariants of a Pareto archive.
func TestArchiveMutualNonDominanceProperty(t *testing.T) {
	check := func(seed uint16, nAdds uint8, capRaw uint8) bool {
		r := rng.New(uint64(seed) + 17)
		cap := int(capRaw%20) + 1
		a := NewArchive(cap)
		adds := int(nAdds%60) + 1
		for i := 0; i < adds; i++ {
			g := genome.RandomRealVector(1, 0, 1, r)
			objs := []float64{r.Range(0, 10), r.Range(0, 10)}
			a.Add(g, objs)
		}
		if a.Len() > cap {
			return false
		}
		items := a.Items()
		for i := range items {
			for j := range items {
				if i != j && Dominates(items[i].Objectives, items[j].Objectives) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHypervolumeMonotoneProperty: adding a non-dominated point never
// decreases the hypervolume.
func TestHypervolumeMonotoneProperty(t *testing.T) {
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 23)
		ref := [2]float64{10, 10}
		var pts [][]float64
		prev := 0.0
		for i := 0; i < 20; i++ {
			pts = append(pts, []float64{r.Range(0, 10), r.Range(0, 10)})
			hv := Hypervolume2D(pts, ref)
			if hv < prev-1e-12 {
				return false
			}
			prev = hv
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refArchive is Archive.Add as it was before the fused pass — reject,
// evict, crowd, three walks over the items — kept as the oracle
// TestArchiveMatchesReference compares against.
type refArchive struct {
	items []ArchiveItem
	cap   int
}

func (a *refArchive) Add(g core.Genome, objs []float64) bool {
	for _, it := range a.items {
		if Dominates(it.Objectives, objs) || equalObjs(it.Objectives, objs) {
			return false
		}
	}
	kept := a.items[:0]
	for _, it := range a.items {
		if !Dominates(objs, it.Objectives) {
			kept = append(kept, it)
		}
	}
	a.items = kept
	item := ArchiveItem{Genome: g.Clone(), Objectives: append([]float64(nil), objs...)}
	if a.cap > 0 && len(a.items) >= a.cap {
		nearest, bestD := -1, math.Inf(1)
		for i, it := range a.items {
			d := sqDist(it.Objectives, objs)
			if d < bestD {
				nearest, bestD = i, d
			}
		}
		a.items[nearest] = item
		return true
	}
	a.items = append(a.items, item)
	return true
}

// TestArchiveMatchesReference: on random 2- and 3-objective streams drawn
// from a coarse grid (duplicates, shared components and equidistant
// neighbours are common), the archive holds the same items in the same
// order as the reference after every Add.
func TestArchiveMatchesReference(t *testing.T) {
	r := rng.New(91)
	for _, nObj := range []int{2, 3} {
		for _, cap := range []int{0, 5, 100} {
			for stream := 0; stream < 20; stream++ {
				got, want := NewArchive(cap), &refArchive{cap: cap}
				for add := 0; add < 300; add++ {
					g := genome.RandomRealVector(2, 0, 1, r)
					objs := make([]float64, nObj)
					for i := range objs {
						objs[i] = float64(r.Intn(12)) / 4
					}
					if in, refIn := got.Add(g, objs), want.Add(g, objs); in != refIn {
						t.Fatalf("%d objectives, cap %d, add %d %v: inserted %v, reference %v", nObj, cap, add, objs, in, refIn)
					}
					if !sameItems(got.Items(), want.items) {
						t.Fatalf("%d objectives, cap %d, add %d %v: archives differ", nObj, cap, add, objs)
					}
				}
			}
		}
	}
}

// TestArchiveMatchesReferenceWide extends TestArchiveMatchesReference to
// four objectives on the same grid and to a continuous ZDT1-shaped
// two-objective stream at cap 100, where most calls crowd a full archive
// and the nearest-neighbour scan's early exit decides the victim.
func TestArchiveMatchesReferenceWide(t *testing.T) {
	r := rng.New(92)
	check := func(name string, cap, adds int, next func() []float64) (crowded int) {
		got, want := NewArchive(cap), &refArchive{cap: cap}
		for add := 0; add < adds; add++ {
			g := genome.RandomRealVector(2, 0, 1, r)
			objs := next()
			full := got.Len() == cap
			if in, refIn := got.Add(g, objs), want.Add(g, objs); in != refIn {
				t.Fatalf("%s, cap %d, add %d %v: inserted %v, reference %v", name, cap, add, objs, in, refIn)
			} else if in && full && got.Len() == cap {
				crowded++
			}
			if !sameItems(got.Items(), want.items) {
				t.Fatalf("%s, cap %d, add %d %v: archives differ", name, cap, add, objs)
			}
		}
		return crowded
	}
	for _, cap := range []int{0, 5, 100} {
		for stream := 0; stream < 20; stream++ {
			check("4 objectives", cap, 300, func() []float64 {
				objs := make([]float64, 4)
				for i := range objs {
					objs[i] = float64(r.Intn(12)) / 4
				}
				return objs
			})
		}
	}
	const adds = 2000
	for stream := 0; stream < 4; stream++ {
		// A converged run: seven points in ten on the front (g = 1), which
		// crowd, the rest just behind it, which are refused or, while the
		// archive still holds points behind the front, evict them.
		crowded := check("zdt1", 100, adds, func() []float64 {
			f1 := r.Float64()
			g := 1 + 0.2*max(0, r.Float64()-0.7)
			return []float64{f1, g * (1 - math.Sqrt(f1/g))}
		})
		if crowded < adds/2 {
			t.Errorf("zdt1 stream %d: %d of %d calls crowded, want a large share", stream, crowded, adds)
		}
	}
}

// TestArchiveArity: the first insert fixes the objective count. An empty
// vector is refused whatever the archive holds; any other length panics
// on every Add, not only when a comparison happens to run (the rank
// search and the staircase exits skip most of them).
func TestArchiveArity(t *testing.T) {
	g := genome.RandomRealVector(1, 0, 1, rng.New(1))
	if NewArchive(0).Add(g, nil) || NewArchive(0).Add(g, []float64{}) {
		t.Error("empty vector inserted into an empty archive")
	}
	a := NewArchive(3)
	for _, objs := range [][]float64{{0, 3}, {1, 2}, {2, 1}} {
		a.Add(g, objs)
	}
	if a.Add(g, []float64{}) {
		t.Error("empty vector inserted into a 2-objective archive")
	}
	for _, objs := range [][]float64{
		{5},       // shorter
		{9, 9, 9}, // ranks above every item
		{-1, 9, 0},
		{0.5, 0.5, 0.5, 0.5},
	} {
		func() {
			defer func() {
				if msg := recover(); msg != "sim: objective vectors of different lengths" {
					t.Errorf("Add(%v) on a 2-objective archive: recovered %v", objs, msg)
				}
			}()
			a.Add(g, objs)
		}()
	}
	if a.Len() != 3 {
		t.Errorf("refused vectors changed the archive: %d items", a.Len())
	}
}

// TestArchiveAddAllocs: once the archive is full, a crowding Add reuses
// the victim's genome and objective buffer and allocates nothing.
func TestArchiveAddAllocs(t *testing.T) {
	r := rng.New(5)
	const cap = 100
	a := NewArchive(cap)
	g := genome.RandomRealVector(8, 0, 1, r)
	front := func(f1 float64) []float64 { return []float64{f1, 1 - math.Sqrt(f1)} }
	for a.Len() < cap {
		a.Add(g, front(r.Float64()))
	}
	// Points of the exact front are mutually non-dominated: each one
	// crowds out its nearest neighbour.
	stream := make([][]float64, 200)
	for i := range stream {
		stream[i] = front(r.Float64())
	}
	i := 0
	allocs := testing.AllocsPerRun(len(stream)-1, func() {
		if !a.Add(g, stream[i]) || a.Len() != cap {
			t.Fatalf("add %d did not crowd", i)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("crowding Add: %.2f allocs per call, want 0", allocs)
	}
}

// BenchmarkArchiveAdd feeds a full archive a converged stream: ZDT1's
// front for two objectives, the unit sphere's positive octant for three.
func BenchmarkArchiveAdd(b *testing.B) {
	for _, tc := range []struct {
		name  string
		point func(r *rng.Source) []float64
	}{
		{"2obj", func(r *rng.Source) []float64 {
			f1 := r.Float64()
			return []float64{f1, 1 - math.Sqrt(f1)}
		}},
		{"3obj", func(r *rng.Source) []float64 {
			x, y, z := r.Float64(), r.Float64(), r.Float64()
			n := math.Sqrt(x*x + y*y + z*z)
			return []float64{x / n, y / n, z / n}
		}},
	} {
		b.Run(tc.name+"/cap100", func(b *testing.B) {
			r := rng.New(3)
			g := genome.RandomRealVector(8, 0, 1, r)
			stream := make([][]float64, 1<<14)
			for i := range stream {
				stream[i] = tc.point(r)
			}
			a := NewArchive(100)
			for _, objs := range stream[:1000] {
				a.Add(g, objs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Add(g, stream[i%len(stream)])
			}
		})
	}
}

func equalObjs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameItems(a, b []ArchiveItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalObjs(a[i].Objectives, b[i].Objectives) || a[i].Genome.String() != b[i].Genome.String() {
			return false
		}
	}
	return true
}

// TestArchiveRefusesNonFinite: a full archive used to index [-1] when a
// non-dominated newcomer had no finite distance to anything; such a vector
// is refused whatever the archive's state.
func TestArchiveRefusesNonFinite(t *testing.T) {
	g := genome.RandomRealVector(1, 0, 1, rng.New(1))
	for _, objs := range [][]float64{
		{math.Inf(-1), math.Inf(1)},
		{math.NaN(), 0.5},
	} {
		a := NewArchive(2)
		a.Add(g, []float64{0, 1})
		a.Add(g, []float64{1, 0})
		if a.Add(g, objs) {
			t.Errorf("Add(%v) on a full archive: inserted", objs)
		}
		if NewArchive(0).Add(g, objs) {
			t.Errorf("Add(%v) on an empty archive: inserted", objs)
		}
		if a.Len() != 2 {
			t.Errorf("Add(%v) changed the archive: %d items", objs, a.Len())
		}
	}
}
