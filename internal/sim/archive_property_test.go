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
