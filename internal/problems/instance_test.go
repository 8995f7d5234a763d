package problems

import (
	"reflect"
	"strconv"
	"testing"

	"pga/internal/rng"
)

// refMaxSATClauses and refNKInstance are the instance generators as they
// were before they held one identity table per instance: one rng.Sample,
// and so one freshly filled table, per clause or gene. Kept as the
// oracles of the draws.
func refMaxSATClauses(n, m int, seed uint64) [][3]int {
	r := rng.New(seed)
	cl := make([][3]int, m)
	for i := range cl {
		vars := r.Sample(n, 3)
		for j := 0; j < 3; j++ {
			lit := vars[j] + 1
			if r.Bool() {
				lit = -lit
			}
			cl[i][j] = lit
		}
	}
	return cl
}

func refNKInstance(n, k int, seed uint64) (links [][]int, table [][]float64) {
	r := rng.New(seed)
	links = make([][]int, n)
	table = make([][]float64, n)
	for i := 0; i < n; i++ {
		links[i] = append(make([]int, 0, k+1), i)
		for _, j := range r.Sample(n-1, k) {
			if j >= i {
				j++
			}
			links[i] = append(links[i], j)
		}
		table[i] = make([]float64, 1<<uint(k+1))
		for p := range table[i] {
			table[i][p] = r.Float64()
		}
	}
	return links, table
}

// nkInstance draws an NK instance in source form, as NewNKLandscape did
// before it drew straight into its compiled tables: links[i] are the k+1
// loci feeding gene i's table, table[i][pattern] its contribution. Kept
// as the oracle of the compiled form, and of the kernels.
func nkInstance(n, k int, seed uint64) (links [][]int, table [][]float64) {
	r := rng.New(seed)
	links = make([][]int, n)
	table = make([][]float64, n)
	id, others := identity(n-1), make([]int, k)
	for i := 0; i < n; i++ {
		links[i] = make([]int, 0, k+1)
		links[i] = append(links[i], i)
		// k distinct other loci.
		for _, j := range r.SampleInto(id, others) {
			if j >= i {
				j++
			}
			links[i] = append(links[i], j)
		}
		table[i] = make([]float64, 1<<uint(k+1))
		for p := range table[i] {
			table[i][p] = r.Float64()
		}
	}
	return links, table
}

// TestNKTablesMatchSourceForm: NewNKLandscape's flat tables are the
// source form flattened gene by gene.
func TestNKTablesMatchSourceForm(t *testing.T) {
	for _, n := range []int{5, 64, 256} {
		for k := 0; k <= 4; k++ {
			for _, seed := range []uint64{1, 17, 99} {
				links, table := nkInstance(n, k, seed)
				var loci []uint32
				var flat []float64
				for i := range links {
					for _, j := range links[i] {
						loci = append(loci, uint32(j))
					}
					flat = append(flat, table[i]...)
				}
				p := NewNKLandscape(n, k, seed)
				if !reflect.DeepEqual(p.loci, loci) || !reflect.DeepEqual(p.table, flat) {
					t.Fatalf("NewNKLandscape(%d, %d, %d): flat tables differ from the flattened source form", n, k, seed)
				}
			}
		}
	}
}

func TestMaxSATInstanceMatchesReference(t *testing.T) {
	for _, n := range []int{3, 4, 64, 65, 256} {
		for _, seed := range []uint64{1, 2, 17, 99} {
			m := 4 * n
			if got, want := maxSATClauses(n, m, seed), refMaxSATClauses(n, m, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("maxSATClauses(%d, %d, %d) differs from the per-clause Sample reference", n, m, seed)
			}
		}
	}
}

func TestNKInstanceMatchesReference(t *testing.T) {
	for _, nk := range [][2]int{{1, 0}, {5, 0}, {5, 4}, {9, 8}, {64, 1}, {65, 4}, {256, 4}} {
		n, k := nk[0], nk[1]
		for _, seed := range []uint64{1, 2, 17, 99} {
			links, table := nkInstance(n, k, seed)
			wantLinks, wantTable := refNKInstance(n, k, seed)
			if !reflect.DeepEqual(links, wantLinks) || !reflect.DeepEqual(table, wantTable) {
				t.Fatalf("nkInstance(%d, %d, %d) differs from the per-gene Sample reference", n, k, seed)
			}
		}
	}
}

// BenchmarkNewMaxSAT/256 is the registry's maxsat of size 256 (evalheavy-gen's
// instance): 256 variables, 1 024 clauses.
func BenchmarkNewMaxSAT(b *testing.B) {
	b.Run("256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewMaxSAT(256, 1024, uint64(i))
		}
	})
}

// BenchmarkNewNKLandscape/64 is the registry's nk of size 64 (each
// model-matrix p2p cell's instance), /256 that of size 256 (wire-ring2's).
func BenchmarkNewNKLandscape(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewNKLandscape(n, 4, uint64(i))
			}
		})
	}
}
