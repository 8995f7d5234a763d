package apps

import (
	"fmt"
	"math"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// GraphPartition is the graph-bipartitioning workload from §4's problem
// list ("graph bipartity, graph partitioning problem"): split a graph's
// vertices into two halves minimising the edge cut, with a graded penalty
// for imbalance. The synthetic instance is a planted-partition graph, so
// a good cut is known to exist.
type GraphPartition struct {
	n     int
	edges [][2]int
	// planted is the hidden balanced partition used to generate the
	// instance (dense inside, sparse across).
	planted *genome.BitString
}

// NewGraphPartition builds a planted-partition graph with n vertices
// (n even), intra-group edge probability pIn and cross-group probability
// pOut drawn from seed.
func NewGraphPartition(n int, pIn, pOut float64, seed uint64) *GraphPartition {
	if n%2 != 0 {
		panic("apps: GraphPartition needs an even vertex count")
	}
	r := rng.New(seed)
	g := &GraphPartition{n: n, planted: genome.NewBitString(n)}
	perm := r.Perm(n)
	for i, v := range perm {
		g.planted.Set(v, i < n/2)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if g.planted.Get(i) == g.planted.Get(j) {
				p = pIn
			}
			if r.Chance(p) {
				g.edges = append(g.edges, [2]int{i, j})
			}
		}
	}
	return g
}

// Name implements core.Problem.
func (g *GraphPartition) Name() string {
	return fmt.Sprintf("graphpart(%d,%d)", g.n, len(g.edges))
}

// Direction implements core.Problem.
func (*GraphPartition) Direction() core.Direction { return core.Minimize }

// NewGenome implements core.Problem: one side bit per vertex.
func (g *GraphPartition) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomBitString(g.n, r)
}

// CutSize returns the number of edges crossing the partition.
func (g *GraphPartition) CutSize(b *genome.BitString) int {
	cut := 0
	for _, e := range g.edges {
		if b.Get(e[0]) != b.Get(e[1]) {
			cut++
		}
	}
	return cut
}

// Imbalance returns |#side1 − n/2|.
func (g *GraphPartition) Imbalance(b *genome.BitString) int {
	ones := b.OnesCount()
	d := ones - g.n/2
	if d < 0 {
		d = -d
	}
	return d
}

// Evaluate implements core.Problem: cut size plus a strong graded
// imbalance penalty (each displaced vertex costs more than any single
// edge could save).
func (g *GraphPartition) Evaluate(gen core.Genome) float64 {
	b := gen.(*genome.BitString)
	return float64(g.CutSize(b)) + 2*float64(g.Imbalance(b))*float64(g.n)/4
}

// CameraPlacement is Olague (2001)'s photogrammetric network design from
// §4: place K cameras on a viewing sphere around an object so that a set
// of 3-D target points is observed by at least two cameras with good
// triangulation angles. Genes: per camera (azimuth, elevation) on the
// sphere; fitness maximises covered points weighted by the best pairwise
// convergence angle, the core of the original criterion.
type CameraPlacement struct {
	cameras int
	targets [][3]float64
	normals [][3]float64 // surface normal per target: visibility test
	radius  float64
}

// NewCameraPlacement creates an instance with k cameras and n random
// targets on a unit sphere "object" drawn from seed.
func NewCameraPlacement(k, n int, seed uint64) *CameraPlacement {
	r := rng.New(seed)
	cp := &CameraPlacement{cameras: k, radius: 4}
	for i := 0; i < n; i++ {
		// Random point on the unit sphere; its normal points outward.
		v := randomUnit(r)
		cp.targets = append(cp.targets, v)
		cp.normals = append(cp.normals, v)
	}
	return cp
}

func randomUnit(r *rng.Source) [3]float64 {
	for {
		x, y, z := r.Range(-1, 1), r.Range(-1, 1), r.Range(-1, 1)
		n := math.Sqrt(x*x + y*y + z*z)
		if n > 0.1 && n <= 1 {
			return [3]float64{x / n, y / n, z / n}
		}
	}
}

// Name implements core.Problem.
func (cp *CameraPlacement) Name() string {
	return fmt.Sprintf("cameras(%d,%d)", cp.cameras, len(cp.targets))
}

// Direction implements core.Problem.
func (*CameraPlacement) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem: (azimuth, elevation) per camera.
// Azimuth in [0, 2π), elevation in [-π/2, π/2].
func (cp *CameraPlacement) NewGenome(r *rng.Source) core.Genome {
	v := genome.NewRealVector(2*cp.cameras, 0, 1)
	for c := 0; c < cp.cameras; c++ {
		v.Lo[2*c], v.Hi[2*c] = 0, 2*math.Pi
		v.Lo[2*c+1], v.Hi[2*c+1] = -math.Pi/2, math.Pi/2
		v.Genes[2*c] = r.Range(0, 2*math.Pi)
		v.Genes[2*c+1] = r.Range(-math.Pi/2, math.Pi/2)
	}
	return v
}

// cameraPos converts gene pair c to a position on the viewing sphere.
func (cp *CameraPlacement) cameraPos(v *genome.RealVector, c int) [3]float64 {
	az, el := v.Genes[2*c], v.Genes[2*c+1]
	return [3]float64{
		cp.radius * math.Cos(el) * math.Cos(az),
		cp.radius * math.Cos(el) * math.Sin(az),
		cp.radius * math.Sin(el),
	}
}

// sees reports whether a camera at pos sees target t (the target's
// surface normal faces the camera).
func (cp *CameraPlacement) sees(pos [3]float64, t int) bool {
	tg, nrm := cp.targets[t], cp.normals[t]
	dx := [3]float64{pos[0] - tg[0], pos[1] - tg[1], pos[2] - tg[2]}
	dot := dx[0]*nrm[0] + dx[1]*nrm[1] + dx[2]*nrm[2]
	return dot > 0
}

// Evaluate implements core.Problem: for every target seen by at least two
// cameras, score the best pairwise convergence angle (ideal near 90°);
// unseen or singly-seen targets score 0. The mean over targets is the
// fitness in [0, 1].
func (cp *CameraPlacement) Evaluate(gen core.Genome) float64 {
	v := gen.(*genome.RealVector)
	positions := make([][3]float64, cp.cameras)
	for c := range positions {
		positions[c] = cp.cameraPos(v, c)
	}
	total := 0.0
	for t := range cp.targets {
		var viewers [][3]float64
		for c := 0; c < cp.cameras; c++ {
			if cp.sees(positions[c], t) {
				viewers = append(viewers, positions[c])
			}
		}
		if len(viewers) < 2 {
			continue
		}
		tg := cp.targets[t]
		best := 0.0
		for i := 0; i < len(viewers); i++ {
			for j := i + 1; j < len(viewers); j++ {
				a := unitDir(viewers[i], tg)
				b := unitDir(viewers[j], tg)
				cos := a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
				angle := math.Acos(clamp(cos, -1, 1))
				// Score peaks at 90° convergence (sin of the angle).
				if s := math.Sin(angle); s > best {
					best = s
				}
			}
		}
		total += best
	}
	return total / float64(len(cp.targets))
}

func unitDir(from, to [3]float64) [3]float64 {
	d := [3]float64{from[0] - to[0], from[1] - to[1], from[2] - to[2]}
	n := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
	if n == 0 {
		return [3]float64{}
	}
	return [3]float64{d[0] / n, d[1] / n, d[2] / n}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
