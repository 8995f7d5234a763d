package cellular

import (
	"pga/internal/rng"
)

// TakeoverSim measures selection pressure in a cellular EA the way
// Giacobini, Alba & Tomassini (2003) did: selection and replacement only —
// no variation operators — starting from a grid where a single cell holds
// the best fitness, tracking how fast that fitness "takes over" the grid.
// Faster takeover = higher selection intensity; the asynchronous policies
// exhibit systematically higher pressure than the synchronous update,
// which is the result experiment E6 reproduces.
type TakeoverSim struct {
	rows, cols int
	fit        []float64
	neigh      Neighborhood
	update     UpdatePolicy
	rng        *rng.Source
	fixedOrder []int
	neighbors  [][]int
}

// NewTakeoverSim builds a rows×cols grid where every cell has fitness 0
// except the centre cell, which has fitness 1.
func NewTakeoverSim(rows, cols int, neigh Neighborhood, update UpdatePolicy, seed uint64) *TakeoverSim {
	if rows < 2 || cols < 2 {
		panic("cellular: takeover grid must be at least 2x2")
	}
	s := &TakeoverSim{
		rows: rows, cols: cols,
		fit:    make([]float64, rows*cols),
		neigh:  neigh,
		update: update,
		rng:    rng.New(seed),
	}
	s.fit[(rows/2)*cols+cols/2] = 1
	// Reuse the engine's neighbourhood geometry.
	e := &Engine{rows: rows, cols: cols, cfg: Config{Neighborhood: neigh}}
	s.neighbors = make([][]int, rows*cols)
	for i := range s.neighbors {
		s.neighbors[i] = e.neighborhood(i)
	}
	return s
}

// BestFraction returns the fraction of cells currently holding the best
// fitness.
func (s *TakeoverSim) BestFraction() float64 {
	n := 0
	for _, f := range s.fit {
		if f == 1 {
			n++
		}
	}
	return float64(n) / float64(len(s.fit))
}

// update1 applies the takeover rule to cell i against the given read
// buffer: binary tournament over the neighbourhood (centre included), the
// winner replaces the cell if strictly better.
func (s *TakeoverSim) update1(read []float64, write []float64, i int) {
	pool := s.neighbors[i]
	// Two uniform draws over neighbourhood ∪ {centre}.
	draw := func() float64 {
		k := s.rng.Intn(len(pool) + 1)
		if k == len(pool) {
			return read[i]
		}
		return read[pool[k]]
	}
	a, b := draw(), draw()
	winner := a
	if b > winner {
		winner = b
	}
	if winner > read[i] {
		write[i] = winner
	} else {
		write[i] = read[i]
	}
}

// Sweep advances the grid by one sweep under the configured policy.
func (s *TakeoverSim) Sweep() {
	n := s.rows * s.cols
	switch s.update {
	case Synchronous:
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			s.update1(s.fit, next, i)
		}
		s.fit = next
	case LineSweep:
		for i := 0; i < n; i++ {
			s.update1(s.fit, s.fit, i)
		}
	case FixedRandomSweep:
		if s.fixedOrder == nil {
			s.fixedOrder = s.rng.Perm(n)
		}
		for _, i := range s.fixedOrder {
			s.update1(s.fit, s.fit, i)
		}
	case NewRandomSweep:
		for _, i := range s.rng.Perm(n) {
			s.update1(s.fit, s.fit, i)
		}
	case UniformChoice:
		for k := 0; k < n; k++ {
			i := s.rng.Intn(n)
			s.update1(s.fit, s.fit, i)
		}
	}
}

// TakeoverCurve runs the simulation until full takeover or maxSweeps and
// returns the best-fraction after each sweep (index 0 = initial state).
func TakeoverCurve(rows, cols int, neigh Neighborhood, update UpdatePolicy, seed uint64, maxSweeps int) []float64 {
	s := NewTakeoverSim(rows, cols, neigh, update, seed)
	curve := []float64{s.BestFraction()}
	for i := 0; i < maxSweeps && s.BestFraction() < 1; i++ {
		s.Sweep()
		curve = append(curve, s.BestFraction())
	}
	return curve
}

// TakeoverTime returns the number of sweeps to full takeover (or maxSweeps
// if it never completes) averaged over runs different seeds.
func TakeoverTime(rows, cols int, neigh Neighborhood, update UpdatePolicy, runs, maxSweeps int) float64 {
	total := 0.0
	for s := 0; s < runs; s++ {
		curve := TakeoverCurve(rows, cols, neigh, update, uint64(s)+1, maxSweeps)
		total += float64(len(curve) - 1)
	}
	return total / float64(runs)
}
