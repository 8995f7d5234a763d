package fixture

// Seeded violation fixtures for rngflow: one stream reaching two
// goroutines through indirection no per-body scan can see — named-function
// spawns, helper chains, and loop spawns. Uses *math/rand.Rand, which
// the rules treat like *rng.Source (checked as pga/internal/rng so the
// deliberate math/rand import stays out of norawrand's way).

import (
	"math/rand"
	"sync"
)

// drawer draws from its stream on the calling goroutine.
func drawer(r *rand.Rand, n int) int { return r.Intn(n) }

// worker draws from its stream on whatever goroutine runs it.
func worker(r *rand.Rand, n int, wg *sync.WaitGroup) {
	defer wg.Done()
	_ = r.Intn(n)
}

// spawnDrawer hands its stream to exactly one goroutine that draws —
// legitimate on its own, the building block for the violations below.
func spawnDrawer(r *rand.Rand, n int, wg *sync.WaitGroup) {
	go worker(r, n, wg)
}

// mixedDraw draws synchronously (through a helper) and then hands the
// same stream to a spawned worker: draws interleave with the scheduler.
func mixedDraw(n int) int {
	r := rand.New(rand.NewSource(1))
	var wg sync.WaitGroup
	wg.Add(1)
	seed := drawer(r, n)
	go worker(r, n, &wg) // want rngflow
	wg.Wait()
	return seed
}

// twoSpawns hands one stream to two goroutines: no sync draw anywhere,
// still a race between the workers.
func twoSpawns(n int) {
	r := rand.New(rand.NewSource(2))
	var wg sync.WaitGroup
	wg.Add(2)
	go worker(r, n, &wg)
	go worker(r, n, &wg) // want rngflow
	wg.Wait()
}

// loopSpawn spawns from a single static site inside a loop while the
// stream is declared outside it: one site, n goroutines, one stream.
func loopSpawn(n int) {
	r := rand.New(rand.NewSource(3))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go worker(r, n, &wg) // want rngflow
	}
	wg.Wait()
}

// launcher reaches the spawned draw through two layers of helpers; the
// creating goroutine also draws. No go statement is visible here at all.
func launcher(n int) int {
	r := rand.New(rand.NewSource(4))
	var wg sync.WaitGroup
	wg.Add(1)
	dispatch(r, n, &wg) // want rngflow
	v := drawer(r, n)
	wg.Wait()
	return v
}

// dispatch forwards to spawnDrawer: the spawn-draw fact crosses two
// call edges before surfacing in launcher.
func dispatch(r *rand.Rand, n int, wg *sync.WaitGroup) {
	spawnDrawer(r, n, wg)
}
