package fixture

// Seeded violation fixture for rngflow's closure-capture form (the
// retired sharedrng rule's cases): one unsynchronized stream drawn from
// by two goroutines at once. *math/rand.Rand counts as a stream (checked
// as pga/internal/rng so the import stays out of norawrand's way).

import (
	"math/rand"
	"sync"
)

func raceOnParentStream(n int) int {
	r := rand.New(rand.NewSource(1))
	done := make(chan struct{})
	go func() { // want rngflow
		defer close(done)
		_ = r.Intn(n)
	}()
	total := r.Intn(n) // the race: the parent draws concurrently
	<-done
	return total
}

func twoGoroutinesOneStream(n int) {
	r := rand.New(rand.NewSource(2))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = r.Intn(n)
	}()
	go func() { // want rngflow
		defer wg.Done()
		_ = r.Intn(n)
	}()
	wg.Wait()
}
