package fixture

// Corrected fixture for rngflow's closure-capture form: each goroutine
// owns its stream — the split-and-move-in pattern and the
// pass-as-argument pattern.

import "math/rand"

func childStreamPerGoroutine(n int) int {
	parent := rand.New(rand.NewSource(1))
	done := make(chan struct{})
	child := rand.New(rand.NewSource(parent.Int63()))
	go func() {
		defer close(done)
		_ = child.Intn(n) // moved in: never referenced outside again
	}()
	total := parent.Intn(n) // parent stream stays with the parent
	<-done
	return total
}

func streamAsArgument(n int) {
	parent := rand.New(rand.NewSource(2))
	done := make(chan struct{})
	go func(r *rand.Rand) { // argument evaluated at spawn, in the parent
		defer close(done)
		_ = r.Intn(n)
	}(rand.New(rand.NewSource(parent.Int63())))
	_ = parent.Intn(n)
	<-done
}
