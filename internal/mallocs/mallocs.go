// Package mallocs counts the heap allocations a piece of code makes, and
// their bytes. The zero-allocation gates of the engine and transport
// tests and the persist decoder's allocation bound use it; no command
// links it.
package mallocs

import (
	"reflect"
	"runtime"
)

// Count runs f under GOMAXPROCS(1), as testing.AllocsPerRun does, and
// returns the heap allocations made by f's call tree, less the runtime's
// type-cache fills.
//
// The process-wide MemStats.Mallocs delta that AllocsPerRun reads also
// counts two kinds of allocation that are not f's steady state, and in a
// window of 4 096 births either reads 1 often enough to fail a zero
// gate: other goroutines' (the scavenger growing its timer heap, the
// unique package's cleanup after a collection), and the runtime's lazy
// type-cache fills, where on about one miss in 1 024 a type switch or
// assertion on an interface allocates a larger cache for its call site
// (in the engine gates, 28 % of first windows and 7 % of later ones). So
// Count records every allocation in a MemProfileRate=1 heap profile and
// counts those whose stack runs through f but not through the runtime's
// type-assertion or type-switch path. Not counted: allocations on
// goroutines f starts, those more than 32 frames (a profile record's
// depth) below f, and a pointer-free object under 16 bytes that the
// tiny allocator packs into a block it already holds, which the profiler
// does not see. A slice that grows past 8 bytes, or an allocation the
// loop repeats, is always seen.
func Count(f func()) uint64 {
	objects, _ := measure(f)
	return objects
}

// Bytes is Count in bytes: the heap bytes allocated by f's call tree,
// under the same rules. Unlike a MemStats.TotalAlloc delta it does not
// see what other goroutines allocate meanwhile.
func Bytes(f func()) uint64 {
	_, bytes := measure(f)
	return bytes
}

// measure runs f and returns the allocations and bytes Count and Bytes
// report.
func measure(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	name := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	objects0, bytes0 := allocsUnder(name)
	f()
	objects1, bytes1 := allocsUnder(name)
	return objects1 - objects0, bytes1 - bytes0
}

// allocsUnder returns how many allocations so far had fn on their stack
// and no type-cache fill, and their bytes. At least two collections run
// first: they publish every allocation so far, and they empty every
// sync.Pool, victim cache included, so each measured call starts from
// the same pool state (fmt, for one, refills its printer pool after a
// collection).
func allocsUnder(fn string) (objects, bytes uint64) {
	runtime.GC()
	var p []runtime.MemProfileRecord
	for n, ok := 0, false; !ok; {
		p = make([]runtime.MemProfileRecord, n+64)
		runtime.GC()
		n, ok = runtime.MemProfile(p, true)
		p = p[:min(n, len(p))]
	}
	for i := range p {
		under := false
		frames := runtime.CallersFrames(p[i].Stack())
		for more := true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			switch fr.Function {
			case fn:
				under = true
			case "runtime.typeAssert", "runtime.interfaceSwitch":
				under, more = false, false
			}
		}
		if under {
			objects += uint64(p[i].AllocObjects)
			bytes += uint64(p[i].AllocBytes)
		}
	}
	return objects, bytes
}
