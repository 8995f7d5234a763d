package supervise

import (
	"fmt"
	"sync"
	"time"
)

// FaultKind enumerates the injectable failure modes of the deterministic
// fault harness.
type FaultKind int

const (
	// FaultPanic makes the deme's step panic (a crashing fitness
	// function or operator).
	FaultPanic FaultKind = iota
	// FaultHang stalls the deme's step for HangFor (a wedged evaluation,
	// a stuck NFS mount, a GC'd-to-death node) so the heartbeat deadline
	// fires.
	FaultHang
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	if k == FaultHang {
		return "hang"
	}
	return "panic"
}

// Fault is one scripted failure: deme Deme misbehaves on its first Times
// step attempts at or after generation Gen. "At or after" plus the Times
// budget makes plans robust to checkpoint-rollback replays: a deme
// restarted from an earlier generation re-arms the fault only while the
// budget lasts, so "fail K times then heal" is expressible directly.
type Fault struct {
	// Deme is the target deme index.
	Deme int
	// Gen is the 1-based generation from which the fault is armed.
	Gen int
	// Kind selects panic or hang.
	Kind FaultKind
	// HangFor is the stall duration for FaultHang.
	HangFor time.Duration
	// Times is how many step attempts trigger before the fault heals;
	// 0 means once.
	Times int
}

// FaultPlan is a deterministic fault-injection script consumed by a
// Supervisor: the same plan against the same seeded run reproduces the
// same failure sequence, which is what makes robustness testable under
// -race (the Harada/Alba/Luque requirement that distributed-PGA claims
// hold under realistic, *repeatable* failures).
//
// A FaultPlan is safe for concurrent use and must not be shared between
// simultaneous runs (it consumes its trigger budgets).
type FaultPlan struct {
	mu        sync.Mutex
	faults    []Fault
	remaining []int
}

// NewFaultPlan returns an empty plan; chain PanicAt/HangAt/Add to script
// failures.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// Add appends a fault and returns the plan for chaining.
func (p *FaultPlan) Add(f Fault) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	times := f.Times
	if times <= 0 {
		times = 1
	}
	p.faults = append(p.faults, f)
	p.remaining = append(p.remaining, times)
	return p
}

// PanicAt scripts a single panic of deme at generation gen.
func (p *FaultPlan) PanicAt(deme, gen int) *FaultPlan {
	return p.Add(Fault{Deme: deme, Gen: gen, Kind: FaultPanic})
}

// PanicTimes scripts k consecutive failing step attempts of deme starting
// at generation gen, after which the deme heals (the Gagné-style
// transient fault).
func (p *FaultPlan) PanicTimes(deme, gen, k int) *FaultPlan {
	return p.Add(Fault{Deme: deme, Gen: gen, Kind: FaultPanic, Times: k})
}

// HangAt scripts a single stall of deme at generation gen for d.
func (p *FaultPlan) HangAt(deme, gen int, d time.Duration) *FaultPlan {
	return p.Add(Fault{Deme: deme, Gen: gen, Kind: FaultHang, HangFor: d})
}

// take consumes and returns the first armed fault matching (deme, gen),
// or nil. A fault is armed while gen >= Gen and its Times budget is
// unspent.
func (p *FaultPlan) take(deme, gen int) *Fault {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, f := range p.faults {
		if f.Deme == deme && gen >= f.Gen && p.remaining[i] > 0 {
			p.remaining[i]--
			out := f
			return &out
		}
	}
	return nil
}

// apply injects the scripted fault for (deme, gen), if any: a FaultPanic
// panics, a FaultHang sleeps. It is called inside the supervised step so
// panics are recovered and hangs trip the heartbeat deadline.
func (p *FaultPlan) apply(deme, gen int) {
	f := p.take(deme, gen)
	if f == nil {
		return
	}
	switch f.Kind {
	case FaultHang:
		time.Sleep(f.HangFor)
	default:
		panic(fmt.Sprintf("supervise: injected panic (deme %d, gen %d)", deme, gen))
	}
}
