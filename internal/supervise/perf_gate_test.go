package supervise

// Allocation-budget perf gate for a supervised deme's per-generation
// work: its step, inline or on a heartbeat goroutine, and its
// checkpoint. All three allocate nothing once warm.

import (
	"testing"
	"time"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/mallocs"
)

// gateSupervisor returns a one-deme supervisor over newTestSupervisor's
// OneMax engine, with steps inline or under a heartbeat.
func gateSupervisor(t testing.TB, heartbeat time.Duration) (*Supervisor, ga.Engine) {
	s, engines := newTestSupervisor(t, Config{Heartbeat: heartbeat}, nil, 1)
	return s, engines[0]
}

// TestAllocBudget gates RunStep and Checkpoint at zero allocations. The
// inline step recovers panics without a closure that escapes; the
// heartbeat step reuses the deme's channel, timer and goroutine func; a
// checkpoint encodes into the bytes of the one before last.
// testing.AllocsPerRun reads the process-wide counter, so the heartbeat
// goroutine's allocations count; mallocs.Count's longer window catches a
// buffer that grows now and then.
func TestAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name      string
		heartbeat time.Duration
	}{{"inline", 0}, {"heartbeat", time.Minute}} {
		t.Run(tc.name, func(t *testing.T) {
			s, e := gateSupervisor(t, tc.heartbeat)
			gen := 0
			step := func() {
				gen++
				if out := s.RunStep(0, gen, e); out.Status != StepOK {
					t.Fatalf("step %d: %+v", gen, out)
				}
			}
			step()
			if avg := testing.AllocsPerRun(100, step); avg != 0 {
				t.Errorf("RunStep: %.1f allocs per step, want 0", avg)
			}
			if n := mallocs.Count(func() {
				for i := 0; i < 1000; i++ {
					step()
				}
			}); n != 0 {
				t.Errorf("RunStep: %d mallocs over 1 000 warm steps, want 0", n)
			}
		})
	}
	t.Run("checkpoint", func(t *testing.T) {
		s, e := gateSupervisor(t, 0)
		gen := 0
		checkpoint := func() {
			gen++
			e.Step()
			if err := s.Checkpoint(0, e.Population(), gen, e.Evaluations()); err != nil {
				t.Fatal(err)
			}
		}
		checkpoint()
		checkpoint() // both buffers exist from here on
		if n := mallocs.Count(func() {
			for i := 0; i < 200; i++ {
				checkpoint()
			}
		}); n != 0 {
			t.Errorf("Checkpoint: %d mallocs over 200 warm checkpoints, want 0", n)
		}
	})
}

// TestCheckpointReuseRestoresTheLatest: checkpoints that reuse their
// buffers still restore exactly the last population captured, and the
// generation and evaluations recorded with it.
func TestCheckpointReuseRestoresTheLatest(t *testing.T) {
	s, e := gateSupervisor(t, 0)
	var want *core.Population
	for g := 1; g <= 5; g++ {
		e.Step()
		if err := s.Checkpoint(0, e.Population(), g, e.Evaluations()); err != nil {
			t.Fatal(err)
		}
		want = e.Population().Clone()
	}
	wantEvals := e.Evaluations()
	e.Step() // lost work
	if s.ResumeGen(0) != 5 {
		t.Fatalf("ResumeGen = %d, want 5", s.ResumeGen(0))
	}
	s.mu.Lock()
	cp := s.demes[0].cp
	s.mu.Unlock()
	if cp.Evaluations != wantEvals {
		t.Fatalf("checkpoint evaluations %d, want %d", cp.Evaluations, wantEvals)
	}
	got, err := cp.RestorePopulation()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range want.Members {
		if g := got.Members[i]; g.Genome.String() != m.Genome.String() || g.Fitness != m.Fitness {
			t.Fatalf("member %d: restored %v, checkpointed %v", i, g, m)
		}
	}
}

// TestHeartbeatSlotReplacedAfterTimeout: a step that overruns abandons
// its heartbeat slot, so the hung goroutine's late report cannot reach
// the deme's later steps, which run on a fresh slot.
func TestHeartbeatSlotReplacedAfterTimeout(t *testing.T) {
	plan := NewFaultPlan().HangAt(0, 1, 50*time.Millisecond)
	s, engines := newTestSupervisor(t, Config{Heartbeat: 10 * time.Millisecond, Backoff: time.Microsecond}, plan, 1)
	if out := s.RunStep(0, 1, engines[0]); out.Status != StepTimedOut {
		t.Fatalf("hang not detected: %+v", out)
	}
	fresh := testFactory(16, 8)(0, s.restartSrc.Split())
	for g := 2; g <= 4; g++ {
		if out := s.RunStep(0, g, fresh); out.Status != StepOK {
			t.Fatalf("step %d after the timeout: %+v", g, out)
		}
		time.Sleep(30 * time.Millisecond) // the hung step reports meanwhile
	}
}

// BenchmarkGenerationAllocs reports ns/op, B/op and allocs/op for one
// supervised step, inline and under a heartbeat, and one checkpoint.
func BenchmarkGenerationAllocs(b *testing.B) {
	for _, tc := range []struct {
		name      string
		heartbeat time.Duration
	}{{"supervise/inline", 0}, {"supervise/heartbeat", time.Minute}} {
		b.Run(tc.name, func(b *testing.B) {
			s, e := gateSupervisor(b, tc.heartbeat)
			s.RunStep(0, 0, e) // warm, as the gate is
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunStep(0, i+1, e)
			}
		})
	}
	b.Run("supervise/checkpoint", func(b *testing.B) {
		s, e := gateSupervisor(b, 0)
		for i := 0; i < 2; i++ {
			_ = s.Checkpoint(0, e.Population(), i, e.Evaluations()) // warm, as the gate is
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Checkpoint(0, e.Population(), i, e.Evaluations())
		}
	})
}
