package island

import (
	"net"
	"runtime"
	"sync"
	"testing"

	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/topology"
	"pga/internal/transport"
)

// ringShape is a two-island wire run: an NK landscape of bits genes,
// demes of pop, count migrants every every generations.
type ringShape struct{ bits, pop, count, every int }

// wireRing2 is the shape of cmd/pgaperf's wire-ring2 workload.
var wireRing2 = ringShape{bits: 256, pop: 50, count: 4, every: 2}

// ringCost is what a run cost the whole process, runtime included.
type ringCost struct {
	mallocs, bytes uint64
	gcs            uint32
}

// tcpRing runs two RunWire islands of shape sh in this process, joined
// by TCP endpoints over loopback sockets, for gens generations each, and
// returns the process-wide allocation count, bytes and GC cycles from
// before the endpoints are built until both are closed.
func tcpRing(t testing.TB, sh ringShape, gens int, seed uint64) ringCost {
	t.Helper()
	ps, err := problems.Lookup("nk")
	if err != nil {
		t.Fatal(err)
	}
	prob := ps.Make(sh.bits, seed)
	var lns [2]net.Listener
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var eps [2]*transport.TCP
	for i := range eps {
		if eps[i], err = transport.NewTCP(transport.TCPConfig{
			Self: i, Listener: lns[i], Seed: seed + uint64(i),
			Peers: map[int]string{1 - i: lns[1-i].Addr().String()},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	results := make([]*Result, len(eps))
	for i := range eps {
		er, mr := WireStreams(seed, len(eps), i)
		eng := ga.NewGenerational(ga.Config{
			Problem: prob, PopSize: sh.pop,
			Crossover: operators.Uniform{}, Mutator: operators.BitFlip{}, RNG: er,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = RunWire(WireConfig{
				Self: i, Topology: topology.Ring(len(eps)), Endpoint: eps[i],
				Policy: migration.Policy{Interval: sh.every, Count: sh.count},
				Engine: eng, MigRNG: mr, MaxGens: gens,
			})
		}()
	}
	wg.Wait()
	// Both at once: each close ends its peer's drain wait early.
	for _, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Close()
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	for i, res := range results {
		if res.Generations != gens || res.Net.Sent == 0 {
			t.Fatalf("island %d: %d of %d generations, %d batches offered", i, res.Generations, gens, res.Net.Sent)
		}
	}
	return ringCost{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, m1.NumGC - m0.NumGC}
}

// TestTCPRingAllocatesPerRunNotPerEpoch: a wire island's migration epoch
// allocates nothing once its endpoint is warm, so a two-island TCP ring
// that runs four times as long allocates no more than a constant more.
// The constant is what the endpoints allocate on demand, which varies
// from run to run with how far one island runs ahead of the other: a
// decode batch (1 + 3·count allocations) for each arrival queued in an
// inbox of 64 or lent, a frame for each send queued behind a slow write
// (8) or in hand, and some of the runtime's own. Before migration lent
// and borrowed its batches a run allocated ≈ 28 objects per generation,
// 168 000 more at 8 000 generations than at 2 000.
func TestTCPRingAllocatesPerRunNotPerEpoch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the selectors' pooled scratch on purpose under -race")
	}
	sh := ringShape{bits: 64, pop: 20, count: 4, every: 2}
	short := tcpRing(t, sh, 2000, 1)
	long := tcpRing(t, sh, 8000, 1)
	const onDemand = 2 * ((64+2)*(1+3*4) + (8 + 2))
	const slack = onDemand + 256
	if long.mallocs > short.mallocs+slack {
		t.Errorf("8 000 generations: %d mallocs; 2 000: %d; want at most %d more", long.mallocs, short.mallocs, slack)
	}
	t.Logf("mallocs %d → %d, bytes %d → %d, GC cycles %d → %d", short.mallocs, long.mallocs, short.bytes, long.bytes, short.gcs, long.gcs)
}

// BenchmarkTCPRing reports, per wire-ring2-shaped run of 8 000
// generations, what the process allocated and how often it collected.
func BenchmarkTCPRing(b *testing.B) {
	var sum ringCost
	for i := 0; i < b.N; i++ {
		c := tcpRing(b, wireRing2, 8000, uint64(i+1))
		sum.mallocs += c.mallocs
		sum.bytes += c.bytes
		sum.gcs += c.gcs
	}
	n := float64(b.N)
	b.ReportMetric(float64(sum.mallocs)/n, "mallocs/run")
	b.ReportMetric(float64(sum.bytes)/n, "B/run")
	b.ReportMetric(float64(sum.gcs)/n, "gcs/run")
}
