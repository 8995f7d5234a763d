// Command pgaisland runs ONE island of a multi-process island-model GA.
// Each process listens on its own TCP address, dials its peers, and
// exchanges migrant batches over the partition-tolerant transport
// (internal/transport); N such processes form the distributed analogue
// of `pgarun -model islands`. Peer loss never stops evolution — the
// island degrades to solo search and rejoins peers as they come back.
//
// Usage: one process per island, same -peers list (comma-separated,
// island-id order) and same -seed everywhere, distinct -self:
//
//	pgaisland -self 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	pgaisland -self 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	pgaisland -self 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// Fixed port lists race against whatever else runs on the host. For
// collision-free startup (the integration test's mode), bind the
// kernel-chosen port first and exchange resolved addresses through the
// filesystem:
//
//	pgaisland -self 0 -listen 127.0.0.1:0 -addrfile d/addr.0 -peersfile d/peers
//
// Each island binds -listen (":0" picks a free port atomically), writes
// the resolved address to -addrfile, then waits for -peersfile — the
// launcher collects every addrfile and writes the full id-ordered,
// comma-separated list there. Only then is the endpoint constructed, on
// the already-bound listener, so no port is ever released and re-bound.
//
// Deterministic fault injection (-drop, -dup, -reorder, -partition,
// -crashat) wraps the outbound side of this island's endpoint with a
// transport.Faulty layer seeded by -faultseed, so a run's fault
// schedule is reproducible byte for byte.
//
// The final result is printed to stdout as a single JSON object;
// progress and transport diagnostics go to stderr. Ctrl-C (SIGINT)
// cancels the island's context: it stops within one generation, still
// closes its endpoint, prints its "done:" line and the JSON (stop_reason
// "cancelled") and exits 130; a second Ctrl-C kills the process.
// -cpuprofile FILE and -trace FILE write the Go runtime's CPU profile and
// execution trace of the run, complete on both exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/island"
	"pga/internal/prof"
	"pga/internal/spec"
	"pga/internal/transport"
)

// result is the JSON document printed to stdout — the cross-process
// contract consumed by the multi-process integration test.
type result struct {
	Self         int           `json:"self"`
	Best         float64       `json:"best"`
	Solved       bool          `json:"solved"`
	Generations  int           `json:"generations"`
	Evaluations  int64         `json:"evaluations"`
	Migrations   int64         `json:"migrations"`
	DeadLettered int64         `json:"dead_lettered"`
	Restarts     int64         `json:"restarts"`
	Net          core.NetStats `json:"net"`
	StopReason   string        `json:"stop_reason"`
	ElapsedMS    int64         `json:"elapsed_ms"`
}

func main() {
	self := flag.Int("self", 0, "this island's id (index into -peers)")
	peersFlag := flag.String("peers", "", "comma-separated island addresses in id order (required unless -peersfile)")
	listen := flag.String("listen", "", "listen address to bind eagerly (use 127.0.0.1:0 for a kernel-chosen port); default is this island's -peers entry")
	addrFile := flag.String("addrfile", "", "publish the resolved -listen address to this file after binding")
	peersFile := flag.String("peersfile", "", "wait for and read the id-ordered peer address list from this file instead of -peers")
	peersWait := flag.Duration("peerswait", 30*time.Second, "how long to wait for -peersfile to appear")
	problem := flag.String("problem", "onemax", "problem key (see pgarun -list)")
	size := flag.Int("size", 64, "problem size")
	pop := flag.Int("pop", 50, "population size")
	gens := flag.Int("gens", 300, "maximum generations")
	interval := flag.Int("interval", 5, "migration interval (generations)")
	migrants := flag.Int("migrants", 2, "migrants per exchange")
	topo := flag.String("topology", "ring", "ring | biring | star | complete | hypercube | isolated | random")
	seed := flag.Uint64("seed", 1, "shared run seed (same on every island)")
	pace := flag.Duration("pace", 0, "per-generation sleep (stretches the run for fault drills)")
	quiet := flag.Bool("quiet", false, "suppress per-generation progress")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	traceFile := flag.String("trace", "", "write a Go execution trace of the run to this file")

	drop := flag.Float64("drop", 0, "fault: per-send loss probability on outbound links")
	dup := flag.Float64("dup", 0, "fault: per-send duplication probability")
	reorder := flag.Float64("reorder", 0, "fault: per-send reorder probability")
	jitter := flag.Float64("jitter", 0, "fault: jitter spread (with -maxdelay, delays sends by logical ticks)")
	maxDelay := flag.Int("maxdelay", 3, "fault: maximum delay in sends")
	partition := flag.String("partition", "", "fault: partition spec from:until:peer[;peer...] (ticks, until 0 = forever)")
	crashAt := flag.String("crashat", "", "fault: crash spec peer:at:until (ticks)")
	faultSeed := flag.Uint64("faultseed", 0, "fault schedule seed (0 = derive from -seed and -self)")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix(fmt.Sprintf("pgaisland[%d]: ", *self))

	// Bind the listener before the peer list is even known: with
	// "-listen :0" the kernel picks a free port atomically, the resolved
	// address is published via -addrfile, and the port stays bound — the
	// launcher can hand it to peers with no close-and-rebind race.
	var ln net.Listener
	if *listen != "" {
		var err error
		ln, err = net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		if *addrFile != "" {
			if err := writeFileAtomic(*addrFile, ln.Addr().String()+"\n"); err != nil {
				log.Fatal(err)
			}
		}
	}

	var addrs []string
	switch {
	case *peersFile != "":
		var err error
		addrs, err = awaitPeersFile(*peersFile, *peersWait)
		if err != nil {
			log.Fatal(err)
		}
	case *peersFlag != "":
		addrs = strings.Split(*peersFlag, ",")
	default:
		log.Fatal("need -peers or -peersfile")
	}
	n := len(addrs)
	if n < 2 {
		log.Fatal("need at least two peer addresses")
	}
	if *self < 0 || *self >= n {
		log.Fatalf("-self %d out of range for %d peers", *self, n)
	}

	// The island is deme -self of the n-deme island spec every process
	// of the ring shares: problem, operators, topology and migration
	// policy resolve through internal/spec exactly as `pgarun -model
	// islands` resolves them, and a name it does not know is reported
	// with the known ones before anything is dialled.
	plan, err := spec.Resolve(spec.RunSpec{
		Model:   spec.ModelIslands,
		Problem: spec.ProblemSpec{Name: *problem, Size: *size},
		Engine:  spec.EngineSpec{Pop: *pop},
		Islands: &spec.IslandSpec{
			Demes:     n,
			Topology:  spec.TopologySpec{Kind: *topo},
			Migration: spec.MigrationSpec{Interval: *interval, Count: *migrants},
		},
		Seed: *seed,
	})
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	cfg := plan.IslandConfig()
	engineRNG, migRNG := island.WireStreams(*seed, n, *self)

	peers := make(map[int]string, n-1)
	for i, a := range addrs {
		if i != *self {
			peers[i] = strings.TrimSpace(a)
		}
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{
		Self:     *self,
		Listen:   strings.TrimSpace(addrs[*self]),
		Listener: ln,
		Peers:    peers,
		Seed:     *seed + uint64(*self),
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s, %d peers", tcp.Addr(), len(peers))

	var ep transport.Endpoint = tcp
	if fspec, faulty := faultSpec(*drop, *jitter, *dup, *reorder, *maxDelay, *partition, *crashAt); faulty {
		fs := *faultSeed
		if fs == 0 {
			fs = *seed*1000003 + uint64(*self)
		}
		log.Printf("fault injection on: drop=%g dup=%g reorder=%g partitions=%d crashes=%d seed=%d",
			*drop, *dup, *reorder, len(fspec.Partitions), len(fspec.Crashes), fs)
		ep = transport.NewFaulty(tcp, fspec, fs)
	}
	defer ep.Close()

	obs := engine.Funcs{
		Generation: func(s core.Status) {
			if *pace > 0 {
				time.Sleep(*pace)
			}
			if !*quiet && s.Generation%25 == 0 {
				log.Printf("gen %4d  best %.6g  evals %d", s.Generation, s.BestFitness, s.Evaluations)
			}
		},
	}

	// SIGINT cancels the run; once cancelled the default disposition is
	// back, so a second one kills.
	ctx, restore := signal.NotifyContext(context.Background(), os.Interrupt)
	context.AfterFunc(ctx, restore)

	// The profiles cover the run and nothing else; a cancelled run comes
	// back through here too, so they are complete on both exits.
	stopProfiles, err := prof.Start(*cpuProfile, *traceFile)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res := island.RunWire(island.WireConfig{
		Self:      *self,
		Topology:  cfg.Topology,
		Endpoint:  ep,
		Policy:    cfg.Policy,
		Engine:    cfg.NewEngine(*self, engineRNG),
		MigRNG:    migRNG,
		MaxGens:   *gens,
		Context:   ctx,
		Observers: []engine.Observer{obs},
	})
	if err := stopProfiles(); err != nil {
		log.Printf("profile: %v", err)
	}
	// Close before reading stats so in-flight queues drain or dead-letter.
	if err := ep.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	net := ep.Stats()

	out := result{
		Self:         *self,
		Best:         res.BestFitness,
		Solved:       res.Solved,
		Generations:  res.Generations,
		Evaluations:  res.Evaluations,
		Migrations:   res.Migrations,
		DeadLettered: net.Dropped,
		Restarts:     net.Reconnects,
		Net:          net,
		StopReason:   res.StopReason,
		ElapsedMS:    time.Since(start).Milliseconds(),
	}
	log.Printf("done: best=%g solved=%v gens=%d sent=%d delivered=%d received=%d dropped=%d reconnects=%d",
		out.Best, out.Solved, out.Generations, net.Sent, net.Delivered, net.Received, net.Dropped, net.Reconnects)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
	if ctx.Err() != nil {
		os.Exit(130)
	}
}

// faultSpec assembles a transport.FaultSpec from the fault flags and
// reports whether any fault injection was requested.
func faultSpec(drop, jitter, dup, reorder float64, maxDelay int, partition, crashAt string) (transport.FaultSpec, bool) {
	spec := transport.FaultSpec{
		Link:        transport.LinkFaults{LossProb: drop, Jitter: jitter},
		MaxDelay:    maxDelay,
		DupProb:     dup,
		ReorderProb: reorder,
	}
	if partition != "" {
		p, err := parsePartition(partition)
		if err != nil {
			log.Fatal(err)
		}
		spec.Partitions = append(spec.Partitions, p)
	}
	if crashAt != "" {
		c, err := parseCrash(crashAt)
		if err != nil {
			log.Fatal(err)
		}
		spec.Crashes = append(spec.Crashes, c)
	}
	faulty := drop > 0 || jitter > 0 || dup > 0 || reorder > 0 ||
		len(spec.Partitions) > 0 || len(spec.Crashes) > 0
	return spec, faulty
}

// parsePartition parses "from:until:peer[;peer...]".
func parsePartition(s string) (transport.Partition, error) {
	var p transport.Partition
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 {
		return p, fmt.Errorf("bad -partition %q (want from:until:peer[;peer...])", s)
	}
	from, err1 := strconv.ParseUint(parts[0], 10, 64)
	until, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return p, fmt.Errorf("bad -partition bounds in %q", s)
	}
	p.From, p.Until = from, until
	for _, ps := range strings.Split(parts[2], ";") {
		id, err := strconv.Atoi(ps)
		if err != nil {
			return p, fmt.Errorf("bad -partition peer %q", ps)
		}
		p.Peers = append(p.Peers, id)
	}
	return p, nil
}

// writeFileAtomic publishes content at path via a same-directory temp
// file and rename, so a polling reader never observes a partial write.
func writeFileAtomic(path, content string) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// awaitPeersFile polls until path exists, then parses it as one
// comma-separated (or newline-separated) id-ordered address list.
func awaitPeersFile(path string, wait time.Duration) ([]string, error) {
	deadline := time.Now().Add(wait)
	for {
		data, err := os.ReadFile(path)
		if err == nil {
			var addrs []string
			for _, f := range strings.FieldsFunc(string(data), func(r rune) bool {
				return r == ',' || r == '\n' || r == '\r'
			}) {
				if f = strings.TrimSpace(f); f != "" {
					addrs = append(addrs, f)
				}
			}
			if len(addrs) > 0 {
				return addrs, nil
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("peers file %s did not appear within %v", path, wait)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// parseCrash parses "peer:at:until".
func parseCrash(s string) (transport.Crash, error) {
	var c transport.Crash
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return c, fmt.Errorf("bad -crashat %q (want peer:at:until)", s)
	}
	peer, err1 := strconv.Atoi(parts[0])
	at, err2 := strconv.ParseUint(parts[1], 10, 64)
	until, err3 := strconv.ParseUint(parts[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return c, fmt.Errorf("bad -crashat fields in %q", s)
	}
	c.Peer, c.At, c.Until = peer, at, until
	return c, nil
}
