package main

// Multi-process integration test: four pgaisland processes over
// loopback TCP form a ring, one island runs deterministic fault
// injection, and one island is SIGKILLed mid-run and restarted. The
// surviving islands must keep evolving through the outage (graceful
// degradation), reconnect to the restarted process (rejoin), and the
// final accounting must show the losses: non-zero dead-lettered
// batches and at least one reconnect.
//
// Island stderr logs are written to $PGA_ISLAND_LOG_DIR when set (the
// CI job uploads them as artifacts on failure), else to t.TempDir().

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// islandResult mirrors the result JSON contract printed by main.
type islandResult struct {
	Self         int     `json:"self"`
	Best         float64 `json:"best"`
	Solved       bool    `json:"solved"`
	Generations  int     `json:"generations"`
	Migrations   int64   `json:"migrations"`
	DeadLettered int64   `json:"dead_lettered"`
	Restarts     int64   `json:"restarts"`
	Net          struct {
		Sent, Delivered, Received, Dropped, Reconnects, PeerDowns int64
	} `json:"net"`
	StopReason string `json:"stop_reason"`
}

// buildIsland compiles the pgaisland binary into dir.
func buildIsland(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "pgaisland")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build pgaisland: %v\n%s", err, out)
	}
	return bin
}

// collectAddrs polls the address files each island publishes after
// binding ":0" and returns the resolved id-ordered peer list. Unlike
// the old reserve-release-rebind helper there is no window where a
// port is free for another process to steal: every island holds its
// listener from bind to exit.
func collectAddrs(t *testing.T, exch string, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < n; i++ {
		path := filepath.Join(exch, fmt.Sprintf("addr.%d", i))
		for {
			data, err := os.ReadFile(path)
			if err == nil && len(bytes.TrimSpace(data)) > 0 {
				addrs[i] = string(bytes.TrimSpace(data))
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("island %d never published its address to %s", i, path)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return addrs
}

// publishPeers writes the resolved peer list where the islands are
// waiting for it, atomically (temp file + rename) so no island can
// read a partial list.
func publishPeers(t *testing.T, exch string, addrs []string) {
	t.Helper()
	tmp := filepath.Join(exch, ".peers.tmp")
	if err := os.WriteFile(tmp, []byte(strings.Join(addrs, ",")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(exch, "peers")); err != nil {
		t.Fatal(err)
	}
}

// logDir returns the island-log directory (CI artifact dir when set).
func logDir(t *testing.T) string {
	if d := os.Getenv("PGA_ISLAND_LOG_DIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err == nil {
			return d
		}
	}
	return t.TempDir()
}

// proc is one running pgaisland process.
type proc struct {
	cmd    *exec.Cmd
	stdout *bytes.Buffer
	log    *os.File
}

// startIsland launches island self. Peer wiring (-peers or the
// -listen/-addrfile/-peersfile handshake) comes in through extra.
func startIsland(t *testing.T, bin string, dir string, self int, extra ...string) *proc {
	t.Helper()
	logf, err := os.OpenFile(
		filepath.Join(dir, fmt.Sprintf("island-%d.log", self)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-self", fmt.Sprint(self),
		// 1024-bit OneMax with a small population cannot solve within
		// the generation budget, so every island runs its full span —
		// the kill, outage and rejoin all land inside live evolution.
		"-problem", "onemax", "-size", "1024", "-pop", "40",
		"-gens", "250", "-interval", "2", "-migrants", "2",
		"-seed", "7", "-pace", "5ms", "-quiet",
	}, extra...)
	is := &proc{cmd: exec.Command(bin, args...), stdout: &bytes.Buffer{}, log: logf}
	is.cmd.Stdout = is.stdout
	is.cmd.Stderr = logf
	if err := is.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return is
}

// wait joins the process and decodes its result JSON.
func (is *proc) wait(t *testing.T) islandResult {
	t.Helper()
	err := is.cmd.Wait()
	is.log.Close()
	if err != nil {
		t.Fatalf("island exited with %v; stdout: %s", err, is.stdout)
	}
	var res islandResult
	if jerr := json.NewDecoder(bytes.NewReader(is.stdout.Bytes())).Decode(&res); jerr != nil {
		t.Fatalf("island produced no result JSON (%v); stdout: %q", jerr, is.stdout)
	}
	return res
}

func TestMultiProcessIslandsSurviveKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildIsland(t, dir)
	logs := logDir(t)

	// Port allocation without the reserve-and-release race: every
	// island binds 127.0.0.1:0 itself, publishes the kernel-resolved
	// address to its addrfile, and waits for the collected peers file.
	exch := t.TempDir()
	handshake := func(self int) []string {
		return []string{
			"-listen", "127.0.0.1:0",
			"-addrfile", filepath.Join(exch, fmt.Sprintf("addr.%d", self)),
			"-peersfile", filepath.Join(exch, "peers"),
		}
	}

	// Island 0 injects deterministic faults on its outbound link: a 40%
	// drop rate plus a scripted partition window, so dead-lettering is
	// guaranteed even if the wire itself behaves.
	islands := make([]*proc, 4)
	islands[0] = startIsland(t, bin, logs, 0, append(handshake(0),
		"-drop", "0.4", "-partition", "10:30:1", "-faultseed", "99")...)
	for i := 1; i < 4; i++ {
		islands[i] = startIsland(t, bin, logs, i, handshake(i)...)
	}
	addrs := collectAddrs(t, exch, 4)
	publishPeers(t, exch, addrs)
	peers := strings.Join(addrs, ",")

	// Let the ring form and exchange for a while, then SIGKILL island 3
	// mid-run — no cleanup, no goodbye, exactly like a crashed node.
	time.Sleep(350 * time.Millisecond)
	victim := islands[3]
	if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = victim.cmd.Wait()
	victim.log.Close()

	// The survivors run degraded. Then the island rejoins on the same
	// resolved address (a fresh process, as a cluster manager would
	// restart it) — the port was ours until the kill, so rebinding the
	// exact address races nobody.
	time.Sleep(400 * time.Millisecond)
	islands[3] = startIsland(t, bin, logs, 3, "-peers", peers)

	results := make([]islandResult, 4)
	for i, is := range islands {
		results[i] = is.wait(t)
	}

	var dropped, reconnects, migrations int64
	for i, r := range results {
		t.Logf("island %d: best=%g gens=%d migrations=%d dead_lettered=%d net=%+v stop=%q",
			i, r.Best, r.Generations, r.Migrations, r.DeadLettered, r.Net, r.StopReason)
		if r.Self != i {
			t.Errorf("island %d reported self=%d", i, r.Self)
		}
		if r.Best <= 0 {
			t.Errorf("island %d produced no valid best (%g)", i, r.Best)
		}
		if r.Generations <= 0 {
			t.Errorf("island %d ran no generations", i)
		}
		dropped += r.DeadLettered
		reconnects += r.Net.Reconnects
		migrations += r.Migrations
	}
	if migrations == 0 {
		t.Error("no migration crossed the wire in the whole run")
	}
	// The injected faults and the killed island must both show up in
	// the dead-letter accounting.
	if results[0].DeadLettered == 0 {
		t.Error("island 0's injected faults dead-lettered nothing")
	}
	if dropped == 0 {
		t.Error("kill+faults run recorded zero dead-lettered batches")
	}
	// Island 2 dials island 3 (ring): the restart must have produced a
	// reconnect somewhere in the ring.
	if reconnects == 0 {
		t.Error("restarted island produced no reconnect")
	}
}

// runRing runs an n-island ring to completion over loopback TCP and
// returns each island's raw result document.
func runRing(t *testing.T, bin string, n int, args ...string) []map[string]any {
	t.Helper()
	exch := t.TempDir()
	procs := make([]*exec.Cmd, n)
	outs := make([]*bytes.Buffer, n)
	for i := range procs {
		outs[i] = &bytes.Buffer{}
		procs[i] = exec.Command(bin, append([]string{
			"-self", fmt.Sprint(i), "-listen", "127.0.0.1:0", "-quiet",
			"-addrfile", filepath.Join(exch, fmt.Sprintf("addr.%d", i)),
			"-peersfile", filepath.Join(exch, "peers"),
		}, args...)...)
		procs[i].Stdout = outs[i]
		if err := procs[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	publishPeers(t, exch, collectAddrs(t, exch, n))
	docs := make([]map[string]any, n)
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			t.Fatalf("island %d: %v", i, err)
		}
		if err := json.Unmarshal(outs[i].Bytes(), &docs[i]); err != nil {
			t.Fatalf("island %d result: %v (%q)", i, err, outs[i])
		}
	}
	return docs
}

// TestTwoProcessRingResult pins what a two-process ring prints. With
// migration off every field but the clock is a function of the seed; the
// values were recorded before pgaisland's engine, operators and topology
// came from internal/spec, so they hold the spec-built island to the
// hand-wired one. With migration on, what arrives when is up to the
// scheduler, so only the deterministic fields and the key set are held.
func TestTwoProcessRingResult(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test skipped in -short mode")
	}
	bin := buildIsland(t, t.TempDir())
	keys := []string{"self", "best", "solved", "generations", "evaluations", "migrations",
		"dead_lettered", "refused", "restarts", "net", "stop_reason", "elapsed_ms"}

	solo := runRing(t, bin, 2, "-problem", "nk", "-size", "32", "-pop", "20", "-gens", "40", "-interval", "0", "-seed", "5")
	for i, best := range []float64{0.7115270273656605, 0.7115551126597729} {
		doc := solo[i]
		if doc["best"] != best || doc["evaluations"] != 780.0 || doc["generations"] != 40.0 ||
			doc["stop_reason"] != "max generations" || doc["solved"] != false {
			t.Errorf("island %d: %v, want best %v after 40 generations and 780 evaluations", i, doc, best)
		}
	}

	ring := runRing(t, bin, 2, "-problem", "onemax", "-size", "256", "-pop", "20", "-gens", "60",
		"-interval", "3", "-migrants", "2", "-seed", "9", "-pace", "1ms", "-topology", "biring")
	for i, doc := range ring {
		for _, k := range keys {
			if _, ok := doc[k]; !ok {
				t.Errorf("island %d: result lacks %q", i, k)
			}
		}
		if len(doc) != len(keys) {
			t.Errorf("island %d: result has %d fields, want %d: %v", i, len(doc), len(keys), doc)
		}
		net, _ := doc["net"].(map[string]any)
		if doc["generations"] != 60.0 || doc["evaluations"] != 1160.0 || net["Sent"] != 20.0 {
			t.Errorf("island %d: %v, want 60 generations, 1160 evaluations, 20 batches sent", i, doc)
		}
	}
}

// TestUnknownTopologyIsRefused: -topology resolves through the spec
// layer's topology table, so a misspelt kind stops the process with the
// known kinds instead of silently running a ring.
func TestUnknownTopologyIsRefused(t *testing.T) {
	bin := buildIsland(t, t.TempDir())
	cmd := exec.Command(bin, "-self", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-topology", "hypercub")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr: %s", err, &stderr)
	}
	for _, want := range []string{"islands.topology.kind", `"hypercub"`, "ring | biring | star | complete | hypercube"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q: %s", want, &stderr)
		}
	}
}

// TestInterruptedIslandReportsAndExits: SIGINT cancels the island's run
// instead of killing the process — it still closes its endpoint, prints
// its "done:" line and its result JSON, stopped "cancelled" short of the
// budget, and exits 130. Its peer loses it and runs on.
func TestInterruptedIslandReportsAndExits(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test skipped in -short mode")
	}
	bin := buildIsland(t, t.TempDir())
	logs := logDir(t)
	exch := t.TempDir()
	islands := make([]*proc, 2)
	// The interrupted island profiles, its peer traces: both files must be
	// complete, one written on the SIGINT path and one on the normal one.
	profiles := []string{filepath.Join(exch, "cpu.pprof"), filepath.Join(exch, "exec.trace")}
	for i := range islands {
		// Logged as island-10/11.log, apart from the other test's files in
		// a shared log directory; the later -self is the one that counts.
		islands[i] = startIsland(t, bin, logs, 10+i, "-self", fmt.Sprint(i),
			"-listen", "127.0.0.1:0", "-addrfile", filepath.Join(exch, fmt.Sprintf("addr.%d", i)),
			"-peersfile", filepath.Join(exch, "peers"),
			[]string{"-cpuprofile", "-trace"}[i], profiles[i])
	}
	publishPeers(t, exch, collectAddrs(t, exch, 2))

	time.Sleep(300 * time.Millisecond) // 250 paced generations take over a second
	if err := islands[0].cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := islands[0].cmd.Wait()
	islands[0].log.Close()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted island: exit = %v, want status 130", err)
	}
	var cut islandResult
	if jerr := json.Unmarshal(islands[0].stdout.Bytes(), &cut); jerr != nil {
		t.Fatalf("interrupted island printed no result JSON (%v): %q", jerr, islands[0].stdout)
	}
	if cut.StopReason != "cancelled" || cut.Generations <= 0 || cut.Generations >= 250 {
		t.Errorf("interrupted island: %+v, want cancelled mid-run", cut)
	}
	logged, _ := os.ReadFile(filepath.Join(logs, "island-10.log"))
	if !bytes.Contains(logged, []byte("done: best=")) {
		t.Errorf("interrupted island logged no done: line:\n%s", logged)
	}
	if peer := islands[1].wait(t); peer.Generations != 250 || peer.StopReason != "max generations" {
		t.Errorf("the surviving peer: %+v, want its full 250 generations", peer)
	}
	for _, file := range profiles {
		if fi, err := os.Stat(file); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no complete profile: %v", filepath.Base(file), err)
		}
	}
}
