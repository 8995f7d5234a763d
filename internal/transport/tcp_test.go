package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// newTCPPair builds two connected TCP endpoints on ephemeral loopback
// ports and registers cleanup.
func newTCPPair(t *testing.T, cfg func(*TCPConfig)) (*TCP, *TCP) {
	t.Helper()
	// Bind a first to fix its address, then b pointing at a, then
	// rebuild a on its own (now known) address pointing at b.
	a := newTCPAt(t, 0, nil, cfg)
	addrA := a.Addr().String()
	b := newTCPAt(t, 1, map[int]string{0: addrA}, cfg)
	a.Close()
	var a2 *TCP
	waitUntil(t, 5*time.Second, func() bool {
		c := TCPConfig{Self: 0, Listen: addrA, Peers: map[int]string{1: b.Addr().String()}, Seed: 1}
		if cfg != nil {
			cfg(&c)
		}
		ep, err := NewTCP(c)
		if err != nil {
			return false
		}
		a2 = ep
		return true
	}, "rebinding endpoint 0")
	t.Cleanup(func() { a2.Close() })
	return a2, b
}

// newTCPAt builds one endpoint on an ephemeral port.
func newTCPAt(t *testing.T, self int, peers map[int]string, cfg func(*TCPConfig)) *TCP {
	t.Helper()
	c := TCPConfig{
		Self:   self,
		Listen: "127.0.0.1:0",
		Peers:  peers,
		Seed:   uint64(self) + 1,
	}
	if cfg != nil {
		cfg(&c)
	}
	ep, err := NewTCP(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, within time.Duration, cond func() bool, msg string) {
	t.Helper()
	if !eventually(within, cond) {
		t.Fatal("timed out waiting for " + msg)
	}
}

// eventually polls cond until it holds (true) or within elapses (false).
func eventually(within time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// waitForGoroutines polls until the goroutine count returns to the
// baseline (sender goroutines may be finishing a backoff sleep).
func waitForGoroutines(t *testing.T, baseline int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPDeliversBatches(t *testing.T) {
	a, b := newTCPPair(t, nil)
	if !a.Send(1, testBatch(2, 8)) {
		t.Fatal("send refused")
	}
	waitUntil(t, 3*time.Second, func() bool {
		_, ok := b.Recv()
		return ok
	}, "batch delivery over TCP")
	if s := b.Stats(); s.Received != 1 || s.Delivered != 1 {
		t.Fatalf("receiver stats = %+v", s)
	}
}

// TestTCPCloseCountsArrivedFrames: frames a peer wrote before Close
// are in the socket buffer, not yet decoded; Close must read and count
// them instead of discarding them with the connection, or a finished
// ring's batch accounting has a hole the size of the reader's backlog.
func TestTCPCloseCountsArrivedFrames(t *testing.T) {
	// The reader must not lose the race against the deadline because the
	// test host is busy; closing the writing end below ends the drain as
	// soon as everything is read.
	defer func(d time.Duration) { drainGrace = d }(drainGrace)
	drainGrace = 10 * time.Second

	b := newTCPAt(t, 1, nil, nil)
	conn, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := encodeBatch(0, 1, testBatch(4, 256))
	if err != nil {
		t.Fatal(err)
	}
	// One frame first, so the connection is accepted and has its reader.
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, func() bool { return b.Stats().Delivered == 1 }, "first frame")

	const frames = 200
	if _, err := conn.Write(bytes.Repeat(frame, frames)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if s := b.Stats(); s.Delivered+s.Dropped != 1+frames {
		t.Fatalf("%d frames written before Close, %d delivered + %d dropped", 1+frames, s.Delivered, s.Dropped)
	}
}

// TestTCPNoGoroutineLeak: a full exchange, then Close, must return the
// process to its goroutine baseline — accept loop, per-peer senders
// and per-connection readers all join.
func TestTCPNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	a, b := newTCPPair(t, nil)
	a.Send(1, testBatch(1, 8))
	b.Send(0, testBatch(1, 8))
	waitUntil(t, 3*time.Second, func() bool {
		sa, sb := a.Stats(), b.Stats()
		return sa.Delivered == 1 && sb.Delivered == 1
	}, "cross delivery")
	a.Close()
	b.Close()
	waitForGoroutines(t, baseline, 3*time.Second)
}

// TestTCPConnectStormShutdown: an endpoint whose peers are all
// unreachable piles every sender into dial-retry backoff; Close must
// interrupt all of them promptly and leak nothing.
func TestTCPConnectStormShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Port 1 is refused at once and cannot be taken by a concurrently
	// running test binary (an ephemeral port, reserved and closed, can).
	peers := make(map[int]string, 16)
	for i := 1; i <= 16; i++ {
		peers[i] = "127.0.0.1:1"
	}
	ep := newTCPAt(t, 0, peers, func(c *TCPConfig) {
		c.DialTimeout = 50 * time.Millisecond
		c.BackoffMax = 50 * time.Millisecond
		c.DownAfter = 2
	})
	for i := 1; i <= 16; i++ {
		ep.Send(i, testBatch(1, 8))
	}
	// Let the dial storm develop, then slam the door.
	waitUntil(t, 5*time.Second, func() bool { return ep.Stats().PeerDowns >= 4 }, "peers reported down")
	ep.Close()
	waitForGoroutines(t, baseline, 3*time.Second)
	s := ep.Stats()
	// Every batch died with the endpoint and is accounted for.
	if s.Dropped != s.Sent {
		t.Fatalf("stats = %+v: %d batches unaccounted", s, s.Sent-s.Dropped)
	}
}

// TestTCPFullQueuesDropNeverBlock fills both bounded queues of a TCP
// endpoint with nothing draining them and requires the exact drop
// accounting: a full send queue evicts its oldest batch and Send still
// returns at once, and a full inbox drops arrivals while the reader
// keeps reading its connection.
func TestTCPFullQueuesDropNeverBlock(t *testing.T) {
	t.Run("send-queue", func(t *testing.T) {
		const queueLen = 4
		// Port 1 refuses at once, so the first batch marks the peer
		// down; the sender goroutine then holds that batch through an
		// hour's backoff and never reads the queue again.
		ep := newTCPAt(t, 0, map[int]string{1: "127.0.0.1:1"}, func(c *TCPConfig) {
			c.QueueLen = queueLen
			c.DownAfter = 1
			c.BackoffMin = time.Hour
			c.BackoffMax = time.Hour
		})
		ep.Send(1, testBatch(1, 8))
		waitUntil(t, 5*time.Second, func() bool { return ep.Stats().PeerDowns == 1 }, "peer reported down")
		refused := make(chan int, 1)
		go func() {
			n := 0
			for i := 0; i < queueLen+3; i++ {
				if !ep.Send(1, testBatch(1, 8)) {
					n++
				}
			}
			refused <- n
		}()
		select {
		case n := <-refused:
			if n != 0 {
				t.Fatalf("%d sends into a full queue refused; drop-oldest must accept each", n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Send blocked on a full queue (stats %+v)", ep.Stats())
		}
		if s := ep.Stats(); s.Sent != queueLen+4 || s.Dropped != 3 {
			t.Fatalf("stats = %+v, want Sent %d, Dropped 3", s, queueLen+4)
		}
	})
	t.Run("inbox", func(t *testing.T) {
		const inboxLen, frames = 2, 7
		ep := newTCPAt(t, 0, nil, func(c *TCPConfig) { c.InboxLen = inboxLen })
		frame, err := encodeBatch(1, 1, testBatch(1, 8))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", ep.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(bytes.Repeat(frame, frames)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		read := func() int64 { s := ep.Stats(); return s.Delivered + s.Dropped }
		if !eventually(5*time.Second, func() bool { return read() == frames }) {
			// A reader stuck on the full inbox stops short. Drain it so
			// the reader reaches EOF and the cleanup Close returns.
			s := ep.Stats()
			eventually(5*time.Second, func() bool {
				for _, ok := ep.Recv(); ok; _, ok = ep.Recv() {
				}
				return read() >= frames
			})
			t.Fatalf("stats = %+v after 5s, want Delivered+Dropped = %d frames written", s, frames)
		}
		if s := ep.Stats(); s.Delivered != inboxLen || s.Dropped != frames-inboxLen {
			t.Fatalf("stats = %+v, want Delivered %d, Dropped %d", s, inboxLen, frames-inboxLen)
		}
	})
}

// TestTCPPeerDeathMidFrame: a connection that dies after a partial
// frame poisons only itself — the receiver drops the stream and decodes
// the next connection's frames cleanly.
func TestTCPPeerDeathMidFrame(t *testing.T) {
	ep := newTCPAt(t, 0, nil, nil)

	// A rogue "peer" writes half a frame and vanishes.
	good, err := encodeBatch(1, 1, testBatch(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ep.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(good[:len(good)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A healthy peer connects next and must get through.
	conn2, err := net.Dial("tcp", ep.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(good); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, func() bool {
		_, ok := ep.Recv()
		return ok
	}, "delivery after poisoned stream")
}

// TestTCPBadFramesPoisonOnlyTheirConnection writes each kind of frame a
// live endpoint must refuse — zero-length, over the 16 MiB guard,
// truncated, wire version 1, trailing bytes — followed on the same
// connection by a good frame. The endpoint must hang up without
// delivering anything from that connection, deliver the next
// connection's version-2 frame, and join every goroutine on Close.
func TestTCPBadFramesPoisonOnlyTheirConnection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ep := newTCPAt(t, 0, nil, nil)
	good := mustEncode(t, 1, testBatch(1, 8))
	thenGood := func(bad []byte) []byte { return append(append([]byte(nil), bad...), good...) }

	delivered := int64(0)
	for _, c := range []struct {
		name  string
		bytes []byte
	}{
		{"zero-length frame", thenGood(reframe(nil))},
		{"frame over 16 MiB", thenGood(binary.BigEndian.AppendUint32(nil, maxFrameBytes+1))},
		{"truncated frame", good[:len(good)-3]},
		{"version-1 frame", thenGood(v1Frame(t))},
		{"trailing bytes in the frame", thenGood(reframe(append(append([]byte(nil), good[prefixLen:]...), 0)))},
	} {
		conn, err := net.Dial("tcp", ep.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(c.bytes); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Half-close so the truncated frame ends in EOF instead of a wait
		// for its missing bytes. The others are refused before that, and
		// the half-close fails if the endpoint has already hung up.
		_ = conn.(*net.TCPConn).CloseWrite()
		// The endpoint hanging up is what ends this read.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection still open (%v)", c.name, err)
		}
		conn.Close()
		if s := ep.Stats(); s.Delivered != delivered {
			t.Fatalf("%s: delivered %d batches, want %d — a poisoned connection got a frame through", c.name, s.Delivered, delivered)
		}

		next, err := net.Dial("tcp", ep.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := next.Write(good); err != nil {
			t.Fatal(err)
		}
		delivered++
		waitUntil(t, 3*time.Second, func() bool { return ep.Stats().Delivered == delivered }, "delivery after "+c.name)
		next.Close()
		if batch, ok := ep.Recv(); !ok || len(batch) != 1 {
			t.Fatalf("%s: next connection's batch = %v, %v", c.name, batch, ok)
		}
	}
	ep.Close()
	waitForGoroutines(t, baseline, 3*time.Second)
}

// TestTCPDoubleClose: Close is idempotent, including concurrently, and
// Send/Recv on a closed endpoint refuse politely.
func TestTCPDoubleClose(t *testing.T) {
	a, _ := newTCPPair(t, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if a.Send(1, testBatch(1, 8)) {
		t.Fatal("send on closed endpoint accepted")
	}
	if _, ok := a.Recv(); ok {
		t.Fatal("recv on closed endpoint returned a batch")
	}
}

// TestTCPReconnectAndLiveness: killing a peer marks it down (after
// DownAfter failed dials) and dead-letters traffic to it; restarting it
// on the same address reconnects, marks it back up and delivers again.
func TestTCPReconnectAndLiveness(t *testing.T) {
	fast := func(c *TCPConfig) {
		c.DialTimeout = 100 * time.Millisecond
		c.BackoffMin = 5 * time.Millisecond
		c.BackoffMax = 25 * time.Millisecond
		c.DownAfter = 2
	}
	b := newTCPAt(t, 1, nil, fast)
	addrB := b.Addr().String()
	a := newTCPAt(t, 0, map[int]string{1: addrB}, fast)

	var mu sync.Mutex
	var transitions []bool
	a.SetPeerStateHook(func(peer int, up bool) {
		mu.Lock()
		transitions = append(transitions, up)
		mu.Unlock()
	})

	a.Send(1, testBatch(1, 8))
	waitUntil(t, 3*time.Second, func() bool { return b.Stats().Delivered == 1 }, "first delivery")

	// Kill the peer. Writes now fail; dials fail; the peer goes down.
	b.Close()
	waitUntil(t, 5*time.Second, func() bool {
		a.Send(1, testBatch(1, 8))
		return a.Stats().PeerDowns >= 1
	}, "peer reported down")

	// Resurrect it on the same address (retry briefly: the OS may lag
	// releasing the port even with the listener closed).
	var b2 *TCP
	waitUntil(t, 5*time.Second, func() bool {
		ep, err := NewTCP(TCPConfig{Self: 1, Listen: addrB, Seed: 2})
		if err != nil {
			return false
		}
		b2 = ep
		return true
	}, "rebinding the peer address")
	defer b2.Close()

	waitUntil(t, 5*time.Second, func() bool {
		a.Send(1, testBatch(1, 8))
		return b2.Stats().Delivered >= 1
	}, "delivery after reconnect")
	if s := a.Stats(); s.Reconnects < 1 {
		t.Fatalf("stats = %+v: reconnect not counted", s)
	}
	mu.Lock()
	defer mu.Unlock()
	sawDown, sawUp := false, false
	for _, up := range transitions {
		if up && sawDown {
			sawUp = true
		}
		if !up {
			sawDown = true
		}
	}
	if !sawDown || !sawUp {
		t.Fatalf("liveness transitions = %v: want down then up", transitions)
	}
}
