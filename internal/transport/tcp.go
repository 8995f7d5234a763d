// TCP endpoint: real sockets between island processes.
//
// Robustness semantics (DESIGN §10):
//
//   - Per-peer bounded send queues with drop-oldest backpressure: Send
//     encodes the batch and offers it to the peer's queue; a full queue
//     evicts its oldest batch first. Evolution never blocks on the wire.
//   - Nothing is allocated per batch once the endpoint is warm. Send
//     encodes into a frame buffer from the peer's free list, to which
//     the sender goroutine returns it after the write (an evicted or
//     replaced frame returns too); each inbound connection reads into
//     one body buffer and decodes into a batch from the endpoint's free
//     list, which Recv refills with the batch it lent last time.
//   - Connections are established lazily by each peer's sender
//     goroutine, with a connect timeout and exponential backoff plus
//     seeded jitter between attempts. Write failures close the
//     connection; the next batch triggers a reconnect.
//   - Frames are never retransmitted. Migration is best-effort: a batch
//     lost to a dead peer or a failed write is counted dropped, and the
//     sender moves on (the next epoch carries fresher genes anyway).
//   - Peer liveness is reported through SetPeerStateHook: DownAfter
//     consecutive connect failures mark a peer down, a successful dial
//     marks it back up. The island layer feeds these transitions into a
//     supervise.Router so migration reroutes around the partition and
//     heals on rejoin.

package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pga/internal/core"
	"pga/internal/rng"
)

// TCPConfig configures a TCP endpoint. Zero fields select the
// documented defaults.
type TCPConfig struct {
	// Self is this island's id (required to be a key of no Peers entry
	// pointing elsewhere; a Peers[Self] entry is ignored).
	Self int
	// Listen is the local accept address (e.g. "127.0.0.1:7100" or
	// "127.0.0.1:0"; required unless Listener is set). The bound
	// address is available from Addr after New.
	Listen string
	// Listener, when non-nil, is an already-bound listener the endpoint
	// adopts instead of binding Listen. This lets a process bind ":0"
	// early, publish the resolved address to its peers, and only then
	// construct the endpoint — no close-and-rebind race. The endpoint
	// owns the listener from here on and closes it on Close.
	Listener net.Listener
	// Peers maps island id → dial address for every other island.
	Peers map[int]string
	// QueueLen bounds each peer's outbound batch queue; default 8.
	// When full, the oldest queued batch is dropped to make room.
	QueueLen int
	// InboxLen bounds the inbound batch buffer; default 64. Arrivals
	// beyond it are dropped and counted.
	InboxLen int
	// DialTimeout bounds one connection attempt; default 500ms.
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write; default 2s.
	WriteTimeout time.Duration
	// BackoffMin is the first reconnect delay; default 10ms. It doubles
	// per consecutive failure up to BackoffMax (default 1s), plus a
	// uniform jitter of up to BackoffMin drawn from the seeded stream.
	BackoffMin time.Duration
	// BackoffMax caps the reconnect backoff; default 1s.
	BackoffMax time.Duration
	// DownAfter is the number of consecutive connect failures after
	// which a peer is reported down; default 3.
	DownAfter int
	// Seed seeds the backoff-jitter streams (one split per peer).
	Seed uint64
}

// withDefaults returns a copy of c with zero fields defaulted.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.QueueLen <= 0 {
		c.QueueLen = 8
	}
	if c.InboxLen <= 0 {
		c.InboxLen = 64
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 500 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	return c
}

// drainGrace is how long Close keeps reading inbound connections. A
// reader that shares its cores with a busy evolution loop runs some
// milliseconds behind its peer's writes, and what it has not decoded
// when the sockets close is neither delivered nor dropped in anyone's
// Stats. The grace lets it catch up once the loop has stopped, and lets
// a peer that finishes later, still writing, be read to its close: on a
// loaded two-core host the two islands of a ring finish a median 25–40
// ms and up to 570 ms apart, and a 20 ms grace once left 146 of 7 473
// batches uncounted. A peer that closes its end first ends the wait
// early, so the grace is waited out only for a peer that outlives it. A
// variable only so that a test on a loaded host can widen it.
var drainGrace = time.Second

// tcpPeer is the sender-side state of one outbound link, owned by its
// sender goroutine (except queue, which Send feeds).
type tcpPeer struct {
	id    int
	addr  string
	queue chan []byte
	// frames holds spare frame buffers: every frame of the link is
	// queued, being written, or being encoded by Send.
	frames chan []byte
	// jitter is this link's private backoff-jitter stream (drawn only
	// on the sender goroutine).
	jitter *rng.Source
}

// TCP is the socket-backed Endpoint. See the file comment for its
// failure semantics.
type TCP struct {
	cfg   TCPConfig
	self  int
	ln    net.Listener
	inbox chan []*core.Individual
	// batches holds spare decode batches: every batch is queued in inbox,
	// lent by Recv (lent), or being decoded into by a connection reader.
	batches chan []*core.Individual
	lent    []*core.Individual
	peers   map[int]*tcpPeer
	seq     atomic.Uint64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// mu guards conns, the set of accepted inbound connections that
	// Close must unblock.
	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// hook is the peer-liveness callback (SetPeerStateHook).
	hook atomic.Pointer[func(peer int, up bool)]

	netCounters
}

var (
	_ Endpoint         = (*TCP)(nil)
	_ LivenessReporter = (*TCP)(nil)
)

// NewTCP binds the listen address (or adopts cfg.Listener) and starts
// the accept loop and one sender goroutine per peer. Connections to
// peers are established lazily on first send.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
		}
	}
	t := &TCP{
		cfg:   cfg,
		self:  cfg.Self,
		ln:    ln,
		inbox: make(chan []*core.Individual, cfg.InboxLen),
		// Room for every batch: the inbox's, the lent one and one in
		// each peer's reader (a reconnect's second reader allocates).
		batches: make(chan []*core.Individual, cfg.InboxLen+1+len(cfg.Peers)),
		peers:   make(map[int]*tcpPeer, len(cfg.Peers)),
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	master := rng.New(cfg.Seed)
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		p := &tcpPeer{
			id: id, addr: addr, queue: make(chan []byte, cfg.QueueLen),
			frames: make(chan []byte, cfg.QueueLen+2), jitter: master.Split(),
		}
		t.peers[id] = p
		t.wg.Add(1)
		go t.runSender(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with "…:0").
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// Self implements Endpoint.
func (t *TCP) Self() int { return t.self }

// SetPeerStateHook implements LivenessReporter.
func (t *TCP) SetPeerStateHook(f func(peer int, up bool)) { t.hook.Store(&f) }

// reportPeer fires the liveness hook, if any.
func (t *TCP) reportPeer(peer int, up bool) {
	if f := t.hook.Load(); f != nil {
		(*f)(peer, up)
	}
}

// Send implements Endpoint: encode now, into a spare frame of the peer's
// (Send only borrows the migrants), then offer the frame to the peer's
// bounded queue, evicting the oldest queued frame under backpressure.
func (t *TCP) Send(dest int, migrants []*core.Individual) bool {
	t.sent.Add(1)
	p, ok := t.peers[dest]
	if !ok {
		t.dropped.Add(1)
		return false
	}
	select {
	case <-t.done:
		t.dropped.Add(1)
		return false
	default:
	}
	data, err := appendFrame(take(p.frames), t.self, t.seq.Add(1), migrants)
	if err != nil {
		t.dropped.Add(1)
		return false
	}
	select {
	case p.queue <- data:
		return true
	default:
	}
	// Queue full: drop the oldest queued batch — stale migrants are the
	// least valuable — and retry once. A racing sender goroutine may
	// have drained the queue meanwhile; both selects stay non-blocking.
	select {
	case old := <-p.queue:
		give(p.frames, old)
		t.dropped.Add(1)
	default:
	}
	select {
	case p.queue <- data:
		return true
	default:
		give(p.frames, data)
		t.dropped.Add(1)
		return false
	}
}

// Recv implements Endpoint: the batch lent last time goes back to the
// readers' free list first.
func (t *TCP) Recv() ([]*core.Individual, bool) {
	if t.lent != nil {
		give(t.batches, t.lent)
		t.lent = nil
	}
	select {
	case batch := <-t.inbox:
		t.received.Add(1)
		t.lent = batch
		return batch, true
	default:
		return nil, false
	}
}

// Stats implements Endpoint.
func (t *TCP) Stats() core.NetStats { return t.snapshot() }

// Close implements Endpoint: stops the accept loop and senders, closes
// every connection and joins all transport goroutines. Batches still
// queued for a peer are traffic that never made it — they are counted
// dropped so Stats accounts for every batch Send accepted. Inbound
// connections are not cut under their readers: each gets a read
// deadline drainGrace away, so frames a peer has already written are
// read and counted dropped rather than discarded, uncounted, with the
// socket buffer. Idempotent.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		_ = t.ln.Close()
		t.mu.Lock()
		deadline := time.Now().Add(drainGrace)
		for c := range t.conns {
			_ = c.SetReadDeadline(deadline)
		}
		t.mu.Unlock()
		t.wg.Wait()
		for _, p := range t.peers {
			for drained := false; !drained; {
				select {
				case <-p.queue:
					t.dropped.Add(1)
				default:
					drained = true
				}
			}
		}
	})
	return nil
}

// track registers an inbound connection for Close, returning false if
// the endpoint is already closing.
func (t *TCP) track(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
		return false
	default:
	}
	t.conns[c] = struct{}{}
	return true
}

// untrack removes a finished inbound connection.
func (t *TCP) untrack(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

// acceptLoop accepts inbound peer connections until Close. It is
// joined by Close via the endpoint WaitGroup and unblocked by closing
// the listener.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			// Transient accept failure (e.g. EMFILE): brief pause, go on.
			if !sleepInterruptible(t.done, 10*time.Millisecond) {
				return
			}
			continue
		}
		if !t.track(conn) {
			_ = conn.Close()
			return
		}
		// This Add runs inside acceptLoop, which is itself wg-registered before spawn, so the counter is >=1 whenever this executes and Wait cannot have returned
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn decodes frames from one inbound connection into the inbox
// until the stream errors: EOF, peer death mid-frame, a corrupt frame,
// or the read deadline Close puts on the connection. A poisoned stream
// costs only its own connection: the peer's sender will reconnect and
// the next frame decodes cleanly. Once the endpoint is closing, frames
// are still read off the connection but only counted.
func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	defer conn.Close()
	var body []byte
	for {
		var err error
		if body, err = readFrameInto(conn, body); err != nil {
			return
		}
		select {
		case <-t.done:
			// Closing: nobody will Recv what arrives now, so it is
			// counted without being decoded.
			t.dropped.Add(1)
			continue
		default:
		}
		batch := take(t.batches)
		_, migrants, err := decodeFrameInto(batch, body)
		if err != nil {
			give(t.batches, batch)
			return
		}
		select {
		case t.inbox <- migrants:
			t.delivered.Add(1)
		default:
			// Inbox full: receiver-side backpressure drops the arrival.
			give(t.batches, migrants)
			t.dropped.Add(1)
		}
	}
}

// runSender owns one peer link: it drains the peer's queue, dialing on
// demand with timeout, backoff and jitter, and writes frames with a
// write deadline. Failures are counted and reported; nothing blocks.
func (t *TCP) runSender(p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	failures := 0 // consecutive connect failures
	everConnected := false
	down := false
	for {
		var data []byte
		select {
		case <-t.done:
			return
		case data = <-p.queue:
		}
		// Establish the link if needed. One attempt per queued batch:
		// between attempts the backoff sleep runs, and the batch is
		// retained so the reconnect delivers it (rejoin-with-news).
		for conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, t.cfg.DialTimeout)
			if err == nil {
				conn = c
				if everConnected || failures > 0 {
					t.reconnects.Add(1)
				}
				everConnected = true
				failures = 0
				if down {
					down = false
					t.reportPeer(p.id, true)
				}
				break
			}
			failures++
			if !down && failures >= t.cfg.DownAfter {
				down = true
				t.peerDowns.Add(1)
				t.reportPeer(p.id, false)
			}
			if !sleepInterruptible(t.done, t.backoff(p, failures)) {
				t.dropped.Add(1) // the retained batch dies with the endpoint
				return
			}
			// While backing off, prefer the freshest batch: if newer
			// batches queued up meanwhile, the retained one is the
			// oldest — replace it and count the eviction.
			select {
			case newer := <-p.queue:
				give(p.frames, data)
				data = newer
				t.dropped.Add(1)
			default:
			}
		}
		_ = conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		_, err := conn.Write(data)
		give(p.frames, data)
		if err != nil {
			// Best-effort: the batch may be partially on the wire; count
			// it dropped, poison the link and reconnect on the next batch.
			t.dropped.Add(1)
			_ = conn.Close()
			conn = nil
			continue
		}
	}
}

// backoff returns the delay before connect attempt failures+1 to p:
// BackoffMin × 2^(failures-1) capped at BackoffMax, plus a uniform
// jitter of up to BackoffMin from the link's seeded stream (decorrelates
// reconnect storms across islands without wall-clock randomness).
func (t *TCP) backoff(p *tcpPeer, failures int) time.Duration {
	shift := failures - 1
	if shift > 16 {
		shift = 16
	}
	d := t.cfg.BackoffMin << uint(shift)
	if d > t.cfg.BackoffMax || d <= 0 {
		d = t.cfg.BackoffMax
	}
	return d + time.Duration(p.jitter.Float64()*float64(t.cfg.BackoffMin))
}

// sleepInterruptible sleeps for d unless done closes first, reporting
// whether the sleep completed (false: the endpoint is closing).
func sleepInterruptible(done <-chan struct{}, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
		return false
	case <-timer.C:
		return true
	}
}
