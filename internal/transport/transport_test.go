package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/persist"
	"pga/internal/rng"
)

// testBatch builds a batch of evaluated bit-string individuals with
// recognisable fitness values.
func testBatch(n, bits int) []*core.Individual {
	out := make([]*core.Individual, n)
	for i := range out {
		g := genome.NewBitString(bits)
		for j := 0; j <= i && j < bits; j++ {
			g.Set(j, true)
		}
		out[i] = &core.Individual{Genome: g, Fitness: float64(i + 1), Evaluated: true}
	}
	return out
}

func TestLoopbackDeliversBetweenEndpoints(t *testing.T) {
	eps := NewLoopback(3, 4)
	batch := testBatch(2, 8)
	if !eps[0].Send(1, batch) {
		t.Fatal("Send to live peer refused")
	}
	got, ok := eps[1].Recv()
	if !ok || len(got) != 2 {
		t.Fatalf("Recv = %v, %v; want 2 individuals", got, ok)
	}
	if got[0].Fitness != 1 || got[1].Fitness != 2 {
		t.Fatalf("batch arrived reordered or corrupted: %v", got)
	}
	if _, ok := eps[1].Recv(); ok {
		t.Fatal("second Recv should find an empty inbox")
	}
	s := eps[0].Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Dropped != 0 {
		t.Fatalf("sender stats = %+v", s)
	}
	if r := eps[1].Stats(); r.Received != 1 {
		t.Fatalf("receiver stats = %+v", r)
	}
}

func TestLoopbackRefusals(t *testing.T) {
	eps := NewLoopback(2, 1)
	if eps[0].Send(0, testBatch(1, 4)) {
		t.Fatal("self-send should be refused")
	}
	if eps[0].Send(7, testBatch(1, 4)) {
		t.Fatal("out-of-range dest should be refused")
	}
	if !eps[0].Send(1, testBatch(1, 4)) {
		t.Fatal("first send should fill the inbox")
	}
	if eps[0].Send(1, testBatch(1, 4)) {
		t.Fatal("full inbox should refuse")
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	if eps[0].Send(1, testBatch(1, 4)) {
		t.Fatal("closed endpoint should refuse")
	}
	s := eps[0].Stats()
	if s.Sent != 5 || s.Delivered != 1 || s.Dropped != 4 {
		t.Fatalf("stats = %+v; want 5 sent, 1 delivered, 4 dropped", s)
	}
	// The peer can still drain after our close: channels stay open.
	if _, ok := eps[1].Recv(); !ok {
		t.Fatal("peer could not drain after sender close")
	}
}

func TestWireRoundTrip(t *testing.T) {
	batch := testBatch(3, 16)
	data, err := encodeBatch(5, 42, batch)
	if err != nil {
		t.Fatal(err)
	}
	from, got, err := readFrame(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if from != 5 {
		t.Fatalf("from = %d, want 5", from)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d individuals, want 3", len(got))
	}
	for i, ind := range got {
		if ind.Fitness != batch[i].Fitness || !ind.Evaluated {
			t.Fatalf("individual %d: %+v, want fitness %g", i, ind, batch[i].Fitness)
		}
		g := ind.Genome.(*genome.BitString)
		w := batch[i].Genome.(*genome.BitString)
		for j := 0; j < w.Len(); j++ {
			if g.Get(j) != w.Get(j) {
				t.Fatalf("individual %d bit %d flipped in transit", i, j)
			}
		}
	}
}

// v1Frame returns a wire-version-1 frame as a pre-PR-17 peer would send
// it: the length prefix around gob(frame{Version, From, Seq, Payload}),
// the payload a JSON population.
func v1Frame(t *testing.T) []byte {
	t.Helper()
	// gob names a struct type by its unqualified name, so this local
	// type reproduces the old descriptor byte for byte.
	type frame struct {
		Version uint8
		From    int32
		Seq     uint64
		Payload []byte
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, prefixLen))
	err := gob.NewEncoder(&buf).Encode(frame{
		Version: 1, From: 1, Seq: 1,
		Payload: []byte(`{"members":[{"genome":{"type":"bits","bits":[true,false]},"fitness":1,"evaluated":true}]}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-prefixLen))
	return b
}

// reframe returns body behind a fresh length prefix.
func reframe(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func TestWireRejectsCorruptFrames(t *testing.T) {
	good, err := encodeBatch(0, 1, testBatch(1, 8))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("oversized length prefix", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(bad[:4], maxFrameBytes+1)
		if _, _, err := readFrame(bytes.NewReader(bad)); err == nil {
			t.Fatal("oversized prefix accepted")
		}
	})
	t.Run("zero length prefix", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(bad[:4], 0)
		if _, _, err := readFrame(bytes.NewReader(bad)); err == nil {
			t.Fatal("zero prefix accepted")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		if _, _, err := readFrame(bytes.NewReader(good[:len(good)-3])); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
	t.Run("garbage body", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		for i := prefixLen + 1; i < len(bad); i++ { // keep the version byte
			bad[i] ^= 0xff
		}
		if _, _, err := readFrame(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupt body accepted")
		}
	})
	t.Run("body shorter than the header", func(t *testing.T) {
		bad := reframe(good[prefixLen : prefixLen+frameHeaderLen-1])
		if _, _, err := readFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "shorter than") {
			t.Fatalf("headerless frame: %v", err)
		}
	})
	t.Run("trailing bytes inside the frame", func(t *testing.T) {
		bad := reframe(append(append([]byte(nil), good[prefixLen:]...), 0))
		if _, _, err := readFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("padded frame: %v", err)
		}
	})
	t.Run("self-contained frames", func(t *testing.T) {
		// Two frames back to back must decode independently — the
		// reconnect-mid-stream property.
		second, err := encodeBatch(1, 2, testBatch(2, 8))
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(append(append([]byte(nil), good...), second...))
		if _, _, err := readFrame(r); err != nil {
			t.Fatal(err)
		}
		from, got, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if from != 1 || len(got) != 2 {
			t.Fatalf("second frame = from %d, %d individuals", from, len(got))
		}
	})
}

func TestWireVersionMismatchRejected(t *testing.T) {
	data, err := encodeBatch(0, 1, testBatch(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	// The version is the first body byte: patch it in place.
	data[prefixLen] = wireVersion + 1
	_, _, err = readFrame(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "wire version 3, want 2") {
		t.Fatalf("future wire version: %v", err)
	}
	// A version-1 peer is refused by name, not as an unknown version 59
	// (gob's first byte).
	_, _, err = readFrame(bytes.NewReader(v1Frame(t)))
	if err == nil || !strings.Contains(err.Error(), "wire version 1 (gob) frame, want 2") {
		t.Fatalf("version-1 frame: %v", err)
	}
}

func TestEncodeBatchRejectsWhatTheFrameCannotHold(t *testing.T) {
	if id := int64(math.MaxInt32) + 1; strconv.IntSize == 64 {
		if _, err := encodeBatch(int(id), 1, testBatch(1, 8)); err == nil {
			t.Fatal("island id beyond i32 encoded")
		}
	}
	if _, err := encodeBatch(0, 1, testBatch(1, 8*maxFrameBytes)); err == nil {
		t.Fatal("frame beyond the 16 MiB limit encoded")
	}
	if from, _, err := decodeFrame(mustEncode(t, -3, testBatch(1, 8))[prefixLen:]); err != nil || from != -3 {
		t.Fatalf("negative island id: from %d, %v", from, err)
	}
}

func mustEncode(t testing.TB, from int, batch []*core.Individual) []byte {
	t.Helper()
	data, err := encodeBatch(from, 7, batch)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// boundaryBatch holds every genome class at every word-straddling
// length, with the fitness values a text format would mangle.
func boundaryBatch() []*core.Individual {
	r := rng.New(0x9e3779b97f4a7c15)
	fitness := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.1}
	var batch []*core.Individual
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 256, 1000} {
		for _, g := range []core.Genome{
			genome.RandomBitString(n, r),
			genome.RandomRealVector(n, -5, 5, r),
			genome.RandomIntVector(n, 3, r),
			genome.RandomPermutation(n, r),
		} {
			batch = append(batch, &core.Individual{
				Genome: g, Fitness: fitness[len(batch)%len(fitness)], Evaluated: len(batch)%2 == 0,
			})
		}
	}
	return batch
}

// TestWireRoundTripBoundaryLengths sends all four genome classes at
// word-boundary lengths through the full frame codec: the decoded copies
// must be exact — genes, bounds, Card, fitness bit pattern, Evaluated —
// with clean tails, and the frame must be exactly as long as its layout
// says.
func TestWireRoundTripBoundaryLengths(t *testing.T) {
	batch := boundaryBatch()
	data := mustEncode(t, 2, batch)
	if want := prefixLen + frameHeaderLen + persist.EncodedLen(batch); len(data) != want || cap(data) != want {
		t.Fatalf("frame is %d bytes (cap %d), layout says %d", len(data), cap(data), want)
	}
	from, got, err := readFrame(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 || len(got) != len(batch) {
		t.Fatalf("got %d migrants from %d, want %d from 2", len(got), from, len(batch))
	}
	for i, ind := range got {
		w := batch[i]
		if math.Float64bits(ind.Fitness) != math.Float64bits(w.Fitness) || ind.Evaluated != w.Evaluated {
			t.Fatalf("migrant %d: fitness/evaluated changed in transit", i)
		}
		// String abbreviates long genomes; the exact comparison is the
		// re-encoding below.
		if ind.Genome.String() != w.Genome.String() {
			t.Fatalf("migrant %d (len %d): %s, want %s", i, w.Genome.Len(), ind.Genome, w.Genome)
		}
		if g, ok := ind.Genome.(*genome.BitString); ok {
			if !g.Equal(w.Genome.(*genome.BitString)) {
				t.Fatalf("migrant %d (len %d): bits corrupted in transit", i, g.Len())
			}
			if g.Words[len(g.Words)-1]&^genome.TailMask(g.N) != 0 {
				t.Fatalf("migrant %d: decoded genome has dirty tail bits", i)
			}
		}
	}
	if again := mustEncode(t, 2, got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding the decoded batch changed the frame")
	}
}

// TestReadFrameBodyGrowsWithArrivingBytes: a body larger than readChunk
// is assembled intact from a reader that trickles it, and a prefix
// claiming the full 16 MiB with nothing behind it costs one chunk, not
// 16 MiB.
func TestReadFrameBodyGrowsWithArrivingBytes(t *testing.T) {
	big := mustEncode(t, 4, testBatch(3, 8*3*readChunk))
	_, got, err := readFrame(iotest.DataErrReader(iotest.HalfReader(bytes.NewReader(big))))
	if err != nil {
		t.Fatal(err)
	}
	if again := mustEncode(t, 4, got); !bytes.Equal(again, big) {
		t.Fatalf("a %d-byte frame changed in a chunked read", len(big))
	}

	liar := binary.BigEndian.AppendUint32(nil, maxFrameBytes)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err = readFrame(bytes.NewReader(liar))
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("bodiless frame: %v", err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > readChunk+8<<10 {
		t.Fatalf("a 4-byte input claiming 16 MiB allocated %d bytes", grew)
	}
}

// perfBatch is the wire-ring2 migration batch: 4 migrants of 256 bits.
func perfBatch() []*core.Individual { return testBatch(4, 256) }

// TestWireAllocBudget gates the codec's allocations on the migration
// batch the benchmark sends: encoding makes the one buffer handed to the
// peer queue; decoding makes the batch slice plus individual, genome and
// word slice per migrant.
func TestWireAllocBudget(t *testing.T) {
	batch := perfBatch()
	body := mustEncode(t, 0, batch)[prefixLen:]
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := encodeBatch(0, 1, batch); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("encodeBatch: %.1f allocs, budget 1", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, _, err := decodeFrame(body); err != nil {
			t.Fatal(err)
		}
	}); avg > float64(1+3*len(batch)) {
		t.Errorf("decodeFrame: %.1f allocs, budget %d", avg, 1+3*len(batch))
	}
}

var benchSink int

func BenchmarkEncodeBatch(b *testing.B) {
	batch := perfBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := encodeBatch(0, uint64(i), batch)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(data)
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	body := mustEncode(b, 0, perfBatch())[prefixLen:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, migrants, err := decodeFrame(body)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(migrants)
	}
}

// FuzzReadFrame feeds arbitrary bytes through readFrame as a connection
// would deliver them: no panic, allocation bounded by the bytes actually
// present (whatever length the prefix claims) plus a constant, and
// anything accepted re-encodes to the same frame.
func FuzzReadFrame(f *testing.F) {
	// Seeds stay small: the fuzzer's minimiser is quadratic in input size.
	r := rng.New(5)
	good := mustEncode(f, 3, []*core.Individual{
		{Genome: genome.RandomBitString(65, r), Fitness: 1, Evaluated: true},
		{Genome: genome.RandomRealVector(1, 0, 1, r), Fitness: math.Inf(-1)},
		{Genome: genome.RandomIntVector(3, 5, r), Evaluated: true},
		{Genome: genome.RandomPermutation(4, r), Fitness: math.NaN()},
	})
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add(reframe(nil))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameBytes+1))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameBytes))
	f.Add(reframe([]byte{wireVersion}))
	f.Add(reframe(append([]byte{wireVersion + 1}, good[prefixLen+1:]...)))
	// A population claiming 2³²−1 members, then a genome claiming 2³²−1 bits.
	header := good[prefixLen : prefixLen+frameHeaderLen]
	f.Add(reframe(append(append([]byte(nil), header...), 2, 0xff, 0xff, 0xff, 0xff)))
	f.Add(reframe(append(append([]byte(nil), header...),
		2, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)))
	f.Add(gobV1Preamble)

	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		from, got, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		// 20× covers the body buffer's doubling and the worst decoded
		// expansion (an empty genome is 14 encoded bytes and ~120
		// decoded); 8 KiB the reader, error values and whatever the fuzz
		// worker's own goroutines allocate meanwhile.
		if grew, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(readChunk+20*len(data)+8<<10); grew > budget {
			t.Fatalf("%d input bytes allocated %d, budget %d", len(data), grew, budget)
		}
		if err != nil {
			return
		}
		seq := binary.LittleEndian.Uint64(data[prefixLen+5:])
		again, err := encodeBatch(from, seq, got)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("accepted a non-canonical frame:\n in  % x\n out % x", data[:len(again)], again)
		}
	})
}
