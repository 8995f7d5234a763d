// Wire format: length-prefixed gob frames.
//
// Every message on a TCP migration link is one frame:
//
//	+----------------+----------------------------------------+
//	| length (4B BE) | gob(frame{Version, From, Seq, Payload}) |
//	+----------------+----------------------------------------+
//
// The length prefix is a big-endian uint32 counting the gob bytes that
// follow; frames above maxFrameBytes are rejected before allocation (a
// corrupt prefix must not become a multi-gigabyte make). Each frame is
// encoded with a fresh gob encoder, so frames are self-contained: a
// receiver that joins mid-stream after a reconnect decodes the next
// frame without any prior stream state, and a truncated frame (peer
// died mid-write) poisons only its own connection.
//
// The payload is the persist package's population JSON — the exact
// codec checkpoints use — so every genome representation the library
// supports crosses the wire unchanged, and a corrupt payload is
// detected by the same validation (e.g. permutation integrity) that
// guards checkpoint restores.

package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"pga/internal/core"
	"pga/internal/persist"
)

const (
	// wireVersion is bumped on incompatible frame changes; receivers
	// reject frames from other versions.
	wireVersion = 1
	// maxFrameBytes bounds accepted frame sizes (16 MiB): larger
	// prefixes are treated as stream corruption.
	maxFrameBytes = 16 << 20
)

// frame is the unit of the wire protocol.
type frame struct {
	// Version is wireVersion.
	Version uint8
	// From is the sending island's id.
	From int32
	// Seq is the sender's frame sequence number (monotonic per
	// endpoint; used for logging and fault-schedule attribution).
	Seq uint64
	// Payload is a persist population document holding the batch.
	Payload []byte
}

// encodeBatch serialises a migrant batch into a framed []byte ready to
// be written to a connection.
func encodeBatch(from int, seq uint64, migrants []*core.Individual) ([]byte, error) {
	payload, err := persist.MarshalPopulation(&core.Population{Members: migrants})
	if err != nil {
		return nil, fmt.Errorf("transport: encode batch: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, 4)) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(frame{
		Version: wireVersion,
		From:    int32(from),
		Seq:     seq,
		Payload: payload,
	}); err != nil {
		return nil, fmt.Errorf("transport: encode frame: %w", err)
	}
	b := buf.Bytes()
	n := len(b) - 4
	if n > maxFrameBytes {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	return b, nil
}

// readFrame reads and decodes one frame from r, returning the sender
// id and the migrant batch. Any framing, version, gob or payload error
// is returned to the caller, which must treat the stream as poisoned
// (close the connection and wait for a reconnect).
func readFrame(r io.Reader) (from int, migrants []*core.Individual, err error) {
	body, err := readFrameBody(r)
	if err != nil {
		return 0, nil, err
	}
	return decodeFrame(body)
}

// readFrameBody reads one length-prefixed frame from r without
// decoding it.
func readFrameBody(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	return body, nil
}

// decodeFrame decodes the gob bytes of one frame and its payload.
func decodeFrame(body []byte) (from int, migrants []*core.Individual, err error) {
	var f frame
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&f); err != nil {
		return 0, nil, fmt.Errorf("transport: decode frame: %w", err)
	}
	if f.Version != wireVersion {
		return 0, nil, fmt.Errorf("transport: wire version %d, want %d", f.Version, wireVersion)
	}
	pop, err := persist.UnmarshalPopulation(f.Payload)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: decode payload: %w", err)
	}
	return int(f.From), pop.Members, nil
}
