// Wire format: length-prefixed fixed-layout frames.
//
// Every message on a TCP migration link is one frame:
//
//	offset  size  field
//	0       4     length, big-endian: the number of body bytes that follow
//	4       1     wire version (=2)                ─┐
//	5       4     from, i32 little-endian           │ body
//	9       8     seq, u64 little-endian            │
//	17      …     population (persist codec)       ─┘
//
// Frames above maxFrameBytes are rejected before allocation (a corrupt
// prefix must not become a multi-gigabyte make). A frame carries no
// stream state, so a receiver that joins mid-stream after a reconnect
// decodes the next frame without any history, and a truncated frame
// (peer died mid-write) poisons only its own connection.
//
// The population is the persist package's binary encoding — the exact
// bytes a checkpoint holds — appended straight behind the header, so
// every genome representation the library supports crosses the wire
// unchanged and a corrupt one is caught by the validation that guards
// checkpoint restores (tail bits, gene ranges, permutation integrity,
// lengths against the bytes present). This file validates the prefix,
// the version and the header's presence; everything after offset 17 is
// persist's to judge.
//
// Version policy: any change to the header or to what follows it bumps
// wireVersion, and a receiver rejects every other version. Version 1 was
// a gob-encoded struct around a JSON payload; its frames are recognised
// by gob's type-descriptor preamble and refused by name.

package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pga/internal/core"
	"pga/internal/persist"
)

const (
	// wireVersion is bumped on incompatible frame changes; receivers
	// reject frames from other versions.
	wireVersion = 2
	// maxFrameBytes bounds accepted frame sizes (16 MiB): larger
	// prefixes are treated as stream corruption.
	maxFrameBytes = 16 << 20

	// readChunk is the largest body buffer allocated on a prefix's say-so.
	readChunk = 64 << 10

	prefixLen      = 4
	frameHeaderLen = 1 + 4 + 8 // version, from, seq
)

// gobV1Preamble opens every version-1 body: gob's length and type id for
// the descriptor of the old frame struct.
var gobV1Preamble = []byte("\x3b\x7f\x03\x01\x01\x05frame")

// appendFrame serialises a migrant batch into one frame — prefix, header
// and population — in dst's storage, ready to be written to a
// connection. A dst too small for the frame is replaced by a fresh
// buffer of the frame's exact size. seq is the sender's frame sequence
// number (monotonic per endpoint; for logging and fault attribution, not
// read on receipt).
func appendFrame(dst []byte, from int, seq uint64, migrants []*core.Individual) ([]byte, error) {
	if from < math.MinInt32 || from > math.MaxInt32 {
		return nil, fmt.Errorf("transport: island id %d does not fit the frame's i32", from)
	}
	n := frameHeaderLen + persist.EncodedLen(migrants)
	if n > maxFrameBytes {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	if cap(dst) < prefixLen+n {
		dst = make([]byte, 0, prefixLen+n)
	}
	buf := append(dst[:0], 0, 0, 0, 0, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(from)))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf, err := persist.AppendPopulation(buf, migrants)
	if err != nil {
		return nil, fmt.Errorf("transport: encode batch: %w", err)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-prefixLen))
	return buf, nil
}

// readFrameInto reads one length-prefixed frame body from r into buf's
// storage without decoding it. A buf too small for the body grows only
// as the body's bytes arrive.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The prefix is read into buf's storage too (the body overwrites it):
	// a local array would escape into r.Read and cost an allocation per
	// frame.
	prefix := buf[:0]
	if cap(prefix) < prefixLen {
		prefix = make([]byte, 0, prefixLen)
	}
	prefix = prefix[:prefixLen]
	if _, err := io.ReadFull(r, prefix); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	// The prefix is only a claim. A body beyond buf's capacity is read
	// into a buffer that grows, by readChunk or by doubling, only as bytes
	// actually arrive, so a peer cannot make the reader allocate 16 MiB by
	// sending four bytes.
	size := int(n)
	body := buf[:0]
	for len(body) < size {
		have := len(body)
		if cap(body) == have {
			grown := make([]byte, have, have+min(size-have, max(have, readChunk)))
			copy(grown, body)
			body = grown
		}
		body = body[:min(size, cap(body))]
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return nil, fmt.Errorf("transport: truncated frame: %w", err)
		}
	}
	return body, nil
}

// decodeFrameInto decodes one frame body over the migrants dst holds
// (persist.DecodePopulationInto): the header is read where it lies and
// the rest handed to the population decoder, which copies the genes out,
// so the result does not alias body.
func decodeFrameInto(dst []*core.Individual, body []byte) (from int, migrants []*core.Individual, err error) {
	if len(body) > 0 && body[0] != wireVersion {
		if bytes.HasPrefix(body, gobV1Preamble) {
			return 0, nil, fmt.Errorf("transport: wire version 1 (gob) frame, want %d", wireVersion)
		}
		return 0, nil, fmt.Errorf("transport: wire version %d, want %d", body[0], wireVersion)
	}
	if len(body) < frameHeaderLen {
		return 0, nil, fmt.Errorf("transport: frame body of %d bytes is shorter than its %d-byte header", len(body), frameHeaderLen)
	}
	from = int(int32(binary.LittleEndian.Uint32(body[1:])))
	migrants, err = persist.DecodePopulationInto(dst, body[frameHeaderLen:])
	if err != nil {
		return 0, nil, fmt.Errorf("transport: decode population: %w", err)
	}
	return from, migrants, nil
}
