package problems

import (
	"encoding/binary"
	"testing"

	"pga/internal/genome"
	"pga/internal/rng"
)

// transposeBody is one of transpose64's bodies, by name.
type transposeBody struct {
	name string
	fn   func(m *[64]uint64)
}

// transposeBodies returns every transpose64 body this host runs, the Go
// body first.
func transposeBodies() []transposeBody {
	bodies := []transposeBody{{"go", transpose64Go}}
	if transposeVector {
		bodies = append(bodies, transposeBody{"avx512", transpose64AVX512})
	}
	return bodies
}

// TestTranspose64MatchesNaive holds every body to the bounds-checked
// Get/Set pair over one-word BitStrings: want[j] gene i = rows[i] gene j.
func TestTranspose64MatchesNaive(t *testing.T) {
	for _, body := range transposeBodies() {
		r := rng.New(17)
		for round := 0; round < 20; round++ {
			var m, orig [64]uint64
			want := make([]*genome.BitString, 64)
			for j := range want {
				want[j] = genome.NewBitString(64)
			}
			for i := range m {
				row := genome.RandomBitString(64, r)
				if round == 0 {
					row = genome.NewBitString(64) // all-zero, then a single bit per row
					row.Set((i*7+3)&63, true)
				}
				m[i] = row.Words[0]
				for j := 0; j < 64; j++ {
					want[j].Set(i, row.Get(j))
				}
			}
			orig = m
			body.fn(&m)
			for j := range m {
				if m[j] != want[j].Words[0] {
					t.Fatalf("%s body, round %d row %d: got %#x, naive %#x", body.name, round, j, m[j], want[j].Words[0])
				}
			}
			body.fn(&m)
			if m != orig {
				t.Fatalf("%s body, round %d: transposing twice is not the identity", body.name, round)
			}
		}
	}
}

// FuzzTransposeBodies: on any matrix, every body this host runs equals
// the Go body and is its own inverse. The bytes fill the matrix
// cyclically, so a short input repeats.
func FuzzTransposeBodies(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0x00, 0x80, 0x7F, 0x55, 0xAA, 0x33, 0xCC, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m [64]uint64
		if len(data) > 0 {
			var buf [8]byte
			for i := range m {
				for k := range buf {
					buf[k] = data[(8*i+k)%len(data)]
				}
				m[i] = binary.LittleEndian.Uint64(buf[:])
			}
		}
		want := m
		transpose64Go(&want)
		for _, body := range transposeBodies() {
			got := m
			body.fn(&got)
			if got != want {
				t.Fatalf("%s body differs from the Go body on %x", body.name, m)
			}
			body.fn(&got)
			if got != m {
				t.Fatalf("%s body: transposing twice is not the identity on %x", body.name, m)
			}
		}
	})
}

// BenchmarkTranspose64 times each body on a random matrix.
func BenchmarkTranspose64(b *testing.B) {
	var m [64]uint64
	r := rng.New(18)
	for i := range m {
		m[i] = r.Uint64()
	}
	for _, body := range transposeBodies() {
		b.Run(body.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body.fn(&m)
			}
		})
	}
}
