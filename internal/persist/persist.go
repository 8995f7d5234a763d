// Package persist implements checkpoint/restore of evolutionary state:
// populations (all four genome representations) and RNG streams, so long
// runs survive process restarts — the feature GALOPPS (Table 1 of the
// survey) was known for among the classic parallel-GA libraries.
//
// Populations are encoded by the fixed-layout binary codec in codec.go,
// the same bytes a migration frame carries (internal/transport). A
// Checkpoint wraps one such encoding, the engine's RNG state and the
// caller's bookkeeping in a small JSON envelope.
//
// A checkpoint is exact: restoring a population plus its engine's RNG
// state and continuing produces bit-identical results to the
// uninterrupted run (asserted by the package tests).
//
// Capture points are driven by the shared run loop: supervised island
// runs snapshot demes from an engine.Observer's OnGeneration hook
// (generation 0 included), so checkpoint cadence is a property of the
// loop, not of any one model's code.
package persist

import (
	"encoding/json"
	"errors"
	"fmt"

	"pga/internal/core"
	"pga/internal/rng"
)

// MarshalPopulation encodes a population with the binary codec.
func MarshalPopulation(pop *core.Population) ([]byte, error) {
	return AppendPopulation(make([]byte, 0, EncodedLen(pop.Members)), pop.Members)
}

// UnmarshalPopulation decodes what MarshalPopulation wrote.
func UnmarshalPopulation(data []byte) (*core.Population, error) {
	members, err := DecodePopulation(data)
	if err != nil {
		return nil, err
	}
	return &core.Population{Members: members}, nil
}

// Checkpoint bundles a population with the RNG stream that drives its
// engine, capturing everything needed for exact resumption.
type Checkpoint struct {
	// Population is the population in the binary codec (base64 in the
	// JSON envelope).
	Population []byte `json:"population"`
	// RNGState is the engine stream's internal state.
	RNGState [5]uint64 `json:"rngState"`
	// Generation is the engine's step count at capture time (caller
	// bookkeeping; the library does not interpret it).
	Generation int `json:"generation"`
	// Evaluations at capture time (caller bookkeeping).
	Evaluations int64 `json:"evaluations"`
}

// Capture builds a checkpoint from a population and its engine RNG.
func Capture(pop *core.Population, r *rng.Source, generation int, evaluations int64) (*Checkpoint, error) {
	data, err := MarshalPopulation(pop)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Population:  data,
		RNGState:    r.State(),
		Generation:  generation,
		Evaluations: evaluations,
	}, nil
}

// Marshal serialises the checkpoint to its JSON envelope.
func (c *Checkpoint) Marshal() ([]byte, error) { return json.Marshal(c) }

// UnmarshalCheckpoint parses a serialised checkpoint.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		// Format-1 checkpoints embedded the population as a JSON object.
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Field == "population" && te.Value == "object" {
			return nil, fmt.Errorf("persist: checkpoint holds a format 1 (JSON) population; this build reads format %d only", codecVersion)
		}
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &c, nil
}

// Restore returns the checkpoint's population and loads its RNG state
// into r (the stream the resumed engine must use).
func (c *Checkpoint) Restore(r *rng.Source) (*core.Population, error) {
	pop, err := c.RestorePopulation()
	if err != nil {
		return nil, err
	}
	r.SetState(c.RNGState)
	return pop, nil
}

// RestorePopulation returns the checkpoint's population without touching
// any RNG stream — the restart half of deme supervision
// (internal/supervise), which deliberately resumes a crashed deme on a
// *fresh* split stream: restoring the checkpointed stream would replay
// the exact draws that led to the crash. Each call deserialises a fresh
// copy, so one checkpoint can restart a deme any number of times.
func (c *Checkpoint) RestorePopulation() (*core.Population, error) {
	return UnmarshalPopulation(c.Population)
}
