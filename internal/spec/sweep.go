package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Axis is one swept dimension: a dotted field path and the values it
// takes. Values may be any JSON value, including whole objects (an
// entire engine section, a topology object). A zipped axis names
// several comma-separated paths ("islands.demes,engine.pop") and each
// of its values is an array with one element per path. A path may
// appear in one axis only.
type Axis struct {
	Path   string `json:"path"`
	Values []any  `json:"values"`
}

// Sweep expands a base spec over axes into a deterministic run matrix.
// Cells enumerate row-major with the last axis fastest; each cell's
// seed derives from the base seed and the cell/replicate index (see
// DeriveSeed), except that sweeping the "seed" path itself pins the
// cell seed to the swept value.
type Sweep struct {
	Base       RunSpec
	Axes       []Axis
	Replicates int

	// cells is the expansion ParseFile validated, kept so that running a
	// parsed document does not expand it — and construct every cell's
	// problem — a second time. Treat a parsed Sweep as read-only.
	cells []Cell
}

// Cell is one expanded run of a sweep.
type Cell struct {
	// Index is the cell's position in the row-major matrix.
	Index int
	// Replicate is the repeat index within the cell.
	Replicate int
	// Spec is the fully validated cell spec (seed already derived).
	Spec RunSpec
	// Overrides is the cell's axis assignment, keyed by path.
	Overrides map[string]any
}

// File is one parsed config document: either a single run or a sweep.
type File struct {
	// Name labels the document (sweep form only; a single-run document
	// uses the RunSpec's own name).
	Name string
	// Single is set when the document is a plain RunSpec.
	Single *RunSpec
	// Sweep is set when the document is a sweep.
	Sweep *Sweep
}

// sweepDoc is the JSON shape of a sweep document.
type sweepDoc struct {
	Name       string                     `json:"name,omitempty"`
	Base       json.RawMessage            `json:"base"`
	Sweep      map[string]json.RawMessage `json:"sweep"`
	Replicates int                        `json:"replicates,omitempty"`
}

// rangeAxis is the {"from": a, "to": b, "step": s} axis shorthand.
type rangeAxis struct {
	From float64  `json:"from"`
	To   float64  `json:"to"`
	Step *float64 `json:"step,omitempty"`
}

// ParseFile strictly parses one config document — a plain RunSpec or a
// sweep ({"base": {...}, "sweep": {"path": [...]}, "replicates": N}) —
// and validates every cell it expands to. Like Parse it returns
// structured errors and never panics.
func ParseFile(data []byte) (*File, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, asError(decodeError(err))
	}
	if _, isSweep := probe["base"]; !isSweep {
		s, err := Parse(data)
		if err != nil {
			return nil, err
		}
		return &File{Single: s}, nil
	}

	var doc sweepDoc
	if err := strictUnmarshal(data, &doc); err != nil {
		return nil, err
	}
	base, err := Parse(doc.Base)
	if err != nil {
		return nil, prefixPaths(err, "base.")
	}
	if doc.Replicates < 0 {
		return nil, errf("replicates", "must not be negative")
	}

	// JSON map order is unspecified; sort axis paths so the run matrix
	// is deterministic for a given document.
	paths := make([]string, 0, len(doc.Sweep))
	for p := range doc.Sweep {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	sw := &Sweep{Base: *base, Replicates: doc.Replicates}
	for _, p := range paths {
		values, aerr := parseAxisValues(p, doc.Sweep[p])
		if aerr != nil {
			return nil, aerr
		}
		sw.Axes = append(sw.Axes, Axis{Path: p, Values: values})
	}
	cells, cerr := sw.Cells()
	if cerr != nil {
		return nil, cerr
	}
	sw.cells = cells
	return &File{Name: doc.Name, Sweep: sw}, nil
}

// parseAxisValues decodes one axis: a JSON array of values or the
// range shorthand.
func parseAxisValues(path string, raw json.RawMessage) ([]any, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, errf("sweep."+path, "axis has no values")
	}
	if trimmed[0] == '[' {
		var values []any
		if err := unmarshalNumbers(trimmed, &values); err != nil {
			return nil, errf("sweep."+path, "cannot decode axis values: %v", err)
		}
		if len(values) == 0 {
			return nil, errf("sweep."+path, "axis has no values")
		}
		return values, nil
	}
	if trimmed[0] == '{' && strings.Contains(path, ",") {
		return nil, errf("sweep."+path, "a zipped axis takes a list of tuples, not a range")
	}
	if trimmed[0] == '{' {
		var r rangeAxis
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return nil, errf("sweep."+path, `axis must be a value list or {"from","to","step"}: %v`, err)
		}
		step := 1.0
		if r.Step != nil {
			step = *r.Step
		}
		if step <= 0 {
			return nil, errf("sweep."+path+".step", "must be positive")
		}
		if r.To < r.From {
			return nil, errf("sweep."+path, "empty range: to %v below from %v", r.To, r.From)
		}
		var values []any
		// Integer-step ranges iterate exactly; fractional steps tolerate
		// float error up to half a step.
		for v := r.From; v <= r.To+step/2; v += step {
			values = append(values, v)
			if len(values) > 10000 {
				return nil, errf("sweep."+path, "range expands to over 10000 values")
			}
		}
		return values, nil
	}
	return nil, errf("sweep."+path, "axis must be a value list or a range object")
}

// unmarshalNumbers decodes preserving number precision (json.Number
// instead of float64), so large integer seeds survive the override
// round-trip exactly.
func unmarshalNumbers(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// prefixPaths rebases an *Error's field paths under a prefix.
func prefixPaths(err error, prefix string) error {
	se, ok := err.(*Error)
	if !ok {
		return err
	}
	out := &Error{Fields: make([]FieldError, len(se.Fields))}
	for i, f := range se.Fields {
		out.Fields[i] = FieldError{Path: prefix + f.Path, Reason: f.Reason}
	}
	return out
}

// splitmix64 is the seed-derivation mix (same constants as the rng
// package's stream splitting; reimplemented here because the spec
// layer derives seeds, not streams).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed derives the run seed of sweep cell `cell`, replicate
// `rep`, from the base seed. Cell 0 replicate 0 keeps the base seed
// verbatim, so a one-cell sweep reproduces the plain run exactly; every
// other coordinate chains SplitMix64 so nearby cells get decorrelated
// streams.
func DeriveSeed(base uint64, cell, rep int) uint64 {
	if cell == 0 && rep == 0 {
		return base
	}
	h := splitmix64(base ^ 0xD6E8FEB86659FD93)
	h = splitmix64(h ^ uint64(cell))
	h = splitmix64(h ^ uint64(rep))
	return h
}

// maxSweepRuns bounds what one sweep may expand to, cells × replicates:
// the expansion is held in memory, so without a bound a one-line
// document could exhaust it.
const maxSweepRuns = 100000

// Cells expands the sweep into its validated run matrix.
func (s *Sweep) Cells() ([]Cell, *Error) {
	if s.cells != nil {
		return s.cells, nil
	}
	reps := s.Replicates
	if reps == 0 {
		reps = 1
	}
	dims := make([]int, len(s.Axes))
	paths := make([][]string, len(s.Axes))
	swept := map[string]bool{}
	total := 1
	for i, ax := range s.Axes {
		if len(ax.Values) == 0 {
			return nil, errf("sweep."+ax.Path, "axis has no values")
		}
		paths[i] = strings.Split(ax.Path, ",")
		for _, p := range paths[i] {
			if strings.TrimSpace(p) == "" {
				return nil, errf("sweep", "axis %q has an empty path", ax.Path)
			}
			if swept[p] {
				return nil, errf("sweep."+ax.Path, "path %q is swept twice (a path may appear in one axis only)", p)
			}
			swept[p] = true
		}
		for j, v := range ax.Values {
			if t, ok := v.([]any); len(paths[i]) > 1 && (!ok || len(t) != len(paths[i])) {
				return nil, errf("sweep."+ax.Path, "value %d must be an array of %d values, one per path", j, len(paths[i]))
			}
		}
		dims[i] = len(ax.Values)
		total *= dims[i]
		if total > maxSweepRuns {
			return nil, errf("sweep", "matrix expands to over %d cells", maxSweepRuns)
		}
	}
	if reps > maxSweepRuns/total { // division: total*reps may overflow
		return nil, errf("replicates", "%d cells × %d replicates expands to over %d runs", total, reps, maxSweepRuns)
	}

	baseJSON, err := s.Base.JSON()
	if err != nil {
		return nil, errf("base", "cannot serialise base spec: %v", err)
	}
	var baseDoc map[string]any
	if uerr := unmarshalNumbers(baseJSON, &baseDoc); uerr != nil {
		return nil, errf("base", "cannot re-read base spec: %v", uerr)
	}

	var cells []Cell
	idx := make([]int, len(s.Axes))
	for cell := 0; cell < total; cell++ {
		overrides := map[string]any{}
		doc := deepCopy(baseDoc).(map[string]any)
		for i, ax := range s.Axes {
			for j, p := range paths[i] {
				v := ax.Values[idx[i]]
				if len(paths[i]) > 1 {
					v = v.([]any)[j]
				}
				overrides[p] = v
				if serr := setPath(doc, p, deepCopy(v)); serr != nil {
					return nil, serr
				}
			}
		}
		cellJSON, merr := json.Marshal(doc)
		if merr != nil {
			return nil, errf("sweep", "cell %d does not serialise: %v", cell, merr)
		}
		cellSpec, perr := Parse(cellJSON)
		if perr != nil {
			pe, _ := prefixPaths(perr, "sweep(cell "+strconv.Itoa(cell)+").").(*Error)
			return nil, pe
		}
		for rep := 0; rep < reps; rep++ {
			cs := *cellSpec
			if swept["seed"] {
				cs.Seed = DeriveSeed(cs.Seed, 0, rep)
			} else {
				cs.Seed = DeriveSeed(s.Base.Seed, cell, rep)
			}
			cells = append(cells, Cell{
				Index:     cell,
				Replicate: rep,
				Spec:      cs,
				Overrides: overrides,
			})
		}
		// Advance the odometer, last axis fastest.
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < dims[i] {
				break
			}
			idx[i] = 0
		}
	}
	return cells, nil
}

// setPath assigns v at the dotted path inside a JSON object tree,
// creating intermediate objects as needed. The subsequent strict
// re-Parse of the cell document catches paths that name no spec field.
func setPath(doc map[string]any, path string, v any) *Error {
	parts := strings.Split(path, ".")
	cur := doc
	for i, p := range parts[:len(parts)-1] {
		next, ok := cur[p]
		if !ok || next == nil {
			child := map[string]any{}
			cur[p] = child
			cur = child
			continue
		}
		child, ok := next.(map[string]any)
		if !ok {
			return errf("sweep."+path, "path segment %q is not an object", strings.Join(parts[:i+1], "."))
		}
		cur = child
	}
	cur[parts[len(parts)-1]] = v
	return nil
}

// deepCopy copies the maps and slices of a decoded JSON value, so that an
// axis writing beneath the copy changes this cell's document only — not
// the base document every cell starts from, not the axis value, and not
// the Overrides of the cells that share it.
func deepCopy(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = deepCopy(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = deepCopy(e)
		}
		return out
	}
	return v
}

// run builds and runs the cell and labels the report with the cell's
// coordinates. It depends on nothing but the cell, so the cells of a
// sweep may run in any order and at the same time.
func (c Cell) run(opts RunOpts) (*Report, error) {
	b, err := Build(c.Spec)
	if err != nil {
		return nil, prefixPaths(err, "sweep(cell "+strconv.Itoa(c.Index)+").")
	}
	rep := b.Run(opts)
	rep.Cell, rep.Replicate, rep.Overrides = c.Index, c.Replicate, c.Overrides
	return rep, nil
}

// Run expands the sweep, runs its cells on a pool of
// runtime.GOMAXPROCS(0) workers — the GOMAXPROCS environment variable
// is the cap on a shared host — and returns one report per
// cell×replicate, in Cells order whatever order the cells finished in.
// Deterministic for deterministic specs: the same sweep document yields
// byte-identical marshalled reports on every invocation and for every
// worker count, because a cell's report depends on the cell alone (run)
// and each report is slotted by index.
//
// On failure Run returns the lowest failing cell's error and exactly
// the reports of the cells before it, as a serial loop would: indices
// are claimed in increasing order and a claimed cell always runs to
// completion, so every cell below a failing one has finished by the
// time the workers are joined. At most one runtime per worker is alive
// at once, and no goroutine outlives the call.
//
// Cancelling opts.Context is treated exactly as a failed cell, except
// that the cells in flight stop too, within one generation each (they
// run under the same context): no further cell is claimed, every worker
// is joined, and Run returns the longest prefix of cells that finished
// uncancelled with an error wrapping context.Cause.
func (s *Sweep) Run(opts RunOpts) ([]*Report, error) {
	return s.run(opts, runtime.GOMAXPROCS(0))
}

// run is Run on a given number of workers (at least one); the tests
// compare worker counts through it.
func (s *Sweep) run(opts RunOpts, workers int) ([]*Report, error) {
	cells, cerr := s.Cells()
	if cerr != nil {
		return nil, cerr
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	reports := make([]*Report, len(cells))
	errs := make([]error, len(cells))
	// claiming is a child of the caller's context that a failed cell also
	// cancels: it gates claims only. The cells run under the caller's own
	// context, so a failure lets the cells in flight finish while a
	// cancellation stops them.
	caller := opts.Ctx()
	claiming, stopClaiming := context.WithCancel(caller)
	defer stopClaiming()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for claiming.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				rep, err := cells[i].run(opts)
				if err == nil && caller.Err() != nil {
					err = cancelledAt(caller, cells[i])
				}
				if reports[i], errs[i] = rep, err; err != nil {
					stopClaiming()
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			return reports[:i], errs[i]
		}
		if reports[i] == nil { // never claimed: the caller cancelled between cells
			return reports[:i], cancelledAt(caller, c)
		}
	}
	return reports, nil
}

// cancelledAt is the error of a sweep whose context ended with cell c
// the first not to finish.
func cancelledAt(ctx context.Context, c Cell) error {
	return fmt.Errorf("sweep cancelled at cell %d (replicate %d): %w", c.Index, c.Replicate, context.Cause(ctx))
}
