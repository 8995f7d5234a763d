package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
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

// Cells expands the sweep into its validated run matrix. Each cell is
// assembled from Base, which ParseFile has validated: Base is copied, the
// cell's axis values — each decoded once, strictly, into its field's type
// — are assigned at their paths, and the cell is validated as Parse
// validates a document. A cell is the spec that Parse gives for the base
// document with the cell's values written into it, and its errors are
// that document's; cells share no pointer, slice or map with each other
// or with Base.
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

	a, aerr := s.assembly(paths)
	if aerr != nil {
		return nil, aerr
	}
	var cells []Cell
	idx := make([]int, len(s.Axes))
	for cell := 0; cell < total; cell++ {
		overrides := map[string]any{}
		for _, p := range a.paths {
			overrides[p.name] = p.value(s.Axes, idx[p.axis])
		}
		cellSpec, cerr := a.cell(idx, cell)
		if cerr != nil {
			return nil, cerr
		}
		if _, rerr := resolve(cellSpec); rerr != nil {
			pe, _ := prefixPaths(rerr, "sweep(cell "+strconv.Itoa(cell)+").").(*Error)
			return nil, pe
		}
		for rep := 0; rep < reps; rep++ {
			cs := cellSpec
			if rep > 0 {
				cs = copySpec(cellSpec, false)
			}
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

// assembly is how a sweep's cells are put together: its paths in the
// order their values are written, each resolved to its RunSpec field,
// with every axis value decoded once.
type assembly struct {
	axes []Axis
	// base is Base as its JSON document decodes: every slice and map of
	// the schema is tagged omitempty, so an empty one is nil.
	base  RunSpec
	paths []sweptPath
	// viaJSON[axis][value] reports that the value cannot simply be
	// assigned as decoded: a path of it names no field, it does not
	// decode, or a path swept beneath it later meets a non-object, or a
	// key that names its next field in another case, on its way through
	// it. A cell with such a value is assembled from the JSON document
	// of its values, which the strict decoder reads as it would read
	// the whole cell document; every other cell by assignment.
	viaJSON [][]bool
	// leaves are the base values that paths are swept beneath. They go
	// into that document too: a path through a base value is no object,
	// while through an absent one it puts an object in a scalar field.
	leaves []leaf
}

// leaf is a base value at a path.
type leaf struct {
	segs []string
	v    any
}

// sweptPath is one path of one axis.
type sweptPath struct {
	name  string
	segs  []string
	axis  int
	slot  int // position in a zipped axis's tuples; -1 for a plain axis
	at    route
	named bool            // at resolves every segment
	typed []reflect.Value // the axis values decoded into at's type
}

// value is the path's part of axis value j, as the document wrote it.
func (p *sweptPath) value(axes []Axis, j int) any {
	v := axes[p.axis].Values[j]
	if p.slot >= 0 {
		v = v.([]any)[p.slot]
	}
	return v
}

// route is a field below RunSpec: struct field indices (through
// pointers), then a map key when the path ends inside a map.
type route struct {
	index     []int
	key       string
	inMap     bool
	omitEmpty bool         // the route ends at a field tagged omitempty
	typ       reflect.Type // what a value at the route decodes into
}

// routeOf follows segs down RunSpec by JSON field name. It returns the
// route of the longest prefix it could follow and that prefix's length;
// beneathLeaf reports that it stopped below a scalar, an array or a map
// entry, not at an unknown field. A segment that names a field only in
// another case is refused: the decoder would merge it with the base's
// own key for the field, and the base's value would win.
func routeOf(segs []string) (r route, n int, beneathLeaf bool, err *Error) {
	t := reflect.TypeOf(RunSpec{})
	for ; n < len(segs); n++ {
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		switch {
		case t.Kind() == reflect.Struct:
			f, ok := jsonField(t, segs[n])
			if !ok {
				return r, n, false, nil
			}
			if name := jsonName(f); name != segs[n] {
				return r, n, false, errf("sweep."+strings.Join(segs, "."), "%q names field %q in another case; sweep paths name fields exactly", segs[n], name)
			}
			r.index = append(r.index, f.Index[0])
			r.omitEmpty = strings.HasSuffix(f.Tag.Get("json"), ",omitempty")
			t = f.Type
		case t.Kind() == reflect.Map && !r.inMap:
			r.key, r.inMap, r.omitEmpty = segs[n], true, false
			t = t.Elem()
		default:
			return r, n, true, nil
		}
	}
	r.typ = t
	return r, n, false, nil
}

// jsonField finds t's field for the JSON key name as encoding/json does:
// the field of that name, or else one whose name matches in another case.
func jsonField(t reflect.Type, name string) (reflect.StructField, bool) {
	var fold reflect.StructField
	found := false
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if n := jsonName(f); n == name {
			return f, true
		} else if !found && strings.EqualFold(n, name) {
			fold, found = f, true
		}
	}
	return fold, found
}

// jsonName is a field's JSON key.
func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// assembly resolves the sweep's paths and decodes its axis values.
func (s *Sweep) assembly(paths [][]string) (*assembly, *Error) {
	a := &assembly{axes: s.Axes, base: copySpec(s.Base, true), viaJSON: make([][]bool, len(s.Axes))}
	for i, ax := range s.Axes {
		a.viaJSON[i] = make([]bool, len(ax.Values))
		for slot, name := range paths[i] {
			p := sweptPath{name: name, segs: strings.Split(name, "."), axis: i, slot: -1}
			if len(paths[i]) > 1 {
				p.slot = slot
			}
			at, n, beneathLeaf, err := routeOf(p.segs)
			if err != nil {
				return nil, err
			}
			p.at, p.named = at, n == len(p.segs)
			if v, ok := get(reflect.ValueOf(&a.base).Elem(), at); ok && beneathLeaf &&
				!(at.omitEmpty && v.IsZero()) && !(v.Kind() == reflect.Pointer && v.IsNil()) {
				a.leaves = append(a.leaves, leaf{p.segs[:n], v.Interface()})
			}
			for j := range ax.Values {
				v, ok := p.decode(p.value(s.Axes, j))
				p.typed = append(p.typed, v)
				a.viaJSON[i][j] = a.viaJSON[i][j] || !ok
			}
			a.paths = append(a.paths, p)
		}
	}
	for i, r := range a.paths {
		for _, p := range a.paths[i+1:] {
			if len(p.segs) > len(r.segs) && slices.Equal(p.segs[:len(r.segs)], r.segs) {
				for j := range s.Axes[r.axis].Values {
					if !writesThrough(r.value(s.Axes, j), p.segs[len(r.segs):]) {
						a.viaJSON[r.axis][j] = true
					}
				}
			}
		}
	}
	return a, nil
}

// decode decodes one axis value strictly into the path's field type.
func (p *sweptPath) decode(v any) (reflect.Value, bool) {
	if !p.named {
		return reflect.Value{}, false
	}
	data, err := json.Marshal(v)
	if err != nil {
		return reflect.Value{}, false
	}
	out := reflect.New(p.at.typ)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if dec.Decode(out.Interface()) != nil {
		return reflect.Value{}, false
	}
	return out.Elem(), true
}

// writesThrough reports whether writing at rel inside the JSON value v
// assigns a field and nothing else: v holds objects (or nothing) along
// rel, and no key on the way names a segment of rel in another case.
func writesThrough(v any, rel []string) bool {
	for _, seg := range rel {
		if v == nil {
			return true
		}
		m, ok := v.(map[string]any)
		if !ok {
			return false
		}
		for k := range m {
			if k != seg && strings.EqualFold(k, seg) {
				return false
			}
		}
		v = m[seg]
	}
	return true
}

// cell assembles the spec of the cell at idx (cell is its number).
func (a *assembly) cell(idx []int, cell int) (RunSpec, *Error) {
	for i, j := range idx {
		if a.viaJSON[i][j] {
			return a.cellFromJSON(idx, cell)
		}
	}
	spec := copySpec(a.base, false)
	dst := reflect.ValueOf(&spec).Elem()
	for _, p := range a.paths {
		set(dst, p.at, p.typed[idx[p.axis]])
	}
	return spec, nil
}

// cellFromJSON assembles the cell at idx from the JSON document of its
// values and of the base leaves paths are swept beneath, decoded as
// Parse decodes; a decoding error is the whole cell document's.
func (a *assembly) cellFromJSON(idx []int, cell int) (RunSpec, *Error) {
	doc := map[string]any{}
	for _, l := range a.leaves {
		put(doc, l.segs, l.v) // cannot fail: no leaf lies beneath another
	}
	for _, p := range a.paths {
		if err := put(doc, p.segs, p.value(a.axes, idx[p.axis])); err != nil {
			return RunSpec{}, err
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return RunSpec{}, errf("sweep", "cell %d does not serialise: %v", cell, err)
	}
	var values RunSpec
	if err := strictUnmarshal(data, &values); err != nil {
		pe, _ := prefixPaths(err, "sweep(cell "+strconv.Itoa(cell)+").").(*Error)
		return RunSpec{}, pe
	}
	spec := copySpec(a.base, false)
	dst, src := reflect.ValueOf(&spec).Elem(), reflect.ValueOf(&values).Elem()
	for _, p := range a.paths {
		if v, ok := get(src, p.at); ok && p.named {
			set(dst, p.at, v)
		}
	}
	return spec, nil
}

// put writes v at segs in the JSON object tree doc, creating objects
// where it finds nothing (or null) and copying each object it enters, so
// that the axis values the tree holds are never written.
func put(doc map[string]any, segs []string, v any) *Error {
	cur := doc
	for i, seg := range segs[:len(segs)-1] {
		var child map[string]any
		switch next := cur[seg].(type) {
		case nil:
			child = map[string]any{}
		case map[string]any:
			child = maps.Clone(next)
		default:
			return errf("sweep."+strings.Join(segs, "."), "path segment %q is not an object", strings.Join(segs[:i+1], "."))
		}
		cur[seg] = child
		cur = child
	}
	cur[segs[len(segs)-1]] = v
	return nil
}

// get reads the value at r inside v; ok is false when a nil pointer or a
// missing map key is on the way.
func get(v reflect.Value, r route) (reflect.Value, bool) {
	for _, i := range r.index {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return reflect.Value{}, false
			}
			v = v.Elem()
		}
		v = v.Field(i)
	}
	if r.inMap {
		v = v.MapIndex(reflect.ValueOf(r.key))
	}
	return v, v.IsValid()
}

// set assigns a copy of x at r inside v (see deepen), allocating the
// structs and the map on the way.
func set(v reflect.Value, r route, x reflect.Value) {
	for _, i := range r.index {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		v = v.Field(i)
	}
	if r.inMap {
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		v.SetMapIndex(reflect.ValueOf(r.key), deepened(x))
		return
	}
	v.Set(x)
	deepen(v, false)
}

// copySpec returns a copy of s that shares no pointer, slice or map
// with it. With omitEmpty an empty slice or map copies as nil.
func copySpec(s RunSpec, omitEmpty bool) RunSpec {
	deepen(reflect.ValueOf(&s).Elem(), omitEmpty)
	return s
}

// deepen replaces every pointer, slice and map reachable from the
// settable v with a copy of what it refers to.
func deepen(v reflect.Value, omitEmpty bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			c := reflect.New(v.Type().Elem())
			c.Elem().Set(v.Elem())
			deepen(c.Elem(), omitEmpty)
			v.Set(c)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			deepen(v.Field(i), omitEmpty)
		}
	case reflect.Slice:
		if v.IsNil() || omitEmpty && v.Len() == 0 {
			v.SetZero()
			return
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(c, v)
		for i := 0; i < c.Len(); i++ {
			deepen(c.Index(i), omitEmpty)
		}
		v.Set(c)
	case reflect.Map:
		if v.IsNil() || omitEmpty && v.Len() == 0 {
			v.SetZero()
			return
		}
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			c.SetMapIndex(it.Key(), deepened(it.Value()))
		}
		v.Set(c)
	}
}

// deepened is a deepened copy of v.
func deepened(v reflect.Value) reflect.Value {
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	deepen(c, false)
	return c
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
