package spec

import (
	"fmt"
	"strings"
)

// FieldError locates one validation failure. Path is the dotted JSON
// path of the offending field ("islands.migration.interval"); Reason is
// a human-readable explanation. Both serialise, so a daemon accepting
// specs over the wire (the pgad north-star) can return them verbatim.
type FieldError struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

// Error implements error.
func (e FieldError) Error() string { return e.Path + ": " + e.Reason }

// Error is the structured validation error of the spec layer: every
// problem found in one pass, each located by field path. Parse, Resolve
// and Build never return unstructured fmt.Errorf strings — a malformed
// spec always yields an *Error (and never a panic; FuzzParse enforces
// this).
type Error struct {
	Fields []FieldError `json:"fields"`
}

// Error implements error.
func (e *Error) Error() string {
	switch len(e.Fields) {
	case 0:
		return "spec: invalid"
	case 1:
		return "spec: " + e.Fields[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "spec: %d errors:", len(e.Fields))
	for _, f := range e.Fields {
		b.WriteString("\n  " + f.Error())
	}
	return b.String()
}

// add appends one located failure.
func (e *Error) add(path, format string, args ...any) {
	e.Fields = append(e.Fields, FieldError{Path: path, Reason: fmt.Sprintf(format, args...)})
}

// nonNegative reports a negative count or amount at path, and a NaN one:
// a NaN budget never fires, so a run under it would never end.
func nonNegative[T int | int64 | float64](e *Error, path string, v T) {
	if !(v >= 0) {
		e.add(path, "must not be negative")
	}
}

// inUnit reports a rate or probability outside [0,1] (NaN included).
func inUnit(e *Error, path string, v float64) {
	if !(v >= 0 && v <= 1) {
		e.add(path, "must be in [0,1]")
	}
}

// asError converts a possibly-nil *Error to a clean error value.
func asError(e *Error) error {
	if e == nil {
		return nil
	}
	return e
}

// errf builds a single-field Error.
func errf(path, format string, args ...any) *Error {
	return &Error{Fields: []FieldError{{Path: path, Reason: fmt.Sprintf(format, args...)}}}
}
