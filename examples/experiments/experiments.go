// Package experiments holds the sweep documents behind the document-run
// experiments of internal/exp (DESIGN.md §4), embedded so cmd/pgabench
// runs them from any directory. Each *.json file is an ordinary
// `pgarun -config` sweep document; the table each experiment prints
// from it is its reducer in internal/exp.
package experiments

import "embed"

// Files holds every *.json document of this directory.
//
//go:embed *.json
var Files embed.FS
