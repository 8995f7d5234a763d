package fixture

// Fixture for the ignore-justification check: a directive without a
// justification (or without a rule list) is itself a finding, and that
// finding cannot be suppressed. Checked as pga/internal/ga. This file
// carries no `// want` markers — the marker text on a directive line
// would read as its justification — so TestBareIgnores pins the
// expected lines explicitly.

type log struct{ entries []int }

func (l *log) justified(v int) {
	//pgalint:ignore boundedres fixture: the log is reset every epoch
	l.entries = append(l.entries, v)
}

func (l *log) bare(v int) {
	//pgalint:ignore boundedres
	l.entries = append(l.entries, v)
}

func (l *log) ruleless(v int) {
	//pgalint:ignore
	l.entries = append(l.entries, v)
}

func (l *log) bareSameLine(v int) {
	l.entries = append(l.entries, v) //pgalint:ignore boundedres
}

func (l *log) doubledDown(v int) {
	// A justified ignore naming the "ignore" rule must NOT silence the
	// check on the bare directive below it: the justification finding is
	// unsuppressible by design.
	//pgalint:ignore ignore fixture: attempting to suppress the ignore check itself
	//pgalint:ignore boundedres
	l.entries = append(l.entries, v)
}
