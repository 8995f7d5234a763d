package fixture

// Fixture for rule names in //pgalint:ignore directives: a name no rule
// answers to suppresses nothing, so the directive is itself reported
// under the unsuppressible "ignore" rule. Checked as pga/internal/p2p so
// nowallclock is in scope. The `want` markers on directive lines are
// part of their justifications.

import "time"

func misspelt() time.Time {
	//pgalint:ignore nowallclok fixture: a misspelt rule name suppresses nothing // want ignore
	return time.Now() // want nowallclock
}

func mixed() time.Time {
	//pgalint:ignore nowallclock,nosuchrule fixture: the known name still suppresses // want ignore
	return time.Now()
}
