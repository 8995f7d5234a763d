package fixture

// Suppression fixture: //pgalint:ignore semantics. Checked as
// pga/internal/p2p, where nowallclock forbids clock reads.

import "time"

func suppressedAbove() time.Time {
	//pgalint:ignore nowallclock fixture: the stamp is logged, never read by evolution
	return time.Now()
}

func suppressedSameLine() time.Time {
	return time.Now() //pgalint:ignore nowallclock fixture: provably unobserved
}

func suppressedAll() time.Time {
	//pgalint:ignore all fixture: everything suppressed on the next line
	return time.Now()
}

func wrongRule() time.Time {
	//pgalint:ignore norawrand a misdirected suppression does not apply
	return time.Now() // want nowallclock
}
