package fixture

// Suppression fixture: //pgalint:ignore semantics. Checked as
// pga/internal/p2p so blockingsend is in scope.

func suppressedAbove(out chan<- int) {
	//pgalint:ignore blockingsend fixture: receiver guaranteed ready in this test
	out <- 1
}

func suppressedSameLine(out chan<- int) {
	out <- 2 //pgalint:ignore blockingsend fixture: provably safe
}

func suppressedAll(out chan<- int) {
	//pgalint:ignore all fixture: everything suppressed on the next line
	out <- 3
}

func wrongRule(out chan<- int) {
	//pgalint:ignore nowallclock a misdirected suppression does not apply
	out <- 4 // want blockingsend
}
