package fixture

// Fixture for rule names in //pgalint:ignore directives: a name no rule
// answers to suppresses nothing, so the directive is itself reported
// under the unsuppressible "ignore" rule. Checked as pga/internal/p2p so
// blockingsend is in scope. The `want` markers on directive lines are
// part of their justifications.

func misspelt(out chan<- int) {
	//pgalint:ignore blockingsnd fixture: a misspelt rule name suppresses nothing // want ignore
	out <- 1 // want blockingsend
}

func mixed(out chan<- int) {
	//pgalint:ignore blockingsend,nosuchrule fixture: the known name still suppresses // want ignore
	out <- 2
}
