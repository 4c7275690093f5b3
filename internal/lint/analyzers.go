package lint

// All returns every analyzer in the camlint suite, in execution order.
// UnusedAllow must stay last: it audits the suppression marks every other
// analyzer leaves behind.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		ErrCheckSim,
		EventTime,
		UnusedAllow,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
