package integrate

// RootWork is what one integration did at the root element's children.
type RootWork struct {
	Pairs, Calls int  // pairs the join enumerated; pairs put to the Oracle
	Keys, Inputs int  // elements whose keys, inputs the Pairing derived
	Summaries    int  // child summaries merged into the merged root's summary
	FullSummary  bool // a removed child held a maximum: all were merged
}

// CountRootWork records the RootWork of every integration until stop is
// called; got returns what was recorded so far.
func CountRootWork() (got func() []RootWork, stop func()) {
	var works []RootWork
	noteRootWork = func(w rootWork) {
		works = append(works, RootWork{w.pairs, w.calls, w.keys, w.inputs, w.summaries, w.fullSummary})
	}
	return func() []RootWork { return works }, func() { noteRootWork = nil }
}
