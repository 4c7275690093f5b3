// Package unusedallow exercises stale-suppression detection. It must run
// under the full analyzer suite (linttest.RunAnalyzers with lint.All()),
// since unusedallow audits the usage marks the other analyzers' suppression
// filtering leaves behind.
package unusedallow

import "time"

// used suppresses a live nodeterminism finding: the directive is consumed,
// so nothing is reported.
func used() int64 {
	return time.Now().UnixNano() //camlint:allow nodeterminism -- fixture: a consumed directive is not stale
}

// stale carries a directive for an analyzer that reports nothing here.
func stale() int {
	x := 1 //camlint:allow nodeterminism -- fixture: nothing fires // want "stale //camlint:allow nodeterminism"
	return x
}

// typo names something that is not an analyzer at all.
func typo() int {
	y := 2 //camlint:allow nodeterminsim -- fixture: misspelled // want "unknown analyzer nodeterminsim"
	return y
}

// bare carries a bare directive that suppresses nothing; bare staleness is
// only judged when the full suite runs.
func bare() {
	//camlint:allow -- fixture: bare and stale // want "stale //camlint:allow:"
}

// aboveUsed suppresses a nodeterminism finding from the line above it,
// proving a standalone directive covers the next line.
func aboveUsed() int64 {
	//camlint:allow nodeterminism -- fixture: a standalone directive is consumed
	return time.Now().UnixNano()
}

// declStale carries a declaration-level directive that suppresses nothing.
//
//camlint:allow errchecksim -- fixture: stale on a declaration // want "stale //camlint:allow errchecksim"
func declStale() {}

// verbTypo misspells the verb; a directive camlint does not know must not
// pass for a plain comment.
func verbTypo() int64 {
	return time.Now().UnixNano() //camlint:alow nodeterminism -- fixture: misspelled verb // want "unknown directive //camlint:alow" "wall-clock"
}
