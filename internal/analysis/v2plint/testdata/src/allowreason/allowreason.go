// Package allowreason seeds //v2plint:allow annotations in every
// arity: waivers missing a justification are findings, and so are
// justified waivers that waive nothing. The test runs globalrand beside
// allowreason; waivers naming analyzers that did not run are not judged.
// The diagnostics land on the annotation's own line, so the want
// comments use the harness's want-above form from the next line.
package allowreason

import "math/rand"

// justified carries an analyzer name and a reason; wallclock is not
// part of this run, so whether it waives anything is not judged. Silent.
func justified() {
	//v2plint:allow wallclock host-time stub for the waiver-grammar test
}

// live suppresses the globalrand finding on the next line. Silent.
func live() int {
	//v2plint:allow globalrand fixture draws once, order-independent
	return rand.Intn(3)
}

// stale outlived its finding: the draw it excused was replaced.
func stale() int {
	//v2plint:allow globalrand fixture draws once, order-independent
	// want-above `allow globalrand waiver suppressed no finding`
	return 3
}

// typo misspells the analyzer, so the finding below is not waived and
// the waiver waives nothing.
func typo() int {
	return rand.Intn(3) //v2plint:allow globalrnd fixture draws once, order-independent
	// want-above `waiver names unknown analyzer "globalrnd"` `rand\.Intn draws from the shared global generator`
}

// bare names an analyzer but gives no reason.
func bare() {
	//v2plint:allow detrange
	// want-above `waiver names analyzers but no reason; append a justification`
}

// empty names nothing at all.
func empty() {
	//v2plint:allow
	// want-above `waiver names no analyzer and no reason`
}

// selfWaive proves a waiver cannot excuse the allowreason finding it
// itself triggers.
func selfWaive() {
	//v2plint:allow allowreason
	// want-above `waiver names analyzers but no reason`
}
