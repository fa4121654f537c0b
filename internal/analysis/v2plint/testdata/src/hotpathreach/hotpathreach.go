// Package hotpathreach seeds transitive hot-path contract violations:
// the effects live in unannotated helpers (or another package, or
// behind an interface), and the findings land at the hot root's call
// site with the witness chain.
package hotpathreach

import (
	"fmt"
	"time"

	"hotpathreach/helper"
)

// format allocates via fmt one hop from the root.
func format(id int) string {
	return fmt.Sprint(id)
}

// mid adds a second hop before the cross-package allocation.
func mid(n int) []byte {
	return helper.Grow(n)
}

// clock reads the wall clock.
func clock() int64 {
	return time.Now().UnixNano()
}

//v2plint:hotpath
func forward(id int, emit func(string)) {
	s := format(id) // want `hot-path function forward reaches fmt formatting: forward → hotpathreach\.format → fmt\.Sprint`
	buf := mid(id)  // want `hot-path function forward reaches a heap allocation: forward → hotpathreach\.mid → helper\.Grow → make`
	emit(s)         // want `hot-path function forward makes a dynamic call through emit`
	_ = buf
}

//v2plint:hotpath
func stamp() int64 {
	return clock() // want `hot-path function stamp reaches a wall-clock read: stamp → hotpathreach\.clock → time\.Now`
}

// encoder dispatch: the interface call resolves against every concrete
// implementation the Program has seen; only the impure one reports.
type encoder interface{ Encode(int) string }

type jsonEnc struct{}

func (jsonEnc) Encode(n int) string { return fmt.Sprint(n) }

type nullEnc struct{}

func (nullEnc) Encode(int) string { return "" }

//v2plint:hotpath
func forwardVia(e encoder, n int) string {
	return e.Encode(n) // want `hot-path function forwardVia reaches fmt formatting: forwardVia → hotpathreach\.jsonEnc\.Encode → fmt\.Sprint`
}

// subRoot is itself a hot root: its body is reported in its own right,
// and callers do not inherit its effects (assume/guarantee), so the edge
// below is silent.
//
//v2plint:hotpath
func subRoot(n int) []byte {
	return make([]byte, n) // want `make in hot-path function subRoot heap-allocates per call`
}

//v2plint:hotpath
func forwardPooled(n int) {
	_ = subRoot(n)
}

// forwardWaived shows a reason-carrying waiver at the reaching call.
//
//v2plint:hotpath
func forwardWaived(id int) string {
	//v2plint:allow hotpath cold diagnostics branch, never taken in measured runs
	return format(id)
}

// cold is NOT a hot root: reaching allocating helpers is fine here.
func cold(id int) string {
	return format(id)
}
