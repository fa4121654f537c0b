// Package hostscheme seeds the host-cache scheme family's hot-path
// shape: the per-packet resolve root must not reach the install
// machinery's allocations through unannotated helpers, while edges into
// annotated hot sub-roots (the table insert) are assume/guarantee
// silent.
package hostscheme

type tier struct {
	pending map[uint64]bool
	slots   []uint64
	used    int
}

// scheduleInstall allocates the pending set lazily; the allocation is
// silent here and reported at the hot root that reaches it.
func (t *tier) scheduleInstall(flow uint64) {
	if t.pending == nil {
		t.pending = make(map[uint64]bool)
	}
	t.pending[flow] = true
}

// insert is itself a hot root: its body is checked in its own right and
// callers do not inherit its effects (assume/guarantee).
//
//v2plint:hotpath
func (t *tier) insert(flow uint64) {
	if t.used < len(t.slots) {
		t.slots[t.used] = flow
		t.used++
	}
}

//v2plint:hotpath
func (t *tier) resolve(flow uint64) bool {
	if t.pending[flow] {
		return false
	}
	t.scheduleInstall(flow) // want `hot-path function tier\.resolve reaches a heap allocation: tier\.resolve → hostscheme\.tier\.scheduleInstall → make`
	return false
}

// learnAtToR snoops an arriving packet into the table through the hot
// insert sub-root. Silent.
//
//v2plint:hotpath
func (t *tier) learnAtToR(flow uint64) {
	t.insert(flow)
}

// rebuild is NOT a hot root: control-plane table rebuilds may allocate.
func (t *tier) rebuild(n int) {
	t.slots = make([]uint64, n)
	t.used = 0
}
