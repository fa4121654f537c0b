// Package hotpathalloc seeds allocation-contract violations inside
// annotated hot-path functions; the same constructs in unannotated
// functions must stay silent.
package hotpathalloc

import "fmt"

type record struct {
	id  int
	buf []byte
}

type pool struct {
	free []*record
	name string
}

// hot is under the contract: every per-call allocation is a finding.
//
//v2plint:hotpath
func (p *pool) hot(n int, sink func(any)) {
	_ = func() int { return n } // want `closure in hot-path function pool\.hot allocates per call`
	_ = map[int]bool{}          // want `map literal in hot-path function pool\.hot heap-allocates per call`
	_ = []int{n}                // want `slice literal in hot-path function pool\.hot heap-allocates per call`
	_ = &record{id: n}          // want `&-composite literal in hot-path function pool\.hot heap-allocates per call`
	_ = make([]byte, n)         // want `make in hot-path function pool\.hot heap-allocates per call`
	sink(n)                     // want `boxing int into interface` `hot-path function pool\.hot makes a dynamic call through sink`
}

// describe mixes fmt and string building.
//
//v2plint:hotpath
func describe(name string, id int) string {
	s := fmt.Sprintf("%s-%d", name, id) // want `fmt call in hot-path function describe allocates per call`
	return s + name                     // want `string concatenation in hot-path function describe heap-allocates per call`
}

// convert boxes through an explicit interface conversion.
//
//v2plint:hotpath
func convert(n int) any {
	return any(n) // want `boxing int into interface`
}

// recycle exercises the append rule: pooled destinations (fields,
// parameters) may grow, function-local slices may not.
//
//v2plint:hotpath
func (p *pool) recycle(r *record, scratch []int) []int {
	p.free = append(p.free, r)   // field append: pooled, allowed
	scratch = append(scratch, 1) // parameter append: caller-owned, allowed
	local := p.free[:0]
	local = append(local, r) // want `append to function-local slice local in hot-path function pool\.recycle`
	_ = local
	return scratch
}

// ok holds the allocation-free idioms the hot path is built on: value
// struct literals stay on the stack, pointers fit the interface word,
// and constant concatenation folds at compile time. (Calling through
// the func-valued parameter is still a dynamic call.)
//
//v2plint:hotpath
func (p *pool) ok(sink func(any), r *record) record {
	v := record{id: 1}
	sink(r) // want `hot-path function pool\.ok makes a dynamic call through sink`
	const tag = "hot" + "path"
	_ = tag
	return v
}

// waived shows a justified waiver still works under the new grammar.
//
//v2plint:hotpath
func waived(n int) []byte {
	//v2plint:allow hotpath one-time growth, amortized by the caller's pool
	return make([]byte, n)
}

// cold is NOT annotated: the same constructs are fine off the hot path.
func (p *pool) cold(n int, sink func(any)) {
	_ = func() int { return n }
	_ = map[int]bool{}
	_ = make([]byte, n)
	sink(n)
}
