// Package core implements SwitchV2P, the paper's contribution: a
// topology-aware, data-plane protocol that caches virtual-to-physical
// address mappings inside network switches and learns them transparently
// from passing traffic (§3).
//
// The package provides the direct-mapped in-switch cache (Cache) and the
// full distributed protocol (Scheme), which plugs into the simulator via
// the simnet.Scheme interface. The Cache type is also reused by the
// cache-based baselines in internal/baselines.
package core

import (
	"switchv2p/internal/netaddr"
)

// entry is one cache line: key (VIP), value (PIP), and the access bit the
// admission policies consult (§3.2 "Cache structure").
type entry struct {
	vip    netaddr.VIP
	pip    netaddr.PIP
	access bool
}

// Cache is a direct-mapped V2P mapping cache, as implementable with three
// register arrays in a switch data plane (§3.4). A zero-line cache is
// valid and never hits; this models switches that do not cache.
type Cache struct {
	lines []entry

	// Counters for analysis.
	Lookups int64
	Hits    int64
}

// NewCache returns a cache with the given number of lines.
func NewCache(lines int) *Cache {
	if lines < 0 {
		panic("core: negative cache size")
	}
	return &Cache{lines: make([]entry, lines)}
}

// Len returns the number of lines.
func (c *Cache) Len() int { return len(c.lines) }

// Used returns the number of occupied lines (test/analysis helper).
func (c *Cache) Used() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].vip.IsValid() {
			n++
		}
	}
	return n
}

func (c *Cache) line(vip netaddr.VIP) *entry {
	return &c.lines[netaddr.HashVIP(vip)%uint32(len(c.lines))]
}

// Lookup searches for vip. On a hit it sets the line's access bit and
// returns the physical address. On a miss that lands on an occupied line
// holding a different key, the line's access bit is cleared — the
// single-bit recency signal from §3.2: "The access bit is turned off when
// a lookup ends up accessing that cache line but it is a miss."
// wasAccessed reports whether the access bit was already set before this
// lookup (the spine promotion trigger).
func (c *Cache) Lookup(vip netaddr.VIP) (pip netaddr.PIP, hit, wasAccessed bool) {
	if len(c.lines) == 0 {
		return netaddr.NoPIP, false, false
	}
	c.Lookups++
	ln := c.line(vip)
	if ln.vip == vip {
		c.Hits++
		wasAccessed = ln.access
		ln.access = true
		return ln.pip, true, wasAccessed
	}
	ln.access = false
	return netaddr.NoPIP, false, false
}

// Peek returns the mapping for vip without touching access bits or
// counters (test/analysis helper).
func (c *Cache) Peek(vip netaddr.VIP) (netaddr.PIP, bool) {
	if len(c.lines) == 0 {
		return netaddr.NoPIP, false
	}
	ln := c.line(vip)
	if ln.vip == vip {
		return ln.pip, true
	}
	return netaddr.NoPIP, false
}

// InsertResult describes what an insertion attempt did.
type InsertResult struct {
	// Inserted is true if the mapping is now in the cache (newly admitted
	// or refreshed).
	Inserted bool
	// New is true if the key was not previously present (a genuinely new
	// mapping — gateway ToRs generate learning packets only for these).
	New bool
	// Evicted is the valid mapping displaced by the insertion, if any
	// (the spillover payload).
	Evicted netaddr.Mapping
}

// Insert admits mapping m unconditionally (the "All" admission policy of
// ToRs and gateway ToRs, Table 1). If the line holds the same key, the
// value is refreshed in place. New entries start with the access bit
// clear: an entry is only proven useful by a subsequent hit.
func (c *Cache) Insert(m netaddr.Mapping) InsertResult {
	if len(c.lines) == 0 || !m.IsValid() {
		return InsertResult{}
	}
	ln := c.line(m.VIP)
	if ln.vip == m.VIP {
		changed := ln.pip != m.PIP
		ln.pip = m.PIP
		if changed {
			// A remapped VIP is effectively a new mapping: its old value
			// was stale.
			ln.access = false
		}
		return InsertResult{Inserted: true, New: false}
	}
	res := InsertResult{Inserted: true, New: true}
	if ln.vip.IsValid() {
		res.Evicted = netaddr.Mapping{VIP: ln.vip, PIP: ln.pip}
	}
	*ln = entry{vip: m.VIP, pip: m.PIP}
	return res
}

// InsertIfClear admits m only if the target line is empty, holds the same
// key, or has its access bit clear — the conservative admission policy of
// spines, gateway spines and cores (Table 1): never evict an entry that
// is known to be in active use for one that is merely plausible.
func (c *Cache) InsertIfClear(m netaddr.Mapping) InsertResult {
	if len(c.lines) == 0 || !m.IsValid() {
		return InsertResult{}
	}
	ln := c.line(m.VIP)
	if ln.vip != m.VIP && ln.vip.IsValid() && ln.access {
		return InsertResult{} // occupied by an actively used entry
	}
	return c.Insert(m)
}

// Invalidate removes the entry for vip if it maps to stalePIP, returning
// whether a removal happened. A cached value different from stalePIP is a
// newer mapping and is kept (§3.3).
func (c *Cache) Invalidate(vip netaddr.VIP, stalePIP netaddr.PIP) bool {
	if len(c.lines) == 0 {
		return false
	}
	ln := c.line(vip)
	if ln.vip == vip && ln.pip == stalePIP {
		*ln = entry{}
		return true
	}
	return false
}

// Flush clears every line, as a switch failure does to the register
// arrays. Capacity and cumulative counters survive.
func (c *Cache) Flush() {
	clear(c.lines)
}

// HitRate returns hits/lookups, or 0 with no lookups.
func (c *Cache) HitRate() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Lookups)
}
