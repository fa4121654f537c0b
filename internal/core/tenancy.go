package core

import (
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// Tenancy configures multi-VPC operation (§4 "Multitenancy support"):
// each switch's memory is statically partitioned into per-tenant private
// caches so tenants cannot observe or disturb one another's entries, and
// an operator policy decides which VPCs get in-network caching at all
// (e.g. only when their gateway load justifies it). Disabled tenants
// fall back to plain gateway forwarding.
type Tenancy struct {
	// Shares maps tenant -> fraction of every switch's lines assigned to
	// that tenant's private partition. Fractions should sum to <= 1;
	// tenants without an entry get no partition (and thus no caching).
	Shares map[vnet.TenantID]float64

	// Enabled, when non-nil, gates in-network caching per tenant: a
	// tenant with a share but Enabled() == false is not cached either.
	Enabled func(t vnet.TenantID) bool
}

// enabledFor reports whether a tenant participates in caching.
func (t *Tenancy) enabledFor(id vnet.TenantID) bool {
	if _, ok := t.Shares[id]; !ok {
		return false
	}
	return t.Enabled == nil || t.Enabled(id)
}

// zeroCache is the shared no-op cache handed out for unknown or
// disabled tenants.
var zeroCache = NewCache(0)

// buildTenantCaches constructs the per-switch per-tenant partitions.
func buildTenantCaches(topo *topology.Topology, opts Options) []map[vnet.TenantID]*Cache {
	out := make([]map[vnet.TenantID]*Cache, len(topo.Switches))
	for i, sw := range topo.Switches {
		lines := opts.LinesPerSwitch
		if opts.SizeFor != nil {
			lines = opts.SizeFor(sw)
		}
		part := make(map[vnet.TenantID]*Cache, len(opts.Tenancy.Shares))
		for tenant, share := range opts.Tenancy.Shares {
			part[tenant] = NewCache(int(share * float64(lines)))
		}
		out[i] = part
	}
	return out
}

// cacheFor returns the cache partition serving the given switch and
// tenant (VNI). With tenancy disabled this is the switch's single shared
// cache.
func (s *Scheme) cacheFor(sw int32, vni uint32) *Cache {
	if s.opts.Tenancy == nil {
		return s.caches[sw]
	}
	tenant := vnet.TenantID(vni)
	if !s.opts.Tenancy.enabledFor(tenant) {
		return zeroCache
	}
	if c, ok := s.tenantCaches[sw][tenant]; ok {
		return c
	}
	return zeroCache
}

// TenantCache exposes one tenant's partition on a switch (tests,
// analysis). Returns the zero cache when tenancy is off or the tenant is
// unknown.
func (s *Scheme) TenantCache(sw int32, tenant vnet.TenantID) *Cache {
	if s.opts.Tenancy == nil {
		return zeroCache
	}
	if c, ok := s.tenantCaches[sw][tenant]; ok {
		return c
	}
	return zeroCache
}
