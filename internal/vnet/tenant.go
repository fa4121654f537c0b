package vnet

import (
	"fmt"

	"switchv2p/internal/netaddr"
)

// TenantID identifies a Virtual Private Cloud (VPC). Tenant 0 is the
// default tenant used by single-tenant experiments. On the wire the id
// travels as the tunnel VNI (24 bits).
type TenantID uint32

// MaxTenantID is the largest id expressible in the 24-bit VNI field.
const MaxTenantID TenantID = 1<<24 - 1

// AddVMForTenant places a new VM belonging to the given tenant.
func (n *Net) AddVMForTenant(host int32, tenant TenantID) (netaddr.VIP, error) {
	if tenant > MaxTenantID {
		return netaddr.NoVIP, fmt.Errorf("vnet: tenant %d exceeds the 24-bit VNI space", tenant)
	}
	return n.addVM(host, tenant), nil
}

// TenantOf returns the VM's tenant (0 for the default tenant and for
// unknown VIPs).
func (n *Net) TenantOf(vip netaddr.VIP) TenantID {
	if i, ok := n.slot(vip); ok && n.tenantOf != nil {
		return n.tenantOf[i]
	}
	return 0
}

// TenantVMs returns all VIPs belonging to the given tenant, in creation
// order. For tenant 0 this enumerates VMs never assigned to a tenant.
func (n *Net) TenantVMs(tenant TenantID) []netaddr.VIP {
	var out []netaddr.VIP
	for i, h := range n.hostOf {
		vip := n.firstVIP + netaddr.VIP(i)
		if h != noHost && n.TenantOf(vip) == tenant {
			out = append(out, vip)
		}
	}
	return out
}
