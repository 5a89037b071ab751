//! Multi-tenancy bookkeeping and HIP-based tenant isolation policy.
//!
//! The paper's core security scenario (§III-B, §IV-A): VMs of *competing*
//! organisations share the same physical cloud; each tenant must be
//! isolated from the others. With HIP, isolation is host-centric: every
//! VM gets a cryptographic identity, and each VM's firewall admits only
//! the HITs of its own tenant — no VLAN plumbing, no dependence on the
//! provider (the approach "can be adopted by individual tenants in an
//! incremental fashion", §VI-B).

use crate::topology::VmHandle;
use hip_core::{Firewall, Hit};
use netsim::fx::FxHashMap;

/// A tenant (cloud subscriber).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TenantId(pub u32);

/// Registry of which VM belongs to which tenant, with each VM's HIT.
#[derive(Default)]
pub struct TenantRegistry {
    vms: Vec<(TenantId, VmHandle, Hit)>,
    by_tenant: FxHashMap<TenantId, Vec<usize>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a VM for a tenant.
    pub fn register(&mut self, tenant: TenantId, vm: VmHandle, hit: Hit) {
        let idx = self.vms.len();
        self.vms.push((tenant, vm, hit));
        self.by_tenant.entry(tenant).or_default().push(idx);
    }

    /// All HITs belonging to `tenant`.
    pub fn hits_of(&self, tenant: TenantId) -> Vec<Hit> {
        self.by_tenant
            .get(&tenant)
            .map(|idxs| idxs.iter().map(|&i| self.vms[i].2).collect())
            .unwrap_or_default()
    }

    /// All VMs belonging to `tenant`.
    pub fn vms_of(&self, tenant: TenantId) -> Vec<VmHandle> {
        self.by_tenant
            .get(&tenant)
            .map(|idxs| idxs.iter().map(|&i| self.vms[i].1).collect())
            .unwrap_or_default()
    }

    /// The tenant owning a HIT, if any.
    pub fn tenant_of(&self, hit: &Hit) -> Option<TenantId> {
        self.vms
            .iter()
            .find(|(_, _, h)| h == hit)
            .map(|(t, _, _)| *t)
    }

    /// Builds the intra-tenant firewall for one of `tenant`'s VMs:
    /// deny-by-default, allow every same-tenant HIT (including the VM's
    /// own, harmlessly). This is the hosts.allow file §IV-A describes.
    pub fn isolation_firewall(&self, tenant: TenantId) -> Firewall {
        let mut fw = Firewall::deny_by_default();
        for hit in self.hits_of(tenant) {
            fw.allow(hit);
        }
        fw
    }

    /// Total registered VMs.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// True when no VMs are registered.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hip_core::Action;
    use netsim::link::{LinkId, NodeId};
    use netsim::packet::v4;

    fn vm(n: usize) -> VmHandle {
        VmHandle {
            node: NodeId(n),
            addr: v4(10, 1, 0, n as u8),
            link: LinkId(n),
            cloud: None,
        }
    }

    #[test]
    fn isolation_firewall_separates_tenants() {
        let mut reg = TenantRegistry::new();
        let coke = TenantId(1);
        let pepsi = TenantId(2);
        let h1 = Hit([1; 16]);
        let h2 = Hit([2; 16]);
        let h3 = Hit([3; 16]);
        reg.register(coke, vm(0), h1);
        reg.register(coke, vm(1), h2);
        reg.register(pepsi, vm(2), h3);

        let mut fw = reg.isolation_firewall(coke);
        assert_eq!(fw.check(&h2), Action::Allow, "same tenant allowed");
        assert_eq!(fw.check(&h3), Action::Deny, "competitor denied");
        assert_eq!(fw.check(&Hit([9; 16])), Action::Deny, "stranger denied");
    }

    #[test]
    fn registry_lookups() {
        let mut reg = TenantRegistry::new();
        let t = TenantId(7);
        let h = Hit([5; 16]);
        reg.register(t, vm(0), h);
        assert_eq!(reg.tenant_of(&h), Some(t));
        assert_eq!(reg.tenant_of(&Hit([6; 16])), None);
        assert_eq!(reg.hits_of(t), vec![h]);
        assert_eq!(reg.vms_of(t).len(), 1);
        assert_eq!(reg.len(), 1);
        assert!(reg.hits_of(TenantId(99)).is_empty());
    }
}
