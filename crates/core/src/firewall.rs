//! HIT-based access control.
//!
//! The paper (§IV-A) points out that with HIP, "tenant-to-tenant
//! authentication can be achieved transparently from applications by
//! employing access-control mechanisms operating at the system level —
//! for instance, all Linux-based systems support hosts.allow and
//! hosts.deny files". This module is that mechanism: first-match rules
//! over cryptographically-verified HITs, enforced by the shim before any
//! BEX state is created and on every inbound data packet.

use crate::identity::Hit;

/// Permit or refuse.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Permit the exchange/packet.
    Allow,
    /// Refuse it (counted in [`Firewall::denied`]).
    Deny,
}

/// A single rule; `None` fields are wildcards.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Match on the remote peer's HIT.
    pub peer: Option<Hit>,
    /// What to do on a match.
    pub action: Action,
}

/// A first-match-wins rule chain with a default policy.
#[derive(Clone, Debug)]
pub struct Firewall {
    rules: Vec<Rule>,
    default: Action,
    /// Packets/exchanges denied (diagnostics).
    pub denied: u64,
}

impl Firewall {
    /// An allow-everything firewall (the default posture).
    pub fn allow_all() -> Self {
        Firewall {
            rules: Vec::new(),
            default: Action::Allow,
            denied: 0,
        }
    }

    /// A deny-by-default firewall: only explicitly allowed HITs may talk
    /// (the hosts.allow model for tenant isolation).
    pub fn deny_by_default() -> Self {
        Firewall {
            rules: Vec::new(),
            default: Action::Deny,
            denied: 0,
        }
    }

    /// Appends an allow rule for `peer`.
    pub fn allow(&mut self, peer: Hit) -> &mut Self {
        self.rules.push(Rule {
            peer: Some(peer),
            action: Action::Allow,
        });
        self
    }

    /// Appends a deny rule for `peer`.
    pub fn deny(&mut self, peer: Hit) -> &mut Self {
        self.rules.push(Rule {
            peer: Some(peer),
            action: Action::Deny,
        });
        self
    }

    /// Evaluates the chain for a peer HIT, counting denials.
    pub fn check(&mut self, peer: &Hit) -> Action {
        let action = self
            .rules
            .iter()
            .find(|r| r.peer.is_none() || r.peer.as_ref() == Some(peer))
            .map(|r| r.action)
            .unwrap_or(self.default);
        if action == Action::Deny {
            self.denied += 1;
        }
        action
    }

    /// Evaluation without mutating counters (for tests/diagnostics).
    pub fn peek(&self, peer: &Hit) -> Action {
        self.rules
            .iter()
            .find(|r| r.peer.is_none() || r.peer.as_ref() == Some(peer))
            .map(|r| r.action)
            .unwrap_or(self.default)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl Default for Firewall {
    fn default() -> Self {
        Firewall::allow_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(b: u8) -> Hit {
        Hit([b; 16])
    }

    #[test]
    fn allow_all_default() {
        let mut fw = Firewall::allow_all();
        assert_eq!(fw.check(&hit(1)), Action::Allow);
        assert_eq!(fw.denied, 0);
    }

    #[test]
    fn deny_by_default_blocks_unknown() {
        let mut fw = Firewall::deny_by_default();
        fw.allow(hit(1));
        assert_eq!(fw.check(&hit(1)), Action::Allow);
        assert_eq!(fw.check(&hit(2)), Action::Deny);
        assert_eq!(fw.denied, 1);
    }

    #[test]
    fn first_match_wins() {
        let mut fw = Firewall::allow_all();
        fw.deny(hit(3));
        fw.allow(hit(3)); // shadowed by the deny above
        assert_eq!(fw.check(&hit(3)), Action::Deny);
    }

    #[test]
    fn peek_does_not_count() {
        let mut fw = Firewall::deny_by_default();
        assert_eq!(fw.peek(&hit(9)), Action::Deny);
        assert_eq!(fw.denied, 0);
        fw.check(&hit(9));
        assert_eq!(fw.denied, 1);
    }
}
