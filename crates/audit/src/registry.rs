//! The versioned policy registry: atomically swappable sets of
//! compiled policies.
//!
//! The registry holds one immutable [`PolicySet`] behind an `Arc`.  A
//! request loads the `Arc` once at entry and answers entirely from
//! that set, mirroring the engine's MVCC snapshot discipline: a pack
//! installation builds the next set off to the side and publishes it
//! with a single pointer swap, so in-flight audits keep answering from
//! the set (and the version) they started with, and no vet can observe
//! a half-installed pack.  Every published set carries a monotonically
//! increasing version, stamped onto each [`crate::AuditResponse`].
//! Edits (a pack install, a programmatic registration) hold one edit lock
//! from their load of the current set to their publish of the next, so
//! concurrent edits apply one after the other and none is lost; readers
//! never take it, so a vet never waits for a pack compile.
//!
//! The set is the engine's only table of policies.  Each [`PolicyEntry`]
//! carries its own [`PolicyMetrics`]: a request records into the entry it
//! looked up, and a scrape reads one row per entry of the set it loaded,
//! so a policy the set drops loses its row with it.

use crate::metrics::PolicyMetrics;
use piprov_patterns::CompiledPattern;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One registered policy: its origin package, canonical source text,
/// compiled automaton (shared so memo state survives reinstalls of an
/// unchanged policy) and metrics.
#[derive(Debug)]
pub struct PolicyEntry {
    /// The policy's package (`supply_chain::build`), empty for
    /// policies registered programmatically.
    pub package: String,
    /// Canonical textual form of the pattern.
    pub source: String,
    /// The compiled automaton, memo and all.
    pub compiled: Arc<CompiledPattern>,
    /// Verdict counters and the vet latency histogram.  An entry that
    /// replaces one of the same name takes these over, so the policy's
    /// metric timeline survives a changed body or a reinstall.
    pub metrics: Arc<PolicyMetrics>,
}

/// An immutable, versioned set of policies.
#[derive(Debug)]
pub struct PolicySet {
    version: u64,
    policies: HashMap<String, Arc<PolicyEntry>>,
}

impl PolicySet {
    /// The set's version: 0 for the initial empty set, bumped by one
    /// on every publication.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Looks up a policy by name.
    pub fn get(&self, name: &str) -> Option<&Arc<PolicyEntry>> {
        self.policies.get(name)
    }

    /// Number of policies in the set.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the set has no policies.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Policy names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.policies.keys().cloned().collect();
        names.sort();
        names
    }

    /// Iterates over `(name, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Arc<PolicyEntry>)> {
        self.policies.iter()
    }
}

/// A description of one policy, as listed over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyInfo {
    /// Fully qualified policy name.
    pub name: String,
    /// Source package (empty for programmatic registrations).
    pub package: String,
    /// Canonical pattern text.
    pub source: String,
}

/// The policy listing returned by `ListPolicies`: the registry version
/// plus every policy, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyListing {
    /// The registry version the listing describes.
    pub version: u64,
    /// Every registered policy, sorted by name.
    pub policies: Vec<PolicyInfo>,
}

impl fmt::Display for PolicyListing {
    /// The deterministic text listing `GET /policies` serves: a header
    /// line with the pack version and count, then one
    /// `name [package] = source` line per policy, sorted by name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# pack version {} ({} policies)",
            self.version,
            self.policies.len()
        )?;
        for policy in &self.policies {
            writeln!(
                f,
                "{} [{}] = {}",
                policy.name, policy.package, policy.source
            )?;
        }
        Ok(())
    }
}

/// Result of installing a pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackInstall {
    /// The version the new set was published at.
    pub version: u64,
    /// Policies in the installed set.
    pub installed: usize,
    /// Of those, how many were carried over unchanged (same name and
    /// source), keeping their compiled automaton and memo.
    pub reused: usize,
}

/// The swappable registry cell.
#[derive(Debug)]
pub(crate) struct PolicyRegistry {
    current: RwLock<Arc<PolicySet>>,
    /// Held by an edit from its load of the current set to its publish
    /// of the next, so two concurrent edits cannot both build on one set
    /// and lose an update.  Readers never take it.
    edits: Mutex<()>,
}

impl PolicyRegistry {
    /// An empty registry at version 0.
    pub(crate) fn new() -> PolicyRegistry {
        PolicyRegistry {
            current: RwLock::new(Arc::new(PolicySet {
                version: 0,
                policies: HashMap::new(),
            })),
            edits: Mutex::new(()),
        }
    }

    /// Serialises edits: an edit holds the guard from its
    /// [`PolicyRegistry::load`] to its [`PolicyRegistry::publish`].
    pub(crate) fn lock_edits(&self) -> MutexGuard<'_, ()> {
        match self.edits.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Loads the current set: one `Arc` clone under a read lock held
    /// for the pointer copy alone.
    pub(crate) fn load(&self) -> Arc<PolicySet> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Publishes `policies` as the next set, bumping the version.
    /// Readers that loaded the previous set keep it alive through
    /// their `Arc`; new loads observe the new set immediately.
    pub(crate) fn publish(&self, policies: HashMap<String, Arc<PolicyEntry>>) -> Arc<PolicySet> {
        let mut guard = match self.current.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let next = Arc::new(PolicySet {
            version: guard.version + 1,
            policies,
        });
        *guard = Arc::clone(&next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_patterns::{parse_pattern, Pattern};

    fn entry(source: &str) -> Arc<PolicyEntry> {
        let pattern: Pattern = parse_pattern(source).unwrap();
        Arc::new(PolicyEntry {
            package: String::new(),
            source: source.to_string(),
            compiled: Arc::new(CompiledPattern::compile(&pattern)),
            metrics: Arc::default(),
        })
    }

    #[test]
    fn registry_starts_empty_at_version_zero() {
        let registry = PolicyRegistry::new();
        let set = registry.load();
        assert_eq!(set.version(), 0);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.names().is_empty());
    }

    #[test]
    fn publish_bumps_the_version_and_old_loads_stay_pinned() {
        let registry = PolicyRegistry::new();
        let before = registry.load();

        let mut policies = HashMap::new();
        policies.insert("a".to_string(), entry("Any"));
        let published = registry.publish(policies);
        assert_eq!(published.version(), 1);

        // The pinned set is unaffected; a fresh load sees the new one.
        assert_eq!(before.version(), 0);
        assert!(before.is_empty());
        let after = registry.load();
        assert_eq!(after.version(), 1);
        assert_eq!(after.names(), vec!["a".to_string()]);
        assert!(after.get("a").is_some());
        assert_eq!(after.iter().count(), 1);
    }
}
