//! Revocable memory grants.
//!
//! A [`MemoryGrant`] is a shared, atomically-updatable cap on the number
//! of hash-table entries a query may hold resident on one node. The
//! serving layer's memory broker holds one handle per (query, node) and
//! shrinks or regrows it as queries are admitted and finish; the
//! aggregation operators read it at every would-insert-new-group check,
//! so a revocation takes effect mid-scan and the operator degrades
//! through its normal budget-exceeded path (spill or adaptive switch)
//! instead of overshooting.
//!
//! The default grant is *unlimited*: no shared counter exists and the
//! table's own `max_entries` budget is the only cap. Every pre-serving
//! code path uses this default, so single-query runs stay bit-identical
//! to the un-brokered engine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A shared entry-count cap, revocable while the query runs.
#[derive(Debug, Clone, Default)]
pub struct MemoryGrant {
    /// `None` = unlimited (the common, zero-overhead default).
    shared: Option<Arc<AtomicUsize>>,
}

impl MemoryGrant {
    /// The default grant: no cap beyond the table's own budget.
    pub fn unlimited() -> Self {
        MemoryGrant { shared: None }
    }

    /// A live grant of `entries`, shrinkable/growable via [`set`].
    ///
    /// [`set`]: MemoryGrant::set
    pub fn bounded(entries: usize) -> Self {
        MemoryGrant {
            shared: Some(Arc::new(AtomicUsize::new(entries))),
        }
    }

    /// The current cap (`usize::MAX` when unlimited).
    pub fn current(&self) -> usize {
        match &self.shared {
            Some(a) => a.load(Ordering::Relaxed),
            None => usize::MAX,
        }
    }

    /// Update the cap. All clones of this grant observe the new value on
    /// their next read. No-op on an unlimited grant.
    pub fn set(&self, entries: usize) {
        if let Some(a) = &self.shared {
            a.store(entries, Ordering::Relaxed);
        }
    }

    /// `budget` clamped by the live cap. The unlimited path performs no
    /// atomic read.
    #[inline]
    pub fn cap(&self, budget: usize) -> usize {
        match &self.shared {
            Some(a) => budget.min(a.load(Ordering::Relaxed)),
            None => budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_transparent() {
        let g = MemoryGrant::unlimited();
        assert_eq!(g.current(), usize::MAX);
        assert_eq!(g.cap(123), 123);
        g.set(5); // no-op, not a panic
        assert_eq!(g.cap(123), 123);
    }

    #[test]
    fn bounded_caps_and_shrinks_across_clones() {
        let g = MemoryGrant::bounded(100);
        let seen_by_table = g.clone();
        assert_eq!(seen_by_table.cap(10_000), 100);
        assert_eq!(seen_by_table.cap(50), 50);
        g.set(8); // broker revokes
        assert_eq!(seen_by_table.cap(10_000), 8);
        g.set(400); // broker regrants
        assert_eq!(seen_by_table.cap(10_000), 400);
    }

    #[test]
    fn default_is_unlimited() {
        assert_eq!(MemoryGrant::default().current(), usize::MAX);
    }
}
