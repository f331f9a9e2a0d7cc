//! Cost events: the currency between the layers and the virtual clock.
//!
//! Storage, hash aggregation and the operators do real work (move real
//! tuples, fill real pages) and *emit events* describing the costed actions
//! of the paper's model. The execution engine converts events into virtual
//! time — whole ticks, [`CostEvent::unit_ticks`] each — using
//! [`crate::CostParams`]; tests use counting trackers to assert on exact
//! event counts (e.g. "spilling wrote exactly N pages").
//!
//! Charges commute: a clock's time after a set of events is the sum of
//! count × unit over them, whatever order they were recorded in. So a
//! batched path records a count per event kind, once. What it must not do
//! is leave charges unrecorded while something reads the clock (a send's
//! timestamp, a receive's Lamport observation — a max, which does not
//! commute with the sum — a phase mark, an error's failure time): every
//! reader sees the time of everything done before it.
//!
//! Layering convention (who charges what — this is what prevents double
//! counting):
//!
//! * **storage** charges page-level disk I/O (`PageReadSeq`, `PageWriteSeq`,
//!   `PageReadRand`) and nothing else;
//! * **compute layers** (hashagg, operators) charge per-tuple CPU costs
//!   (`TupleRead`, `TupleWrite`, `TupleHash`, `TupleAgg`, `TupleDest`);
//! * **the network fabric** charges `MsgProtocol` per message page at both
//!   ends; transfer time (`m_l` / bus occupancy) is handled by the network
//!   model directly since it may involve waiting, not just cost.

/// A costed action, mirroring Table 1's parameters one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostEvent {
    /// `t_r` — read a tuple (off a page, out of a hash bucket, off a
    /// message).
    TupleRead,
    /// `t_w` — write a tuple (into a page, a message block, a hash entry).
    TupleWrite,
    /// `t_h` — compute a hash value of a group key.
    TupleHash,
    /// `t_a` — process a tuple through aggregate state.
    TupleAgg,
    /// `t_d` — compute a tuple's destination node.
    TupleDest,
    /// `IO` — sequential page read.
    PageReadSeq,
    /// `IO` — sequential page write.
    PageWriteSeq,
    /// `rIO` — random page read (page-level sampling).
    PageReadRand,
    /// `m_p` — message protocol cost for one message page (sender or
    /// receiver side).
    MsgProtocol,
}

impl CostEvent {
    /// The virtual-time cost of one occurrence under `params`, in whole
    /// ticks (exact for every Table 1 value, rounded once otherwise).
    pub fn unit_ticks(self, params: &crate::CostParams) -> u64 {
        crate::params::ms_to_ticks(match self {
            CostEvent::TupleRead => params.t_read(),
            CostEvent::TupleWrite => params.t_write(),
            CostEvent::TupleHash => params.t_hash(),
            CostEvent::TupleAgg => params.t_agg(),
            CostEvent::TupleDest => params.t_dest(),
            CostEvent::PageReadSeq | CostEvent::PageWriteSeq => params.io_seq_ms,
            CostEvent::PageReadRand => params.io_rand_ms,
            CostEvent::MsgProtocol => params.t_msg_protocol(),
        })
    }

    /// All event kinds (for counting-tracker tables).
    pub const ALL: [CostEvent; 9] = [
        CostEvent::TupleRead,
        CostEvent::TupleWrite,
        CostEvent::TupleHash,
        CostEvent::TupleAgg,
        CostEvent::TupleDest,
        CostEvent::PageReadSeq,
        CostEvent::PageWriteSeq,
        CostEvent::PageReadRand,
        CostEvent::MsgProtocol,
    ];

    fn index(self) -> usize {
        match self {
            CostEvent::TupleRead => 0,
            CostEvent::TupleWrite => 1,
            CostEvent::TupleHash => 2,
            CostEvent::TupleAgg => 3,
            CostEvent::TupleDest => 4,
            CostEvent::PageReadSeq => 5,
            CostEvent::PageWriteSeq => 6,
            CostEvent::PageReadRand => 7,
            CostEvent::MsgProtocol => 8,
        }
    }
}

/// Consumes cost events. Implemented by the engine's virtual clock and by
/// test trackers.
pub trait CostTracker {
    /// Record `count` occurrences of `event`.
    fn record(&mut self, event: CostEvent, count: u64);
}

/// Record `n` occurrences of every event of `events` (nothing for `n = 0`).
#[inline]
pub fn record_each<T: CostTracker>(tracker: &mut T, events: &[CostEvent], n: u64) {
    if n > 0 {
        events.iter().for_each(|&e| tracker.record(e, n));
    }
}

/// Discards all events (pure-function uses of the substrates).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracker;

impl CostTracker for NullTracker {
    fn record(&mut self, _event: CostEvent, _count: u64) {}
}

/// Counts events per kind; the workhorse of unit tests and of the
/// per-phase breakdowns reported in [`EXPERIMENTS`](index.html).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CountingTracker {
    counts: [u64; 9],
}

impl CountingTracker {
    /// Fresh, all-zero tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occurrences of `event` recorded so far.
    pub fn count(&self, event: CostEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Total virtual time of everything recorded under `params`, in
    /// ticks: what a clock that recorded the same events reads.
    pub fn total_ticks(&self, params: &crate::CostParams) -> u64 {
        CostEvent::ALL
            .iter()
            .map(|&e| e.unit_ticks(params) * self.count(e))
            .sum()
    }

    /// Add another tracker's counts into this one.
    pub fn absorb(&mut self, other: &CountingTracker) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Reset all counts to zero.
    pub fn clear(&mut self) {
        self.counts = [0; 9];
    }
}

impl CostTracker for CountingTracker {
    fn record(&mut self, event: CostEvent, count: u64) {
        self.counts[event.index()] += count;
    }
}

impl CostTracker for &mut dyn CostTracker {
    fn record(&mut self, event: CostEvent, count: u64) {
        (**self).record(event, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostParams;

    #[test]
    fn unit_costs_match_params() {
        let p = CostParams::paper_default();
        assert_eq!(CostEvent::TupleRead.unit_ticks(&p), 7_500_000);
        assert_eq!(CostEvent::TupleDest.unit_ticks(&p), 250_000);
        assert_eq!(CostEvent::PageReadSeq.unit_ticks(&p), 1_150_000_000);
        assert_eq!(CostEvent::PageReadRand.unit_ticks(&p), 15_000_000_000);
        assert_eq!(CostEvent::MsgProtocol.unit_ticks(&p), 25_000_000);
    }

    #[test]
    fn counting_tracker_accumulates() {
        let mut t = CountingTracker::new();
        t.record(CostEvent::TupleRead, 10);
        t.record(CostEvent::TupleRead, 5);
        t.record(CostEvent::PageWriteSeq, 2);
        assert_eq!(t.count(CostEvent::TupleRead), 15);
        assert_eq!(t.count(CostEvent::PageWriteSeq), 2);
        assert_eq!(t.count(CostEvent::TupleAgg), 0);
    }

    #[test]
    fn total_ticks_weights_by_unit_cost() {
        let p = CostParams::paper_default();
        let mut t = CountingTracker::new();
        t.record(CostEvent::PageReadSeq, 10); // 11.5 ms
        t.record(CostEvent::TupleRead, 1000); // 7.5 ms
        assert_eq!(t.total_ticks(&p), 19_000_000_000);
    }

    #[test]
    fn absorb_and_clear() {
        let mut a = CountingTracker::new();
        let mut b = CountingTracker::new();
        a.record(CostEvent::TupleHash, 3);
        b.record(CostEvent::TupleHash, 4);
        b.record(CostEvent::MsgProtocol, 1);
        a.absorb(&b);
        assert_eq!(a.count(CostEvent::TupleHash), 7);
        assert_eq!(a.count(CostEvent::MsgProtocol), 1);
        a.clear();
        assert_eq!(a.count(CostEvent::TupleHash), 0);
    }

    #[test]
    fn dyn_tracker_forwards() {
        let mut c = CountingTracker::new();
        {
            let d: &mut dyn CostTracker = &mut c;
            d.record(CostEvent::TupleWrite, 2);
        }
        assert_eq!(c.count(CostEvent::TupleWrite), 2);
    }

    #[test]
    fn all_covers_every_variant_uniquely() {
        let mut seen = std::collections::HashSet::new();
        for e in CostEvent::ALL {
            assert!(seen.insert(e.index()), "duplicate index for {e:?}");
        }
        assert_eq!(seen.len(), 9);
    }
}
