//! Bandwidth models.
//!
//! The paper models two interconnects (§2):
//!
//! * a **high-speed, high-bandwidth** network "modeled only by the latency
//!   to send a message, i.e. it has unlimited bandwidth" — transfers from
//!   different nodes never interact;
//! * a **limited-bandwidth** network "modeled as a sequential resource
//!   where sending a fixed amount of data will take a fixed amount of time
//!   independent of the number of processors involved" — one shared bus.
//!
//! [`Network::transfer`] maps a (sender-time, pages) pair to the transfer's
//! completion time under the chosen model, in the clocks' whole ticks: the
//! per-page time is rounded to ticks once, when the network is built.
//!
//! ## The shared bus is an interval ledger
//!
//! Threads run in real time but carry *virtual* clocks, so bus
//! reservations arrive in arbitrary virtual-time order. A naive
//! `bus_free` scalar would let a thread that raced ahead in real time
//! push the bus far into the virtual future, charging phantom waits to
//! nodes whose virtual clocks are earlier (this visibly distorted the
//! Adaptive Two Phase measurements, which send *during* the scan). The
//! ledger instead books each transfer into the **first free virtual
//! interval at or after the sender's virtual time** — the result is
//! (nearly) independent of thread interleaving, total occupancy is exact
//! (`pages × ms/page`), and contention only arises between transfers
//! whose virtual times genuinely overlap, which is what the paper's
//! "sequential resource" means.

use crate::lock;
use adaptagg_model::{ms_to_ticks, ticks_to_ms, NetworkKind};
use std::sync::{Arc, Mutex};

/// Busy intervals in ticks, sorted and disjoint.
#[derive(Debug, Default)]
struct BusLedger {
    intervals: Vec<(u64, u64)>,
    total_busy: u64,
}

impl BusLedger {
    /// Book `span` ticks starting no earlier than `now`, in the first gap
    /// that fits. Returns the booked start time.
    fn book(&mut self, now: u64, span: u64) -> u64 {
        let mut candidate = now;
        let mut insert_at = self.intervals.len();
        for (i, &(s, e)) in self.intervals.iter().enumerate() {
            if e <= candidate {
                continue; // interval entirely in the past of the candidate
            }
            if s >= candidate + span {
                insert_at = i; // gap before this interval fits
                break;
            }
            candidate = candidate.max(e);
            insert_at = i + 1;
        }
        self.intervals.insert(insert_at, (candidate, candidate + span));
        self.coalesce(insert_at);
        self.total_busy += span;
        candidate
    }

    /// Merge the interval at `idx` with touching neighbours to keep the
    /// ledger small.
    fn coalesce(&mut self, idx: usize) {
        // Merge with successor(s).
        while idx + 1 < self.intervals.len() && self.intervals[idx + 1].0 <= self.intervals[idx].1
        {
            let (_, e2) = self.intervals.remove(idx + 1);
            self.intervals[idx].1 = self.intervals[idx].1.max(e2);
        }
        // Merge with predecessor.
        if idx > 0 && self.intervals[idx].0 <= self.intervals[idx - 1].1 {
            let (_, e) = self.intervals.remove(idx);
            self.intervals[idx - 1].1 = self.intervals[idx - 1].1.max(e);
        }
    }
}

/// A cluster interconnect shared by all node endpoints.
#[derive(Debug, Clone)]
pub struct Network {
    kind: NetworkKind,
    /// `m_l` (or the bus occupancy) per message page, in ticks.
    per_page: u64,
    bus: Arc<Mutex<BusLedger>>,
}

impl Network {
    /// A network of the given kind.
    pub fn new(kind: NetworkKind) -> Self {
        Network {
            kind,
            per_page: ms_to_ticks(kind.ms_per_page()),
            bus: Arc::new(Mutex::new(BusLedger::default())),
        }
    }

    /// The kind being modelled.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// Ticks one message page occupies the medium.
    pub fn per_page(&self) -> u64 {
        self.per_page
    }

    /// Complete a transfer of `pages` message pages starting no earlier
    /// than `now` (ticks) on the sender. Returns the completion time.
    pub fn transfer(&self, now: u64, pages: u64) -> u64 {
        let span = self.per_page * pages;
        match self.kind {
            NetworkKind::SharedBus { .. } if span > 0 => lock(&self.bus).book(now, span) + span,
            _ => now + span,
        }
    }

    /// Total time the shared medium has been occupied, in ms (0 for the
    /// high-speed model). Useful for utilization reports.
    pub fn total_busy_ms(&self) -> f64 {
        ticks_to_ms(lock(&self.bus).total_busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ms` in ticks.
    fn t(ms: u64) -> u64 {
        ms * adaptagg_model::TICKS_PER_MS
    }

    #[test]
    fn high_speed_transfers_do_not_contend() {
        let net = Network::new(NetworkKind::HighSpeed { latency_ms: 0.5 });
        assert_eq!(net.transfer(t(10), 2), t(11));
        assert_eq!(net.transfer(t(10), 2), t(11));
        assert_eq!(net.total_busy_ms(), 0.0);
    }

    #[test]
    fn shared_bus_serializes_overlapping_transfers() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 2.0 });
        // First sender takes 10→12; second, also at 10, queues to 12→14.
        assert_eq!(net.transfer(t(10), 1), t(12));
        assert_eq!(net.transfer(t(10), 1), t(14));
        assert_eq!(net.total_busy_ms(), 4.0);
    }

    #[test]
    fn non_overlapping_transfers_do_not_queue() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 2.0 });
        assert_eq!(net.transfer(t(10), 1), t(12));
        // The bus is idle again at virtual 20: no queueing.
        assert_eq!(net.transfer(t(20), 3), t(26));
        assert_eq!(net.total_busy_ms(), 8.0);
    }

    #[test]
    fn out_of_order_reservations_fill_earlier_gaps() {
        // The property that motivated the ledger: a thread that reserves
        // "late" in real time but "early" in virtual time must not queue
        // behind virtual-future traffic.
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 2.0 });
        assert_eq!(net.transfer(t(100), 1), t(102)); // raced-ahead thread
        assert_eq!(net.transfer(t(0), 1), t(2), "virtual-past send books the idle bus");
        // And a send overlapping the [100,102] booking queues after it.
        assert_eq!(net.transfer(t(101), 1), t(104));
    }

    #[test]
    fn gap_exactly_fitting_is_used() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 1.0 });
        assert_eq!(net.transfer(t(0), 2), t(2)); // [0,2]
        assert_eq!(net.transfer(t(4), 2), t(6)); // [4,6]
        // A 2-page transfer at 2 fits exactly in [2,4].
        assert_eq!(net.transfer(t(2), 2), t(4));
        // Next overlapping send queues to the end.
        assert_eq!(net.transfer(t(0), 1), t(7));
    }

    #[test]
    fn zero_pages_is_free() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 2.0 });
        assert_eq!(net.transfer(t(5), 0), t(5));
        assert_eq!(net.total_busy_ms(), 0.0);
    }

    #[test]
    fn clones_share_the_bus() {
        let a = Network::new(NetworkKind::SharedBus { ms_per_page: 1.0 });
        let b = a.clone();
        a.transfer(t(0), 4);
        assert_eq!(b.transfer(t(0), 1), t(5));
    }

    #[test]
    fn bus_total_occupancy_is_conserved_under_threads() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 1.0 });
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let n = net.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        n.transfer(t(0), 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.total_busy_ms(), 100.0);
        // All 100 unit transfers started at 0: they occupy exactly
        // [0, 100] regardless of interleaving.
        assert_eq!(net.transfer(t(0), 1), t(101));
    }

    #[test]
    fn ledger_stays_compact_under_contiguous_load() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 1.0 });
        for _ in 0..1000 {
            net.transfer(t(0), 1);
        }
        assert_eq!(lock(&net.bus).intervals.len(), 1, "coalescing failed");
    }
}
