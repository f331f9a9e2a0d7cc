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
//! completion time under the chosen model.
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
use adaptagg_model::NetworkKind;
use std::sync::{Arc, Mutex};

/// Busy intervals, sorted and disjoint.
#[derive(Debug, Default)]
struct BusLedger {
    intervals: Vec<(f64, f64)>,
    total_busy_ms: f64,
}

impl BusLedger {
    /// Book `span` ms starting no earlier than `now`, in the first gap
    /// that fits. Returns the booked start time.
    fn book(&mut self, now: f64, span: f64) -> f64 {
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
        self.total_busy_ms += span;
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
    bus: Arc<Mutex<BusLedger>>,
}

impl Network {
    /// A network of the given kind.
    pub fn new(kind: NetworkKind) -> Self {
        Network {
            kind,
            bus: Arc::new(Mutex::new(BusLedger::default())),
        }
    }

    /// The kind being modelled.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// Complete a transfer of `pages` message pages starting no earlier
    /// than `now_ms` on the sender. Returns the completion time.
    pub fn transfer(&self, now_ms: f64, pages: u64) -> f64 {
        if pages == 0 {
            return now_ms;
        }
        let per_page = self.kind.ms_per_page();
        let span = per_page * pages as f64;
        match self.kind {
            NetworkKind::HighSpeed { .. } => now_ms + span,
            NetworkKind::SharedBus { .. } => {
                let mut bus = lock(&self.bus);
                bus.book(now_ms, span) + span
            }
        }
    }

    /// Total time the shared medium has been occupied (0 for the
    /// high-speed model). Useful for utilization reports.
    pub fn total_busy_ms(&self) -> f64 {
        lock(&self.bus).total_busy_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_speed_transfers_do_not_contend() {
        let net = Network::new(NetworkKind::HighSpeed { latency_ms: 0.5 });
        assert_eq!(net.transfer(10.0, 2), 11.0);
        assert_eq!(net.transfer(10.0, 2), 11.0);
        assert_eq!(net.total_busy_ms(), 0.0);
    }

    #[test]
    fn shared_bus_serializes_overlapping_transfers() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 2.0 });
        // First sender takes 10→12; second, also at 10, queues to 12→14.
        assert_eq!(net.transfer(10.0, 1), 12.0);
        assert_eq!(net.transfer(10.0, 1), 14.0);
        assert_eq!(net.total_busy_ms(), 4.0);
    }

    #[test]
    fn non_overlapping_transfers_do_not_queue() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 2.0 });
        assert_eq!(net.transfer(10.0, 1), 12.0);
        // The bus is idle again at virtual 20: no queueing.
        assert_eq!(net.transfer(20.0, 3), 26.0);
        assert_eq!(net.total_busy_ms(), 8.0);
    }

    #[test]
    fn out_of_order_reservations_fill_earlier_gaps() {
        // The property that motivated the ledger: a thread that reserves
        // "late" in real time but "early" in virtual time must not queue
        // behind virtual-future traffic.
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 2.0 });
        assert_eq!(net.transfer(100.0, 1), 102.0); // raced-ahead thread
        assert_eq!(net.transfer(0.0, 1), 2.0, "virtual-past send books the idle bus");
        // And a send overlapping the [100,102] booking queues after it.
        assert_eq!(net.transfer(101.0, 1), 104.0);
    }

    #[test]
    fn gap_exactly_fitting_is_used() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 1.0 });
        assert_eq!(net.transfer(0.0, 2), 2.0); // [0,2]
        assert_eq!(net.transfer(4.0, 2), 6.0); // [4,6]
        // A 2-page transfer at 2 fits exactly in [2,4].
        assert_eq!(net.transfer(2.0, 2), 4.0);
        // Next overlapping send queues to the end.
        assert_eq!(net.transfer(0.0, 1), 7.0);
    }

    #[test]
    fn zero_pages_is_free() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 2.0 });
        assert_eq!(net.transfer(5.0, 0), 5.0);
        assert_eq!(net.total_busy_ms(), 0.0);
    }

    #[test]
    fn clones_share_the_bus() {
        let a = Network::new(NetworkKind::SharedBus { ms_per_page: 1.0 });
        let b = a.clone();
        a.transfer(0.0, 4);
        assert_eq!(b.transfer(0.0, 1), 5.0);
    }

    #[test]
    fn bus_total_occupancy_is_conserved_under_threads() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 1.0 });
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let n = net.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        n.transfer(0.0, 1);
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
        assert_eq!(net.transfer(0.0, 1), 101.0);
    }

    #[test]
    fn ledger_stays_compact_under_contiguous_load() {
        let net = Network::new(NetworkKind::SharedBus { ms_per_page: 1.0 });
        for _ in 0..1000 {
            net.transfer(0.0, 1);
        }
        assert_eq!(lock(&net.bus).intervals.len(), 1, "coalescing failed");
    }
}
