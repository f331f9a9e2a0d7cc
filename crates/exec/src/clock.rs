//! Per-node virtual clocks.
//!
//! A clock counts whole ticks (picoseconds, [`adaptagg_model::TICKS_PER_MS`]
//! to the ms): every event's unit is rounded to ticks once, when the clock
//! is built, and from then on time is integer arithmetic — exact, and the
//! same in whatever order charges arrive. Milliseconds appear only where
//! time is reported ([`Clock::now_ms`], [`Clock::breakdown`], trace spans).

use adaptagg_model::{ticks_to_ms, CostEvent, CostParams, CostTracker};

/// Where a node's virtual time went, in ms: the report form of a clock's
/// tick totals ([`Clock::breakdown`]). The categories mirror the paper's
/// cost-model terms, so measured runs and analytical predictions can be
/// compared term by term in EXPERIMENTS.md.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Per-tuple CPU work (`t_r`,`t_w`,`t_h`,`t_a`,`t_d`) and message
    /// protocol (`m_p`).
    pub cpu_ms: f64,
    /// Disk page I/O (`IO`, `rIO`), including overflow spills.
    pub io_ms: f64,
    /// Network transfer occupancy (`m_l` / bus waits on send).
    pub net_ms: f64,
    /// Time spent waiting for other nodes' data (Lamport observation
    /// jumps on receive).
    pub wait_ms: f64,
}

impl TimeBreakdown {
    /// Sum of all categories (equals the clock's now if it started at 0).
    pub fn total_ms(&self) -> f64 {
        self.cpu_ms + self.io_ms + self.net_ms + self.wait_ms
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &TimeBreakdown) {
        self.cpu_ms += other.cpu_ms;
        self.io_ms += other.io_ms;
        self.net_ms += other.net_ms;
        self.wait_ms += other.wait_ms;
    }
}

/// The categories a clock's ticks are spent in, indexing `Clock::spent` in
/// [`TimeBreakdown`]'s field order.
const CPU: usize = 0;
const IO: usize = 1;
const NET: usize = 2;
const WAIT: usize = 3;

/// A node's virtual clock. Implements [`CostTracker`], so the storage and
/// hash-aggregation layers advance it transparently as they emit events.
#[derive(Debug, Clone)]
pub struct Clock {
    now: u64,
    params: CostParams,
    /// Ticks per occurrence of every event, indexed by the event, with the
    /// slowdown folded in.
    units: [u64; 9],
    /// Ticks spent per category (`CPU`, `IO`, `NET`, `WAIT`).
    spent: [u64; 4],
    slowdown: f64,
}

/// Every event's unit under `params`, slowed by `factor`, in whole ticks.
fn units(params: &CostParams, factor: f64) -> [u64; 9] {
    CostEvent::ALL.map(|e| (e.unit_ticks(params) as f64 * factor).round() as u64)
}

impl Clock {
    /// A clock at time zero under the given cost parameters.
    pub fn new(params: CostParams) -> Self {
        debug_assert!(CostEvent::ALL.iter().enumerate().all(|(i, &e)| e as usize == i));
        Clock {
            now: 0,
            units: units(&params, 1.0),
            params,
            spent: [0; 4],
            slowdown: 1.0,
        }
    }

    /// Inflate every subsequent CPU/disk event by `factor` — a fault
    /// plan's per-node slowdown (a degraded, not dead, node): each event
    /// then costs its unit times `factor`, rounded to a whole tick. `1.0`
    /// is the nominal default and leaves every unit as it was.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(factor >= 1.0, "slowdown factor must be >= 1.0");
        self.slowdown = factor;
        self.units = units(&self.params, factor);
    }

    /// The current slowdown factor.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Current virtual time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Current virtual time in ms.
    pub fn now_ms(&self) -> f64 {
        ticks_to_ms(self.now)
    }

    /// The cost parameters this clock charges with.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Where the time went so far, in ms.
    pub fn breakdown(&self) -> TimeBreakdown {
        let [cpu, io, net, wait] = self.spent.map(ticks_to_ms);
        TimeBreakdown {
            cpu_ms: cpu,
            io_ms: io,
            net_ms: net,
            wait_ms: wait,
        }
    }

    /// Advance to a network-transfer completion time (send side): the node
    /// is occupied until its transfer finishes, matching the analytical
    /// model charging `m_l` to the sender.
    pub fn advance_net_to(&mut self, t: u64) {
        self.jump(t, NET);
    }

    /// Lamport observation (receive side): jump forward to the message's
    /// timestamp if it is ahead of us; the gap is idle waiting.
    pub fn observe(&mut self, t: u64) {
        self.jump(t, WAIT);
    }

    fn jump(&mut self, t: u64, category: usize) {
        if t > self.now {
            self.spent[category] += t - self.now;
            self.now = t;
        }
    }
}

impl CostTracker for Clock {
    fn record(&mut self, event: CostEvent, count: u64) {
        let dt = self.units[event as usize] * count;
        self.now += dt;
        let category = match event {
            CostEvent::PageReadSeq | CostEvent::PageWriteSeq | CostEvent::PageReadRand => IO,
            _ => CPU,
        };
        self.spent[category] += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Clock {
        Clock::new(CostParams::paper_default())
    }

    const MS: u64 = adaptagg_model::TICKS_PER_MS;

    #[test]
    fn events_advance_by_unit_cost() {
        let mut c = clock();
        c.record(CostEvent::PageReadSeq, 2); // 2.30 ms io
        c.record(CostEvent::TupleRead, 100); // 0.75 ms cpu
        assert_eq!(c.now(), 3_050_000_000);
        assert_eq!(c.now_ms(), 3.05);
        assert_eq!((c.breakdown().io_ms, c.breakdown().cpu_ms), (2.3, 0.75));
    }

    #[test]
    fn observe_only_moves_forward() {
        let mut c = clock();
        c.record(CostEvent::PageReadSeq, 10); // 11.5ms
        c.observe(5 * MS); // in the past: no-op
        assert_eq!(c.now(), 11_500_000_000);
        assert_eq!(c.breakdown().wait_ms, 0.0);
        c.observe(20 * MS);
        assert_eq!(c.now(), 20 * MS);
        assert_eq!(c.breakdown().wait_ms, 8.5);
    }

    #[test]
    fn advance_net_accumulates_net_time() {
        let mut c = clock();
        c.advance_net_to(3 * MS);
        c.advance_net_to(2 * MS); // past: no-op
        assert_eq!(c.now_ms(), 3.0);
        assert_eq!(c.breakdown().net_ms, 3.0);
    }

    #[test]
    fn breakdown_total_matches_clock() {
        let mut c = clock();
        c.record(CostEvent::TupleHash, 7);
        c.advance_net_to(MS);
        c.observe(5 * MS / 2);
        c.record(CostEvent::PageWriteSeq, 1);
        assert_eq!(c.spent.iter().sum::<u64>(), c.now());
        assert!((c.breakdown().total_ms() - c.now_ms()).abs() < 1e-12);
    }

    #[test]
    fn a_slowed_clock_charges_whole_ticks_of_the_slowed_unit() {
        let params = CostParams::paper_default();
        for factor in [1.0, 1.75, 2.0, 3.3333] {
            let mut c = clock();
            c.set_slowdown(factor);
            assert_eq!(c.slowdown(), factor);
            let mut expect = 0;
            for (n, e) in (1u64..).zip(CostEvent::ALL) {
                c.record(e, 1000 * n);
                expect += 1000 * n * (e.unit_ticks(&params) as f64 * factor).round() as u64;
            }
            assert_eq!(c.now(), expect, "slowdown {factor}");
        }
        // Network/Lamport advances are wall positions, not work: unscaled.
        let mut c = clock();
        c.set_slowdown(2.0);
        c.record(CostEvent::PageReadSeq, 2); // 2 × 1.15 × 2.0 = 4.6 ms
        assert_eq!(c.now(), 4_600_000_000);
        c.advance_net_to(5 * MS);
        c.observe(6 * MS);
        assert_eq!(c.now(), 6 * MS);
    }

    #[test]
    fn charges_commute() {
        let events = [(CostEvent::TupleRead, 7), (CostEvent::PageWriteSeq, 3), (CostEvent::TupleDest, 11)];
        let mut forward = clock();
        let mut backward = clock();
        for &(e, n) in &events {
            forward.record(e, n);
        }
        for &(e, n) in events.iter().rev() {
            for _ in 0..n {
                backward.record(e, 1);
            }
        }
        assert_eq!(forward.now(), backward.now());
        assert_eq!(forward.spent, backward.spent);
    }

    #[test]
    fn breakdown_add() {
        let mut a = TimeBreakdown {
            cpu_ms: 1.0,
            io_ms: 2.0,
            net_ms: 3.0,
            wait_ms: 4.0,
        };
        a.add(&TimeBreakdown {
            cpu_ms: 0.5,
            io_ms: 0.5,
            net_ms: 0.5,
            wait_ms: 0.5,
        });
        assert_eq!(a.total_ms(), 12.0);
    }
}
