//! Per-node virtual clocks.

use adaptagg_model::{CostEvent, CostParams, CostTracker};

/// Where a node's virtual time went. The categories mirror the paper's
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

/// A labelled checkpoint on a node's virtual timeline — algorithms mark
/// phase boundaries so runs can report per-phase spans comparable to the
/// analytical model's per-phase breakdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMark {
    /// What finished at this point (e.g. `"phase1"`).
    pub label: &'static str,
    /// The node's virtual time at the mark.
    pub at_ms: f64,
    /// Snapshot of the breakdown at the mark.
    pub breakdown: TimeBreakdown,
}

/// A node's virtual clock. Implements [`CostTracker`], so the storage and
/// hash-aggregation layers advance it transparently as they emit events.
#[derive(Debug, Clone)]
pub struct Clock {
    now_ms: f64,
    params: CostParams,
    /// `unit_ms(&params)` of every event, indexed by the event: the
    /// params never change, and a division per recorded event is most of
    /// what recording one costs in loops that must record event by event
    /// (a run merge's pops, a seal's rows).
    units: [f64; 9],
    breakdown: TimeBreakdown,
    marks: Vec<PhaseMark>,
    slowdown: f64,
}

impl Clock {
    /// A clock at time zero under the given cost parameters.
    pub fn new(params: CostParams) -> Self {
        debug_assert!(CostEvent::ALL.iter().enumerate().all(|(i, &e)| e as usize == i));
        Clock {
            now_ms: 0.0,
            units: CostEvent::ALL.map(|e| e.unit_ms(&params)),
            params,
            breakdown: TimeBreakdown::default(),
            marks: Vec::new(),
            slowdown: 1.0,
        }
    }

    /// Inflate every subsequent CPU/disk event by `factor` — a fault
    /// plan's per-node slowdown (a degraded, not dead, node). `1.0` is the
    /// nominal default and is exactly cost-free (`x * 1.0 == x` in IEEE
    /// 754), so an unslowed clock ticks identically to one without the
    /// feature.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(factor >= 1.0, "slowdown factor must be >= 1.0");
        self.slowdown = factor;
    }

    /// The current slowdown factor.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Record a phase boundary at the current virtual time.
    pub fn mark(&mut self, label: &'static str) {
        self.marks.push(PhaseMark {
            label,
            at_ms: self.now_ms,
            breakdown: self.breakdown,
        });
    }

    /// The phase marks recorded so far, in order.
    pub fn marks(&self) -> &[PhaseMark] {
        &self.marks
    }

    /// Current virtual time in ms.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// The cost parameters this clock charges with.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Where the time went so far.
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }

    /// Advance to a network-transfer completion time (send side): the node
    /// is occupied until its transfer finishes, matching the analytical
    /// model charging `m_l` to the sender.
    pub fn advance_net_to(&mut self, t_ms: f64) {
        if t_ms > self.now_ms {
            self.breakdown.net_ms += t_ms - self.now_ms;
            self.now_ms = t_ms;
        }
    }

    /// Lamport observation (receive side): jump forward to the message's
    /// timestamp if it is ahead of us; the gap is idle waiting.
    pub fn observe(&mut self, t_ms: f64) {
        if t_ms > self.now_ms {
            self.breakdown.wait_ms += t_ms - self.now_ms;
            self.now_ms = t_ms;
        }
    }
}

impl CostTracker for Clock {
    fn record(&mut self, event: CostEvent, count: u64) {
        let dt = self.units[event as usize] * count as f64 * self.slowdown;
        self.now_ms += dt;
        match event {
            CostEvent::PageReadSeq | CostEvent::PageWriteSeq | CostEvent::PageReadRand => {
                self.breakdown.io_ms += dt
            }
            _ => self.breakdown.cpu_ms += dt,
        }
    }

    fn record_tuples(&mut self, template: &[CostEvent], count: u64) {
        // Per-unit deltas, each exactly what `record(e, 1)` would add
        // (`unit_ms * 1 as f64 * slowdown`). Replaying them per tuple keeps
        // the f64 accumulation order — and therefore every rounding step —
        // identical to the per-tuple loop this call batches. Fixed-size
        // buffers: no allocation on the hot path.
        if template.len() > 8 {
            // Oversized template (never happens in-tree): take the naive
            // per-tuple path rather than truncate.
            for _ in 0..count {
                for &e in template {
                    self.record(e, 1);
                }
            }
            return;
        }
        let mut dts = [0.0f64; 8];
        let mut io = [false; 8];
        let n = template.len();
        for (i, e) in template.iter().enumerate() {
            dts[i] = self.units[*e as usize] * self.slowdown;
            io[i] = matches!(
                e,
                CostEvent::PageReadSeq | CostEvent::PageWriteSeq | CostEvent::PageReadRand
            );
        }
        for _ in 0..count {
            for i in 0..n {
                let dt = dts[i];
                self.now_ms += dt;
                if io[i] {
                    self.breakdown.io_ms += dt;
                } else {
                    self.breakdown.cpu_ms += dt;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Clock {
        Clock::new(CostParams::paper_default())
    }

    #[test]
    fn events_advance_by_unit_cost() {
        let mut c = clock();
        c.record(CostEvent::PageReadSeq, 2); // 2.30 ms io
        c.record(CostEvent::TupleRead, 100); // 0.75 ms cpu
        assert!((c.now_ms() - 3.05).abs() < 1e-9);
        assert!((c.breakdown().io_ms - 2.30).abs() < 1e-9);
        assert!((c.breakdown().cpu_ms - 0.75).abs() < 1e-9);
    }

    #[test]
    fn observe_only_moves_forward() {
        let mut c = clock();
        c.record(CostEvent::PageReadSeq, 10); // 11.5ms
        c.observe(5.0); // in the past: no-op
        assert!((c.now_ms() - 11.5).abs() < 1e-9);
        assert_eq!(c.breakdown().wait_ms, 0.0);
        c.observe(20.0);
        assert!((c.now_ms() - 20.0).abs() < 1e-9);
        assert!((c.breakdown().wait_ms - 8.5).abs() < 1e-9);
    }

    #[test]
    fn advance_net_accumulates_net_time() {
        let mut c = clock();
        c.advance_net_to(3.0);
        c.advance_net_to(2.0); // past: no-op
        assert_eq!(c.now_ms(), 3.0);
        assert_eq!(c.breakdown().net_ms, 3.0);
    }

    #[test]
    fn breakdown_total_matches_clock() {
        let mut c = clock();
        c.record(CostEvent::TupleHash, 7);
        c.advance_net_to(1.0);
        c.observe(2.5);
        c.record(CostEvent::PageWriteSeq, 1);
        assert!((c.breakdown().total_ms() - c.now_ms()).abs() < 1e-9);
    }

    #[test]
    fn slowdown_inflates_events_only() {
        let mut c = clock();
        c.set_slowdown(2.0);
        c.record(CostEvent::PageReadSeq, 2); // 2 × 1.15 × 2.0 = 4.6 ms
        assert!((c.now_ms() - 4.6).abs() < 1e-9);
        // Network/Lamport advances are wall positions, not work: unscaled.
        c.advance_net_to(5.0);
        assert!((c.now_ms() - 5.0).abs() < 1e-9);
        c.observe(6.0);
        assert!((c.now_ms() - 6.0).abs() < 1e-9);
        assert_eq!(c.slowdown(), 2.0);
    }

    #[test]
    fn record_tuples_is_bit_identical_to_per_tuple_loop() {
        // The batched path must reproduce the per-tuple loop's f64
        // accumulation exactly — rounding included — or virtual-time pins
        // would drift. Exercise cpu-only and mixed cpu/io templates, with
        // and without slowdown, from a non-zero starting time.
        let templates: [&[CostEvent]; 3] = [
            &[CostEvent::TupleRead, CostEvent::TupleHash, CostEvent::TupleAgg],
            &[CostEvent::TupleRead, CostEvent::TupleAgg],
            &[CostEvent::TupleRead, CostEvent::PageWriteSeq, CostEvent::TupleDest],
        ];
        for slowdown in [1.0, 1.75] {
            for template in templates {
                let mut batched = clock();
                batched.set_slowdown(slowdown);
                batched.record(CostEvent::TupleHash, 7); // non-zero start
                let mut looped = batched.clone();
                batched.record_tuples(template, 1013);
                for _ in 0..1013 {
                    for &e in template {
                        looped.record(e, 1);
                    }
                }
                assert_eq!(batched.now_ms().to_bits(), looped.now_ms().to_bits());
                assert_eq!(
                    batched.breakdown().cpu_ms.to_bits(),
                    looped.breakdown().cpu_ms.to_bits()
                );
                assert_eq!(
                    batched.breakdown().io_ms.to_bits(),
                    looped.breakdown().io_ms.to_bits()
                );
            }
        }
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
