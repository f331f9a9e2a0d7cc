//! Adaptive Repartitioning (§3.3).
//!
//! The mirror image of A2P, for when the optimizer *expects* many groups:
//! start with Repartitioning (so the first segment of tuples skips the
//! extra local phase), but guard against estimation error. Each node
//! watches the distinct groups among its first `initSeg` scanned tuples;
//! if there are "too few groups given the number of seen tuples" it
//! broadcasts `EndOfPhase` and falls back to Adaptive Two Phase. Nodes
//! receiving `EndOfPhase` "follow suit by switching … and sending their
//! own end-of-phase message"; the merge phase simply keeps the hash table
//! it has been filling — "the global aggregation phase now uses the hash
//! table left by the repartitioning phase".
//!
//! While scanning, the node polls its endpoint for `EndOfPhase` (every
//! [`crate::AlgoConfig::arep_poll_interval`] tuples). A poll takes
//! controls only: the data pages it finds arrived stay queued for the
//! merge phase, which charges them in its own, logical order — so the
//! node's virtual time depends on the thread schedule through nothing
//! but *when* a peer's `EndOfPhase` is seen, the paper's benign race.

use crate::adaptive2p::ScanState;
use crate::common::{merge_phase_store, QueryPlan};
use crate::config::AlgoConfig;
use crate::outcome::{AdaptEvent, NodeOutcome};
use adaptagg_exec::{operators, Exchange, ExecError, NodeCtx, PhaseKind, ScanSink, SwitchCause};
use adaptagg_model::hash::{hash_batch_finish, hash_batch_init, hash_batch_ints, hash_batch_values, Seed};
use adaptagg_model::{record_each, RowKind, StripView};
use adaptagg_net::{Control, Payload};
use adaptagg_storage::{BatchOutcome, ScanBatch};
use std::collections::HashSet;

/// Run Adaptive Repartitioning on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    let max_entries = ctx.params().max_hash_entries;
    let fanout = cfg.overflow_fanout;
    let mut events: Vec<AdaptEvent> = Vec::new();

    let mut ex = Exchange::new(
        ctx.nodes(),
        ctx.params().message_bytes,
        plan.key_len(),
        RowKind::Raw,
    );

    let mut scan = ArepScan {
        plan,
        max_entries,
        init_seg: cfg.arep_init_seg as u64,
        min_groups: cfg.arep_min_groups,
        poll: cfg.arep_poll_interval.max(1) as u64,
        ex: &mut ex,
        events: &mut events,
        fallen_back: false,
        signalled: false,
        a2p: None,
        seen_keys: HashSet::new(),
        hashes: Vec::new(),
        scanned: 0,
    };
    ctx.span_start(PhaseKind::Scan);
    let scan_result = operators::scan_pages(
        ctx,
        "base",
        &plan.base.filter,
        &plan.projection,
        0,
        usize::MAX,
        &mut scan,
    );
    ctx.span_end();
    scan_result?;
    let a2p = scan.a2p;

    // If the A2P table holds partials (fell back and never re-switched),
    // ship them now.
    ctx.span_start(PhaseKind::Partition);
    let shipped = (|| {
        if let Some(mut state) = a2p {
            if !state.switched {
                ex.flush_table(ctx, &mut state.table, RowKind::Partial)?;
            }
        }
        ex.finish(ctx)
    })();
    ctx.span_end();
    shipped?;
    ctx.clock.mark("phase1");

    // Merge phase "uses the hash table left by the repartitioning phase":
    // one bounded table over the pages of all kinds.
    let (rows, agg) = merge_phase_store(ctx, plan, max_entries, fanout)?;
    Ok(NodeOutcome { rows, agg, events })
}

/// The scan-side state of Adaptive Repartitioning, as the scan's sink.
/// While repartitioning, batches cross the exchange, each cut ahead of its
/// next *event tuple*: the one whose turn it is to poll the endpoint, and
/// the `initSeg`-th, at which the local verdict is taken. An event tuple
/// is handled alone, in the row loop's clock order — its select lead is
/// paid, it joins the census, the endpoint is polled or the verdict taken,
/// and only then is it routed — so the poll, the verdict's `EndOfPhase`
/// and the route's sends read the clock where a tuple-at-a-time scan
/// would. Once fallen back, the A2P [`ScanState`] takes the batches.
struct ArepScan<'a> {
    plan: &'a QueryPlan,
    max_entries: usize,
    init_seg: u64,
    min_groups: u64,
    poll: u64,
    ex: &'a mut Exchange,
    events: &'a mut Vec<AdaptEvent>,
    /// Running A2P logic?
    fallen_back: bool,
    /// Has this node broadcast `EndOfPhase`?
    signalled: bool,
    a2p: Option<ScanState>,
    seen_keys: HashSet<u64>,
    /// The census's per-row key hashes (scratch).
    hashes: Vec<u64>,
    scanned: u64,
}

impl ArepScan<'_> {
    /// Passing tuples ahead of the next event tuple.
    fn until_event(&self) -> u64 {
        let poll = self.poll - 1 - self.scanned % self.poll;
        match self.init_seg.checked_sub(self.scanned + 1) {
            Some(verdict) => poll.min(verdict),
            None => poll,
        }
    }

    /// Count `batch`'s passing rows — the tuples after the `scanned` so
    /// far — in the distinct-key census over the first `initSeg` tuples.
    /// The set stops growing once the verdict is safe (bounded memory).
    fn census(&mut self, batch: &ScanBatch<'_>) {
        let (init_seg, min_groups) = (self.init_seg, self.min_groups);
        let open = |scanned: u64, seen: &HashSet<u64>| scanned < init_seg && seen.len() as u64 <= min_groups;
        if batch.passing() == 0 || !open(self.scanned, &self.seen_keys) {
            return;
        }
        let hashes = &mut self.hashes;
        hashes.clear();
        hash_batch_init(Seed::Table, batch.rows(), hashes);
        for j in 0..self.plan.key_len().min(batch.arity()) {
            match batch.column(j) {
                StripView::Ints(xs) => hash_batch_ints(hashes, xs),
                StripView::Values(vs) => hash_batch_values(hashes, vs),
            }
        }
        hash_batch_finish(hashes);
        for i in 0..batch.passing() {
            if !open(self.scanned + i as u64, &self.seen_keys) {
                break;
            }
            self.seen_keys.insert(hashes[batch.passing_row(i)]);
        }
    }

    /// An event tuple's turn, at the clock its select left: poll for a
    /// peer's `EndOfPhase`, or take the local verdict.
    fn poll_or_judge(&mut self, ctx: &mut NodeCtx) -> Result<(), ExecError> {
        let scanned = self.scanned;
        // A peer's abort surfaces here as an error (`poll_control`
        // intercepts it), ending the scan promptly.
        if scanned.is_multiple_of(self.poll) {
            while let Some(msg) = ctx.poll_control()? {
                let Payload::Control(Control::EndOfPhase { .. }) = msg.payload else {
                    return Err(ExecError::Protocol("unexpected control during ARep scan"));
                };
                self.fallen_back = true;
                self.events.push(AdaptEvent::FellBackToTwoPhase {
                    at_tuple: scanned,
                    local_decision: false,
                });
                ctx.trace_switch(SwitchCause::LowCardinalityPeer, scanned);
            }
            if self.fallen_back && !self.signalled {
                // "Follow suit … sending their own end-of-phase message."
                ctx.broadcast_control(Control::EndOfPhase {
                    groups_seen: self.seen_keys.len() as u64,
                })?;
                self.signalled = true;
            }
        }
        if !self.fallen_back && scanned == self.init_seg && (self.seen_keys.len() as u64) < self.min_groups {
            self.fallen_back = true;
            self.signalled = true;
            self.events.push(AdaptEvent::FellBackToTwoPhase {
                at_tuple: scanned,
                local_decision: true,
            });
            ctx.trace_switch(SwitchCause::LowCardinalityLocal, scanned);
            ctx.broadcast_control(Control::EndOfPhase {
                groups_seen: self.seen_keys.len() as u64,
            })?;
        }
        Ok(())
    }
}

impl ScanSink<NodeCtx> for ArepScan<'_> {
    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        if let Some(state) = self.a2p.as_mut() {
            let out = state.push_batch(ctx, self.ex, batch, self.events)?;
            self.scanned += out.passed;
            return Ok(out);
        }
        let until = self.until_event() as usize;
        if until > 0 || batch.passing() == 0 {
            // Repartitioning: hash + destination per tuple.
            let ahead = batch.first_passing(until);
            self.census(&ahead);
            let out = self.ex.route_batch(ctx, &ahead, true)?;
            self.scanned += out.passed;
            return Ok(out);
        }
        let r = batch.passing_row(0);
        record_each(&mut ctx.clock, batch.fail_charge(), r as u64);
        record_each(&mut ctx.clock, batch.pass_lead(), 1);
        let event = batch.head(r + 1).prepaid();
        self.census(&event);
        self.scanned += 1;
        self.poll_or_judge(ctx)?;
        if self.fallen_back {
            // Adaptive Two Phase logic from here on.
            let grant = ctx.grant().clone();
            let state = self
                .a2p
                .get_or_insert_with(|| ScanState::new(self.plan, self.max_entries).with_grant(grant));
            state.push_batch(ctx, self.ex, &event, self.events)
        } else {
            self.ex.route_batch(ctx, &event, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_algorithm_with, AlgorithmKind};
    use adaptagg_exec::ClusterConfig;
    use adaptagg_model::CostParams;
    use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

    fn run_with_m(tuples: usize, groups: usize, nodes: usize, m: usize) -> crate::RunOutcome {
        let spec = RelationSpec::uniform(tuples, groups);
        let parts = generate_partitions(&spec, nodes);
        let params = CostParams {
            max_hash_entries: m,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(nodes, params);
        let cfg = AlgoConfig::default_for(nodes);
        run_algorithm_with(
            AlgorithmKind::AdaptiveRepartitioning,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap()
    }

    #[test]
    fn many_groups_sticks_with_repartitioning() {
        // 5000 groups >> min_groups (40 for 4 nodes): no fallback.
        let out = run_with_m(20_000, 5000, 4, 10_000);
        assert!(
            out.adapted_nodes().is_empty(),
            "no fallback expected: {:?}",
            out.nodes.iter().map(|n| &n.events).collect::<Vec<_>>()
        );
        assert_eq!(out.rows.len(), 5000);
    }

    #[test]
    fn few_groups_falls_back_to_two_phase() {
        let out = run_with_m(20_000, 10, 4, 10_000);
        // Every node must fall back (locally or by contagion).
        assert_eq!(out.adapted_nodes().len(), 4);
        assert_eq!(out.rows.len(), 10);
        // At least one node decided locally.
        let local_deciders = out
            .nodes
            .iter()
            .filter(|n| {
                n.events.iter().any(|e| {
                    matches!(
                        e,
                        AdaptEvent::FellBackToTwoPhase {
                            local_decision: true,
                            ..
                        }
                    )
                })
            })
            .count();
        assert!(local_deciders >= 1);
    }

    #[test]
    fn matches_reference_in_both_regimes() {
        for groups in [5usize, 3000] {
            let spec = RelationSpec::uniform(10_000, groups);
            let parts = generate_partitions(&spec, 4);
            let query = default_query();
            let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();
            let config = ClusterConfig::new(4, CostParams::paper_default());
            let cfg = AlgoConfig::default_for(4);
            let out = run_algorithm_with(
                AlgorithmKind::AdaptiveRepartitioning,
                &config,
                &parts,
                &query,
                &cfg,
            )
            .unwrap();
            assert_eq!(out.rows, reference, "groups = {groups}");
        }
    }

    #[test]
    fn fallback_then_memory_pressure_reswitches() {
        // Few distinct groups *early* is judged on init_seg; use a config
        // where fallback happens but then the table fills (groups > M):
        // the A2P state must switch back to repartitioning.
        let spec = RelationSpec::uniform(30_000, 300);
        let parts = generate_partitions(&spec, 4);
        let params = CostParams {
            max_hash_entries: 50,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        // min_groups 400 > 300 actual groups → fallback guaranteed;
        // then 300 local groups > M=50 → re-switch guaranteed.
        let cfg = AlgoConfig::default_for(4).with_crossover_threshold(400);
        let query = default_query();
        let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();
        let out = run_algorithm_with(
            AlgorithmKind::AdaptiveRepartitioning,
            &config,
            &parts,
            &query,
            &cfg,
        )
        .unwrap();
        assert_eq!(out.rows, reference);
        // Some node must show both events in order.
        let double = out.nodes.iter().any(|n| {
            let fell = n
                .events
                .iter()
                .position(|e| matches!(e, AdaptEvent::FellBackToTwoPhase { .. }));
            let switched = n
                .events
                .iter()
                .position(|e| matches!(e, AdaptEvent::SwitchedToRepartitioning { .. }));
            matches!((fell, switched), (Some(f), Some(s)) if f < s)
        });
        assert!(double, "expected fallback followed by re-switch");
    }

    #[test]
    fn scan_poll_rejects_unknown_controls() {
        // The mid-scan poll accepts EndOfPhase (the fallback signal),
        // racing data, and end-of-stream markers — a rogue control is a
        // typed protocol violation attributed to the scanning node.
        let spec = RelationSpec::uniform(4_000, 300);
        let parts = generate_partitions(&spec, 2);
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let plan = crate::common::QueryPlan::new(&default_query());
        let cfg = AlgoConfig::default_for(2);
        let r = adaptagg_exec::run_cluster(&config, parts, |ctx| {
            if ctx.id() == 0 {
                ctx.send_control(
                    1,
                    Control::SamplingDecision {
                        use_repartitioning: true,
                        groups_in_sample: 0,
                    },
                )?;
                // Consume the peer's traffic until its abort arrives.
                loop {
                    ctx.recv()?;
                }
            } else {
                run_node(ctx, &plan, &cfg).map(|_| ())
            }
        });
        assert_eq!(
            r.err(),
            Some(ExecError::Protocol("unexpected control during ARep scan"))
        );
    }
}
