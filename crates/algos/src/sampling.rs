//! Sampling (§3.1).
//!
//! Decide between Two Phase and Repartitioning *before* running, from a
//! page-level random sample:
//!
//! ```text
//! sample the relation
//! find the number of groups in the sample
//! if (number of groups found < crossover threshold)  use Two Phase
//! else                                               use Repartitioning
//! ```
//!
//! Each node samples its local partition and sends the *distinct group
//! keys of its sample* to the coordinator (a miniature Centralized Two
//! Phase over the sample, as the paper suggests); the coordinator counts
//! distinct groups — a lower bound on the true count — applies the
//! crossover rule, and broadcasts the decision.

use crate::c2p::COORDINATOR;
use crate::common::QueryPlan;
use crate::config::AlgoConfig;
use crate::outcome::{AdaptEvent, NodeOutcome};
use adaptagg_exec::{Exchange, ExecError, NodeCtx, PhaseKind};
use adaptagg_model::{CostEvent, CostTracker, GroupKey, RowKind};
use adaptagg_net::{Control, Payload};
use adaptagg_sample::{sample_tuples, AlgorithmChoice};
use adaptagg_storage::RowPages;
use std::collections::BTreeSet;

/// Seed of the page-level sample, mixed with the node id.
const SAMPLE_SEED: u64 = 0xabcd;

/// Run the Sampling algorithm on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    let choice = ctx.in_span(PhaseKind::Sample, |ctx| estimate_and_decide(ctx, plan, cfg))?;
    let mut outcome = match choice {
        AlgorithmChoice::TwoPhase => crate::twophase::run_node(ctx, plan, cfg)?,
        AlgorithmChoice::Repartitioning => crate::repart::run_node(ctx, plan, cfg)?,
    };
    outcome.events.insert(0, AdaptEvent::SamplingChose(choice));
    Ok(outcome)
}

/// Phase 0: sample, estimate, decide, broadcast.
///
/// A peer that received its decision first may already be shipping
/// phase-1 data while this node still waits for its own. That traffic
/// simply stays queued in the endpoint, unobserved and uncharged, until
/// the main phase's merge asks for it: a worker waits on the
/// coordinator's link alone, and the coordinator's gather ends at each
/// sender's first `EndOfStream`.
fn estimate_and_decide(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    cfg: &AlgoConfig,
) -> Result<AlgorithmChoice, ExecError> {
    let per_node = cfg.crossover.sample_size_per_node();
    let node_seed = SAMPLE_SEED ^ (ctx.id() as u64).wrapping_mul(0x9e37_79b9);

    // Sample local pages (charges rIO per page, t_r per tuple).
    let file = ctx.disk.take("base")?;
    let sample = sample_tuples(&file, per_node, node_seed, &mut ctx.clock)?;
    ctx.disk.put("base", file);

    // Local "aggregation" of the sample: find its distinct keys, charging
    // the §3.1 sample-aggregation costs (t_h + t_a per tuple; t_r was
    // charged by the sampler).
    let mut keys: BTreeSet<GroupKey> = BTreeSet::new();
    for values in &sample {
        // The estimate must reflect the *filtered* relation's group count.
        if !adaptagg_model::matches_all(&plan.base.filter, values)? {
            continue;
        }
        ctx.clock.record(CostEvent::TupleHash, 1);
        ctx.clock.record(CostEvent::TupleAgg, 1);
        keys.insert(plan.base.key_of_values(values)?);
    }
    // Generate result tuples (t_w each) and ship to the coordinator, in
    // key order: which message page a key lands on — and with
    // variable-width keys, how many pages there are — is then a function
    // of the sample alone.
    ctx.clock.record(CostEvent::TupleWrite, keys.len() as u64);
    let mut key_pages = RowPages::new(ctx.params().page_bytes);
    for key in &keys {
        key_pages.push(key.values())?;
    }
    let mut ex = Exchange::new(
        ctx.nodes(),
        ctx.params().message_bytes,
        plan.key_len(),
        RowKind::Raw,
    );
    for page in key_pages.into_pages() {
        ex.send_page_to(ctx, COORDINATOR, &page)?;
    }
    ex.flush(ctx)?;
    ctx.send_control(COORDINATOR, Control::EndOfStream)?;

    if ctx.id() == COORDINATOR {
        // Merge sample keys as their pages come in; the distinct count is
        // a lower bound on the relation's group count.
        let mut merged: BTreeSet<GroupKey> = BTreeSet::new();
        ctx.recv_streams(
            |ctx, _, page| {
                for key in page.iter() {
                    ctx.clock.record(CostEvent::TupleRead, 1);
                    merged.insert(GroupKey::new(key?));
                }
                ctx.page_pool.put(page);
                Ok(())
            },
            |_| Err(ExecError::Protocol("unexpected control during sampling")),
        )?;
        let groups = merged.len() as u64;
        let choice = cfg.crossover.decide(groups);
        ctx.broadcast_control(Control::SamplingDecision {
            use_repartitioning: choice == AlgorithmChoice::Repartitioning,
            groups_in_sample: groups,
        })?;
        ctx.trace_sampling_decision(choice == AlgorithmChoice::Repartitioning, groups);
        Ok(choice)
    } else {
        // The verdict is the first thing the coordinator ever sends here.
        match ctx.recv_from(COORDINATOR)?.payload {
            Payload::Control(Control::SamplingDecision {
                use_repartitioning,
                groups_in_sample,
            }) => {
                ctx.trace_sampling_decision(use_repartitioning, groups_in_sample);
                Ok(if use_repartitioning {
                    AlgorithmChoice::Repartitioning
                } else {
                    AlgorithmChoice::TwoPhase
                })
            }
            // Abort never reaches this match (`recv_from` intercepts it).
            _ => Err(ExecError::Protocol(
                "unexpected control during sampling decision wait",
            )),
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

    fn run(groups: usize) -> crate::RunOutcome {
        let spec = RelationSpec::uniform(20_000, groups);
        let parts = generate_partitions(&spec, 4);
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        run_algorithm_with(
            AlgorithmKind::Sampling,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap()
    }

    fn chose_repartitioning(out: &crate::RunOutcome) -> bool {
        out.nodes.iter().all(|n| {
            n.events.iter().any(|e| {
                matches!(
                    e,
                    AdaptEvent::SamplingChose(AlgorithmChoice::Repartitioning)
                )
            })
        })
    }

    #[test]
    fn few_groups_choose_two_phase() {
        // 10 groups << threshold 40: sample can never show 40 groups.
        let out = run(10);
        assert!(!chose_repartitioning(&out));
        assert_eq!(out.rows.len(), 10);
    }

    #[test]
    fn many_groups_choose_repartitioning() {
        // 5000 groups >> threshold 40, sample of ~400/node shows plenty.
        let out = run(5000);
        assert!(chose_repartitioning(&out));
        assert_eq!(out.rows.len(), 5000);
    }

    #[test]
    fn all_nodes_agree_on_the_choice() {
        let out = run(5000);
        let choices: Vec<bool> = out
            .nodes
            .iter()
            .map(|n| {
                n.events.iter().any(|e| {
                    matches!(
                        e,
                        AdaptEvent::SamplingChose(AlgorithmChoice::Repartitioning)
                    )
                })
            })
            .collect();
        assert!(choices.iter().all(|&c| c == choices[0]));
    }

    #[test]
    fn sampling_pays_random_io() {
        let out = run(10);
        // Sampling charges rIO; at least the coordinator's node report
        // shows nonzero io before the main scan... indirectly: elapsed
        // exceeds a pure Two Phase run on identical data.
        let spec = RelationSpec::uniform(20_000, 10);
        let parts = generate_partitions(&spec, 4);
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let tp = run_algorithm_with(
            AlgorithmKind::TwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert!(
            out.elapsed_ms() > tp.elapsed_ms(),
            "sampling {} <= 2P {}",
            out.elapsed_ms(),
            tp.elapsed_ms()
        );
        assert_eq!(out.rows, tp.rows);
    }

    #[test]
    fn coordinator_rejects_unknown_controls_during_estimation() {
        // A rogue control in the coordinator's sample-gather loop is a
        // typed protocol violation, attributed to the coordinator.
        let spec = RelationSpec::uniform(400, 10);
        let parts = generate_partitions(&spec, 2);
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let plan = crate::common::QueryPlan::new(&default_query());
        let cfg = AlgoConfig::default_for(2);
        let r = adaptagg_exec::run_cluster(&config, parts, |ctx| {
            if ctx.id() == COORDINATOR {
                estimate_and_decide(ctx, &plan, &cfg).map(|_| ())
            } else {
                ctx.send_control(COORDINATOR, Control::EndOfPhase { groups_seen: 0 })?;
                Ok(())
            }
        });
        assert_eq!(
            r.err(),
            Some(ExecError::Protocol("unexpected control during sampling"))
        );
    }

    #[test]
    fn worker_rejects_unknown_controls_while_awaiting_decision() {
        // The worker's decision wait accepts the decision, racing phase-1
        // traffic, and end-of-stream markers — anything else is a typed
        // protocol violation.
        let spec = RelationSpec::uniform(400, 10);
        let parts = generate_partitions(&spec, 2);
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let plan = crate::common::QueryPlan::new(&default_query());
        let cfg = AlgoConfig::default_for(2);
        let r = adaptagg_exec::run_cluster(&config, parts, |ctx| {
            if ctx.id() == COORDINATOR {
                // Answer the worker's sample with a rogue control instead
                // of a decision, then drain its phase-0 stream.
                ctx.send_control(1, Control::EndOfPhase { groups_seen: 0 })?;
                loop {
                    if let Payload::Control(Control::EndOfStream) = ctx.recv()?.payload {
                        return Ok(());
                    }
                }
            } else {
                estimate_and_decide(ctx, &plan, &cfg).map(|_| ())
            }
        });
        assert_eq!(
            r.err(),
            Some(ExecError::Protocol(
                "unexpected control during sampling decision wait"
            ))
        );
    }
}
