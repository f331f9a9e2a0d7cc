//! Broadcast aggregation — Bitton et al.'s second algorithm, included as
//! the negative baseline the paper dismisses: it "uses broadcast of the
//! tuples and lets each node process the tuples belonging to a subset of
//! groups. This is impractical on today's multiprocessor interconnects,
//! which do not efficiently support broadcasting" (§1).
//!
//! Every node ships its whole projected partition to **every** node
//! (N× the repartitioning volume); each receiver aggregates only the
//! tuples whose group key hashes to it and discards the rest after a
//! destination check. Correct, embarrassingly parallel — and catastrophic
//! on a shared bus, which the benchmarks demonstrate.
//!
//! The scan blocks each page's passing rows strip to strip into the one
//! outgoing message page (`Broadcaster`: the one-destination scatter),
//! paying their select charges before each broadcast, since a send reads
//! the clock. The merge takes a received page as one batch: its rows'
//! owners hashed off the key strips, the rows this node owns kept as the
//! batch's selection.

use crate::common::{trace_hashagg, QueryPlan};
use crate::config::AlgoConfig;
use crate::outcome::NodeOutcome;
use adaptagg_exec::{operators, send_sealed, ExecError, NodeCtx, PhaseKind, ScanSink};
use adaptagg_hashagg::HashAggregator;
use adaptagg_model::hash::Seed;
use adaptagg_model::{CostEvent, CostTracker, RowKind};
use adaptagg_net::{Blocker, Control, Page, Scatter, Sealed};
use adaptagg_storage::{BatchOutcome, ScanBatch};

/// Run Broadcast aggregation on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    _cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    let nodes = ctx.nodes();
    let message_bytes = ctx.params().message_bytes;
    let key_len = plan.key_len();

    // Phase 1: scan + project, blocking into pages; each sealed page is
    // cloned to every node (the broadcast).
    let mut sink = Broadcaster {
        blocker: Blocker::new(1, message_bytes),
        sealed: Vec::new(),
    };
    let scanned = operators::scan_pages(ctx, "base", &plan.base.filter, &plan.projection, 0, usize::MAX, &mut sink)?;
    for (_, page) in sink.blocker.flush() {
        broadcast_page(ctx, &page)?;
    }
    for dest in 0..nodes {
        ctx.send_control(dest, Control::EndOfStream)?;
    }
    ctx.clock.mark("phase1");

    // Phase 2: aggregate only the tuples this node owns; a destination
    // check (`t_d`) is paid for every received tuple, owned or not. A page
    // is one batch: each row's owner hashed off its key strips, the rows
    // this node owns its selection, owing the merge table nothing ahead of
    // its own charges. A ragged page is no batch: it fails as the column its
    // short rows lack. The merge span ends once the result is stored.
    let (max_entries, page_bytes) = (ctx.params().max_hash_entries, ctx.params().page_bytes);
    let mut agg = HashAggregator::with_defaults(plan.projected.clone(), max_entries, page_bytes)
        .with_charge_hash(false)
        .with_grant(ctx.grant().clone());
    let mut discarded: u64 = 0;
    // Pooled per page: the rows' partition hashes, the rows this node owns.
    let (mut hashes, mut owned) = (Vec::new(), Vec::new());
    ctx.span_start(PhaseKind::Merge);
    let merged = (|| -> Result<_, ExecError> {
        ctx.recv_streams(
            |ctx, _, page| {
                let n = page.tuple_count();
                ctx.clock.record(CostEvent::TupleDest, n as u64);
                if n > 0 {
                    ScanBatch::scanned(&page, &[], None, n)?.hash_keys(Seed::Partition, key_len, &mut hashes);
                    owned.clear();
                    owned.extend((0..n as u32).filter(|&r| hashes[r as usize] % nodes as u64 == ctx.id() as u64));
                    let mine = ScanBatch::scanned(&page, &[], Some(&owned), n)?.prepaid();
                    agg.push_batch(RowKind::Raw, &mine, &mut ctx.clock)?;
                    discarded += (n - owned.len()) as u64;
                }
                ctx.page_pool.put(page);
                Ok(())
            },
            |_| Err(ExecError::Protocol("unexpected control in broadcast merge")),
        )?;
        let (rows, stats) = agg.finish_rows(&mut ctx.clock)?;
        operators::store_results(ctx, &rows)?;
        Ok((rows, stats))
    })();
    ctx.span_end();
    let (rows, mut agg_stats) = merged?;
    trace_hashagg(ctx, &agg_stats);
    agg_stats.raw_in += scanned as u64 + discarded;
    Ok(NodeOutcome {
        rows,
        agg: agg_stats,
        events: Vec::new(),
    })
}

/// The scan's sink: the one outgoing page's blocker, and the pooled list
/// of the pages a batch sealed.
struct Broadcaster {
    blocker: Blocker,
    sealed: Vec<Sealed>,
}

impl ScanSink<NodeCtx> for Broadcaster {
    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        let scattered = self.blocker.scatter(batch, Scatter::To(0), &mut ctx.page_pool, &mut self.sealed);
        send_sealed(ctx, batch, &[], self.sealed.drain(..), scattered, |ctx, sealed| {
            broadcast_page(ctx, &sealed.page)?;
            ctx.page_pool.put(sealed.page);
            Ok(())
        })?;
        Ok(BatchOutcome {
            consumed: batch.rows(),
            passed: batch.passing() as u64,
            ..BatchOutcome::default()
        })
    }
}

fn broadcast_page(ctx: &mut NodeCtx, page: &Page) -> Result<(), ExecError> {
    for dest in 0..ctx.nodes() {
        ctx.send_page(dest, RowKind::Raw, page.clone())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_algorithm_with, AlgorithmKind};
    use adaptagg_exec::ClusterConfig;
    use adaptagg_model::CostParams;
    use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

    #[test]
    fn matches_reference() {
        let spec = RelationSpec::uniform(4_000, 300);
        let parts = generate_partitions(&spec, 4);
        let query = default_query();
        let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out =
            run_algorithm_with(AlgorithmKind::Broadcast, &config, &parts, &query, &cfg).unwrap();
        assert_eq!(out.rows, reference);
    }

    #[test]
    fn ships_n_times_the_relation() {
        let spec = RelationSpec::uniform(2_000, 100);
        let parts = generate_partitions(&spec, 4);
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::Broadcast,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert_eq!(out.run.total_net().tuples_sent, 4 * 2_000);
    }

    #[test]
    fn loses_badly_on_a_shared_bus() {
        // The paper's dismissal, demonstrated: N× the volume on a
        // sequential medium.
        let spec = RelationSpec::uniform(8_000, 2_000);
        let parts = generate_partitions(&spec, 8);
        let config = ClusterConfig::new(8, CostParams::cluster_default());
        let cfg = AlgoConfig::default_for(8);
        let bcast = run_algorithm_with(
            AlgorithmKind::Broadcast,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let rep = run_algorithm_with(
            AlgorithmKind::Repartitioning,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert_eq!(bcast.rows, rep.rows);
        assert!(
            bcast.elapsed_ms() > rep.elapsed_ms() * 3.0,
            "broadcast {} vs repartitioning {}",
            bcast.elapsed_ms(),
            rep.elapsed_ms()
        );
    }

    #[test]
    fn merge_rejects_unknown_controls() {
        let spec = RelationSpec::uniform(2_000, 50);
        let parts = generate_partitions(&spec, 2);
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let plan = crate::common::QueryPlan::new(&default_query());
        let cfg = AlgoConfig::default_for(2);
        let r = adaptagg_exec::run_cluster(&config, parts, |ctx| {
            if ctx.id() == 0 {
                ctx.send_control(
                    1,
                    Control::SamplingDecision {
                        use_repartitioning: false,
                        groups_in_sample: 0,
                    },
                )?;
                // Consume the peer's broadcast until its abort arrives.
                loop {
                    ctx.recv()?;
                }
            } else {
                run_node(ctx, &plan, &cfg).map(|_| ())
            }
        });
        assert_eq!(
            r.err(),
            Some(ExecError::Protocol("unexpected control in broadcast merge"))
        );
    }

    /// A received page whose rows are of two arities is no batch: the
    /// merge ends in the typed error naming the column its short row
    /// lacks, not a panic.
    #[test]
    fn merge_rejects_a_ragged_page() {
        use adaptagg_model::ModelError;
        let spec = RelationSpec::uniform(2_000, 50);
        let parts = generate_partitions(&spec, 2);
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let plan = crate::common::QueryPlan::new(&default_query());
        let cfg = AlgoConfig::default_for(2);
        let r = adaptagg_exec::run_cluster(&config, parts, |ctx| {
            if ctx.id() == 0 {
                let mut page = Page::new(ctx.params().message_bytes);
                assert!(page.try_push(&[1i64.into(), 2i64.into()]).unwrap());
                assert!(page.try_push(&[3i64.into()]).unwrap());
                ctx.send_page(1, RowKind::Raw, page)?;
                // Consume the peer's broadcast until its abort arrives.
                loop {
                    ctx.recv()?;
                }
            } else {
                run_node(ctx, &plan, &cfg).map(|_| ())
            }
        });
        assert_eq!(
            r.err(),
            Some(ExecError::Model(ModelError::ColumnOutOfRange { column: 1, arity: 1 }))
        );
    }
}
