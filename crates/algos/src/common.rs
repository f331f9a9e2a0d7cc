//! Building blocks shared by all algorithms.

use adaptagg_exec::recovery::{scan_steps, ScanStep};
use adaptagg_exec::{operators, Exchange, ExecError, NodeCtx, PhaseKind, ScanSink};
use adaptagg_hashagg::{DrainCause, HashAggStats, HashAggregator};
use adaptagg_model::{AggQuery, DemoteCause, LaneRows, ResultRow, RowKind, StoreIndex, StoreLayout};
use adaptagg_net::Control;
use adaptagg_sortagg::SortAggStats;
use adaptagg_storage::RowPages;
use std::ops::Range;

/// A query compiled for execution: the base-schema form, the projection
/// the scan applies, and the projected (remapped) form every operator
/// downstream of the scan uses.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The query as posed against the base schema.
    pub base: AggQuery,
    /// Columns the scan keeps (the paper's projectivity `p`).
    pub projection: Vec<usize>,
    /// The query remapped against the projection: group columns first.
    pub projected: AggQuery,
}

impl QueryPlan {
    /// Compile a query.
    pub fn new(query: &AggQuery) -> Self {
        QueryPlan {
            base: query.clone(),
            projection: query.projection_columns(),
            projected: query.remapped_to_projection(),
        }
    }

    /// Number of group-key columns (the leading columns of every projected
    /// row, raw or partial).
    pub fn key_len(&self) -> usize {
        self.projected.group_by.len()
    }

    /// Phase 1's scan: `pages` of the node's base relation into `sink`,
    /// filtered and projected, under a `scan` span. Returns the number of
    /// passing tuples.
    pub fn scan<S: ScanSink<NodeCtx>>(
        &self,
        ctx: &mut NodeCtx,
        pages: Range<usize>,
        sink: &mut S,
    ) -> Result<usize, ExecError> {
        let (filter, columns) = (&self.base.filter, &self.projection);
        ctx.in_span(PhaseKind::Scan, |ctx| {
            operators::scan_pages(ctx, "base", filter, columns, pages.start, pages.end, sink)
        })
    }
}

/// Phase 1 of the Two Phase family: scan + project the local partition,
/// aggregate into a table of the node's `max_hash_entries` (with overflow
/// processing), and return the partial rows on pages (§2.1's local
/// aggregation). The scan feeds the aggregator a page at a time —
/// borrowed column-strip batches into the table's batched insert, rows
/// where the strips cannot serve.
///
/// The scan walks [`scan_steps`]: without a recovery session that is one
/// chunk, every page under one aggregator. Under a session, rows already
/// durable for a partition are restored instead of recomputed, and the
/// remaining pages are aggregated chunk by chunk, a fresh aggregator each
/// (no aggregator state to snapshot), their partials checkpointed as they
/// are produced. Duplicate group keys across restored and fresh chunks
/// are fine — partial rows are mergeable, and every consumer of this
/// function's output merges.
pub fn local_partial_aggregation(ctx: &mut NodeCtx, plan: &QueryPlan) -> Result<(RowPages, HashAggStats), ExecError> {
    let (max_entries, page_bytes) = (ctx.params().max_hash_entries, ctx.params().page_bytes);
    let mut session = ctx.recovery.take();
    let phase = (|| -> Result<_, ExecError> {
        let (mut out, mut stats) = (RowPages::new(page_bytes), HashAggStats::default());
        for step in scan_steps(session.as_mut()) {
            let chunk = match step {
                ScanStep::Restore(partition) => {
                    let session = session.as_mut().expect("restores run under a session");
                    let restored = ctx.in_span(PhaseKind::Scan, |ctx| {
                        session.restore_partials(partition, &mut ctx.clock)
                    });
                    out.append(restored?);
                    continue;
                }
                ScanStep::Scan(chunk) => chunk,
            };
            let mut agg = HashAggregator::with_defaults(plan.projected.clone(), max_entries, page_bytes)
                .with_grant(ctx.grant().clone());
            plan.scan(ctx, chunk.pages, &mut agg)?;
            let (partials, s) =
                ctx.in_span(PhaseKind::LocalAgg, |ctx| -> Result<_, ExecError> {
                    let spilled = agg.has_spilled();
                    let finish = |ctx: &mut NodeCtx| agg.finish_partials(&mut ctx.clock);
                    let (partials, s) = if spilled {
                        ctx.in_span(PhaseKind::Spill, finish)
                    } else {
                        finish(ctx)
                    }?;
                    // A chunk's partials are durable before they leave the phase.
                    if let Some(session) = session.as_mut() {
                        let (clock, disk) = (&mut ctx.clock, &mut ctx.disk);
                        session.checkpoint(
                            chunk.partition,
                            chunk.done,
                            &partials,
                            chunk.last,
                            clock,
                            disk,
                        )?;
                    }
                    Ok((partials, s))
                })?;
            stats.add(&s);
            if out.is_empty() {
                out = partials;
            } else {
                out.append(partials);
            }
        }
        Ok((out, stats))
    })();
    ctx.recovery = session;
    let (partials, stats) = phase?;
    trace_hashagg(ctx, &stats);
    Ok((partials, stats))
}

/// Feed one aggregation's [`HashAggStats`] into the node's trace metrics
/// (no-op when tracing is disabled). Counters sum across the phases a
/// node runs; the peak-resident and bytes-per-group gauges keep the
/// maximum. `hashagg.spooled_rows{lane=columns|cells}` splits
/// `hashagg.spilled_tuples` by how the rows were spooled: off an all-`Int`
/// batch a column at a time, or cell by cell.
/// `hashagg.overflow_pages{lane=batched}` counts the overflow bucket pages
/// re-aggregated off their strips, `{lane=rows,cause=…}` the ones fed row
/// by row, by [`DrainCause`].
pub fn trace_hashagg(ctx: &mut NodeCtx, stats: &HashAggStats) {
    if ctx.trace.enabled() {
        trace_tables(ctx, stats);
        ctx.trace.counter_add("hashagg.rows_in", stats.rows_in());
        ctx.trace
            .counter_add("hashagg.spilled_tuples", stats.spilled_tuples);
        ctx.trace.counter_add("hashagg.spooled_rows{lane=columns}", stats.spooled_rows.columns);
        ctx.trace.counter_add("hashagg.spooled_rows{lane=cells}", stats.spooled_rows.cells);
        ctx.trace
            .counter_add("hashagg.overflow_flushes", stats.overflow_buckets);
        ctx.trace
            .gauge_max("hashagg.peak_resident", stats.peak_resident as f64);
        // Which lane the overflow buckets' pages went back into a table on
        // (only what happened is named).
        let mut pages = |counter, n| {
            if n > 0 {
                ctx.trace.counter_add(counter, n);
            }
        };
        pages("hashagg.overflow_pages{lane=batched}", stats.overflow_pages_batched);
        for cause in DrainCause::ALL {
            pages(cause.counter(), stats.overflow_pages_rows[cause as usize]);
        }
    }
}

/// What an operator's drained tables left in the trace: their
/// `store.*` metrics, the slots their probes examined
/// (`hashagg.probe_slots`) and the partial rows they drained. For a
/// phase-1 table an algorithm drives itself, pass its
/// [`AggTable::drains`](adaptagg_hashagg::AggTable::drains). No-op when
/// tracing is disabled.
pub fn trace_tables(ctx: &mut NodeCtx, drains: &HashAggStats) {
    if ctx.trace.enabled() {
        trace_store(ctx, &drains.store);
        trace_partial_rows(ctx, drains.partial_rows);
        ctx.trace.counter_add("hashagg.probe_slots", drains.probe_slots);
    }
}

/// [`trace_hashagg`] for the sort-based local phase: what run formation
/// took in and sealed, and which lane the run merge folded each row on —
/// `strips` for rows of all-`Int` pages, `values` for rows of a page
/// holding any other cell.
pub fn trace_sortagg(ctx: &mut NodeCtx, stats: &SortAggStats) {
    if ctx.trace.enabled() {
        trace_store(ctx, &stats.store);
        trace_partial_rows(ctx, stats.partial_rows);
        ctx.trace.counter_add("sortagg.rows_in", stats.rows_in);
        ctx.trace.counter_add("sortagg.runs_sealed", stats.runs_sealed);
        ctx.trace.counter_add("sortagg.run_rows", stats.run_rows());
        ctx.trace
            .counter_add("sortagg.merge_rows{lane=strips}", stats.merge_rows_strips);
        ctx.trace
            .counter_add("sortagg.merge_rows{lane=values}", stats.merge_rows_values);
    }
}

/// `store.partial_rows{lane=columns|cells}`: the rows a writer put out of
/// a group store (a drain, a run, the run merge's output) a column at a time
/// onto a page's typed lane, and cell by cell — a refused column lane shows
/// as `cells`. No-op when tracing is disabled.
fn trace_partial_rows(ctx: &mut NodeCtx, rows: LaneRows) {
    if ctx.trace.enabled() {
        ctx.trace.counter_add("store.partial_rows{lane=columns}", rows.columns);
        ctx.trace.counter_add("store.partial_rows{lane=cells}", rows.cells);
    }
}

/// The `store.*` metrics: what layout the data left an operator's group
/// store in, which kind of cell demoted a column, which index found the
/// groups of each table (`store.index{kind=dense|hashed}`) and how many
/// tables left the dense map for the slot array
/// (`store.index_conversions`).
fn trace_store(ctx: &mut NodeCtx, store: &StoreLayout) {
    ctx.trace
        .counter_add("store.columns{layout=typed}", store.typed_columns);
    ctx.trace
        .counter_add("store.columns{layout=general}", store.general_columns);
    for cause in DemoteCause::ALL {
        ctx.trace
            .counter_add(cause.counter(), store.demoted[cause as usize]);
    }
    for index in StoreIndex::ALL {
        ctx.trace.counter_add(index.counter(), store.index[index as usize]);
    }
    ctx.trace.counter_add("store.index_conversions", store.index_conversions);
    ctx.trace
        .gauge_max("store.bytes_per_group", store.bytes_per_group as f64);
}

/// A merge phase: consume every node's stream of data pages (raw tuples
/// and/or partial rows), aggregating from the first page on in a table
/// of the node's `max_hash_entries` (hash cost not re-charged: rows were
/// hashed when partitioned), finalize, and store the results on the local
/// disk, all under one `merge` span.
///
/// The streams are consumed in logical order ([`NodeCtx::recv_streams`]:
/// sender ascending, per-sender FIFO), so the phase's virtual time — and
/// which groups an overflowing table admits first — is a pure function of
/// what was sent, whatever arrived while an earlier phase was still
/// running. Stray `EndOfPhase` controls are tolerated (a peer may switch
/// late); any other control is a protocol violation.
pub fn merge_phase_store(ctx: &mut NodeCtx, plan: &QueryPlan) -> Result<(Vec<ResultRow>, HashAggStats), ExecError> {
    let (max_entries, page_bytes) = (ctx.params().max_hash_entries, ctx.params().page_bytes);
    let mut agg = HashAggregator::with_defaults(plan.projected.clone(), max_entries, page_bytes)
        .with_charge_hash(false)
        .with_grant(ctx.grant().clone());

    let (rows, stats) = ctx.in_span(PhaseKind::Merge, |ctx| -> Result<_, ExecError> {
        ctx.recv_streams(
            |ctx, kind, page| {
                agg.push_page(kind, &page, &mut ctx.clock)?;
                ctx.page_pool.put(page);
                Ok(())
            },
            |control| match control {
                Control::EndOfPhase { .. } => Ok(()),
                _ => Err(ExecError::Protocol("unexpected control in merge phase")),
            },
        )?;
        let spilled = agg.has_spilled();
        let finish = |ctx: &mut NodeCtx| agg.finish_rows(&mut ctx.clock);
        let (rows, stats) = if spilled {
            ctx.in_span(PhaseKind::Spill, finish)
        } else {
            finish(ctx)
        }?;
        // Storing the result is the phase's last step, inside its span.
        operators::store_results(ctx, &rows)?;
        Ok((rows, stats))
    })?;
    trace_hashagg(ctx, &stats);
    Ok((rows, stats))
}

/// Where phase 1's partial rows go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipTo {
    /// Each row to the node that owns its group key ([`Seed::Partition`]
    /// hash; destination cost only — the rows came out of a hash table),
    /// end-of-stream to every node.
    ///
    /// [`Seed::Partition`]: adaptagg_model::Seed::Partition
    Owners,
    /// Every row to this node (C2P's coordinator: no hash, no destination
    /// computation), end-of-stream to it alone.
    Node(usize),
}

/// The one hand-off from a local phase to the network: ship pages of
/// partial rows through a fresh exchange under a `partition` span — each
/// page crosses as the batch it is, strip to strip, at the charges of its
/// rows routed one by one, and is freed as soon as it is routed — then end
/// the stream. Phase 1 ends where this span ends.
pub fn ship_partials(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    partials: RowPages,
    to: ShipTo,
) -> Result<(), ExecError> {
    let mut ex = Exchange::new(
        ctx.nodes(),
        ctx.params().message_bytes,
        plan.key_len(),
        RowKind::Partial,
    );
    ctx.in_span(PhaseKind::Partition, |ctx| match to {
        ShipTo::Owners => {
            ex.route_partials(ctx, partials, RowKind::Partial)?;
            ex.finish(ctx)
        }
        ShipTo::Node(node) => {
            for page in partials.into_pages() {
                ex.send_page_to(ctx, node, &page)?;
            }
            ex.flush(ctx)?;
            ctx.send_control(node, Control::EndOfStream)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_exec::{run_cluster, ClusterConfig};
    use adaptagg_model::{AggFunc, AggSpec, CostParams};
    use adaptagg_workload::RelationSpec;

    fn plan() -> QueryPlan {
        QueryPlan::new(&AggQuery::new(
            vec![0],
            vec![AggSpec::over(AggFunc::Sum, 1)],
        ))
    }

    #[test]
    fn query_plan_projects_and_remaps() {
        let q = AggQuery::new(vec![2], vec![AggSpec::over(AggFunc::Sum, 0)]);
        let p = QueryPlan::new(&q);
        assert_eq!(p.projection, vec![2, 0]);
        assert_eq!(p.projected.group_by, vec![0]);
        assert_eq!(p.projected.aggs[0].input, Some(1));
        assert_eq!(p.key_len(), 1);
    }

    #[test]
    fn local_aggregation_compresses_to_group_count() {
        let spec = RelationSpec::uniform(1000, 20);
        let parts = adaptagg_workload::generate_partitions(&spec, 2);
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let plan = plan();
        let run = run_cluster(&config, parts, |ctx| {
            let (partials, stats) = local_partial_aggregation(ctx, &plan)?;
            Ok((partials.len(), stats.spilled()))
        })
        .unwrap();
        for (count, spilled) in run.outputs {
            assert_eq!(count, 20, "each node sees all 20 groups");
            assert!(!spilled);
        }
    }

    #[test]
    fn two_phase_via_common_blocks_matches_reference() {
        // Wire local aggregation + partitioned shipping + merge into a
        // miniature Two Phase and verify against a flat reference.
        let spec = RelationSpec::uniform(2000, 50);
        let parts = adaptagg_workload::generate_partitions(&spec, 4);
        let reference = crate::verify::reference_aggregate(
            &parts,
            &AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]),
        )
        .unwrap();

        let config = ClusterConfig::new(4, CostParams::paper_default());
        let plan = plan();
        let run = run_cluster(&config, parts, |ctx| {
            let (partials, _) = local_partial_aggregation(ctx, &plan)?;
            ship_partials(ctx, &plan, partials, ShipTo::Owners)?;
            let (rows, _) = merge_phase_store(ctx, &plan)?;
            Ok(rows)
        })
        .unwrap();

        let mut all: Vec<ResultRow> = run.outputs.into_iter().flatten().collect();
        adaptagg_model::query::sort_rows(&mut all);
        assert_eq!(all, reference);
    }

    #[test]
    fn merge_phase_rejects_unknown_controls() {
        // A control that has no business in a merge phase (a sampling
        // decision) must surface as a typed protocol violation, not a
        // panic — and attribution must point at the receiver that
        // detected it, not at a cascade.
        let spec = RelationSpec::uniform(200, 10);
        let parts = adaptagg_workload::generate_partitions(&spec, 2);
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let plan = plan();
        let r = run_cluster(&config, parts, |ctx| {
            if ctx.id() == 0 {
                ctx.send_control(
                    1,
                    Control::SamplingDecision {
                        use_repartitioning: true,
                        groups_in_sample: 0,
                    },
                )?;
                Ok(())
            } else {
                merge_phase_store(ctx, &plan).map(|_| ())
            }
        });
        assert_eq!(
            r.err(),
            Some(ExecError::Protocol("unexpected control in merge phase"))
        );
    }
}
