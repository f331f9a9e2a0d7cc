//! Intra-node morsel-driven drivers for the scan and merge phases.
//!
//! Both drivers are **optimistic fast paths** around the serial code in
//! [`crate::common`]: they run the physical work on `ctx.threads()`
//! workers through [`ParTables`] (the strategy engine), then make the
//! node's virtual clock land on *exactly* the serial value:
//!
//! * the **scan** driver charges nothing while workers run; each morsel
//!   records its pass/fail pattern into a [`ScanJournal`], and on commit
//!   the journals replay in morsel order — the same event sequence, in
//!   the same `f64` accumulation order, the serial scan records. If the
//!   engine aborts (budget, floats, any error) nothing was charged and
//!   the caller simply runs the unchanged serial path.
//! * the **merge** driver buffers arrivals cost-free and then walks
//!   them in **canonical order** — sender id ascending, per-sender FIFO,
//!   the same order the serial loop replays — charging optimistically
//!   inline: the Lamport `observe`, the protocol charge, and per data
//!   page the exact accept run the serial `push_page` emits when
//!   nothing spills. Pages are stashed in that canonical order instead
//!   of aggregated. On commit the stash is aggregated in parallel; on
//!   any deviation (engine abort, spill regime, floats, a receive
//!   error) the clock is restored from a snapshot and the stash replays
//!   through the serial aggregator — reproducing serial charges
//!   bit-for-bit even on error paths.
//!
//! Result rows are bit-identical in both paths because [`ParTables`]
//! reconstructs the serial insertion order from per-row stamps; see
//! `adaptagg-hashagg::parallel`.

use std::sync::atomic::{AtomicUsize, Ordering};

use adaptagg_exec::{
    operators, replay_scan_journal, scan_morsel, ExecError, NodeCtx, PhaseKind, ScanJournal,
};
use adaptagg_hashagg::{
    columnar_default, HashAggStats, HashAggregator, IntraEvent, IntraMode, ParOutcome, ParTables,
};
use adaptagg_model::hash::{hash_batch_finish, hash_batch_init, hash_batch_ints, hash_batch_values};
use adaptagg_model::{CostEvent, CostTracker, ResultRow, RowKind, Seed, Value};
use adaptagg_net::{Control, Message, Page, Payload};
use adaptagg_storage::StripView;

use crate::common::{trace_hashagg, QueryPlan};

/// Pages per morsel. Small enough that 8 threads find work in modest
/// partitions, large enough that the claim (one atomic increment) is
/// noise.
pub const MORSEL_PAGES: usize = 8;

/// What the serial merge-phase `push_page` charges per accepted tuple
/// (`with_charge_hash(false)`: rows were hashed when partitioned). A
/// fully-accepted page is exactly one `record_tuples` of this over its
/// tuple count, which is what the optimistic inline charge predicts.
const MERGE_ACCEPT: [CostEvent; 2] = [CostEvent::TupleRead, CostEvent::TupleAgg];

/// Emit the engine's picker decisions as `intra.pick` / `intra.switch`
/// trace events (no-op when tracing is off).
fn trace_intra_events(ctx: &mut NodeCtx, events: &[IntraEvent]) {
    for ev in events {
        match *ev {
            IntraEvent::Pick { strategy, at_morsel } => {
                ctx.trace_intra_pick(strategy.name(), at_morsel)
            }
            IntraEvent::Switch {
                from,
                to,
                cause,
                at_morsel,
            } => ctx.trace_intra_switch(from.name(), to.name(), cause.name(), at_morsel),
        }
    }
}

/// Synthesize the stats a committed parallel aggregation reports.
///
/// `raw_in`/`partial_in`/`groups_out` are exact. `probe_slots` is
/// reported as the row count (one probe per row — the parallel
/// structures' actual probe counts depend on physical interleaving, and
/// stats must stay deterministic) and `peak_resident` as the group
/// count. Spill counters are zero by construction: a spill regime
/// aborts to the serial path.
fn synth_stats(raw_in: u64, partial_in: u64, groups_out: u64) -> HashAggStats {
    HashAggStats {
        raw_in,
        partial_in,
        groups_out,
        probe_slots: raw_in + partial_in,
        peak_resident: groups_out,
        ..HashAggStats::default()
    }
}

/// Morsel-parallel local aggregation (phase 1 of the Two Phase family).
///
/// Returns `None` when the node is ineligible (single-threaded,
/// recovery/fault session, tiny scan, non-prefix key) **or** the engine
/// aborted — in every such case nothing was charged and nothing was
/// consumed, so the caller runs the serial path unchanged.
pub fn par_local_aggregation(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    max_entries: usize,
) -> Option<(Vec<Vec<Value>>, HashAggStats)> {
    if !ctx.par_scan_eligible() {
        return None;
    }
    let threads = ctx.threads();
    let file = ctx.disk.take("base").ok()?;
    let pages = file.page_count();
    if pages < 2 {
        ctx.disk.put("base", file);
        return None;
    }
    let tables = match ParTables::new(
        plan.projected.clone(),
        max_entries,
        ctx.grant().clone(),
        threads,
        IntraMode::from_env(),
    ) {
        Some(t) => t,
        None => {
            ctx.disk.put("base", file);
            return None;
        }
    };
    let morsels = pages.div_ceil(MORSEL_PAGES);
    let cursor = AtomicUsize::new(0);

    // Physical scan: workers claim morsels, feed the engine, and journal
    // what the serial scan would have charged. No clock is touched.
    let mut journals: Vec<(usize, ScanJournal)> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let cursor = &cursor;
            let tables = &tables;
            let file = &file;
            handles.push(s.spawn(move || {
                let mut out: Vec<(usize, ScanJournal)> = Vec::new();
                loop {
                    let m = cursor.fetch_add(1, Ordering::Relaxed);
                    if m >= morsels || tables.aborted() {
                        break;
                    }
                    let start = m * MORSEL_PAGES;
                    let end = ((m + 1) * MORSEL_PAGES).min(pages);
                    let mut journal = ScanJournal::new();
                    let mut ordinal = 0u64;
                    let mut rows = 0u64;
                    let mut news = 0u64;
                    let scanned = scan_morsel(
                        file,
                        start,
                        end,
                        &plan.base.filter,
                        &plan.projection,
                        &mut journal,
                        |values| {
                            let stamp = ((m as u64) << 24) | ordinal;
                            ordinal += 1;
                            match tables.insert(w, RowKind::Raw, values, stamp) {
                                None => Ok(false),
                                Some(is_new) => {
                                    rows += 1;
                                    if is_new {
                                        news += 1;
                                    }
                                    Ok(true)
                                }
                            }
                        },
                    );
                    match scanned {
                        Ok(true) => {
                            tables.report_morsel(m as u64, rows, news);
                            out.push((m, journal));
                        }
                        // Engine abort or a scan error: the serial rerun
                        // surfaces it with the right charges.
                        Ok(false) => break,
                        Err(_) => {
                            tables.abort();
                            break;
                        }
                    }
                }
                out
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    // Scan barrier passed: scatter buffers are quiescent; aggregate the
    // partitioned route's partitions (each claimed exclusively).
    if !tables.aborted() {
        std::thread::scope(|s| {
            for _ in 0..threads {
                let tables = &tables;
                s.spawn(move || {
                    let mut scratch = Vec::new();
                    tables.run_partition_phase(&mut scratch);
                });
            }
        });
    }
    ctx.disk.put("base", file);
    let outcome: ParOutcome = tables.finish()?;

    // Commit: replay the journals in logical (morsel) order, then drain
    // — the exact serial charge sequence, under the serial spans.
    journals.sort_unstable_by_key(|(m, _)| *m);
    debug_assert_eq!(journals.len(), morsels);
    ctx.span_start(PhaseKind::Scan);
    for (_, journal) in &journals {
        replay_scan_journal(&mut ctx.clock, journal.ops());
    }
    ctx.span_end();
    ctx.span_start(PhaseKind::LocalAgg);
    let mut table = outcome.table;
    let partials = table.drain_partial_rows(&mut ctx.clock);
    ctx.span_end();
    let stats = synth_stats(outcome.raw_in, outcome.partial_in, partials.len() as u64);
    trace_intra_events(ctx, &outcome.events);
    trace_hashagg(ctx, &stats);
    Some((partials, stats))
}

/// One stashed merge-phase arrival, in serial order.
enum StashEntry {
    /// A page an earlier phase pulled off the wire (already observed).
    Pre { kind: RowKind, page: Page },
    /// A data page received in this phase.
    Data { kind: RowKind, page: Page, ts: f64 },
    /// A control message (only its Lamport observation matters).
    Control { ts: f64 },
}

/// Morsel-parallel merge phase. The caller must have checked
/// [`NodeCtx::par_scan_eligible`] — once this starts receiving, it owns
/// the phase (messages are consumed off the wire) and always completes
/// it: parallel on commit, by bit-identical serial replay on any
/// deviation.
pub fn par_merge_phase_store(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    max_entries: usize,
    fanout: usize,
    pre_received: Vec<(RowKind, Page)>,
    pre_eos: usize,
) -> Result<(Vec<ResultRow>, HashAggStats), ExecError> {
    let threads = ctx.threads();
    ctx.span_start(PhaseKind::Merge);
    let snapshot = ctx.clock.clone();
    let mut stash: Vec<StashEntry> = Vec::new();
    let mut pending_err: Option<ExecError> = None;

    for (kind, page) in pre_received {
        ctx.clock.record_tuples(&MERGE_ACCEPT, page.tuple_count() as u64);
        stash.push(StashEntry::Pre { kind, page });
    }
    // Buffer arrivals cost-free, exactly like the serial loop: clock
    // accounting happens only in the canonical walk below, so physical
    // arrival order cannot leak into the virtual time.
    let mut eos = pre_eos;
    let nodes = ctx.nodes();
    let mut streams: Vec<Vec<Message>> = (0..nodes).map(|_| Vec::new()).collect();
    while eos < nodes {
        match ctx.recv_deferred() {
            Ok(msg) => {
                match &msg.payload {
                    Payload::Data { .. } => {}
                    Payload::Control(Control::EndOfStream) => eos += 1,
                    Payload::Control(Control::EndOfPhase { .. }) => {}
                    Payload::Control(_) => {
                        pending_err =
                            Some(ExecError::Protocol("unexpected control in merge phase"));
                    }
                }
                let from = msg.from;
                streams[from].push(msg);
                if pending_err.is_some() {
                    break;
                }
            }
            // Receive errors charge nothing (aborts are intercepted
            // before observation), so the replay below reproduces the
            // serial clock at the failure point exactly.
            Err(e) => {
                pending_err = Some(e);
                break;
            }
        }
    }
    // Canonical walk — sender id ascending, per-sender FIFO, the same
    // order the serial loop replays: observe and charge optimistically
    // inline, and stash in that order so both the stamps and the
    // fallback replay see the schedule-independent sequence.
    for msgs in streams {
        for msg in msgs {
            let ts = msg.sent_at_ms;
            ctx.clock.observe(ts);
            match msg.payload {
                Payload::Data { kind, page } => {
                    ctx.clock.record(CostEvent::MsgProtocol, 1);
                    // Optimistic: predict full acceptance — exactly one
                    // accept run over the page, which is what the serial
                    // push charges when nothing spills.
                    ctx.clock.record_tuples(&MERGE_ACCEPT, page.tuple_count() as u64);
                    stash.push(StashEntry::Data { kind, page, ts });
                }
                Payload::Control(_) => stash.push(StashEntry::Control { ts }),
            }
        }
    }

    if pending_err.is_none() {
        if let Some((rows, stats)) = par_aggregate_stash(ctx, plan, max_entries, &stash, threads) {
            ctx.span_end();
            // Recycle consumed pages exactly as the serial loop does.
            for entry in stash {
                match entry {
                    StashEntry::Pre { page, .. } | StashEntry::Data { page, .. } => {
                        ctx.page_pool.put(page)
                    }
                    StashEntry::Control { .. } => {}
                }
            }
            trace_hashagg(ctx, &stats);
            operators::store_results(ctx, &rows)?;
            return Ok((rows, stats));
        }
    }

    // Deviation (spill regime, floats, budget, or a receive error):
    // restore the clock and replay the stash through the serial
    // aggregator — identical charges, identical state, even mid-error.
    ctx.clock = snapshot;
    let page_bytes = ctx.params().page_bytes;
    let mut agg = HashAggregator::new(plan.projected.clone(), max_entries, page_bytes, fanout)
        .with_charge_hash(false)
        .with_grant(ctx.grant().clone());
    let replayed = (|| {
        for entry in stash {
            match entry {
                StashEntry::Pre { kind, page } => {
                    agg.push_page(kind, &page, &mut ctx.clock)?;
                    ctx.page_pool.put(page);
                }
                StashEntry::Data { kind, page, ts } => {
                    ctx.clock.observe(ts);
                    ctx.clock.record(CostEvent::MsgProtocol, 1);
                    agg.push_page(kind, &page, &mut ctx.clock)?;
                    ctx.page_pool.put(page);
                }
                StashEntry::Control { ts } => ctx.clock.observe(ts),
            }
        }
        Ok(())
    })();
    if let Err(e) = replayed {
        ctx.span_end();
        return Err(e);
    }
    if let Some(e) = pending_err {
        ctx.span_end();
        return Err(e);
    }
    let spilled = agg.has_spilled();
    if spilled {
        ctx.span_start(PhaseKind::Spill);
    }
    let finished = agg.finish_rows(&mut ctx.clock);
    if spilled {
        ctx.span_end();
    }
    ctx.span_end();
    let (rows, stats) = finished?;
    trace_hashagg(ctx, &stats);
    operators::store_results(ctx, &rows)?;
    Ok((rows, stats))
}

/// Aggregate the stashed pages on `threads` workers. `None` = the
/// engine aborted (budget, floats, spill regime); the caller replays
/// serially. On success the result rows are drained with the real
/// clock, charging the serial finish's `t_w` run.
fn par_aggregate_stash(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    max_entries: usize,
    stash: &[StashEntry],
    threads: usize,
) -> Option<(Vec<ResultRow>, HashAggStats)> {
    let tables = ParTables::new(
        plan.projected.clone(),
        max_entries,
        ctx.grant().clone(),
        threads,
        IntraMode::from_env(),
    )?;
    // Batch-hash whole key strips per page (ADAPTAGG_COLUMNAR ≠ "row"),
    // feeding the engine prehashed rows; the engine requires a prefix
    // key, so the key columns are always the leading strips.
    let columnar = columnar_default();
    let key_len = plan.projected.group_by.len();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..threads {
            let cursor = &cursor;
            let tables = &tables;
            s.spawn(move || {
                let mut scratch: Vec<Value> = Vec::new();
                let mut hashes: Vec<u64> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= stash.len() || tables.aborted() {
                        break;
                    }
                    let (kind, page) = match &stash[i] {
                        StashEntry::Pre { kind, page } => (*kind, page),
                        StashEntry::Data { kind, page, .. } => (*kind, page),
                        StashEntry::Control { .. } => continue,
                    };
                    let batched = if columnar { page.uniform_arity() } else { None };
                    if let Some(arity) = batched {
                        let k = key_len.min(arity);
                        hash_batch_init(Seed::Table, page.tuple_count(), &mut hashes);
                        for j in 0..k {
                            match page.column(j).expect("uniform-arity page has dense strips") {
                                StripView::Ints(xs) => hash_batch_ints(&mut hashes, xs),
                                StripView::Values(vs) => hash_batch_values(&mut hashes, vs),
                            }
                        }
                        hash_batch_finish(&mut hashes);
                    }
                    let mut ordinal = 0u64;
                    let mut rows = 0u64;
                    let mut news = 0u64;
                    let mut page_cursor = page.cursor();
                    loop {
                        match page_cursor.next_into(&mut scratch) {
                            Ok(false) => break,
                            Ok(true) => {}
                            Err(_) => {
                                tables.abort();
                                return;
                            }
                        }
                        let stamp = ((i as u64) << 24) | ordinal;
                        let inserted = if batched.is_some() {
                            let hash = hashes[ordinal as usize];
                            tables.insert_prehashed(w, kind, &scratch, stamp, hash)
                        } else {
                            tables.insert(w, kind, &scratch, stamp)
                        };
                        ordinal += 1;
                        match inserted {
                            None => return,
                            Some(is_new) => {
                                rows += 1;
                                if is_new {
                                    news += 1;
                                }
                            }
                        }
                    }
                    tables.report_morsel(i as u64, rows, news);
                }
            });
        }
    });
    if !tables.aborted() {
        std::thread::scope(|s| {
            for _ in 0..threads {
                let tables = &tables;
                s.spawn(move || {
                    let mut scratch = Vec::new();
                    tables.run_partition_phase(&mut scratch);
                });
            }
        });
    }
    let outcome = tables.finish()?;
    let mut table = outcome.table;
    let rows = table.drain_result_rows(&mut ctx.clock);
    let stats = synth_stats(outcome.raw_in, outcome.partial_in, rows.len() as u64);
    trace_intra_events(ctx, &outcome.events);
    Some((rows, stats))
}
