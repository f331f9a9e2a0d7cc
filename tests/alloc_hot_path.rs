//! Allocation-count gate for the resident-group update hot path.
//!
//! The wall-clock optimization contract (ISSUE 3, DESIGN.md §10) says the
//! dominant aggregation step — updating an already-resident group via
//! `AggTable::insert` — performs **zero heap allocations**. This test
//! enforces that with a counting global allocator: after warming the table
//! so every group is resident, a large batch of updates must not change
//! the allocation counter at all.
//!
//! The same gate covers sorted-run formation (`sortagg::RunBuilder`, ISSUE
//! 12): hits and new-group admissions allocate nothing once the first seal
//! has sized the arenas, and a seal allocates per spill page, not per row.
//!
//! And the local aggregation phase end to end (ISSUE 13, DESIGN.md §17):
//! base pages through the scan operator, as borrowed batches, into the
//! table — with and without a WHERE clause — allocate nothing per page
//! once the scanner's selection vector and the table's pooled hash and
//! group-index columns are sized.
//!
//! And the merge regime (ISSUE 14, DESIGN.md §18), where most received
//! rows open a new group: the table's flat store takes one block per
//! column per 1024-row segment plus the slot-array doublings, not two
//! boxes per group.
//!
//! And the batched route (ISSUE 18, DESIGN.md §19): scanned pages cross
//! the exchange strip to strip into pooled message pages — nothing per
//! row, and with a warm pool nothing per message page beyond the channel's
//! own block every few dozen sends.
//!
//! And Sort-2P's local phase on the same strips (ISSUE 22, DESIGN.md
//! §16.5): batched run formation allocates for the spill pages it writes,
//! the run merge for the output pages it emits — neither per row nor per
//! group.
//!
//! And the hand-off out of the table (ISSUE 23, DESIGN.md §19.5): a
//! table's groups drained onto pages and routed to their owners allocate
//! for the pages written, not for the groups — and what a demoted `Str`
//! key column still costs per group is written down beside it.
//!
//! And the hash aggregator's overflow path (ISSUE 25, DESIGN.md §20): rows
//! spooled where they lie and buckets re-aggregated a drained page at a
//! time allocate per spill page and per bucket table, not per spilled row.
//!
//! And the base relation (DESIGN.md §22): a heap file is one set of
//! column arenas behind one reference count, so cloning a partition of
//! thousands of pages allocates nothing.
//!
//! And the row lanes (DESIGN.md §25): a page the strips arms cannot take —
//! `Str` keys over NULL-or-`Int` inputs, a ragged page — is read into the
//! table where it lies, so hits on resident groups allocate nothing there
//! either.
//!
//! This must stay the ONLY test in this file: `cargo test` runs tests in
//! one process on multiple threads, and a shared global counter would pick
//! up allocations from unrelated tests.

use adaptagg_exec::{Exchange, NodeCtx, PageScan};
use adaptagg_hashagg::{AggTable, HashAggregator};
use adaptagg_model::{
    AggFunc, AggQuery, AggSpec, Compare, CostEvent, CostParams, CountingTracker, NetworkKind,
    Predicate, RowKind, Value,
};
use adaptagg_net::{Control, Fabric, Payload};
use adaptagg_sortagg::merge::MergeEmit;
use adaptagg_sortagg::{merge_runs, RunBuilder};
use adaptagg_storage::{HeapFile, Page, RowCause, ScanBatch, SimDisk};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with a counter of alloc + realloc calls.
/// Deallocations are not counted: the claim is "no new heap memory", and
/// frees on the hot path would imply a matching earlier allocation anyway.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn resident_group_updates_do_not_allocate() {
    const GROUPS: i64 = 8;
    let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
    let mut table = AggTable::new(query, 10_000);
    let mut tracker = CountingTracker::new();

    // Warm-up: admit every group (this allocates — keys, agg states).
    for g in 0..GROUPS {
        table
            .insert(RowKind::Raw, &[Value::Int(g), Value::Int(1)][..], &mut tracker)
            .unwrap();
    }
    assert_eq!(table.len(), GROUPS as usize);

    // The libtest harness thread parks lazily after spawning this test:
    // its first park performs one-time channel/parker allocations at an
    // arbitrary moment, which the process-global counter would blame on
    // the measured window. Let it reach its steady park first, and retry
    // the window a few times — one-time lazy init drains after a single
    // attempt, whereas a genuinely allocating hot path allocates every
    // attempt and still fails.
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Hot path: 1000 update rounds over the resident groups. The row
    // buffer lives on the stack; the probe hashes the key columns in
    // place and combines into the existing state — zero allocations.
    let mut counted = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for round in 0..1000i64 {
            for g in 0..GROUPS {
                let row = [Value::Int(g), Value::Int(round)];
                table.insert(RowKind::Raw, &row[..], &mut tracker).unwrap();
            }
        }
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        if counted == 0 {
            break;
        }
    }

    assert_eq!(
        counted,
        0,
        "resident-group insert allocated {} times over {} updates",
        counted,
        1000 * GROUPS
    );
    assert_eq!(table.len(), GROUPS as usize, "no groups were added");

    // Batched hot path: the columnar fast lane (whole-page probe with the
    // vectorized hash kernel + deferred column-at-a-time updates) must be
    // allocation-free too once its pooled scratch vectors — the hash
    // column and the group-index column — are sized. The page is built
    // (and allocates) outside the window; one warm-up call sizes the
    // scratch pools.
    let mut page = Page::new(4096);
    for g in 0..GROUPS {
        assert!(page.try_push(&[Value::Int(g), Value::Int(2)]).unwrap());
    }
    let no_spill = |_: &mut CountingTracker, _: RowKind, _: &[Value]| -> Result<(), _> {
        panic!("resident groups never spill")
    };
    table
        .insert_page_batched(RowKind::Raw, &page, &mut tracker, no_spill)
        .unwrap();

    let mut counted = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _round in 0..1000 {
            table
                .insert_page_batched(RowKind::Raw, &page, &mut tracker, no_spill)
                .unwrap();
        }
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        if counted == 0 {
            break;
        }
    }

    assert_eq!(
        counted,
        0,
        "batched resident-group updates allocated {} times over {} pages",
        counted,
        1000
    );
    assert_eq!(table.len(), GROUPS as usize, "no groups were added");

    // Cloning a base partition — every query hands each node its own copy
    // (DESIGN.md §22) — bumps one reference count, however many pages the
    // file has.
    let mut big = HeapFile::new(256);
    for i in 0..40_000i64 {
        big.append(&[Value::Int(i), Value::Int(-i)]).unwrap();
    }
    assert!(big.page_count() > 3_000);
    let mut clones = Vec::with_capacity(16);
    let mut counted = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        clones.extend((0..16).map(|_| big.clone()));
        clones.clear();
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        if counted == 0 {
            break;
        }
    }
    assert_eq!(counted, 0, "16 clones of a {}-page file allocated {counted} times", big.page_count());

    // The local phase (DESIGN.md §17): scan -> borrowed batch -> table on
    // the node's own clock, hit regime. The first pass over the file
    // admits the groups and sizes every scratch column; passes after it
    // must not allocate, filter or no filter.
    let mut file = HeapFile::new(4096);
    for i in 0..20_000i64 {
        let pad = Value::Str("padding-padding".into());
        file.append(&[Value::Int(i % 64), Value::Int(i), pad]).unwrap();
    }
    let mut eps = Fabric::new(1, NetworkKind::high_speed_default()).into_endpoints();
    let mut ctx = NodeCtx::new(eps.pop().unwrap(), SimDisk::new(), CostParams::paper_default());
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    );
    let filter = [Predicate::new(1, Compare::Ge, Value::Int(5_000))];
    for filter in [&filter[..0], &filter[..]] {
        let mut agg = HashAggregator::new(query.clone(), 10_000, 4096, 4);
        let mut scan = PageScan::new(filter, &[0, 1]);
        let pages = file.page_count();
        scan.run(&mut ctx, &file, 0, pages, &mut agg).unwrap();
        assert_eq!(agg.resident_groups(), 64);
        let mut counted = u64::MAX;
        for _attempt in 0..5 {
            let before = ALLOCS.load(Ordering::Relaxed);
            scan.run(&mut ctx, &file, 0, pages, &mut agg).unwrap();
            counted = ALLOCS.load(Ordering::Relaxed) - before;
            if counted == 0 {
                break;
            }
        }
        assert_eq!(
            counted,
            0,
            "the local phase allocated {counted} times over {pages} pages ({} predicates)",
            filter.len()
        );
        let tally = scan.tally();
        assert_eq!(tally.pages_row, [0; 3], "every page rode the strips");
        assert!(tally.pages_batched as usize >= 2 * pages);
        assert_eq!(agg.resident_groups(), 64, "no groups were added");
    }

    // The batched route (DESIGN.md §19): the same file through the scan
    // into an exchange whose only destination is this node, so sealed
    // message pages come straight back and return to the pool. A pass
    // scans a few base pages, then drains what arrived.
    for filter in [&filter[..0], &filter[..]] {
        let mut ex = Exchange::new(1, ctx.params().message_bytes, 1, RowKind::Raw);
        let mut scan = PageScan::new(filter, &[0, 1]);
        let pages = file.page_count();
        // One pass: (message pages sent, rows they carried).
        let mut pass = |ctx: &mut NodeCtx| {
            let (before, mut routed) = (ctx.net_stats().pages_sent(), 0);
            for start in (0..pages).step_by(8) {
                let sent = ctx.net_stats().pages_sent();
                scan.run(ctx, &file, start, (start + 8).min(pages), &mut ex).unwrap();
                for _ in sent..ctx.net_stats().pages_sent() {
                    if let Payload::Data { page, .. } = ctx.recv_from(0).unwrap().payload {
                        routed += page.tuple_count() as u64;
                        ctx.page_pool.put(page);
                    }
                }
            }
            (ctx.net_stats().pages_sent() - before, routed)
        };
        pass(&mut ctx);
        let (mut counted, mut sent, mut routed) = (u64::MAX, 0, 0);
        for _attempt in 0..5 {
            let before = ALLOCS.load(Ordering::Relaxed);
            (sent, routed) = pass(&mut ctx);
            counted = ALLOCS.load(Ordering::Relaxed) - before;
            if counted * 8 <= sent {
                break;
            }
        }
        assert!(sent >= 50 && routed >= 50 * sent, "{routed} rows in {sent} message pages");
        assert!(
            counted * 8 <= sent,
            "the batched route allocated {counted} times over {routed} rows in {sent} message \
             pages ({} predicates)",
            filter.len()
        );
        assert_eq!(scan.tally().pages_row, [0; 3], "every page rode the strips");
    }

    // The hand-off (DESIGN.md §19.5): a full 10k-group table flushed to
    // the owners of its groups on a 2-node fabric — drained onto pages,
    // routed a page at a time into message pages. The table is refilled
    // and every page sent handed back to the sender's pool outside the
    // window. With typed columns the flush allocates for the pages it
    // writes (a block per strip, the part of the 140-odd message pages a
    // 64-page pool cannot cover), not for the groups; a demoted `Str` key
    // column still costs its two copies of every key — onto the drained
    // page, and from there onto the message page — and nothing else.
    const FLUSHED: u64 = 10_000;
    let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
    let mut rx = NodeCtx::new(eps.pop().unwrap(), SimDisk::new(), CostParams::paper_default());
    let mut tx = NodeCtx::new(eps.pop().unwrap(), SimDisk::new(), CostParams::paper_default());
    for str_keys in [false, true] {
        let mut table = AggTable::new(query.clone(), FLUSHED as usize);
        let mut ex = Exchange::new(2, tx.params().message_bytes, 1, RowKind::Partial);
        // One pass: (allocations inside the flush, message pages it sent).
        let mut pass = |tx: &mut NodeCtx, rx: &mut NodeCtx| {
            for g in 0..FLUSHED as i64 {
                let key = match str_keys {
                    true => Value::from(format!("group-{g:05}")),
                    false => Value::Int(g.wrapping_mul(0x9e37_79b9) % (1 << 40)),
                };
                table.insert(RowKind::Raw, &[key, Value::Int(g)][..], &mut tracker).unwrap();
            }
            assert_eq!(table.layout().general_columns, u64::from(str_keys));
            let sent = tx.net_stats().pages_sent();
            let before = ALLOCS.load(Ordering::Relaxed);
            ex.flush_table(tx, &mut table, RowKind::Partial).unwrap();
            ex.flush(tx).unwrap();
            let counted = ALLOCS.load(Ordering::Relaxed) - before;
            let sent = tx.net_stats().pages_sent() - sent;
            assert!(table.is_empty());
            for dest in 0..2 {
                tx.send_control(dest, Control::EndOfStream).unwrap();
            }
            let mut arrived = Vec::new();
            for ctx in [&mut *tx, &mut *rx] {
                while let Payload::Data { page, .. } = ctx.recv().unwrap().payload {
                    arrived.push(page);
                }
            }
            assert_eq!(arrived.len() as u64, sent);
            arrived.into_iter().for_each(|page| tx.page_pool.put(page));
            (counted, sent)
        };
        pass(&mut tx, &mut rx);
        let (counted, sent) = pass(&mut tx, &mut rx);
        assert!(sent * 50 < FLUSHED && sent > 100, "{sent} message pages for {FLUSHED} groups");
        // Measured: 766 allocations typed, 20 000 + 1 846 with `Str` keys (a
        // recycled page's general strip doubles its way up where an `Int`
        // strip is already sized).
        let (per_key, per_page) = if str_keys { (2 * FLUSHED, FLUSHED / 4) } else { (0, FLUSHED / 8) };
        assert!(
            counted >= per_key && counted - per_key < per_page,
            "flushing {FLUSHED} groups (str keys: {str_keys}) in {sent} message pages allocated \
             {counted} times: per-group allocation is back"
        );
    }

    // The merge regime (DESIGN.md §18): received pages of raw rows, every
    // row a new group. Pages are built outside the window; the first one
    // sizes the table's pooled scratch columns.
    const NEW_GROUPS: i64 = 20_480;
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    );
    let mut merge = HashAggregator::new(query, 100_000, 4096, 4).with_charge_hash(false);
    let mut pages = vec![Page::new(2048)];
    for g in 0..NEW_GROUPS + 100 {
        let row = [Value::Int(g.wrapping_mul(0x9e37_79b9)), Value::Int(g)];
        if !pages.last_mut().unwrap().try_push(&row).unwrap() {
            pages.push(Page::new(2048));
            assert!(pages.last_mut().unwrap().try_push(&row).unwrap());
        }
    }
    merge.push_page(RowKind::Raw, &pages[0], &mut tracker).unwrap();
    let warm = merge.resident_groups();
    let before = ALLOCS.load(Ordering::Relaxed);
    for page in &pages[1..] {
        merge.push_page(RowKind::Raw, page, &mut tracker).unwrap();
    }
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    let admitted = merge.resident_groups() - warm;
    assert!(admitted as i64 >= 20_000, "{admitted} new groups");
    // One block per column per segment — the key's, SUM's sum and seen
    // flag, COUNT's — their segment lists and the hash column doubling a
    // few times each, one slot doubling.
    const COLUMNS: u64 = 4;
    let segments = merge.resident_groups() as u64 / 1024 + 1;
    assert!(
        counted <= COLUMNS * segments + 8 * (COLUMNS + 1),
        "admitting {admitted} groups allocated {counted} times: per-group allocation is back"
    );
    // The same pages again are all hits.
    let mut counted = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for page in &pages {
            merge.push_page(RowKind::Raw, page, &mut tracker).unwrap();
        }
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        if counted == 0 {
            break;
        }
    }
    assert_eq!(counted, 0, "merge-regime hits allocated {counted} times");
    assert_eq!(merge.resident_groups() as i64, NEW_GROUPS + 100, "no groups were added");

    // Sorted-run formation (DESIGN.md §16): once the first seal has sized
    // the run table's arenas, a pushed row — a hit on a resident group or
    // the admission of a new one — allocates nothing. Only the seal itself
    // does, and only for the run's spill pages.
    const BUDGET: i64 = 5_000;
    const PAGE_BYTES: usize = 32 * 1024; // ~1100 three-Int rows a page
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    );
    let mut builder = RunBuilder::new(query, BUDGET as usize, PAGE_BYTES);
    let mut next_group = 0i64;
    let mut admit = |builder: &mut RunBuilder, n: i64| {
        for g in next_group..next_group + n {
            let row = [Value::Int(g.wrapping_mul(0x9e37_79b9)), Value::Int(g)];
            builder.push(RowKind::Raw, &row, &mut tracker).unwrap();
            // Every other admission is followed by a hit on the same group.
            if g % 2 == 0 {
                builder.push(RowKind::Raw, &row, &mut tracker).unwrap();
            }
        }
        next_group += n;
    };
    // Warm-up: fill a run, seal it, and leave one group resident.
    admit(&mut builder, BUDGET + 1);
    assert_eq!((builder.sealed_runs(), builder.resident_groups()), (1, 1));

    // Window 1, no seal inside: fill the table back up to the budget.
    let mut counted = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        admit(&mut builder, BUDGET - 1);
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(builder.resident_groups(), BUDGET as usize);
        if counted == 0 {
            break;
        }
        // Retry from the same state: one more group seals the full table.
        admit(&mut builder, 1);
    }
    assert_eq!(
        counted,
        0,
        "run formation allocated {} times over {} admissions and {} hits",
        counted,
        BUDGET - 1,
        BUDGET / 2
    );

    // Window 2, ten seals inside: allocations follow the pages written,
    // not the rows pushed.
    let runs_before = builder.sealed_runs();
    let before = ALLOCS.load(Ordering::Relaxed);
    admit(&mut builder, 10 * BUDGET);
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(builder.sealed_runs(), runs_before + 10);
    let (runs, _resident) = builder.finish(&mut tracker).unwrap();
    let pages: usize = runs[runs_before..].iter().map(|r| r.sealed_pages()).sum();
    let rows = 10 * BUDGET as usize;
    assert!(pages * 200 < rows, "{pages} pages for {rows} rows");
    assert!(
        counted <= 64 * pages as u64,
        "run formation allocated {counted} times sealing {pages} pages ({rows} groups): \
         per-row allocation is back"
    );

    // The same through the batched lane (DESIGN.md §16.5): received pages
    // of all-`Int` rows, almost every row a new group, six seals landing
    // wherever in a page the budget runs out. One block per strip of
    // each spill page written and nothing else — not per row, not per
    // group, not per seal.
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    );
    let mut builder = RunBuilder::new(query.clone(), BUDGET as usize, PAGE_BYTES);
    let mut input = vec![Page::new(4096)];
    for g in 0..7 * BUDGET + 100 {
        let row = [Value::Int(g.wrapping_mul(0x9e37_79b9) % (1 << 40)), Value::Int(g)];
        for _ in 0..1 + (g % 2) {
            if !input.last_mut().unwrap().try_push(&row).unwrap() {
                input.push(Page::new(4096));
                assert!(input.last_mut().unwrap().try_push(&row).unwrap());
            }
        }
    }
    let mut input = input.iter().map(|page| ScanBatch::whole(page).unwrap());
    // Warm-up: up to the first seal, which sizes the table's pooled
    // columns and the seal's sort scratch.
    while builder.sealed_runs() == 0 {
        let out = builder.push_batch(RowKind::Raw, &input.next().unwrap(), &mut tracker).unwrap();
        assert_eq!(out.row_cause, None, "all-Int pages ride the strips");
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for batch in input {
        builder.push_batch(RowKind::Raw, &batch, &mut tracker).unwrap();
    }
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(builder.sealed_runs(), 7);
    let (runs, resident) = builder.finish(&mut tracker).unwrap();
    let pages: usize = runs[1..].iter().map(|r| r.sealed_pages()).sum();
    let rows = 6 * BUDGET as usize;
    assert!(pages * 200 < rows, "{pages} pages for {rows} rows");
    assert!(
        counted <= 8 * pages as u64 + 16,
        "batched run formation allocated {counted} times sealing {pages} pages ({rows} groups): \
         per-row or per-group allocation is back"
    );

    // And their merge: a cursor per run and a block per strip of each
    // *output* page — not a row per run row, not a row per group.
    let run_rows: usize = runs.iter().map(|r| r.tuple_count()).sum::<usize>() + resident.len();
    let before = ALLOCS.load(Ordering::Relaxed);
    let merged = merge_runs(&query, runs, resident, MergeEmit::Partial, &mut tracker).unwrap();
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(merged.len(), 7 * BUDGET as usize + 100, "every key is its own group");
    assert_eq!((merged.strip_rows, merged.value_rows), (run_rows as u64, 0));
    let out_pages = merged.rows.pages().len();
    assert!(out_pages * 200 < merged.len(), "{out_pages} pages for {} groups", merged.len());
    assert!(
        counted <= 8 * out_pages as u64 + 64,
        "the run merge allocated {counted} times emitting {} groups on {out_pages} pages from \
         {run_rows} run rows",
        merged.len()
    );

    // The hash aggregator's overflow path (DESIGN.md §20): a merge table
    // full at its budget takes 20k more new-group rows off message pages,
    // spooling each where it lies into its bucket, then re-aggregates the
    // buckets a drained page at a time — recursing a level, as the table
    // is smaller than a bucket. It allocates for the spill pages it seals
    // (a block per strip, the page's row-arity list) and for each bucket's
    // table, and nothing per spilled row.
    const SPILLED: i64 = 20_000;
    const ENTRIES: i64 = 1_000;
    let mut merge = HashAggregator::new(query.clone(), ENTRIES as usize, 4096, 8).with_charge_hash(false);
    let mut input = vec![Page::new(2048)];
    for g in 0..ENTRIES + SPILLED {
        let row = [Value::Int(g.wrapping_mul(0x9e37_79b9) % (1 << 40)), Value::Int(g)];
        if !input.last_mut().unwrap().try_push(&row).unwrap() {
            input.push(Page::new(2048));
            assert!(input.last_mut().unwrap().try_push(&row).unwrap());
        }
    }
    // Warm-up: fill the table, sizing its pooled columns.
    let mut input = input.iter();
    while !merge.is_full() {
        merge.push_page(RowKind::Raw, input.next().unwrap(), &mut tracker).unwrap();
    }
    let mut io = CountingTracker::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    for page in input {
        merge.push_page(RowKind::Raw, page, &mut io).unwrap();
    }
    let (partials, stats) = merge.finish_partials(&mut io).unwrap();
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    let spill_pages = io.count(CostEvent::PageWriteSeq);
    assert_eq!(partials.len() as i64, ENTRIES + SPILLED, "every key is its own group");
    assert!(stats.spilled_tuples >= SPILLED as u64 && stats.max_level >= 2, "{stats:?}");
    assert_eq!(stats.overflow_pages_rows, [0; 2], "every bucket page rode the strips");
    assert!(spill_pages * 50 < stats.spilled_tuples, "{spill_pages} pages for {} rows", stats.spilled_tuples);
    let out_pages = partials.pages().len() as u64;
    // Measured: 3 340 allocations for 32 000 spooled rows on 274 spill
    // pages, 149 output pages and 72 bucket tables.
    assert!(
        counted <= 8 * (spill_pages + out_pages) + 64 * stats.overflow_buckets,
        "spilling {} rows onto {spill_pages} pages through {} buckets allocated {counted} times: \
         per-row allocation is back",
        stats.spilled_tuples,
        stats.overflow_buckets
    );

    // The row lanes (DESIGN.md §25), hit regime: `Str`-key pages whose SUM
    // input holds NULLs take the batch's row arm, and a ragged `Str`-key
    // page the aggregator's row loop. Each row's key and input are read
    // off the strips where they lie — no row is copied out, so no `Str`
    // key is cloned per row.
    let key = |i: i64| Value::from(format!("group-{:03}", i % 40));
    let (mut nulls, mut ragged) = (Page::new(4096), Page::new(4096));
    for i in 0..100i64 {
        let input = if i % 3 == 0 { Value::Null } else { Value::Int(i) };
        assert!(nulls.try_push(&[key(i), input]).unwrap());
        let row = match i % 2 {
            0 => vec![key(i), Value::Int(i)],
            _ => vec![key(i), Value::Int(i), Value::Int(-i)],
        };
        assert!(ragged.try_push(&row).unwrap());
    }
    assert!(ScanBatch::whole(&ragged).is_none(), "no batch rides a ragged page");
    let mut agg = HashAggregator::new(query.clone(), 1_000, 4096, 4);
    let pass = |agg: &mut HashAggregator, tracker: &mut CountingTracker| {
        let out = agg.push_batch(RowKind::Raw, &ScanBatch::whole(&nulls).unwrap(), tracker).unwrap();
        assert_eq!(out.row_cause, Some(RowCause::ValueInput));
        agg.push_page(RowKind::Raw, &ragged, tracker).unwrap();
    };
    pass(&mut agg, &mut tracker);
    assert_eq!(agg.resident_groups(), 40);
    let mut counted = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _round in 0..200 {
            pass(&mut agg, &mut tracker);
        }
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        if counted == 0 {
            break;
        }
    }
    assert_eq!(counted, 0, "the row lanes allocated {counted} times over 400 pages of resident groups");
    assert!(!agg.has_spilled() && agg.resident_groups() == 40, "no groups were added");
}
