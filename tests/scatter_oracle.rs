//! The batch route's scatter against the row loop (DESIGN.md §27).
//!
//! `Blocker::scatter` appends a batch destination by destination — strip
//! runs while a page is on the typed `Int` lane, a row at a time otherwise
//! — and the exchange sends the pages that sealed in the order of the rows
//! that sealed them. The reference is the row loop written here: every
//! passing row, in row order, through `Blocker::add_pooled` or
//! `Exchange::route_row`, each filtered-out row charged as it is passed.
//! Everything observable must be equal: the pages (sealed and still open),
//! the rows that sealed them, the send timestamps in ticks, the sender's
//! clock and traffic, the typed error of a row too large for any message
//! page, and what every node received after `finish`.
//!
//! Cases vary the destinations (1, 2, 3, 5, 8, 32) and the message page
//! (64, 128, 2048 bytes, so small pages seal several times per destination
//! per batch), the selection, the arity (1-4) and the strips (`Int`, `Int`
//! with `Str` cells, `Int` with NULLs); rows routed one at a time before the
//! batch leave open pages off the typed lane or of another arity, across a
//! `switch_kind`; and a row wider than a message page may sit mid-batch.

use adaptagg::exec::{Exchange, NodeCtx};
use adaptagg::model::{record_each, CostParams, NetworkKind, Value};
use adaptagg::net::{Blocker, Control, DataKind, Fabric, NetStats, Payload, Scatter, Sealed};
use adaptagg::storage::{Page, PagePool, ScanBatch, SimDisk};
use proptest::prelude::*;

const DESTS: [usize; 6] = [1, 2, 3, 5, 8, 32];
const MESSAGE_BYTES: [usize; 3] = [64, 128, 2048];

/// Cell `x` of a column of kind `kind`: kinds 0-3 hold `Int`s only (most
/// batches ride the typed lane), kind 4 some `Str` cells, kind 5 NULLs.
fn cell(kind: u8, x: i64) -> Value {
    match kind {
        4 if x % 3 == 0 => Value::from(format!("s{x}")),
        5 if x % 4 == 0 => Value::Null,
        _ => Value::Int(x),
    }
}

/// The batch's rows: `arity` cells each, column `j` of kind `kinds[j]`;
/// row `wide` (if any) leads with a `Str` wider than a `bytes` page.
fn batch_rows(xs: &[i64], arity: usize, kinds: &[u8], wide: Option<usize>, bytes: usize) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = xs
        .chunks_exact(arity)
        .map(|xs| xs.iter().zip(kinds).map(|(&x, &k)| cell(k, x)).collect())
        .collect();
    if let Some(row) = wide.and_then(|r| rows.get_mut(r)) {
        row[0] = Value::from("w".repeat(bytes));
    }
    rows
}

/// A row routed ahead of the batch: `arity` cells, the last a `Str` or a
/// NULL for kinds 1 and 2.
fn prelude_row(&(arity, kind, x): &(usize, u8, i64)) -> Vec<Value> {
    let mut row: Vec<Value> = (0..arity as i64).map(|j| Value::Int(x + j)).collect();
    row[arity - 1] = match kind {
        1 => Value::from(format!("p{x}")),
        2 => Value::Null,
        _ => row[arity - 1].clone(),
    };
    row
}

fn source_page(rows: &[Vec<Value>]) -> Page {
    let mut page = Page::new(1 << 20);
    for row in rows {
        assert!(page.try_push(row).unwrap());
    }
    page
}

/// Per receiving node, in arrival order: each page's send timestamp in
/// ticks and its rows.
type Received = Vec<Vec<(u64, Vec<Vec<Value>>)>>;

/// What routing made observable on node 0 of a fresh fabric: the outcome,
/// the sender's clock (ticks, and the CPU share's bits), its traffic, and
/// every page each node received through `finish`.
type Observed = (Result<(), String>, (u64, u64), NetStats, Received);

/// One exchange over `dests` nodes with `bytes`-byte message pages: route
/// the prelude one row at a time (its first `switch_at` rows as partials,
/// then `switch_kind` to raw rows), then the batch — whole, or row by row.
#[allow(clippy::too_many_arguments)]
fn observe(
    dests: usize,
    bytes: usize,
    key_len: usize,
    prelude: &[Vec<Value>],
    switch_at: usize,
    batch: &ScanBatch<'_>,
    rows: &[Vec<Value>],
    charge_hash: bool,
    batched: bool,
) -> Observed {
    let mut ctxs: Vec<NodeCtx> = Fabric::new(dests, NetworkKind::high_speed_default())
        .into_endpoints()
        .into_iter()
        .map(|ep| NodeCtx::new(ep, SimDisk::new(), CostParams::paper_default()))
        .collect();
    let tx = &mut ctxs[0];
    let mut ex = Exchange::new(dests, bytes, key_len, DataKind::Partial);
    let outcome = (|| {
        for (i, row) in prelude.iter().enumerate() {
            if i == switch_at {
                ex.switch_kind(tx, DataKind::Raw)?;
            }
            ex.route_row(tx, &row[..], charge_hash)?;
        }
        ex.switch_kind(tx, DataKind::Raw)?;
        if batched {
            return ex.route_batch(tx, batch, charge_hash).map(|_| ());
        }
        let mut passing = (0..batch.passing()).map(|i| batch.passing_row(i)).peekable();
        for (r, row) in rows.iter().enumerate() {
            if passing.next_if_eq(&r).is_some() {
                record_each(&mut tx.clock, batch.pass_lead(), 1);
                ex.route_row(tx, &row[..], charge_hash)?;
            } else {
                record_each(&mut tx.clock, batch.fail_charge(), 1);
            }
        }
        Ok(())
    })()
    .map_err(|e| format!("{e:?}"));
    ex.finish(tx).unwrap();
    let spent = (tx.clock.now(), tx.clock.breakdown().cpu_ms.to_bits());
    let stats = *tx.net_stats();
    let received = ctxs
        .iter_mut()
        .map(|rx| {
            let mut pages = Vec::new();
            loop {
                let msg = rx.recv().unwrap();
                let sent_at = msg.sent_at();
                match msg.payload {
                    Payload::Data { page, .. } => pages.push((sent_at, page.decode_all().unwrap())),
                    Payload::Control(Control::EndOfStream) => break pages,
                    _ => panic!("unexpected control"),
                }
            }
        })
        .collect();
    (outcome, spent, stats, received)
}

/// A blocker's pages after a scatter or the row loop: what sealed, as
/// (sealing row, destination, page), then each destination's open page.
type Blocked = (Result<(), String>, Vec<(usize, usize, Page)>, Vec<(usize, Page)>);

/// Open pages left by `prelude` on every destination of a fresh blocker:
/// the prelude's row `i` goes to destination `i % dests`.
fn blocker_after(prelude: &[Vec<Value>], dests: usize, bytes: usize, pool: &mut PagePool) -> Blocker {
    let mut blocker = Blocker::new(dests, bytes);
    for (i, row) in prelude.iter().enumerate() {
        let _ = blocker.add_pooled(i % dests, &row[..], pool).unwrap();
    }
    blocker
}

fn scattered(mut blocker: Blocker, batch: &ScanBatch<'_>, to: Scatter<'_>, pool: &mut PagePool) -> Blocked {
    let mut sealed = vec![];
    let outcome = blocker.scatter(batch, to, pool, &mut sealed).map_err(|e| format!("{} {:?}", e.row, e.error));
    let sealed = sealed.into_iter().map(|Sealed { row, dest, page }| (row, dest, page)).collect();
    (outcome, sealed, blocker.flush())
}

fn row_by_row(mut blocker: Blocker, batch: &ScanBatch<'_>, to: Scatter<'_>, pool: &mut PagePool) -> Blocked {
    let mut sealed = vec![];
    let mut outcome = Ok(());
    for r in (0..batch.passing()).map(|i| batch.passing_row(i)) {
        let dest = match to {
            Scatter::Hashed(hashes) => (hashes[r] % blocker.destinations() as u64) as usize,
            Scatter::To(dest) => dest,
        };
        match blocker.add_pooled(dest, &batch.row(r), pool) {
            Ok(None) => {}
            Ok(Some(page)) => sealed.push((r, dest, page)),
            Err(e) => {
                outcome = Err(format!("{r} {e:?}"));
                break;
            }
        }
    }
    (outcome, sealed, blocker.flush())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The scatter seals the row loop's pages at its rows, in its order,
    /// leaves its open pages, and stops at its too-large row — hashed to
    /// many destinations or all to one, onto pooled pages.
    #[test]
    fn prop_scatter_seals_the_row_loops_pages(
        xs in proptest::collection::vec(-500i64..500, 0..1200),
        arity in 1usize..5,
        kinds in proptest::collection::vec(0u8..6, 4..5),
        dests_at in 0usize..6,
        bytes_at in 0usize..3,
        keep in proptest::collection::vec(0u8..4, 1200..1201),
        filtered in any::<bool>(),
        wide in 0usize..600,
        prelude in proptest::collection::vec((1usize..5, 0u8..3, -50i64..50), 0..40),
        one in 0usize..64,
    ) {
        let (dests, bytes) = (DESTS[dests_at], MESSAGE_BYTES[bytes_at]);
        let rows = batch_rows(&xs, arity, &kinds, Some(wide), bytes);
        if rows.is_empty() {
            return Ok(());
        }
        let source = source_page(&rows);
        let selection: Vec<u32> = (0..rows.len() as u32).filter(|&r| keep[r as usize] != 0).collect();
        let batch = ScanBatch::scanned(&source, &[], filtered.then_some(&selection[..]), rows.len()).unwrap();
        let mut hashes = Vec::new();
        batch.hash_keys(adaptagg::model::hash::Seed::Partition, 1, &mut hashes);
        let prelude: Vec<Vec<Value>> = prelude.iter().map(prelude_row).collect();
        for to in [Scatter::Hashed(&hashes), Scatter::To(one % dests)] {
            let (mut pool_a, mut pool_b) = (PagePool::new(), PagePool::new());
            let reference = row_by_row(blocker_after(&prelude, dests, bytes, &mut pool_a), &batch, to, &mut pool_a);
            let got = scattered(blocker_after(&prelude, dests, bytes, &mut pool_b), &batch, to, &mut pool_b);
            prop_assert_eq!(&got, &reference, "{:?}, {} destinations, {}-byte pages", to, dests, bytes);
        }
    }

    /// An exchange's batch route is its row loop: the same pages at the
    /// same send ticks, the same clock and traffic on the sender, the same
    /// error, and the same rows at every node after `finish`.
    #[test]
    fn prop_route_batch_is_route_row_row_by_row(
        xs in proptest::collection::vec(-500i64..500, 0..1200),
        arity in 1usize..5,
        kinds in proptest::collection::vec(0u8..6, 4..5),
        dests_at in 0usize..6,
        bytes_at in 0usize..3,
        keep in proptest::collection::vec(0u8..4, 1200..1201),
        filtered in any::<bool>(),
        wide in 0usize..600,
        prelude in proptest::collection::vec((1usize..5, 0u8..3, -50i64..50), 0..40),
        switch_at in 0usize..40,
        key_len in 1usize..5,
        charge_hash in any::<bool>(),
    ) {
        let (dests, bytes) = (DESTS[dests_at], MESSAGE_BYTES[bytes_at]);
        let rows = batch_rows(&xs, arity, &kinds, Some(wide), bytes);
        if rows.is_empty() {
            return Ok(());
        }
        let source = source_page(&rows);
        let selection: Vec<u32> = (0..rows.len() as u32).filter(|&r| keep[r as usize] != 0).collect();
        let batch = ScanBatch::scanned(&source, &[], filtered.then_some(&selection[..]), rows.len()).unwrap();
        let prelude: Vec<Vec<Value>> = prelude.iter().map(prelude_row).collect();
        let key_len = key_len.min(arity);
        let run = |batched| observe(dests, bytes, key_len, &prelude, switch_at, &batch, &rows, charge_hash, batched);
        let (reference, got) = (run(false), run(true));
        prop_assert_eq!(&got, &reference, "{} destinations, {}-byte pages, arity {}", dests, bytes, arity);
        let wide_passes = wide < rows.len() && (!filtered || keep[wide] != 0);
        prop_assert_eq!(reference.0.is_err(), wide_passes, "{:?}", reference.0);
    }
}
