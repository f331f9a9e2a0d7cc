//! Morsel-grained scanning with a deferred cost journal.
//!
//! The intra-node parallel scan splits a node's base file into fixed-size
//! page ranges (morsels) consumed by a worker pool. Workers cannot touch
//! the node's virtual clock — cost charging must replay in the *logical*
//! (single-threaded) execution order to keep every virtual-time figure
//! bit-identical to the serial scan. So each worker records what the
//! serial scan *would have charged* into a compact per-morsel
//! [`ScanJournal`], and the driver replays the journals in morsel order
//! on the real clock after the physical scan finishes.
//!
//! ## Journal encoding
//!
//! A journal is a flat `Vec<i64>` of run-length ops:
//!
//! * `0`  — page boundary: `record(PageReadSeq, 1)`;
//! * `+L` — a run of `L` tuples that passed the filter and were accepted
//!   by the aggregation table:
//!   `record_tuples([TupleRead, TupleWrite, TupleRead, TupleHash, TupleAgg], L)`
//!   (scan read, select copy-out, then the table's accept sequence);
//! * `-L` — a run of `L` tuples rejected by the filter:
//!   `record_tuples([TupleRead], L)`.
//!
//! Replay is bit-identical to the serial per-tuple loop because
//! [`CostTracker::record_tuples`] replays per-unit `f64` deltas in the
//! same accumulation order as `record(e, 1)` calls, and `record(e, 1)`
//! itself is one such delta. Runs never span a page boundary (the `0` op
//! sits between), matching the serial interleaving of page and tuple
//! charges exactly.
//!
//! The encoding only covers the no-spill accept path: the parallel scan
//! aborts to the serial path the moment any insert would overflow the
//! memory grant, so a committed journal is always spill-free.

use crate::error::ExecError;
use crate::operators::{PageScan, RowSink, ScanCharge};
use adaptagg_model::{CostEvent, CostTracker, Predicate, Value};
use adaptagg_storage::HeapFile;

/// Charges for one accepted tuple, in serial order: scan read, select
/// copy-out, then the hash table's accept sequence (attempt read+hash,
/// aggregate update).
pub const MORSEL_PASS: [CostEvent; 5] = [
    CostEvent::TupleRead,
    CostEvent::TupleWrite,
    CostEvent::TupleRead,
    CostEvent::TupleHash,
    CostEvent::TupleAgg,
];

/// Charges for one filtered-out tuple: the scan read only.
pub const MORSEL_FAIL: [CostEvent; 1] = [CostEvent::TupleRead];

/// A per-morsel record of deferred cost charges (see module docs).
#[derive(Debug, Default)]
pub struct ScanJournal {
    ops: Vec<i64>,
}

impl ScanJournal {
    /// An empty journal.
    pub fn new() -> Self {
        ScanJournal::default()
    }

    /// Record a page boundary (one sequential page read).
    pub fn page(&mut self) {
        self.ops.push(0);
    }

    /// Record one tuple that passed the filter and was accepted.
    pub fn pass(&mut self) {
        match self.ops.last_mut() {
            Some(last) if *last > 0 => *last += 1,
            _ => self.ops.push(1),
        }
    }

    /// Record one tuple rejected by the filter.
    pub fn fail(&mut self) {
        match self.ops.last_mut() {
            Some(last) if *last < 0 => *last -= 1,
            _ => self.ops.push(-1),
        }
    }

    /// The encoded ops, for replay.
    pub fn ops(&self) -> &[i64] {
        &self.ops
    }

    /// Drop all recorded ops (an aborted morsel's journal is garbage).
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// Replay a journal's charges onto `clock`, bit-identical to the serial
/// scan loop that would have produced them.
pub fn replay_scan_journal<T: CostTracker>(clock: &mut T, ops: &[i64]) {
    for &op in ops {
        if op == 0 {
            clock.record(CostEvent::PageReadSeq, 1);
        } else if op > 0 {
            clock.record_tuples(&MORSEL_PASS, op as u64);
        } else {
            clock.record_tuples(&MORSEL_FAIL, (-op) as u64);
        }
    }
}

/// A morsel worker's scan charges nothing: it journals what the serial
/// scan would have charged (the read is folded into the pass/fail op).
impl ScanCharge for ScanJournal {
    fn page_read(&mut self) {
        self.page();
    }

    fn tuple_read(&mut self) -> Result<(), ExecError> {
        Ok(())
    }

    fn tuple_failed(&mut self) {
        self.fail();
    }

    fn tuple_passed(&mut self) {
        self.pass();
    }
}

/// Scan the page range `[start_page, end_page)` of `file`, applying
/// `filter` and projecting onto `columns` exactly like the serial scan —
/// it *is* the serial scan's [`PageScan`], row-fed — but clock-free:
/// charges go into `journal`, and each passing tuple is fed to `consume`.
///
/// `consume` returns `Ok(true)` to continue or `Ok(false)` to stop the
/// scan early (the engine aborted); on early stop this returns
/// `Ok(false)` and the journal's contents are meaningless — the caller
/// discards them. The tuple slice is scratch, valid only during the
/// call.
pub fn scan_morsel<F>(
    file: &HeapFile,
    start_page: usize,
    end_page: usize,
    filter: &[Predicate],
    columns: &[usize],
    journal: &mut ScanJournal,
    mut consume: F,
) -> Result<bool, ExecError>
where
    F: FnMut(&[Value]) -> Result<bool, ExecError>,
{
    let mut sink = RowSink(|_: &mut ScanJournal, values: &[Value]| consume(values));
    PageScan::new(filter, columns).run(journal, file, start_page, end_page, &mut sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use adaptagg_model::{Compare, CostParams, Predicate, Value};
    use adaptagg_storage::HeapFile;

    fn file_with(tuples: &[Vec<Value>], page_bytes: usize) -> HeapFile {
        let mut f = HeapFile::new(page_bytes);
        for t in tuples {
            f.append(t).unwrap();
        }
        f
    }

    #[test]
    fn journal_replay_matches_serial_charge_order() {
        // Serial loop: page, fail, pass, pass, page, pass — replay must
        // land on the exact same virtual time, bit for bit.
        let params = CostParams::paper_default();
        let mut serial = Clock::new(params.clone());
        serial.record(CostEvent::PageReadSeq, 1);
        serial.record_tuples(&MORSEL_FAIL, 1);
        serial.record_tuples(&MORSEL_PASS, 2);
        serial.record(CostEvent::PageReadSeq, 1);
        serial.record_tuples(&MORSEL_PASS, 1);

        let mut j = ScanJournal::new();
        j.page();
        j.fail();
        j.pass();
        j.pass();
        j.page();
        j.pass();
        assert_eq!(j.ops(), &[0, -1, 2, 0, 1]);

        let mut replayed = Clock::new(params);
        replay_scan_journal(&mut replayed, j.ops());
        assert_eq!(serial.now_ms().to_bits(), replayed.now_ms().to_bits());
    }

    #[test]
    fn scan_morsel_projects_and_filters_like_serial() {
        let tuples: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i), Value::Int(100 + i)])
            .collect();
        let file = file_with(&tuples, 256);
        let filter = vec![Predicate::new(0, Compare::Eq, Value::Int(1))];
        let columns = vec![2, 0];
        let mut journal = ScanJournal::new();
        let mut seen: Vec<Vec<Value>> = Vec::new();
        let done = scan_morsel(
            &file,
            0,
            file.page_count(),
            &filter,
            &columns,
            &mut journal,
            |vals| {
                seen.push(vals.to_vec());
                Ok(true)
            },
        )
        .unwrap();
        assert!(done);
        assert_eq!(seen.len(), 5); // i % 4 == 1 for i in 0..20
        for row in &seen {
            assert_eq!(row[1], Value::Int(1));
        }
        // Every tuple shows up in the journal exactly once.
        let total: i64 = journal.ops().iter().map(|&op| op.abs()).sum();
        assert_eq!(total as usize, tuples.len());
    }

    #[test]
    fn scan_morsel_stops_when_consumer_declines() {
        let tuples: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let file = file_with(&tuples, 256);
        let mut journal = ScanJournal::new();
        let mut n = 0;
        let done = scan_morsel(
            &file,
            0,
            file.page_count(),
            &[],
            &[],
            &mut journal,
            |_vals| {
                n += 1;
                Ok(n < 3)
            },
        )
        .unwrap();
        assert!(!done);
        assert_eq!(n, 3);
    }
}
