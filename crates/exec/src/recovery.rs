//! Query-level fault recovery: checkpointed partials, partition
//! reassignment, and bounded retry.
//!
//! The paper's §3.2 insight — partial-aggregate states are mergeable and
//! flushable at *any* point — is exactly the property a recovery layer
//! needs: a node's progress can be captured as a pile of partial rows and
//! replayed or handed to another node without recomputing the world. This
//! module provides the pieces the cluster runtime composes:
//!
//! * [`RecoveryPolicy`] — how hard to try: attempt budget, checkpoint
//!   interval and backoff schedule. A run under a policy also gets
//!   [`STRAGGLER_FACTOR`](crate::cluster::STRAGGLER_FACTOR) watchdog
//!   headroom and retries failed sends under the default
//!   [`LinkRetryPolicy`](adaptagg_net::LinkRetryPolicy).
//! * [`RecoverySession`] — one node's per-attempt view: which base
//!   partitions it owns (as [`Segment`]s of its concatenated `"base"`
//!   file), the shared [`CheckpointStore`], and its recovery counters.
//! * [`PartitionCheckpoint`] — durable per-partition progress: how many
//!   input pages are fully folded into the checkpointed partial rows.
//!
//! The checkpoint store is shared across attempts by the recovery driver
//! in `cluster.rs` — it models replicated stable storage that survives a
//! node loss. The *cost* of writing and reading checkpoints is still
//! charged to the owning node's virtual clock and mirrored onto its
//! [`SimDisk`] (file `"ckpt.<partition>"`), so recovery overhead shows up
//! honestly in [`crate::RunResult`].
//!
//! What is deliberately *not* recovered: work that left the node as raw
//! (unaggregated) forwarded tuples — its effect lives in peers' memory
//! and dies with the attempt — and any in-flight network state. Both are
//! simply replayed; the seq+dedup fabric plus the attempt-scoped restart
//! make the replay exactly-once from the query's point of view.

use crate::clock::Clock;
use crate::error::ExecError;
use crate::runstats::NodeRecoveryStats;
use adaptagg_model::{CostEvent, CostTracker};
use adaptagg_storage::{HeapFile, RowPages, SimDisk};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// How a run recovers from node loss. Attach to a
/// [`crate::ClusterConfig`] via `with_recovery`; absent (the default),
/// the run is one attempt with no session: fail-stop.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Cluster executions to attempt before giving up (≥ 1). Each failed
    /// attempt removes exactly one node, so progress is guaranteed.
    pub max_attempts: u32,
    /// Checkpoint the local partial-aggregate state every K input pages
    /// (and at phase boundaries). Smaller = less replay after a crash,
    /// more checkpoint I/O during healthy scans.
    pub checkpoint_interval_pages: usize,
    /// Virtual backoff before the first re-attempt, in ms.
    pub backoff_ms: f64,
    /// Multiplier applied to the backoff between attempts.
    pub backoff_multiplier: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 8,
            checkpoint_interval_pages: 32,
            backoff_ms: 5.0,
            backoff_multiplier: 2.0,
        }
    }
}

impl RecoveryPolicy {
    /// Override the attempt budget.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }
}

/// One contiguous page range of a node's concatenated `"base"` file,
/// holding one original base partition. Checkpoints are keyed by
/// `partition`, which is stable across reassignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Original partition id (`0..cluster.nodes`).
    pub partition: usize,
    /// First page of this partition within the node's `"base"` file.
    pub start_page: usize,
    /// Number of pages.
    pub pages: usize,
}

/// Durable progress for one base partition: the partial rows produced
/// from its first `pages_done` pages. Restoring the rows and scanning
/// from `pages_done` reproduces the partition's full contribution.
#[derive(Debug, Clone)]
pub struct PartitionCheckpoint {
    /// Input pages fully folded into `partials` (durable scan progress).
    pub pages_done: usize,
    /// Furthest page any attempt ever scanned (durably or not) — the
    /// basis for replayed-page accounting.
    pub high_water: usize,
    /// Whether the partition's scan completed.
    pub complete: bool,
    /// The checkpointed partial rows, in the model's mergeable-partials
    /// page encoding.
    pub partials: HeapFile,
}

impl PartitionCheckpoint {
    fn new(page_bytes: usize) -> Self {
        PartitionCheckpoint {
            pages_done: 0,
            high_water: 0,
            complete: false,
            partials: HeapFile::new(page_bytes),
        }
    }
}

/// Checkpoints shared across attempts, keyed by original partition id.
/// Models replicated stable storage: it survives the loss of the node
/// that wrote it (the I/O cost does not — it was already charged).
pub type CheckpointStore = Arc<Mutex<BTreeMap<usize, PartitionCheckpoint>>>;

/// A fresh, empty checkpoint store.
pub fn new_store() -> CheckpointStore {
    Arc::new(Mutex::new(BTreeMap::new()))
}

/// One node's recovery context for one attempt: its partition layout,
/// the shared checkpoint store, and its activity counters. Lives on
/// [`crate::NodeCtx::recovery`]; algorithms `take()` it for the duration
/// of their phase-1 scan ([`scan_steps`]) and put it back.
#[derive(Debug)]
pub struct RecoverySession {
    segments: Vec<Segment>,
    store: CheckpointStore,
    interval_pages: usize,
    page_bytes: usize,
    /// Checkpoint/restore/replay counters, reported per node.
    pub counters: NodeRecoveryStats,
}

impl RecoverySession {
    /// Assemble a session (used by the cluster runtime).
    pub fn new(
        segments: Vec<Segment>,
        store: CheckpointStore,
        interval_pages: usize,
        page_bytes: usize,
    ) -> Self {
        RecoverySession {
            segments,
            store,
            interval_pages: interval_pages.max(1),
            page_bytes,
            counters: NodeRecoveryStats::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<usize, PartitionCheckpoint>> {
        self.store.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Where to resume scanning `partition`: the first page past its
    /// durable checkpoint. Pages between that and the partition's high
    /// water were scanned by a lost attempt and are about to be scanned
    /// again — counted as replay.
    pub fn resume_point(&mut self, partition: usize) -> usize {
        let (done, hw) = self
            .lock()
            .get(&partition)
            .map(|c| (c.pages_done, c.high_water))
            .unwrap_or((0, 0));
        self.counters.replayed_pages += hw.saturating_sub(done) as u64;
        done
    }

    /// Read `partition`'s checkpointed partial rows back onto pages,
    /// charging checkpoint-read I/O. Empty when no checkpoint exists.
    pub fn restore_partials(
        &mut self,
        partition: usize,
        clock: &mut Clock,
    ) -> Result<RowPages, ExecError> {
        let mut rows = RowPages::new(self.page_bytes);
        {
            let store = self.lock();
            let Some(cp) = store.get(&partition) else {
                return Ok(rows);
            };
            for page in cp.partials.pages() {
                page.rows().try_for_each(|row| rows.push(&row))?;
            }
            clock.record(CostEvent::PageReadSeq, cp.partials.page_count() as u64);
        }
        clock.record(CostEvent::TupleRead, rows.len() as u64);
        self.counters.restored_partials += rows.len() as u64;
        Ok(rows)
    }

    /// Durably record that `partition`'s first `pages_done` pages are
    /// folded into the given partial rows. Appends the rows to the
    /// partition's checkpoint, charges the write I/O (at least one page
    /// per checkpoint — the metadata record), and mirrors the checkpoint
    /// file onto the node's disk as `"ckpt.<partition>"`.
    pub fn checkpoint(
        &mut self,
        partition: usize,
        pages_done: usize,
        partials: &RowPages,
        complete: bool,
        clock: &mut Clock,
        disk: &mut SimDisk,
    ) -> Result<(), ExecError> {
        // The old mirror shares the checkpoint's arenas: dropped first, the
        // append below copies nothing.
        let mirror_name = format!("ckpt.{partition}");
        drop(disk.take(&mirror_name));
        let (delta, mirror) = {
            let mut store = self.lock();
            let cp = store
                .entry(partition)
                .or_insert_with(|| PartitionCheckpoint::new(self.page_bytes));
            let before = cp.partials.page_count();
            for row in partials.rows() {
                cp.partials.append_row(&row)?;
            }
            let delta = (cp.partials.page_count() - before).max(1) as u64;
            cp.pages_done = cp.pages_done.max(pages_done);
            cp.high_water = cp.high_water.max(pages_done);
            cp.complete |= complete;
            clock.record(CostEvent::PageWriteSeq, delta);
            (delta, cp.partials.clone())
        };
        self.counters.checkpoint_pages += delta;
        self.counters.checkpoint_partials += partials.len() as u64;
        disk.put(mirror_name, mirror);
        Ok(())
    }

    /// Record scan progress that is *not* durable (e.g. Adaptive Two
    /// Phase after its switch, when output leaves the node as raw
    /// forwarded tuples): raises the replay high water without advancing
    /// the resume point.
    pub fn note_scanned(&mut self, partition: usize, scanned_to: usize) {
        let mut store = self.lock();
        let cp = store
            .entry(partition)
            .or_insert_with(|| PartitionCheckpoint::new(self.page_bytes));
        cp.high_water = cp.high_water.max(scanned_to);
    }
}

/// One step of a phase-1 scan ([`scan_steps`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanStep {
    /// Restore this partition's durable partial rows
    /// ([`RecoverySession::restore_partials`]).
    Restore(usize),
    /// Scan one chunk of `"base"`.
    Scan(Chunk),
}

/// Pages of the node's `"base"` file within one partition, scanned as one
/// chunk: under a session, its partials are checkpointed together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// The partition the pages belong to.
    pub partition: usize,
    /// The pages, as pages of `"base"`.
    pub pages: std::ops::Range<usize>,
    /// The partition's pages done once the chunk is (a checkpoint's
    /// `pages_done`, counted within the partition).
    pub done: usize,
    /// Whether the chunk ends its partition.
    pub last: bool,
}

/// The one walk of a phase-1 scan. Without a session it is one chunk:
/// every page of `"base"`. Under a session it visits each owned partition
/// in ascending order: a restore of its durable partials, then its
/// un-checkpointed suffix, one checkpoint interval at a time. The resume
/// points (and the replay they count) are read as the walk is made: a
/// partition has one owner per attempt, so nothing moves them meanwhile.
pub fn scan_steps(session: Option<&mut RecoverySession>) -> impl Iterator<Item = ScanStep> {
    let mut steps = Vec::new();
    let whole = match session {
        None => Some(ScanStep::Scan(Chunk {
            partition: 0,
            pages: 0..usize::MAX,
            done: usize::MAX,
            last: true,
        })),
        Some(s) => {
            for i in 0..s.segments.len() {
                let seg = s.segments[i];
                steps.push(ScanStep::Restore(seg.partition));
                let mut done = s.resume_point(seg.partition).min(seg.pages);
                while done < seg.pages {
                    let end = (done + s.interval_pages).min(seg.pages);
                    steps.push(ScanStep::Scan(Chunk {
                        partition: seg.partition,
                        pages: seg.start_page + done..seg.start_page + end,
                        done: end,
                        last: end == seg.pages,
                    }));
                    done = end;
                }
            }
            None
        }
    };
    whole.into_iter().chain(steps)
}

/// The node a first-cause error blames — the one the recovery driver
/// removes before re-attempting. `None` means the error is not a node
/// failure (storage/model/protocol bugs) and must not be retried.
pub fn victim_of(e: &ExecError) -> Option<usize> {
    match e {
        ExecError::InjectedCrash { node, .. }
        | ExecError::NodePanic { node, .. }
        | ExecError::Watchdog { node, .. } => Some(*node),
        ExecError::Aborted { origin, .. } => Some(*origin),
        ExecError::Net(adaptagg_net::NetError::PeerDown { peer }) => Some(*peer),
        _ => None,
    }
}

/// Reassign every partition `victim` owns (`owners[p]` is partition `p`'s
/// node) to `heirs`, fewest-loaded first, ties to the lowest id: the one
/// policy of the in-process recovery driver and the cluster coordinator.
/// Returns how many partitions moved.
pub fn reassign_partitions<T: Copy + Ord>(owners: &mut [T], victim: T, heirs: &[T]) -> usize {
    let mut moved = 0;
    for p in 0..owners.len() {
        if owners[p] != victim {
            continue;
        }
        let heir = heirs
            .iter()
            .copied()
            .min_by_key(|&w| (owners.iter().filter(|&&o| o == w).count(), w))
            .expect("reassignment requires a live heir");
        owners[p] = heir;
        moved += 1;
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{CostParams, Value};

    fn clock() -> Clock {
        Clock::new(CostParams::paper_default())
    }

    #[test]
    fn checkpoint_then_restore_roundtrips_rows_and_charges() {
        let store = new_store();
        let mut s = RecoverySession::new(
            vec![Segment { partition: 3, start_page: 0, pages: 10 }],
            store.clone(),
            4,
            2048,
        );
        let mut clk = clock();
        let mut rows = RowPages::new(2048);
        for i in 0..5 {
            rows.push(&[Value::Int(i), Value::Int(i * 10)][..]).unwrap();
        }
        s.checkpoint(3, 4, &rows, false, &mut clk, &mut SimDisk::new()).unwrap();
        assert!(clk.breakdown().io_ms > 0.0, "checkpoint write charged");
        assert_eq!(s.counters.checkpoint_partials, 5);

        // A later attempt (fresh session, same store) resumes past the
        // checkpoint and restores the rows.
        let mut s2 = RecoverySession::new(
            vec![Segment { partition: 3, start_page: 0, pages: 10 }],
            store,
            4,
            2048,
        );
        assert_eq!(s2.resume_point(3), 4);
        let mut clk2 = clock();
        let restored = s2.restore_partials(3, &mut clk2).unwrap();
        assert_eq!(restored.to_rows(), rows.to_rows());
        assert_eq!(s2.counters.restored_partials, 5);
        assert!(clk2.breakdown().io_ms > 0.0, "restore read charged");
    }

    #[test]
    fn non_durable_progress_counts_as_replay_not_resume() {
        let store = new_store();
        let mut s = RecoverySession::new(Vec::new(), store.clone(), 8, 2048);
        let mut clk = clock();
        s.checkpoint(0, 8, &RowPages::new(2048), false, &mut clk, &mut SimDisk::new()).unwrap();
        s.note_scanned(0, 20); // scanned to page 20, durable only to 8

        let mut s2 = RecoverySession::new(Vec::new(), store, 8, 2048);
        assert_eq!(s2.resume_point(0), 8, "resume at the durable point");
        assert_eq!(s2.counters.replayed_pages, 12, "pages 8..20 replay");
    }

    #[test]
    fn missing_checkpoint_restores_nothing() {
        let mut s = RecoverySession::new(Vec::new(), new_store(), 8, 2048);
        assert_eq!(s.resume_point(7), 0);
        let mut clk = clock();
        assert!(s.restore_partials(7, &mut clk).unwrap().is_empty());
        assert_eq!(clk.now_ms(), 0.0, "nothing to read, nothing charged");
    }

    #[test]
    fn victims_are_classified_by_error_kind() {
        use adaptagg_net::NetError;
        assert_eq!(victim_of(&ExecError::InjectedCrash { node: 2, at_tuple: 5 }), Some(2));
        assert_eq!(
            victim_of(&ExecError::NodePanic { node: 1, message: "x".into() }),
            Some(1)
        );
        assert_eq!(victim_of(&ExecError::Watchdog { node: 0, waited_ms: 9 }), Some(0));
        assert_eq!(
            victim_of(&ExecError::Aborted { origin: 3, reason: "y".into() }),
            Some(3)
        );
        assert_eq!(victim_of(&ExecError::Net(NetError::PeerDown { peer: 1 })), Some(1));
        assert_eq!(victim_of(&ExecError::Protocol("bug")), None, "bugs are not retried");
        assert_eq!(victim_of(&ExecError::Net(NetError::Disconnected)), None);
    }
}
