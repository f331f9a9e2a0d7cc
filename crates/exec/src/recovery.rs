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
//!   headroom and retries failed sends
//!   ([`Endpoint::set_retry`](adaptagg_net::Endpoint::set_retry)).
//! * [`RecoverySession`] — one node's per-attempt view: which base
//!   partitions it owns (as [`Segment`]s of its concatenated `"base"`
//!   file), the shared [`CheckpointStore`], and its recovery counters.
//! * [`PartitionCheckpoint`] — durable per-partition progress: how many
//!   input pages are fully folded into the checkpointed partial rows.
//! * [`Membership`] and [`run_attempts`] — who is alive and owns what, and
//!   the one attempt loop over it: node threads and worker processes
//!   recover alike.
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
use crate::runstats::{NodeRecoveryStats, RecoveryStats};
use adaptagg_model::{ms_to_ticks, ticks_to_ms, CostEvent, CostTracker};
use adaptagg_net::NetError;
use adaptagg_obs::RecoveryAttemptTrace;
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
    /// Virtual backoff before the first re-attempt, in ms; each later
    /// one waits [`BACKOFF_MULTIPLIER`] times the one before.
    pub backoff_ms: f64,
}

/// Multiplier applied to the recovery backoff between attempts.
pub const BACKOFF_MULTIPLIER: f64 = 2.0;

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 8,
            checkpoint_interval_pages: 32,
            backoff_ms: 5.0,
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

/// The node a first-cause error blames — the one [`run_attempts`]
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

/// Who runs a query's attempts: the members, which of them owns each base
/// partition, and who has died. Partition `p` starts with the `p`-th
/// member. A run's ledger lives one run ([`crate::run_cluster`]: members
/// `0..n`); a serving mesh's lives as long as the mesh (the process
/// cluster's coordinator: workers `1..n`), so a member lost in one query
/// stays lost, its partitions with their heirs.
#[derive(Debug, Clone)]
pub struct Membership {
    /// Live members, ascending.
    live: Vec<usize>,
    /// `owners[p]`: the member responsible for partition `p`.
    owners: Vec<usize>,
    /// Members lost, in death order.
    dead: Vec<usize>,
}

impl Membership {
    /// `members`, ascending, each owning one partition in that order.
    pub fn new(members: Vec<usize>) -> Self {
        Membership {
            owners: members.clone(),
            live: members,
            dead: Vec::new(),
        }
    }

    /// Live members, ascending.
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// Members lost, in death order.
    pub fn dead(&self) -> &[usize] {
        &self.dead
    }

    /// Declare the live member `victim` dead and hand each of its
    /// partitions to the live member holding the fewest, ties to the lowest
    /// id. Returns how many partitions moved; `None` when no heir is left
    /// (its partitions stay with it).
    pub fn lose(&mut self, victim: usize) -> Option<usize> {
        let at = self.live.iter().position(|&m| m == victim);
        self.live.remove(at.expect("the victim is a live member"));
        self.dead.push(victim);
        if self.live.is_empty() {
            return None;
        }
        let mut moved = 0;
        for p in 0..self.owners.len() {
            if self.owners[p] == victim {
                let load = |m: usize| self.owners.iter().filter(|&&o| o == m).count();
                let heir = self.live.iter().copied().min_by_key(|&m| (load(m), m));
                self.owners[p] = heir.expect("a live heir");
                moved += 1;
            }
        }
        Some(moved)
    }
}

/// A failed attempt, as [`run_attempts`] takes it.
#[derive(Debug)]
pub struct AttemptFailure {
    /// The attempt's first cause.
    pub error: ExecError,
    /// Its virtual failure time in ticks (`None`: it has none, as a panic).
    pub at: Option<u64>,
    /// The member to remove before the next attempt. `None`: no re-attempt
    /// can help, and the failure ends the run as it is.
    pub victim: Option<usize>,
}

impl From<ExecError> for AttemptFailure {
    /// A failure that names no victim.
    fn from(error: ExecError) -> Self {
        AttemptFailure {
            error,
            at: None,
            victim: None,
        }
    }
}

/// The one attempt loop, for node threads ([`crate::run_cluster`]) and
/// worker processes alike: run `attempt` over the live members and the
/// owners until one completes. With no [`RecoveryPolicy`] that is one
/// attempt, whose failure is returned as it is: fail-stop. Under a policy
/// each failure that names a victim costs the victim, whose partitions go
/// to the survivors ([`Membership::lose`]), then a virtual backoff, and
/// the next attempt runs; past `max_attempts`, or with no member left,
/// the run ends in [`ExecError::RecoveryExhausted`]. Returns the completed
/// attempt's output, the run's [`RecoveryStats`], and, when `trace` is
/// set, one record per failed attempt.
pub fn run_attempts<T>(
    members: &mut Membership,
    policy: Option<&RecoveryPolicy>,
    trace: bool,
    mut attempt: impl FnMut(&[usize], &[usize]) -> Result<T, AttemptFailure>,
) -> Result<(T, RecoveryStats, Vec<RecoveryAttemptTrace>), ExecError> {
    let max_attempts = policy.map_or(1, |p| p.max_attempts.max(1));
    let mut backoff = policy.map_or(0.0, |p| p.backoff_ms);
    let mut stats = RecoveryStats {
        attempts: 0,
        ..RecoveryStats::default()
    };
    let (mut records, mut last) = (Vec::new(), None);
    while stats.attempts < max_attempts && !members.live.is_empty() {
        stats.attempts += 1;
        let failure = match attempt(&members.live, &members.owners) {
            Ok(out) => return Ok((out, stats, records)),
            Err(failure) => failure,
        };
        let (Some(_), Some(victim)) = (policy, failure.victim) else {
            return Err(failure.error);
        };
        let lost = failure.at.unwrap_or(0);
        stats.lost += lost;
        stats.dead_nodes.push(victim);
        last = Some(failure.error);
        let Some(moved) = members.lose(victim) else {
            break;
        };
        stats.reassigned_partitions += moved as u64;
        // No attempt follows the last one, so it waits out no backoff.
        let charged_backoff = if stats.attempts < max_attempts { ms_to_ticks(backoff) } else { 0 };
        stats.backoff += charged_backoff;
        backoff *= BACKOFF_MULTIPLIER;
        if trace {
            records.push(RecoveryAttemptTrace {
                attempt: stats.attempts,
                victim: Some(victim),
                lost_ms: ticks_to_ms(lost),
                backoff_ms: ticks_to_ms(charged_backoff),
            });
        }
    }
    Err(ExecError::RecoveryExhausted {
        attempts: stats.attempts,
        // No attempt ran: every member was lost before this run.
        last: Box::new(last.unwrap_or(ExecError::Net(NetError::Disconnected))),
    })
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

    #[test]
    fn reassignment_is_fewest_loaded_first_and_complete() {
        // Worker 2 dies holding two partitions; 1 already holds two, 3
        // holds one — the first orphan lands on the lighter node 3,
        // which ties the load, so the second goes to the lower id 1.
        let mut members = Membership {
            live: vec![1, 2, 3],
            owners: vec![1, 1, 2, 2, 3],
            dead: Vec::new(),
        };
        assert_eq!(members.lose(2), Some(2));
        assert_eq!(members.owners, [1, 1, 3, 1, 3]);
        // Second death: everything lands on the survivor.
        assert_eq!(members.lose(3), Some(2));
        assert_eq!(members.owners, [1; 5]);
        assert_eq!((members.live(), members.dead()), (&[1][..], &[2, 3][..]));
    }

    #[test]
    fn losing_the_last_member_leaves_no_heir() {
        let mut members = Membership::new(vec![0, 1]);
        assert_eq!(members.lose(0), Some(1));
        assert_eq!(members.owners, [1, 1]);
        assert_eq!(members.lose(1), None, "no heir is left");
        assert!(members.live().is_empty());
        assert_eq!(members.dead(), [0, 1]);
        assert_eq!(members.owners, [1, 1], "the last member's partitions do not move");
    }

    #[test]
    fn a_coordinator_ledger_hands_partitions_only_to_its_members() {
        // Workers 1..=4 of a five-process mesh (node 0 coordinates and
        // owns nothing): partition p starts with worker p + 1.
        let mut members = Membership::new((1..5).collect());
        assert_eq!(members.owners, [1, 2, 3, 4]);
        for victim in [3, 1, 4] {
            assert!(members.lose(victim).is_some());
            let owners = &members.owners;
            assert!(owners.iter().all(|o| members.live().contains(o)), "{owners:?}");
        }
        assert_eq!(members.owners, [2; 4]);
    }

    /// A failure that costs `victim`, `at` ticks into the attempt.
    fn crash(victim: usize, at: u64) -> AttemptFailure {
        AttemptFailure {
            error: ExecError::InjectedCrash { node: victim, at_tuple: 1 },
            at: Some(at),
            victim: Some(victim),
        }
    }

    #[test]
    fn the_loop_recovers_until_an_attempt_completes() {
        let mut members = Membership::new((0..3).collect());
        let policy = RecoveryPolicy::default();
        let mut seen = Vec::new();
        let (out, stats, records) = run_attempts(&mut members, Some(&policy), true, |live, owners| {
            seen.push((live.to_vec(), owners.to_vec()));
            match seen.len() {
                1 => Err(crash(1, 7)),
                _ => Ok("done"),
            }
        })
        .unwrap();
        assert_eq!(out, "done");
        assert_eq!(seen, [(vec![0, 1, 2], vec![0, 1, 2]), (vec![0, 2], vec![0, 0, 2])]);
        assert_eq!((stats.attempts, stats.dead_nodes, stats.reassigned_partitions), (2, vec![1], 1));
        assert_eq!((stats.lost, stats.backoff), (7, ms_to_ticks(policy.backoff_ms)));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].victim, Some(1));
    }

    #[test]
    fn the_loop_fails_stop_without_a_policy_or_a_victim() {
        let mut members = Membership::new((0..3).collect());
        let err = run_attempts(&mut members, None, false, |_, _| Err::<(), _>(crash(1, 7)));
        assert_eq!(err.unwrap_err(), ExecError::InjectedCrash { node: 1, at_tuple: 1 });
        assert!(members.dead().is_empty(), "fail-stop removes no one");

        let policy = RecoveryPolicy::default();
        let bug = || Err::<(), _>(ExecError::Protocol("bug").into());
        let err = run_attempts(&mut members, Some(&policy), false, |_, _| bug());
        assert_eq!(err.unwrap_err(), ExecError::Protocol("bug"), "not recoverable");
    }

    #[test]
    fn the_loop_exhausts_on_its_budget_or_its_last_member() {
        let policy = RecoveryPolicy::default().with_max_attempts(2);
        let mut members = Membership::new((0..3).collect());
        let mut fail = |live: &[usize], _: &[usize]| Err::<(), _>(crash(live[0], 1));
        match run_attempts(&mut members, Some(&policy), false, &mut fail) {
            Err(ExecError::RecoveryExhausted { attempts: 2, .. }) => {}
            other => panic!("expected exhaustion at the budget, got {other:?}"),
        }
        // One member left: its loss ends the run with no heir.
        let policy = RecoveryPolicy::default();
        match run_attempts(&mut members, Some(&policy), false, &mut fail) {
            Err(ExecError::RecoveryExhausted { attempts: 1, last }) => {
                assert_eq!(*last, ExecError::InjectedCrash { node: 2, at_tuple: 1 });
            }
            other => panic!("expected exhaustion with no heir, got {other:?}"),
        }
        // Nobody left: no attempt runs.
        match run_attempts(&mut members, Some(&policy), false, &mut fail) {
            Err(ExecError::RecoveryExhausted { attempts: 0, .. }) => {}
            other => panic!("expected exhaustion before any attempt, got {other:?}"),
        }
    }
}
