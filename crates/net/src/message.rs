//! Messages exchanged between cluster nodes.

use adaptagg_model::ms_to_ticks;
use adaptagg_storage::Page;

/// What a data page carries: raw projected tuples or partial rows — the
/// two kinds §3.2's merge phase must handle interleaved. An alias of
/// [`adaptagg_model::RowKind`], which is also the tag on spilled tuples in
/// the hash-aggregation layer.
pub use adaptagg_model::RowKind as DataKind;

/// Control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// The sender will send no more data *to this receiver* in the current
    /// phase. A phase's receive loop completes when it has one
    /// `EndOfStream` from every expected sender.
    EndOfStream,
    /// Adaptive Repartitioning's switch signal (§3.3): the sender observed
    /// too few groups and is falling back to Adaptive Two Phase; the
    /// receiver should follow suit. Carries the number of distinct groups
    /// the sender had seen, for diagnostics.
    EndOfPhase {
        /// Distinct groups the signalling node had observed.
        groups_seen: u64,
    },
    /// The Sampling coordinator's broadcast decision (§3.1).
    SamplingDecision {
        /// `true` → run Repartitioning; `false` → run Two Phase.
        use_repartitioning: bool,
        /// Groups found in the sample (diagnostics).
        groups_in_sample: u64,
    },
    /// Graceful failure propagation: the sender hit an unrecoverable error
    /// and is shutting down; receivers should stop too instead of waiting
    /// for data that will never come.
    Abort {
        /// The node where the failure originated.
        origin: usize,
        /// Human-readable description of the originating error.
        reason: String,
    },
    /// An opaque application-level control payload — the coordinator /
    /// worker job protocol (attempt assignments, acks, shutdown) rides
    /// here, so it flows through the same sequence/dedup machinery as
    /// every other message and works over every [`crate::Transport`].
    Job(Vec<u8>),
}

/// The payload of a message.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A block of tuples.
    Data {
        /// Raw tuples or partial rows.
        kind: DataKind,
        /// The 2 KB message page.
        page: Page,
    },
    /// A control message.
    Control(Control),
}

impl Payload {
    /// Whether this is a data payload.
    pub fn is_data(&self) -> bool {
        matches!(self, Payload::Data { .. })
    }
}

/// A message on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending node.
    pub from: usize,
    /// Per-link sequence number, monotone per `(from, to)` pair. Receivers
    /// use it to drop duplicates and reassemble send order when fault
    /// injection perturbs the wire (delivery is
    /// at-least-once-with-dedup, so merges stay exact).
    pub seq: u64,
    /// Sender's virtual time at send *completion* (transfer included), in
    /// ms: the sender's tick count as `ticks_to_ms` renders it, read back
    /// exactly by [`Message::sent_at`] (below `MAX_TICKS`). Receivers
    /// advance their clock to at least this instant — the Lamport rule
    /// that makes "waiting for data" visible in virtual time.
    pub sent_at_ms: f64,
    /// The payload.
    pub payload: Payload,
}

impl Message {
    /// The send timestamp in ticks.
    pub fn sent_at(&self) -> u64 {
        ms_to_ticks(self.sent_at_ms)
    }

    /// Number of message pages this message occupies on the wire (control
    /// messages ride in one page; in the real implementation they are
    /// "piggy-backed on the tuples being forwarded", §3.3, so their cost
    /// is negligible — we model them as zero-transfer).
    pub fn transfer_pages(&self) -> u64 {
        match &self.payload {
            Payload::Data { .. } => 1,
            Payload::Control(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_kind_display() {
        assert_eq!(DataKind::Raw.to_string(), "raw");
        assert_eq!(DataKind::Partial.to_string(), "partial");
    }

    #[test]
    fn control_messages_cost_no_transfer() {
        let m = Message {
            from: 0,
            seq: 0,
            sent_at_ms: 1.0,
            payload: Payload::Control(Control::EndOfStream),
        };
        assert_eq!(m.transfer_pages(), 0);
        assert!(!m.payload.is_data());
    }

    #[test]
    fn data_messages_are_one_page() {
        let m = Message {
            from: 2,
            seq: 0,
            sent_at_ms: 0.0,
            payload: Payload::Data {
                kind: DataKind::Raw,
                page: Page::new(2048),
            },
        };
        assert_eq!(m.transfer_pages(), 1);
        assert!(m.payload.is_data());
    }
}
