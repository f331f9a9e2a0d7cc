//! Table 1 of the paper: the parameters of the study.
//!
//! Every simulated cost in the system — CPU work per tuple, page I/O,
//! message costs — is derived from these constants, so the implementation
//! study (Figures 8–9) and the analytical model (Figures 1–7) are costed in
//! the same currency: **virtual milliseconds**.
//!
//! Per-tuple CPU costs are given in *instructions* and divided by the
//! processor's MIPS rating: `300 instructions / 40 MIPS = 7.5 µs`.
//!
//! The engine's clocks count whole **ticks** of one picosecond: every
//! Table 1 cost is a whole number of them (`t_r` = 7 500 000, `IO` =
//! 1 150 000 000), so time adds up exactly and in any order. Milliseconds
//! remain the unit of configuration (these parameters) and of reports.

use std::fmt;

/// Ticks (picoseconds) per virtual millisecond.
pub const TICKS_PER_MS: u64 = 1_000_000_000;

/// The latest virtual instant a message may carry: 2⁵¹ ticks, about 37
/// minutes — 70 times the longest run in the tree. Below it a tick count
/// survives its millisecond rendering ([`ticks_to_ms`], [`ms_to_ticks`])
/// exactly, and no clock that observes it can overflow.
pub const MAX_TICKS: u64 = 1 << 51;

/// A duration in milliseconds as whole ticks, rounded to the nearest
/// (negative and NaN durations are zero).
#[inline]
pub fn ms_to_ticks(ms: f64) -> u64 {
    (ms * TICKS_PER_MS as f64).round() as u64
}

/// Ticks as milliseconds, for reports.
#[inline]
pub fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_MS as f64
}

/// Which network the paper is modelling (§2: "We model both high speed,
/// high bandwidth network as in commercial multiprocessors like IBM SP-2
/// and slow speed, limited bandwidth network like the Ethernet").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkKind {
    /// High-speed, high-bandwidth interconnect: "modeled only by the
    /// latency to send a message i.e. it has unlimited bandwidth".
    /// Sends from different nodes never contend.
    HighSpeed {
        /// Latency to send one message page, in ms.
        latency_ms: f64,
    },
    /// Limited-bandwidth shared medium (10 Mbit Ethernet): "a sequential
    /// resource where sending a fixed amount of data will take a fixed
    /// amount of time independent of the number of processors involved".
    SharedBus {
        /// Bus occupancy per message page, in ms.
        ms_per_page: f64,
    },
}

impl NetworkKind {
    /// The paper's fast-network default (SP-2-like). The paper does not
    /// print a separate latency constant for this case; 0.1 ms per page is
    /// small enough that repartitioning is "not a serious problem"
    /// (Figure 1's observation) while still being visible in breakdowns.
    pub fn high_speed_default() -> Self {
        NetworkKind::HighSpeed { latency_ms: 0.1 }
    }

    /// The paper's Ethernet: `m_l` = 2.0 ms per (2 KB message) page on a
    /// shared bus.
    pub fn ethernet_default() -> Self {
        NetworkKind::SharedBus { ms_per_page: 2.0 }
    }

    /// Time the medium is occupied per page sent.
    pub fn ms_per_page(&self) -> f64 {
        match self {
            NetworkKind::HighSpeed { latency_ms } => *latency_ms,
            NetworkKind::SharedBus { ms_per_page } => *ms_per_page,
        }
    }

    /// Whether sends contend on a shared sequential resource.
    pub fn is_shared(&self) -> bool {
        matches!(self, NetworkKind::SharedBus { .. })
    }
}

/// Table 1: parameters for the cost accounting. All times in milliseconds,
/// all sizes in bytes unless noted.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// `mips` — MIPS of each processor.
    pub mips: f64,
    /// `P` — disk page size in bytes.
    pub page_bytes: usize,
    /// Message block size in bytes (the implementation "blocked" messages
    /// into 2 KB pages, §5).
    pub message_bytes: usize,
    /// `IO` — time to read/write a page sequentially, ms.
    pub io_seq_ms: f64,
    /// `rIO` — time to read a random page, ms (page-level sampling pays
    /// this).
    pub io_rand_ms: f64,
    /// `p` — projectivity of the aggregation: fraction of the tuple
    /// relevant to the aggregate computation.
    pub projectivity: f64,
    /// `t_r` — instructions to read a tuple (get it off a page / out of a
    /// hash bucket).
    pub instr_read_tuple: f64,
    /// `t_w` — instructions to write a tuple.
    pub instr_write_tuple: f64,
    /// `t_h` — instructions to compute a hash value.
    pub instr_hash: f64,
    /// `t_a` — instructions to process a tuple through an aggregate
    /// (update the cumulative value).
    pub instr_agg: f64,
    /// `t_d` — instructions to compute a tuple's destination node.
    pub instr_dest: f64,
    /// `m_p` — message protocol instructions per message page (charged at
    /// both sender and receiver, per §2.3's `m_p + m_l + m_p`).
    pub instr_msg_protocol: f64,
    /// The network being modelled (`m_l` lives here).
    pub network: NetworkKind,
    /// `M` — maximum hash table size, in entries (groups).
    pub max_hash_entries: usize,
    /// `|R|`-scale default tuple width in bytes (the study uses 100-byte
    /// tuples).
    pub tuple_bytes: usize,
}

impl CostParams {
    /// Table 1 as printed: 40 MIPS CPUs, 4 KB pages, 1.15 ms sequential /
    /// 15 ms random I/O, 16 % projectivity, 10 K-entry hash tables,
    /// 100-byte tuples, 2 KB message blocks.
    pub fn paper_default() -> Self {
        CostParams {
            mips: 40.0,
            page_bytes: 4096,
            message_bytes: 2048,
            io_seq_ms: 1.15,
            io_rand_ms: 15.0,
            projectivity: 0.16,
            instr_read_tuple: 300.0,
            instr_write_tuple: 100.0,
            instr_hash: 400.0,
            instr_agg: 300.0,
            instr_dest: 10.0,
            instr_msg_protocol: 1000.0,
            network: NetworkKind::high_speed_default(),
            max_hash_entries: 10_000,
            tuple_bytes: 100,
        }
    }

    /// The paper's implementation platform (§5): 8 SPARCstations on a
    /// 10 Mbit Ethernet — same constants, shared-bus network.
    pub fn cluster_default() -> Self {
        CostParams {
            network: NetworkKind::ethernet_default(),
            ..CostParams::paper_default()
        }
    }

    /// Instructions → milliseconds under this CPU.
    /// `instr / (mips · 10⁶ instr/s) · 10³ ms/s = instr / (mips · 10³)`.
    #[inline]
    pub fn instr_ms(&self, instructions: f64) -> f64 {
        instructions / (self.mips * 1_000.0)
    }

    /// `t_r` in ms.
    #[inline]
    pub fn t_read(&self) -> f64 {
        self.instr_ms(self.instr_read_tuple)
    }

    /// `t_w` in ms.
    #[inline]
    pub fn t_write(&self) -> f64 {
        self.instr_ms(self.instr_write_tuple)
    }

    /// `t_h` in ms.
    #[inline]
    pub fn t_hash(&self) -> f64 {
        self.instr_ms(self.instr_hash)
    }

    /// `t_a` in ms.
    #[inline]
    pub fn t_agg(&self) -> f64 {
        self.instr_ms(self.instr_agg)
    }

    /// `t_d` in ms.
    #[inline]
    pub fn t_dest(&self) -> f64 {
        self.instr_ms(self.instr_dest)
    }

    /// `m_p` in ms.
    #[inline]
    pub fn t_msg_protocol(&self) -> f64 {
        self.instr_ms(self.instr_msg_protocol)
    }

    /// Pages needed for `bytes` of data under the disk page size.
    #[inline]
    pub fn pages_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.page_bytes.max(1))
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::paper_default()
    }
}

impl fmt::Display for CostParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mips          = {}", self.mips)?;
        writeln!(f, "page          = {} B", self.page_bytes)?;
        writeln!(f, "msg block     = {} B", self.message_bytes)?;
        writeln!(f, "IO            = {} ms", self.io_seq_ms)?;
        writeln!(f, "rIO           = {} ms", self.io_rand_ms)?;
        writeln!(f, "projectivity  = {}", self.projectivity)?;
        writeln!(f, "t_r,t_w,t_h   = {}/{}/{} instr", self.instr_read_tuple, self.instr_write_tuple, self.instr_hash)?;
        writeln!(f, "t_a,t_d,m_p   = {}/{}/{} instr", self.instr_agg, self.instr_dest, self.instr_msg_protocol)?;
        writeln!(f, "network       = {:?}", self.network)?;
        writeln!(f, "M             = {} entries", self.max_hash_entries)?;
        write!(f, "tuple         = {} B", self.tuple_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_convert_to_expected_times() {
        let p = CostParams::paper_default();
        // 300 instr on a 40 MIPS CPU = 7.5 µs = 0.0075 ms.
        assert!((p.t_read() - 0.0075).abs() < 1e-12);
        assert!((p.t_write() - 0.0025).abs() < 1e-12);
        assert!((p.t_hash() - 0.01).abs() < 1e-12);
        assert!((p.t_agg() - 0.0075).abs() < 1e-12);
        assert!((p.t_dest() - 0.00025).abs() < 1e-12);
        assert!((p.t_msg_protocol() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn ticks_survive_their_millisecond_rendering_below_the_ceiling() {
        assert_eq!(ms_to_ticks(1.15), 1_150_000_000);
        assert_eq!(ms_to_ticks(CostParams::paper_default().t_read()), 7_500_000);
        assert_eq!((ms_to_ticks(-1.0), ms_to_ticks(f64::NAN)), (0, 0));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % MAX_TICKS;
            assert_eq!(ms_to_ticks(ticks_to_ms(t)), t);
        }
        for t in [0, 1, MAX_TICKS - 1, MAX_TICKS] {
            assert_eq!(ms_to_ticks(ticks_to_ms(t)), t);
        }
    }

    #[test]
    fn page_math_rounds_up() {
        let p = CostParams::paper_default();
        assert_eq!(p.pages_for(0), 0);
        assert_eq!(p.pages_for(1), 1);
        assert_eq!(p.pages_for(4096), 1);
        assert_eq!(p.pages_for(4097), 2);
    }

    #[test]
    fn network_kinds() {
        let fast = NetworkKind::high_speed_default();
        assert!(!fast.is_shared());
        let slow = NetworkKind::ethernet_default();
        assert!(slow.is_shared());
        assert!((slow.ms_per_page() - 2.0).abs() < 1e-12);
        assert!(fast.ms_per_page() < slow.ms_per_page());
    }

    #[test]
    fn cluster_default_uses_ethernet() {
        let c = CostParams::cluster_default();
        assert!(c.network.is_shared());
        assert_eq!(c.page_bytes, 4096);
    }

    #[test]
    fn display_prints_all_sections() {
        let s = CostParams::paper_default().to_string();
        for needle in ["mips", "projectivity", "network", "entries"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }
}
