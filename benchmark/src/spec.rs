//! The benchmark's contract in one place: the workloads, the metrics
//! with their units, directions and bounds, and `BENCHMARK.json`
//! rendered from them (a unit test keeps the committed file equal).

use adaptagg::net::TransportKind;
use adaptagg::prelude::AlgorithmKind;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The two statements `serve_mixed` alternates: one shipping-heavy with
/// a full-size result, one scan-heavy with a 64-row result.
pub const SERVE_SQL: [&str; 2] = [
    "SELECT g, SUM(v), COUNT(*) FROM r GROUP BY g",
    "SELECT g, MIN(v), MAX(v) FROM r WHERE g < 64 GROUP BY g",
];

/// Client connections of `serve_mixed` (closed loop; = scheduler
/// concurrency, so nothing waits in the admission queue by design).
pub const SERVE_CLIENTS: usize = 2;
/// Admission-queue capacity of `serve_mixed`.
pub const SERVE_QUEUE: usize = 4;

/// One named workload. Batch workloads run `algo` through
/// `run_algorithm`; the serving workload drives the TCP line protocol.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: what the workload exists to separate.
    pub why: &'static str,
    pub tuples: usize,
    pub groups: usize,
    pub nodes: usize,
    pub threads: usize,
    pub algo: AlgorithmKind,
    pub transport: TransportKind,
    /// `CostParams::max_hash_entries` (batch) or the broker's per-node
    /// budget (serving).
    pub memory: usize,
    pub serve: bool,
    /// Floor on timed queries, whatever `--seconds` says.
    pub min_queries: usize,
}

impl WorkloadSpec {
    /// The `--quick` smoke scale: every relation ÷ 20 (numbers are not
    /// comparable with full-scale runs and are marked so).
    pub fn quick(&self) -> WorkloadSpec {
        WorkloadSpec {
            tuples: self.tuples / 20,
            groups: (self.groups / 20).max(self.groups.min(64)),
            memory: if self.memory >= self.tuples {
                self.memory
            } else {
                (self.memory / 20).max(64)
            },
            min_queries: (self.min_queries / 4).max(3),
            ..self.clone()
        }
    }
}

// Sized so that one pass times a hundred queries or more: on this kind
// of host (2 shared vCPUs) a query's wall varies by tens of percent from
// one to the next, and only the sample count steadies the median.
const LOWCARD_TUPLES: usize = 500_000;
const HIGHCARD_TUPLES: usize = 250_000;
const HIGHCARD_GROUPS: usize = 62_500;
/// Table 1's `M`: the paper-default 10 K-entry hash table.
const PAPER_M: usize = 10_000;

/// The five workloads, in reporting order. Every one keeps at most two
/// busy threads on the two vCPUs it was sized for. Two more were measured
/// and left out of the gated set because their query wall is bimodal on
/// such a host (a cross-thread hand-off costs 15 us when the peer vCPU is
/// awake and 100 us when it must be woken, and which of the two a whole
/// segment sees is not the program's doing): 1 node x 2 threads on the
/// low-cardinality data (36 or 70 ms) and Rep over TCP loopback (66 or
/// 117 ms). Their layers stay measured by the traced pass of every
/// workload: `hashagg.intra_speedup`, `net.tcp_*`, `net.frame_*`.
pub fn workloads() -> Vec<WorkloadSpec> {
    let batch = WorkloadSpec {
        name: "",
        why: "",
        tuples: HIGHCARD_TUPLES,
        groups: HIGHCARD_GROUPS,
        nodes: 2,
        threads: 1,
        algo: AlgorithmKind::Repartitioning,
        transport: TransportKind::InProcess,
        memory: PAPER_M,
        serve: false,
        min_queries: 10,
    };
    vec![
        WorkloadSpec {
            name: "scan_lowcard",
            why: "1 node x 1 thread, 2P, 64 groups: pure per-tuple CPU path (page cursor, scan/project, hash, probe-hit, state update); nothing shipped or spilled",
            tuples: LOWCARD_TUPLES,
            groups: 64,
            nodes: 1,
            algo: AlgorithmKind::TwoPhase,
            ..batch.clone()
        },
        WorkloadSpec {
            name: "exchange_highcard",
            why: "2 nodes, Rep, 62.5k groups, table fits (no spill), channel fabric: every tuple crosses the exchange and lands mostly as a new-group insert",
            memory: 1_000_000,
            ..batch.clone()
        },
        WorkloadSpec {
            name: "spill_adaptive",
            why: "2 nodes, A-2P, same data, paper-default 10k-entry table: every node switches to repartitioning mid-scan and the merge side overflows into hybrid-hash buckets",
            algo: AlgorithmKind::AdaptiveTwoPhase,
            ..batch.clone()
        },
        WorkloadSpec {
            name: "sort_highcard",
            why: "2 nodes, Sort-2P, same data, 10k entries: sortagg run formation and merge, the slowest path of every committed sweep; does little in the other workloads",
            algo: AlgorithmKind::SortTwoPhase,
            ..batch.clone()
        },
        WorkloadSpec {
            name: "serve_mixed",
            why: "in-process `serve` over TCP, 2 closed-loop clients alternating a full GROUP BY and a filtered MIN/MAX on 200k tuples; grants squeezed below the group count",
            tuples: 200_000,
            groups: 20_000,
            algo: AlgorithmKind::AdaptiveTwoPhase,
            // Alone a query holds 30k entries (> 20k groups, no switch);
            // two concurrent queries hold 15k each (< 20k: degraded).
            memory: 30_000,
            serve: true,
            min_queries: 200,
            ..batch
        },
    ]
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is `Some` for end-to-end metrics only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system waits for. Measured with tracing off. The
/// timings of the batch workloads and every `setup_s` are corrected for
/// host speed (see `speed`): they read as milliseconds of the nominal
/// host, not of whatever the neighbours left of this one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tuples_per_s", "tuples/s", Higher, 0.25),
    e2e("query_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// One metric (or a few) per layer, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("host.probe_ms", "ms", Lower),
    layer("workload.gen_ns_per_tuple", "ns/tuple", Lower),
    layer("storage.cursor_ns_per_tuple", "ns/tuple", Lower),
    layer("storage.page_encode_ns_per_tuple", "ns/tuple", Lower),
    layer("storage.page_decode_ns_per_tuple", "ns/tuple", Lower),
    layer("storage.spill_write_ns_per_tuple", "ns/tuple", Lower),
    layer("storage.spill_drain_ns_per_tuple", "ns/tuple", Lower),
    layer("storage.bytes_per_tuple", "bytes/tuple", Lower),
    layer("model.hash_batch_ns_per_tuple", "ns/tuple", Lower),
    layer("model.hash_row_ns_per_tuple", "ns/tuple", Lower),
    layer("model.agg_update_ns_per_tuple", "ns/tuple", Lower),
    layer("exec.scan_ns_per_tuple", "ns/tuple", Lower),
    layer("exec.route_ns_per_tuple", "ns/tuple", Lower),
    layer("exec.route_row_ns_per_tuple", "ns/tuple", Lower),
    layer("hashagg.probe_hit_ns_per_tuple", "ns/tuple", Lower),
    layer("hashagg.probe_new_ns_per_tuple", "ns/tuple", Lower),
    layer("hashagg.probe_full_ns_per_tuple", "ns/tuple", Lower),
    layer("hashagg.row_lane_ns_per_tuple", "ns/tuple", Lower),
    layer("hashagg.row_push_ns_per_tuple", "ns/tuple", Lower),
    layer("hashagg.overflow_ns_per_tuple", "ns/tuple", Lower),
    layer("hashagg.intra_speedup", "ratio", Higher),
    layer("hashagg.spilled_tuples", "count", Lower),
    layer("hashagg.overflow_buckets", "count", Lower),
    layer("hashagg.peak_resident", "count", Lower),
    layer("hashagg.probe_slots_per_tuple", "ratio", Lower),
    layer("sortagg.run_form_ns_per_tuple", "ns/tuple", Lower),
    layer("sortagg.merge_ns_per_tuple", "ns/tuple", Lower),
    layer("sortagg.runs", "count", Lower),
    layer("net.frame_encode_ns_per_tuple", "ns/tuple", Lower),
    layer("net.frame_decode_ns_per_tuple", "ns/tuple", Lower),
    layer("net.chan_msg_us", "us", Lower),
    layer("net.chan_mb_per_s", "MB/s", Higher),
    layer("net.tcp_msg_us", "us", Lower),
    layer("net.tcp_mb_per_s", "MB/s", Higher),
    layer("net.tcp_rtt_us", "us", Lower),
    layer("net.bytes_sent", "bytes", Lower),
    layer("net.pages_sent", "count", Lower),
    layer("net.tuples_sent_frac", "ratio", Lower),
    layer("net.send_retries", "count", Lower),
    layer("algos.phase_scan_ms", "ms", Lower),
    layer("algos.phase_local_agg_ms", "ms", Lower),
    layer("algos.phase_partition_ms", "ms", Lower),
    layer("algos.phase_merge_ms", "ms", Lower),
    layer("algos.phase_sort_ms", "ms", Lower),
    layer("algos.phase_coverage_frac", "ratio", Higher),
    layer("algos.switch_nodes", "count", Lower),
    layer("algos.switch_at_tuple", "count", Higher),
    layer("cost.virtual_ms", "ms", Lower),
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("sql.compile_us", "us", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.exec_ms_p50", "ms", Lower),
    layer("serve.protocol_us", "us", Lower),
    layer("serve.query_ms_p90", "ms", Lower),
    layer("serve.qps", "1/s", Higher),
    layer("serve.degraded_frac", "ratio", Lower),
    layer("serve.rejected_frac", "ratio", Lower),
    layer("budget.layers_sum_ns_per_tuple", "ns/tuple", Lower),
    layer("budget.e2e_ns_per_tuple", "ns/tuple", Lower),
    layer("budget.residual_frac", "ratio", Lower),
];

/// Names are 1-64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units are 1-16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Every metric of `defs` must be reported exactly once, and nothing
/// else: a run that drops or doubles a metric is refused before it
/// prints a result.
pub fn check_reported(defs: &[MetricDef], reported: &[(&'static str, f64)]) -> Result<(), String> {
    for d in defs {
        if !valid_name(d.name) || !valid_unit(d.unit) {
            return Err(format!(
                "metric {} ({}) breaks the naming rules",
                d.name, d.unit
            ));
        }
        match reported.iter().filter(|(n, _)| *n == d.name).count() {
            1 => {}
            0 => return Err(format!("metric {} was not reported", d.name)),
            k => return Err(format!("metric {} was reported {k} times", d.name)),
        }
    }
    if let Some((n, _)) = reported
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {n} is not in BENCHMARK.json"));
    }
    if let Some((n, v)) = reported.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {n} is not a finite number ({v})"));
    }
    Ok(())
}

/// The definition of a metric by name, from either table.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Render `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let ws = workloads();
    for (i, w) in ws.iter().enumerate() {
        let sep = if i + 1 < ws.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn name_validator_follows_the_contract() {
        for ok in [
            "a",
            "setup_s",
            "hashagg.probe_hit_ns_per_tuple",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert_eq!(m.bound.is_some(), END_TO_END.contains(m));
        }
        for w in workloads() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn limits_of_the_contract_hold() {
        assert!((2..=8).contains(&workloads().len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() > 0.0 && m.bound.unwrap() <= 0.25));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }

    #[test]
    fn reported_set_must_match_exactly_once() {
        let defs = &END_TO_END[..2];
        let ok = [("setup_s", 1.0), ("tuples_per_s", 2.0)];
        assert_eq!((defs[0].name, defs[1].name), (ok[0].0, ok[1].0));
        assert!(check_reported(defs, &ok).is_ok());
        assert!(check_reported(defs, &ok[..1])
            .unwrap_err()
            .contains("not reported"));
        let twice = [("setup_s", 1.0), ("setup_s", 1.0), ("tuples_per_s", 2.0)];
        assert!(check_reported(defs, &twice)
            .unwrap_err()
            .contains("2 times"));
        let extra = [("setup_s", 1.0), ("tuples_per_s", 2.0), ("serve.qps", 3.0)];
        assert!(check_reported(defs, &extra)
            .unwrap_err()
            .contains("not in BENCHMARK.json"));
        let nan = [("setup_s", f64::NAN), ("tuples_per_s", 2.0)];
        assert!(check_reported(defs, &nan).unwrap_err().contains("finite"));
    }

    #[test]
    fn quick_scale_keeps_each_regime() {
        for w in workloads() {
            let q = w.quick();
            assert_eq!(q.tuples, w.tuples / 20);
            // Spill regimes still spill, fitting tables still fit.
            assert_eq!(q.memory >= q.groups, w.memory >= w.groups, "{}", w.name);
        }
    }
}
