//! Measured figures (8–9): run the algorithms on the simulated cluster.
//!
//! These are the paper's *implementation results*: real hash tables, real
//! message traffic, real per-node adaptive decisions — timed in virtual
//! milliseconds (see DESIGN.md §3's substitution table).

use crate::report::{Series, Table};
use adaptagg_algos::{run_algorithm_with, AlgoConfig, AlgorithmKind};
use adaptagg_exec::ClusterConfig;
use adaptagg_model::CostParams;
use adaptagg_workload::{default_query, generate_partitions, OutputSkewSpec, RelationSpec};

/// The paper's implementation platform: 8 nodes, 10 Mbit shared bus.
pub fn cluster_8nodes(max_hash_entries: usize) -> ClusterConfig {
    let params = CostParams {
        max_hash_entries,
        ..CostParams::cluster_default()
    };
    ClusterConfig::new(8, params)
}

/// Group counts swept by the measured figures (log-spaced from scalar
/// aggregation toward duplicate elimination).
pub fn group_grid(tuples: usize) -> Vec<usize> {
    let mut out = vec![1];
    let mut g = 8usize;
    while g <= tuples / 2 {
        out.push(g);
        g *= 8;
    }
    out.push(tuples / 2);
    out.dedup();
    out
}

/// Figure 8: the five algorithms of the implementation study on uniform
/// data. `tuples` is the relation size (2 M in the paper; the default
/// binary uses a scaled size). The hash-table budget `m` scales with the
/// relation so the memory knee lands inside the sweep, as it does in the
/// paper (10 K entries against 250 K tuples/node).
pub fn fig8(tuples: usize, m: usize) -> Table {
    let cluster = cluster_8nodes(m);
    let cfg = AlgoConfig::default_for(cluster.nodes);
    let query = default_query();
    let groups = group_grid(tuples);

    let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); AlgorithmKind::FIGURE8.len()];
    for &g in &groups {
        let spec = RelationSpec::uniform(tuples, g);
        let parts = generate_partitions(&spec, cluster.nodes);
        for (i, &kind) in AlgorithmKind::FIGURE8.iter().enumerate() {
            let out = run_algorithm_with(kind, &cluster, &parts, &query, &cfg)
                .expect("algorithm run succeeds");
            assert_eq!(out.rows.len(), g.min(tuples), "{kind} wrong result size");
            per_algo[i].push(out.elapsed_ms());
        }
    }

    Table::new(
        format!(
            "Figure 8: implementation, 8 nodes, shared bus, {tuples} x 100B tuples, M={m}"
        ),
        "groups",
        groups.iter().map(|&g| g as f64).collect(),
        AlgorithmKind::FIGURE8
            .iter()
            .zip(per_algo)
            .map(|(k, v)| Series::new(k.label(), v))
            .collect(),
    )
}

/// Figure 9: output skew — four of the eight nodes hold one group each,
/// the other four share the rest. Sweeps the total group count.
pub fn fig9(tuples_per_node: usize, m: usize) -> Table {
    let cluster = cluster_8nodes(m);
    let cfg = AlgoConfig::default_for(cluster.nodes);
    let query = default_query();
    // Group counts from below the memory knee up to the regime where the
    // rich nodes approach duplicate elimination — §6's interesting zone:
    // there 2P ships as much as A2P *and* pays the spill, so the
    // per-node-adaptive algorithms beat both statics.
    let groups = [
        m,
        4 * m,
        tuples_per_node,
        2 * tuples_per_node,
        8 * tuples_per_node,
    ];

    let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); AlgorithmKind::FIGURE8.len()];
    for &g in &groups {
        let spec = OutputSkewSpec::paper_figure9(tuples_per_node, g.max(8));
        let parts = spec.generate_partitions();
        for (i, &kind) in AlgorithmKind::FIGURE8.iter().enumerate() {
            let out = run_algorithm_with(kind, &cluster, &parts, &query, &cfg)
                .expect("algorithm run succeeds");
            per_algo[i].push(out.elapsed_ms());
        }
    }

    Table::new(
        format!(
            "Figure 9: output skew, 8 nodes (4 single-group), {tuples_per_node} tuples/node, M={m}"
        ),
        "groups",
        groups.iter().map(|&g| g as f64).collect(),
        AlgorithmKind::FIGURE8
            .iter()
            .zip(per_algo)
            .map(|(k, v)| Series::new(k.label(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_grid_covers_the_range() {
        let g = group_grid(200_000);
        assert_eq!(g[0], 1);
        assert_eq!(*g.last().unwrap(), 100_000);
        assert!(g.len() >= 5);
    }

    // Small smoke runs; the full figures are exercised by the binaries.

    #[test]
    fn fig8_small_has_expected_shape() {
        let t = fig8(16_000, 200);
        let idx = |label: &str| t.series.iter().position(|s| s.label == label).unwrap();
        let (tp, rep, a2p) = (idx("2P"), idx("Rep"), idx("A-2P"));
        // Low groups: 2P beats Rep, and A-2P behaves exactly like 2P
        // (never switches).
        assert!(
            t.series[tp].values[0] < t.series[rep].values[0],
            "2P should win at 1 group"
        );
        let ratio = t.series[a2p].values[0] / t.series[tp].values[0];
        assert!((0.9..=1.1).contains(&ratio), "A-2P/2P at 1 group = {ratio}");
        // High groups (duplicate-elimination end): partials stop
        // compressing, so 2P ships as much as Rep *plus* spills — Rep and
        // A-2P win.
        let last = t.xs.len() - 1;
        assert!(t.series[rep].values[last] < t.series[tp].values[last]);
        assert!(t.series[a2p].values[last] < t.series[tp].values[last]);
        // A-2P never does much worse than full Repartitioning (it ships
        // at most what Rep ships; right after its switch the burst can
        // cost slightly more bus time). The headroom also absorbs
        // run-to-run virtual-clock jitter, which on this shared-bus
        // figure is the *ledger's*, not the receiver's: every receive
        // consumes its streams in logical order (DESIGN.md §12.7), but
        // `BusLedger::book` fits a transfer into the gaps left by
        // whichever transfers were booked before it in real time, and
        // at 8 nodes the post-switch burst makes A-2P's measured time
        // vary by ~10% (Rep stays near-constant). Observed ratios reach
        // ~1.32 under load; 1.5 still cleanly separates A-2P from a
        // genuinely losing algorithm (Broadcast runs >3x Rep).
        for i in 0..t.xs.len() {
            assert!(
                t.series[a2p].values[i] <= t.series[rep].values[i] * 1.5,
                "A-2P {} vs Rep {} at {} groups",
                t.series[a2p].values[i],
                t.series[rep].values[i],
                t.xs[i]
            );
        }
    }

    #[test]
    fn fig9_small_adaptives_beat_statics() {
        let t = fig9(2_000, 100);
        let idx = |label: &str| t.series.iter().position(|s| s.label == label).unwrap();
        // §6's headline: at the high-skew end the per-node decisions of
        // A-2P (poor nodes compress, rich nodes repartition) beat both
        // static algorithms.
        let last = t.xs.len() - 1;
        let a2p = t.series[idx("A-2P")].values[last];
        let tp = t.series[idx("2P")].values[last];
        let rep = t.series[idx("Rep")].values[last];
        assert!(a2p < tp, "A-2P {a2p} >= 2P {tp}");
        assert!(a2p < rep, "A-2P {a2p} >= Rep {rep}");
    }
}
