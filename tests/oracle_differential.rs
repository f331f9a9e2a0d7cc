//! Property-based differential oracle: randomized schemas, cardinalities,
//! skews and cluster shapes — every strategy must be bit-identical to the
//! single-node serial reference, including DISTINCT and the multi-column
//! AVG / VAR_POP partial-state merges.
//!
//! This suite differs from `property_equivalence.rs` in three ways: the
//! key schema itself is randomized (one or two key columns), the group-id
//! distribution is optionally skewed (quadratic concentration, so a few
//! groups absorb most tuples), and every algorithm is checked at three
//! cluster sizes per case rather than one drawn size.

use adaptagg::prelude::*;
use adaptagg::model::{Compare, Predicate};
use adaptagg::storage::{HeapFile, RowCause};
use proptest::prelude::*;

/// Every algorithm is exercised at each of these cluster sizes.
const NODE_COUNTS: [usize; 3] = [1, 3, 6];

/// Round-robin rows across `nodes` simulated disks.
fn build_partitions(rows: &[Vec<Value>], nodes: usize) -> Vec<HeapFile> {
    let mut parts: Vec<HeapFile> = (0..nodes).map(|_| HeapFile::new(512)).collect();
    for (i, row) in rows.iter().enumerate() {
        parts[i % nodes].append(row).unwrap();
    }
    parts
}

/// Map a raw draw onto a group id in `0..card`, optionally skewed: the
/// quadratic transform concentrates mass on low ids (a cheap stand-in for
/// the paper's output-skew scenarios), while the uniform branch is the
/// modulo the generator crates use.
fn group_id(raw: u32, card: usize, skewed: bool) -> i64 {
    if skewed {
        let z = raw as f64 / u32::MAX as f64;
        ((z * z * card as f64) as i64).min(card as i64 - 1)
    } else {
        (raw as usize % card) as i64
    }
}

/// Materialize rows: `[key1, (key2,) v, pad]` — key width is part of the
/// randomized schema; `pad` is a constant `Str` no query aggregates.
fn build_rows(raws: &[(u32, i64)], card: usize, skewed: bool, two_col_key: bool) -> Vec<Vec<Value>> {
    let pad = || Value::Str("pad".into());
    raws.iter()
        .map(|&(g, v)| {
            let k1 = group_id(g, card, skewed);
            if two_col_key {
                // The second key column subdivides groups, so the true
                // cardinality is up to 3 × card.
                vec![Value::Int(k1), Value::Int((g % 3) as i64), Value::Int(v), pad()]
            } else {
                vec![Value::Int(k1), Value::Int(v), pad()]
            }
        })
        .collect()
}

fn agg_query(two_col_key: bool) -> AggQuery {
    let (keys, val) = if two_col_key {
        (vec![0, 1], 2)
    } else {
        (vec![0], 1)
    };
    AggQuery::new(
        keys,
        vec![
            AggSpec::over(AggFunc::Sum, val),
            AggSpec::over(AggFunc::Avg, val),
            AggSpec::over(AggFunc::Min, val),
            AggSpec::over(AggFunc::Max, val),
            AggSpec::over(AggFunc::VarPop, val),
            AggSpec::count_star(),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline differential property: arbitrary schema/cardinality/
    /// skew, tight memory, all nine strategies × three cluster sizes
    /// equal the serial reference (which exercises the AVG and VAR_POP
    /// partial-state merges on every comparison).
    #[test]
    fn prop_oracle_all_algorithms_all_node_counts(
        raws in proptest::collection::vec((0u32..u32::MAX, -1000i64..1000), 1..400),
        card in 1usize..150,
        skew_bit in 0u8..2,
        key_bit in 0u8..2,
        m in 4usize..96,
    ) {
        let skewed = skew_bit == 1;
        let two_col_key = key_bit == 1;
        let rows = build_rows(&raws, card, skewed, two_col_key);
        let q = agg_query(two_col_key);
        let single = build_partitions(&rows, 1);
        let reference = reference_aggregate(&single, &q).unwrap();
        for nodes in NODE_COUNTS {
            let parts = build_partitions(&rows, nodes);
            let config = ClusterConfig::new(nodes, CostParams {
                max_hash_entries: m,
                ..CostParams::paper_default()
            });
            for kind in AlgorithmKind::ALL {
                let out = run_algorithm(kind, &config, &parts, &q).expect("run succeeds");
                prop_assert_eq!(
                    &out.rows, &reference,
                    "{} diverged at {} nodes (card {}, skewed {}, 2-col {})",
                    kind, nodes, card, skewed, two_col_key
                );
            }
        }
    }

    /// `Int`-vs-`Str` filter differential: the same query with an
    /// always-true conjunct on the `Str` pad column, whose `Values` strip
    /// the scan's filter sweeps cell by cell, must be bit-identical to the
    /// plain query — result rows and every node's virtual clock, at every
    /// cluster size (an A-Rep run in which a node fell back is compared on
    /// one node only: past that, when a peer's `EndOfPhase` is seen is
    /// physically timed); select charges are per tuple, not per predicate.
    /// Every algorithm's scan hands its consumer every page as batches on
    /// both sides. `m` ranges down to budgets far below the group
    /// cardinality, so overflow spooling and its replay run under both.
    #[test]
    fn prop_oracle_batch_matches_row(
        raws in proptest::collection::vec((0u32..u32::MAX, -1000i64..1000), 50..400),
        card in 1usize..150,
        skew_bit in 0u8..2,
        key_bit in 0u8..2,
        m in 4usize..96,
    ) {
        let two_col_key = key_bit == 1;
        let rows = build_rows(&raws, card, skew_bit == 1, two_col_key);
        let q = agg_query(two_col_key);
        let pad = rows[0].len() - 1;
        let str_q = q.clone().with_filter(vec![Predicate::new(pad, Compare::Ge, Value::Str("".into()))]);
        let counter = |out: &RunOutcome, name: &str| -> u64 {
            let trace = out.trace.as_ref().expect("traced run");
            trace.nodes.iter().map(|n| n.metrics.counter(name)).sum()
        };
        for nodes in NODE_COUNTS {
            let parts = build_partitions(&rows, nodes);
            let pages = parts.iter().map(HeapFile::page_count).sum::<usize>() as u64;
            let config = ClusterConfig::new(nodes, CostParams {
                max_hash_entries: m,
                ..CostParams::paper_default()
            })
            .with_tracing();
            for kind in AlgorithmKind::ALL {
                let on_str = run_algorithm(kind, &config, &parts, &str_q).expect("str-filtered run succeeds");
                let batch = run_algorithm(kind, &config, &parts, &q).expect("batch run succeeds");
                prop_assert_eq!(
                    &batch.rows, &on_str.rows,
                    "{}: rows diverged under a Str conjunct at {} nodes (card {}, m {})",
                    kind, nodes, card, m
                );
                let fell_back = kind == AlgorithmKind::AdaptiveRepartitioning
                    && !(batch.adapted_nodes().is_empty() && on_str.adapted_nodes().is_empty());
                if nodes == 1 || !fell_back {
                    let clocks = |out: &RunOutcome| -> Vec<u64> {
                        out.run.per_node.iter().map(|r| r.clock).collect()
                    };
                    prop_assert_eq!(
                        clocks(&batch), clocks(&on_str),
                        "{}: clocks diverged under a Str conjunct at {} nodes ({} vs {} ms)",
                        kind, nodes, batch.elapsed_ms(), on_str.elapsed_ms()
                    );
                }
                // What the consumers did with the pages, from the traces:
                // each page counted once, mostly on the strips.
                for out in [&batch, &on_str] {
                    let batched = counter(out, "scan.pages_batched");
                    let offered = batched
                        + RowCause::ALL.iter().map(|c| counter(out, c.counter())).sum::<u64>();
                    prop_assert_eq!(offered, pages, "{} at {} nodes", kind, nodes);
                    prop_assert!(batched * 10 >= offered * 8, "{} at {} nodes: {} of {}", kind, nodes, batched, offered);
                }
            }
        }
    }

    /// DISTINCT (empty aggregate list) is exact under every strategy and
    /// cluster size: the result is precisely the distinct key set.
    #[test]
    fn prop_oracle_distinct(
        raws in proptest::collection::vec((0u32..u32::MAX, 0i64..1), 0..300),
        card in 1usize..80,
        skew_bit in 0u8..2,
    ) {
        let skewed = skew_bit == 1;
        let rows = build_rows(&raws, card, skewed, false);
        let q = AggQuery::distinct(vec![0]);
        let mut expect: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        expect.sort_unstable();
        expect.dedup();
        for nodes in NODE_COUNTS {
            let parts = build_partitions(&rows, nodes);
            let config = ClusterConfig::new(nodes, CostParams {
                max_hash_entries: 8,
                ..CostParams::paper_default()
            });
            for kind in AlgorithmKind::ALL {
                let out = run_algorithm(kind, &config, &parts, &q).expect("run succeeds");
                let got: Vec<i64> = out
                    .rows
                    .iter()
                    .map(|r| r.key.values()[0].as_i64().unwrap())
                    .collect();
                prop_assert_eq!(&got, &expect, "{} at {} nodes", kind, nodes);
            }
        }
    }

    /// The AVG merge is checked against an independent hand oracle, not
    /// just the reference implementation: integer partial sums are exact,
    /// so the merged average must equal sum/count computed directly from
    /// the raw rows.
    #[test]
    fn prop_oracle_avg_merge_hand_computed(
        raws in proptest::collection::vec((0u32..u32::MAX, -500i64..500), 1..250),
        card in 1usize..40,
        nodes_ix in 0usize..3,
    ) {
        let nodes = NODE_COUNTS[nodes_ix];
        let rows = build_rows(&raws, card, false, false);
        let q = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Avg, 1)]);
        let parts = build_partitions(&rows, nodes);
        let config = ClusterConfig::new(nodes, CostParams {
            max_hash_entries: 16,
            ..CostParams::paper_default()
        });
        // Hand oracle: per-group (sum, count) from the raw rows.
        let mut expect: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for r in &rows {
            let e = expect.entry(r[0].as_i64().unwrap()).or_insert((0, 0));
            e.0 += r[1].as_i64().unwrap();
            e.1 += 1;
        }
        for kind in AlgorithmKind::ALL {
            let out = run_algorithm(kind, &config, &parts, &q).expect("run succeeds");
            prop_assert_eq!(out.rows.len(), expect.len(), "{}", kind);
            for row in &out.rows {
                let g = row.key.values()[0].as_i64().unwrap();
                let (sum, count) = expect[&g];
                let want = sum as f64 / count as f64;
                let got = match row.aggs[0] {
                    Value::Float(f) => f,
                    Value::Int(i) => i as f64,
                    ref other => panic!("AVG produced {other:?}"),
                };
                prop_assert!(
                    (got - want).abs() < 1e-9,
                    "{}: AVG(g={}) = {}, want {}", kind, g, got, want
                );
            }
        }
    }
}
