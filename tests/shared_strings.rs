//! Shared string bytes under concurrency (DESIGN.md §40).
//!
//! A `Value::Str` clone shares its bytes, and each partition of a
//! generated relation holds one padding string that all of its rows
//! share. Grouping on that string sends clones of it through every path a
//! key takes — tables, seals and spills, message pages to other node
//! threads, merges, result rows — where they are cloned and dropped on
//! several threads at once. Every algorithm must still match the
//! reference, and once every outcome is dropped each partition's string
//! must be held by its rows and the test's own handle alone: a clone
//! leaked (or freed twice) anywhere on the way shows as a count off.

use adaptagg::model::StripView;
use adaptagg::prelude::*;
use adaptagg::storage::HeapFile;
use std::sync::Arc;

const NODES: usize = 4;

/// Column 2 of the base layout `(g, v, pad)`.
const PAD: usize = 2;

/// The padding string of `part`, as a handle of the test's own.
fn pad_of(part: &HeapFile) -> Arc<str> {
    let page = part.page(0).expect("a non-empty partition");
    let Some(StripView::Values(cells)) = page.column(PAD) else {
        panic!("the pad column is a `Str` strip");
    };
    let Value::Str(s) = &cells[0] else {
        panic!("a pad cell is a `Str`");
    };
    Arc::clone(s.as_arc())
}

/// Every row of every partition, and the test's one handle per partition.
fn assert_only_rows_hold(parts: &[HeapFile], pads: &[Arc<str>]) {
    for (k, (part, pad)) in parts.iter().zip(pads).enumerate() {
        assert_eq!(
            Arc::strong_count(pad),
            part.tuple_count() + 1,
            "partition {k}'s pad is held by something besides its rows"
        );
    }
}

#[test]
fn grouping_on_the_shared_pad_leaks_no_clone() {
    let spec = RelationSpec::uniform(12_000, 1_500).with_seed(7);
    let parts = generate_partitions(&spec, NODES);
    let pads: Vec<Arc<str>> = parts.iter().map(pad_of).collect();
    for (k, pad) in pads.iter().enumerate() {
        assert!(
            pads[..k].iter().all(|other| !Arc::ptr_eq(pad, other)),
            "partition {k} shares its pad with another partition"
        );
    }
    assert_only_rows_hold(&parts, &pads);

    // `SELECT pad, COUNT(*) … GROUP BY pad`: one group, every tuple a hit.
    // `SELECT g, pad, SUM(v), COUNT(*) … GROUP BY g, pad`: 1 500 groups
    // over a 256-entry table, so keys are sealed, spilled, shipped and
    // merged as well.
    let queries = [
        AggQuery::new(vec![PAD], vec![AggSpec::count_star()]),
        AggQuery::new(
            vec![0, PAD],
            vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
        ),
    ];
    let config = ClusterConfig::new(
        NODES,
        CostParams {
            max_hash_entries: 256,
            ..CostParams::paper_default()
        },
    );
    for query in &queries {
        let reference = reference_aggregate(&parts, query).unwrap();
        for kind in AlgorithmKind::ALL {
            let out = run_algorithm(kind, &config, &parts, query).expect("run succeeds");
            assert_eq!(out.rows, reference, "{kind} diverged on {query:?}");
        }
    }
    assert_only_rows_hold(&parts, &pads);

    drop(parts);
    assert!(
        pads.iter().all(|pad| Arc::strong_count(pad) == 1),
        "dropping the relation leaves its pads to the test alone"
    );
}
