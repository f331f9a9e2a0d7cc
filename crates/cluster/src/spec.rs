//! The shared cluster specification: everything every process must
//! agree on, compressed to a few integers so nothing but partial
//! aggregates ever crosses the wire.

use adaptagg_algos::common::QueryPlan;
use adaptagg_storage::HeapFile;
use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

/// What the whole cluster computes: node 0 coordinates, nodes
/// `1..nodes` each own one base partition of a deterministic uniform
/// relation. All processes are launched with the same spec (same CLI
/// arguments), regenerate identical partitions locally, and run the
/// study's default query over them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Total process count including the coordinator (node 0).
    pub nodes: usize,
    /// Relation cardinality.
    pub tuples: usize,
    /// Number of distinct groups.
    pub groups: usize,
    /// Workload seed — identical seeds yield identical partitions in
    /// every process.
    pub seed: u64,
}

impl ClusterSpec {
    /// Number of worker nodes (and of base partitions).
    pub fn workers(&self) -> usize {
        self.nodes.saturating_sub(1)
    }

    /// Regenerate the base partitions, one per worker. Partition `p` is
    /// initially owned by worker node `p + 1`.
    pub fn partitions(&self) -> Vec<HeapFile> {
        let spec = RelationSpec::uniform(self.tuples, self.groups).with_seed(self.seed);
        generate_partitions(&spec, self.workers())
    }

    /// Compile the study's default query.
    pub fn plan(&self) -> QueryPlan {
        QueryPlan::new(&default_query())
    }

    /// Concatenate the partitions `owners` assigns to node `me` into
    /// one base heap file (ascending by partition id, matching the
    /// in-process runtime's reassignment layout).
    pub fn base_for(&self, partitions: &[HeapFile], owners: &[u32], me: u32) -> HeapFile {
        let page_bytes = partitions
            .first()
            .map(|p| p.page_bytes())
            .unwrap_or(4096);
        let owned = partitions
            .iter()
            .enumerate()
            .filter(|&(p, _)| owners.get(p).copied() == Some(me));
        HeapFile::concat(page_bytes, owned.map(|(_, part)| part)).expect("partitions of one page size")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec {
            nodes: 4,
            tuples: 900,
            groups: 12,
            seed: 42,
        }
    }

    #[test]
    fn partitions_are_deterministic_across_regenerations() {
        let a = spec().partitions();
        let b = spec().partitions();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tuple_count(), y.tuple_count());
            let xs: Vec<_> = x.iter_untracked().collect::<Result<_, _>>().unwrap();
            let ys: Vec<_> = y.iter_untracked().collect::<Result<_, _>>().unwrap();
            assert_eq!(xs, ys);
        }
    }

    #[test]
    fn base_for_collects_exactly_the_owned_partitions() {
        let s = spec();
        let parts = s.partitions();
        let owners = vec![1, 3, 3];
        let total: usize = parts.iter().map(|p| p.tuple_count()).sum();
        let b1 = s.base_for(&parts, &owners, 1);
        let b2 = s.base_for(&parts, &owners, 2);
        let b3 = s.base_for(&parts, &owners, 3);
        assert_eq!(b1.tuple_count(), parts[0].tuple_count());
        assert_eq!(b2.tuple_count(), 0);
        assert_eq!(b3.tuple_count(), total - parts[0].tuple_count());
    }
}
