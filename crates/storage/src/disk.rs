//! A node's simulated disk: named heap files + I/O counters.
//!
//! Each cluster node owns exactly one `SimDisk` ("one disk per node", the
//! paper's configuration). The disk is the home of the node's partition of
//! the base relation, its result file, and any overflow spill files. It
//! also aggregates I/O counters so a run can report per-node I/O volumes
//! (the `EXPERIMENTS.md` breakdowns).

use crate::error::StorageError;
use crate::heapfile::HeapFile;
use std::collections::BTreeMap;

/// Running totals of a disk's page I/O (event counts, not time).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounters {
    /// Sequential page reads.
    pub seq_reads: u64,
    /// Sequential page writes.
    pub seq_writes: u64,
    /// Random page reads.
    pub rand_reads: u64,
}

impl IoCounters {
    /// Total pages touched.
    pub fn total_pages(&self) -> u64 {
        self.seq_reads + self.seq_writes + self.rand_reads
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &IoCounters) {
        self.seq_reads += other.seq_reads;
        self.seq_writes += other.seq_writes;
        self.rand_reads += other.rand_reads;
    }
}

/// One node's disk: a namespace of heap files.
#[derive(Debug, Default)]
pub struct SimDisk {
    files: BTreeMap<String, HeapFile>,
}

impl SimDisk {
    /// An empty disk.
    pub fn new() -> Self {
        SimDisk::default()
    }

    /// A disk pre-loaded with the node's base-relation partition under the
    /// conventional name `"base"`.
    pub fn with_base_partition(partition: HeapFile) -> Self {
        let mut d = SimDisk::new();
        d.put("base", partition);
        d
    }

    /// Store (or replace) a file.
    pub fn put(&mut self, name: impl Into<String>, file: HeapFile) {
        self.files.insert(name.into(), file);
    }

    /// Borrow a file.
    pub fn get(&self, name: &str) -> Result<&HeapFile, StorageError> {
        self.files
            .get(name)
            .ok_or_else(|| StorageError::NoSuchFile(name.to_string()))
    }

    /// Mutably borrow a file, creating it empty (with the given page size)
    /// if absent.
    pub fn get_or_create(&mut self, name: &str, page_bytes: usize) -> &mut HeapFile {
        self.files
            .entry(name.to_string())
            .or_insert_with(|| HeapFile::new(page_bytes))
    }

    /// Remove a file, returning it.
    pub fn take(&mut self, name: &str) -> Result<HeapFile, StorageError> {
        self.files
            .remove(name)
            .ok_or_else(|| StorageError::NoSuchFile(name.to_string()))
    }

    /// Total pages across all files.
    pub fn total_pages(&self) -> usize {
        self.files.values().map(|f| f.page_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::Value;

    fn small_file(n: i64) -> HeapFile {
        let tuples: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i)]).collect();
        HeapFile::from_tuples(4096, tuples.iter().map(|t| t.as_slice())).unwrap()
    }

    #[test]
    fn put_get_take() {
        let mut d = SimDisk::new();
        d.put("base", small_file(5));
        assert_eq!(d.get("base").unwrap().tuple_count(), 5);
        assert!(d.get("missing").is_err());
        let f = d.take("base").unwrap();
        assert_eq!(f.tuple_count(), 5);
        assert!(d.get("base").is_err());
    }

    #[test]
    fn get_or_create_makes_empty_file() {
        let mut d = SimDisk::new();
        d.get_or_create("result", 4096)
            .append(&[Value::Int(1)])
            .unwrap();
        assert_eq!(d.get("result").unwrap().tuple_count(), 1);
    }

    #[test]
    fn with_base_partition_uses_conventional_name() {
        let d = SimDisk::with_base_partition(small_file(3));
        assert_eq!(d.get("base").unwrap().tuple_count(), 3);
        assert_eq!(d.files.keys().collect::<Vec<_>>(), ["base"]);
        assert_eq!(d.total_pages(), 1);
    }

    #[test]
    fn io_counters_arithmetic() {
        let mut a = IoCounters {
            seq_reads: 1,
            seq_writes: 2,
            rand_reads: 3,
        };
        let b = IoCounters {
            seq_reads: 10,
            seq_writes: 20,
            rand_reads: 30,
        };
        a.add(&b);
        assert_eq!(a.seq_reads, 11);
        assert_eq!(a.total_pages(), 66);
    }
}
