//! The process-mesh backend: serve repeated queries over a persistent
//! real-TCP worker cluster (PR 6's `adaptagg-worker` processes started
//! with `--serve`).
//!
//! The serving coordinator endpoint and its [`CoordinatorState`] live
//! behind one mutex: the mesh runs one query at a time (its workers
//! are real processes pinned to the spec's partitions), while the
//! in-process scheduler handles overlap. What persists across queries
//! is exactly what must: the workers' membership ledger — a worker
//! SIGKILLed during query `k` stays dead for query `k+1`, its
//! partitions remain reassigned — and the attempt counter, which keeps
//! rising so a stale ack can never open a later query's barrier.

use adaptagg_cluster::coordinator::{run_coordinated_query, CoordinatorState};
use adaptagg_cluster::{
    establish_endpoint, ClusterError, ClusterSpec, CoordinatorOpts, CoordinatorReport,
};
use adaptagg_net::Endpoint;
use std::net::SocketAddr;
use std::sync::Mutex;

/// A connected, persistent coordinator seat on a worker mesh.
pub struct ProcBackend {
    spec: ClusterSpec,
    opts: CoordinatorOpts,
    mesh: Mutex<(Endpoint, CoordinatorState)>,
}

impl ProcBackend {
    /// Bind `cluster[0]` and join the mesh as the coordinator. The
    /// workers must be started with the same `--cluster` list, matching
    /// workload flags, and `--serve`.
    pub fn connect(
        cluster: &[SocketAddr],
        tuples: usize,
        groups: usize,
        seed: u64,
        opts: CoordinatorOpts,
    ) -> Result<Self, ClusterError> {
        let spec = ClusterSpec {
            nodes: cluster.len(),
            tuples,
            groups,
            seed,
        };
        let endpoint = establish_endpoint(0, cluster, Default::default())?;
        let state = CoordinatorState::new(&spec);
        Ok(ProcBackend {
            spec,
            opts,
            mesh: Mutex::new((endpoint, state)),
        })
    }

    /// The spec the mesh agreed on.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Run the spec's default query once over the mesh, reusing the
    /// surviving workers. Serialized: concurrent callers queue on the
    /// mesh mutex.
    pub fn run_query(&self) -> Result<CoordinatorReport, ClusterError> {
        let mut mesh = self
            .mesh
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let (endpoint, state) = &mut *mesh;
        run_coordinated_query(endpoint, &self.spec, &self.opts, state, &mut |_| {})
    }

    /// Workers currently believed dead (cumulative).
    pub fn dead_workers(&self) -> Vec<usize> {
        let mesh = self
            .mesh
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        mesh.1.dead_workers().to_vec()
    }
}
