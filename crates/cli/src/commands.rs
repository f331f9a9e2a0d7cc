//! Command implementations.

use crate::args::{RunArgs, ServeArgs, TraceFormat, Workload};
use adaptagg_algos::{run_algorithm, AlgorithmKind};
use adaptagg_cost::{recommend, CostAlgorithm, ModelConfig};
use adaptagg_exec::{ClusterConfig, ExecError, FaultPlan, RecoveryPolicy};
use adaptagg_model::{ticks_to_ms, CostParams, DataType, Field, Schema};
use adaptagg_sql::compile;
use adaptagg_storage::HeapFile;
use adaptagg_workload::{generate_partitions, RelationSpec, TpcdWorkload, ZipfSpec};

/// A command failure plus the process exit code it maps to. The exit
/// codes are a contract shared with the cluster binaries
/// (`adaptagg-coordinator` / `adaptagg-worker`): `0` success, `2` a
/// query that ran but exhausted fault recovery
/// ([`ExecError::RecoveryExhausted`]) — the cluster did its job and the
/// failure budget was genuinely spent — and `1` every other failure
/// (bad arguments, I/O, protocol bugs). Scripts and CI can therefore
/// tell "infrastructure broke" from "recovery was honestly exhausted".
#[derive(Debug)]
pub struct CmdError {
    /// Human-readable description, printed to stderr.
    pub message: String,
    /// Process exit code (1 or 2; 0 is never an error).
    pub exit_code: i32,
}

impl From<String> for CmdError {
    fn from(message: String) -> Self {
        CmdError {
            message,
            exit_code: 1,
        }
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// An execution failure as a command error, with its
/// [`ExecError::exit_code`].
pub fn exec_error(e: ExecError) -> CmdError {
    CmdError {
        message: e.to_string(),
        exit_code: e.exit_code(),
    }
}

/// The schema the selected workload generates.
pub fn schema(workload: Workload) -> Schema {
    match workload {
        Workload::Uniform | Workload::Zipf(_) => Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("pad", DataType::Str),
        ]),
        Workload::Tpcd => Schema::new(vec![
            Field::new("flag_status", DataType::Int),
            Field::new("orderkey", DataType::Int),
            Field::new("quantity", DataType::Int),
            Field::new("extendedprice", DataType::Int),
            Field::new("pad", DataType::Str),
        ]),
    }
}

/// Generate (or load) the partitions the selected workload describes,
/// honouring `--save-workload`/`--load-workload`.
fn partitions(args: &RunArgs) -> Result<Vec<HeapFile>, String> {
    if let Some(prefix) = &args.load_workload {
        let mut parts = Vec::with_capacity(args.nodes);
        for n in 0..args.nodes {
            let path = format!("{prefix}.node{n}.ahf");
            parts.push(
                adaptagg_storage::persist::load(&path)
                    .map_err(|e| format!("loading {path}: {e}"))?,
            );
        }
        return Ok(parts);
    }
    let parts = generate(args);
    if let Some(prefix) = &args.save_workload {
        for (n, part) in parts.iter().enumerate() {
            let path = format!("{prefix}.node{n}.ahf");
            adaptagg_storage::persist::save(part, &path)
                .map_err(|e| format!("saving {path}: {e}"))?;
        }
    }
    Ok(parts)
}

fn generate(args: &RunArgs) -> Vec<HeapFile> {
    match args.workload {
        Workload::Uniform => {
            let spec = RelationSpec::uniform(args.tuples, args.groups).with_seed(args.seed);
            generate_partitions(&spec, args.nodes)
        }
        Workload::Zipf(exponent) => {
            let mut spec = ZipfSpec::new(args.tuples, args.groups, exponent);
            spec.seed = args.seed;
            spec.generate_partitions(args.nodes)
        }
        Workload::Tpcd => {
            let mut w = TpcdWorkload::new(args.tuples);
            w.seed = args.seed;
            w.generate_partitions(args.nodes)
        }
    }
}

fn describe_workload(args: &RunArgs) -> String {
    match args.workload {
        Workload::Uniform => format!(
            "uniform: {} tuples, {} groups (S = {:.2e})",
            args.tuples,
            args.groups,
            args.groups as f64 / args.tuples.max(1) as f64
        ),
        Workload::Zipf(s) => format!(
            "zipf(s={s}): {} tuples, {} groups",
            args.tuples, args.groups
        ),
        Workload::Tpcd => format!(
            "tpcd: {} lineitems over {} orders",
            args.tuples,
            (args.tuples / 4).max(1)
        ),
    }
}

fn cost_params(args: &RunArgs) -> CostParams {
    CostParams {
        network: args.network,
        max_hash_entries: args.memory,
        ..CostParams::paper_default()
    }
}

/// Map the cost model's pick onto the execution engine's kinds.
fn to_engine(algo: CostAlgorithm) -> AlgorithmKind {
    match algo {
        CostAlgorithm::CentralizedTwoPhase => AlgorithmKind::CentralizedTwoPhase,
        CostAlgorithm::TwoPhase => AlgorithmKind::TwoPhase,
        CostAlgorithm::Repartitioning => AlgorithmKind::Repartitioning,
        CostAlgorithm::Sampling => AlgorithmKind::Sampling,
        CostAlgorithm::AdaptiveTwoPhase => AlgorithmKind::AdaptiveTwoPhase,
        CostAlgorithm::AdaptiveRepartitioning => AlgorithmKind::AdaptiveRepartitioning,
    }
}

/// Pick the strategy: the user's `--algo`, or §7's recommendation fed
/// with the workload's (known) group count.
fn pick_algorithm(args: &RunArgs) -> (AlgorithmKind, Option<&'static str>) {
    if let Some(kind) = args.algo {
        return (kind, None);
    }
    let model = ModelConfig {
        params: cost_params(args),
        nodes: args.nodes,
        tuples: args.tuples as f64,
        io_enabled: true,
    };
    let rec = recommend(&model, Some(args.groups as f64));
    (to_engine(rec.algorithm), Some(rec.rationale))
}

/// Build the fault plan `--fault-seed`/`--crash-node` describe.
fn fault_plan(args: &RunArgs) -> Option<FaultPlan> {
    let mut plan = match args.fault_seed {
        Some(seed) => FaultPlan::random(seed, args.nodes),
        None => {
            args.crash_node?;
            FaultPlan::none()
        }
    };
    if let Some(node) = args.crash_node {
        // Crash partway through the node's share of the scan.
        let at_tuple = (args.tuples / args.nodes.max(1) / 2).max(1) as u64;
        plan = plan.with_crash(node, at_tuple);
    }
    Some(plan)
}

/// `adaptagg run`.
pub fn cmd_run(args: &RunArgs) -> Result<(), CmdError> {
    let bound = compile(&args.sql, &schema(args.workload)).map_err(|e| e.to_string())?;
    let mut cluster = ClusterConfig::new(args.nodes, cost_params(args));
    let plan = fault_plan(args);
    if let Some(plan) = &plan {
        cluster = cluster.with_fault_plan(plan.clone());
    }
    if args.recovery {
        cluster = cluster.with_recovery(RecoveryPolicy::default());
    }
    if args.trace.is_some() {
        cluster = cluster.with_tracing();
    }
    let parts = partitions(args)?;

    let (kind, rationale) = pick_algorithm(args);
    println!("query     : {}", args.sql);
    println!("workload  : {} (seed {})", describe_workload(args), args.seed);
    println!(
        "cluster   : {} nodes, {:?}, M = {} entries",
        args.nodes, cluster.params.network, args.memory
    );
    if plan.is_some() || args.recovery {
        println!(
            "faults    : fault-seed {:?}, crash-node {:?}, recovery {}",
            args.fault_seed,
            args.crash_node,
            if args.recovery { "on" } else { "off (fail-stop)" }
        );
    }
    print!("algorithm : {kind}");
    match rationale {
        Some(r) => println!("  (auto: {r})"),
        None => println!(),
    }

    let out = run_algorithm(kind, &cluster, &parts, &bound.query).map_err(exec_error)?;

    println!("\n{}", bound.output_names.join(" | "));
    for row in out.rows.iter().take(10) {
        println!("{row}");
    }
    if out.rows.len() > 10 {
        println!("… {} more rows", out.rows.len() - 10);
    }
    let b = out.run.total_breakdown();
    println!(
        "\n{} rows in {:.1} virtual ms  (cluster totals: cpu {:.1}, io {:.1}, net {:.1}, wait {:.1})",
        out.rows.len(),
        out.elapsed_ms(),
        b.cpu_ms,
        b.io_ms,
        b.net_ms,
        b.wait_ms
    );
    if !out.adapted_nodes().is_empty() {
        println!("adapted nodes: {:?}", out.adapted_nodes());
    }
    let rec = &out.run.recovery;
    let work = out.run.total_recovery();
    if rec.recovered() || work.any() {
        println!(
            "recovery  : {} attempts, lost {:.1} ms + backoff {:.1} ms \
             (with recovery: {:.1} virtual ms)",
            rec.attempts,
            ticks_to_ms(rec.lost),
            ticks_to_ms(rec.backoff),
            out.run.elapsed_with_recovery_ms()
        );
        if !rec.dead_nodes.is_empty() {
            println!(
                "            dead nodes {:?}, {} partitions reassigned",
                rec.dead_nodes, rec.reassigned_partitions
            );
        }
        println!(
            "            checkpoints: {} pages / {} partial rows written, \
             {} rows restored, {} pages replayed",
            work.checkpoint_pages,
            work.checkpoint_partials,
            work.restored_partials,
            work.replayed_pages
        );
        let retries = out.run.total_net().send_retries;
        if retries > 0 {
            println!("            link sends retried: {retries}");
        }
    }
    if let (Some(fmt), Some(trace)) = (args.trace, &out.trace) {
        match fmt {
            TraceFormat::Json => println!("\n{}", trace.to_json()),
            TraceFormat::Text => println!("\ntrace\n{}", trace.to_text()),
        }
    }
    Ok(())
}

/// `adaptagg serve` — bind the listen address and run the multi-query
/// server until a client sends `shutdown`.
pub fn cmd_serve(args: &ServeArgs) -> Result<(), CmdError> {
    use adaptagg_serve::{serve, Dataset, Scheduler, ServeConfig};
    use std::sync::Arc;

    // The shared dataset every query runs over: immutable partitions,
    // generated once.
    let run_equiv = RunArgs {
        workload: args.workload,
        nodes: args.nodes,
        tuples: args.tuples,
        groups: args.groups,
        seed: args.seed,
        network: args.network,
        memory: args.memory,
        ..RunArgs::default()
    };
    let data = Arc::new(Dataset {
        schema: schema(args.workload),
        partitions: generate(&run_equiv),
    });

    let mut cfg = ServeConfig::new(args.memory);
    cfg.queue_capacity = args.queue;
    cfg.concurrency = args.concurrency;
    if args.min_grant > 0 {
        cfg.min_grant = args.min_grant.min(args.memory);
    }
    cfg.default_deadline = args.deadline_ms.map(std::time::Duration::from_millis);
    cfg.params = cost_params(&run_equiv);

    let proc = match &args.proc_cluster {
        Some(list) => {
            let cluster: Vec<std::net::SocketAddr> = list
                .split(',')
                .map(|a| {
                    a.parse()
                        .map_err(|e| format!("--proc-cluster: bad address {a:?}: {e}"))
                })
                .collect::<Result<_, String>>()?;
            let backend = adaptagg_serve::ProcBackend::connect(
                &cluster,
                args.tuples,
                args.groups,
                args.seed,
                adaptagg_cluster::CoordinatorOpts::default(),
            )
            .map_err(|e| format!("joining process mesh: {e}"))?;
            eprintln!(
                "[serve] process mesh established: {} workers",
                backend.spec().workers()
            );
            Some(Arc::new(backend))
        }
        None => None,
    };

    let listener = std::net::TcpListener::bind(&args.listen)
        .map_err(|e| format!("binding {}: {e}", args.listen))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // The loadgen (and CI) parse this line to learn the bound port.
    println!("adaptagg serve listening on {local}");
    println!(
        "dataset   : {} (seed {}), {} nodes, M = {} entries/node",
        describe_workload(&run_equiv),
        args.seed,
        args.nodes,
        args.memory
    );
    println!(
        "admission : queue {}, concurrency {}, min-grant {}, deadline {}",
        args.queue,
        args.concurrency,
        cfg.min_grant,
        match args.deadline_ms {
            Some(ms) => format!("{ms} ms"),
            None => "none".to_string(),
        }
    );

    let sched = Arc::new(Scheduler::new(cfg, data));
    let summary = serve(listener, sched, proc, |line| eprintln!("[serve] {line}"))
        .map_err(|e| e.to_string())?;
    let m = &summary.metrics;
    println!(
        "served    : {} submitted, {} completed, {} failed over {} connection(s)",
        m.submitted, m.completed, m.failed, summary.connections
    );
    println!(
        "shed      : {} queue_full, {} deadline_unmeetable, {} memory_exhausted",
        m.rejected_queue_full, m.rejected_deadline, m.rejected_memory
    );
    println!(
        "degraded  : {} admissions below full budget, {} recovered, {} deadline misses",
        m.degraded_admissions, m.recovered_queries, m.deadlines_missed
    );
    Ok(())
}

/// `adaptagg sweep`.
pub fn cmd_sweep(args: &RunArgs) -> Result<(), CmdError> {
    let bound = compile(&args.sql, &schema(args.workload)).map_err(|e| e.to_string())?;
    let cluster = ClusterConfig::new(args.nodes, cost_params(args));
    let kinds = AlgorithmKind::FIGURE8;

    println!(
        "sweep     : {} tuples, {} nodes, {:?}, M = {}",
        args.tuples, args.nodes, cluster.params.network, args.memory
    );
    print!("{:>10}", "groups");
    for k in kinds {
        print!(" {:>10}", k.label());
    }
    println!(" {:>8}", "winner");

    let mut g = 1usize;
    while g <= args.tuples / 2 {
        let spec = RelationSpec::uniform(args.tuples, g).with_seed(args.seed);
        let parts = generate_partitions(&spec, cluster.nodes);
        let mut times = Vec::new();
        for kind in kinds {
            let out =
                run_algorithm(kind, &cluster, &parts, &bound.query).map_err(exec_error)?;
            times.push(out.elapsed_ms());
        }
        let (wi, _) = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("nonempty");
        print!("{g:>10}");
        for t in &times {
            print!(" {t:>10.1}");
        }
        println!(" {:>8}", kinds[wi].label());
        g *= 16;
    }
    Ok(())
}

/// `adaptagg explain`.
pub fn cmd_explain(args: &RunArgs) -> Result<(), CmdError> {
    let bound = compile(&args.sql, &schema(args.workload)).map_err(|e| e.to_string())?;
    let model = ModelConfig {
        params: cost_params(args),
        nodes: args.nodes,
        tuples: args.tuples as f64,
        io_enabled: true,
    };
    let rec = recommend(&model, Some(args.groups as f64));

    println!("query         : {}", args.sql);
    println!("bound         : {}", bound.query);
    println!(
        "assumptions   : {} tuples, {} groups, {} nodes, {:?}, M = {}",
        args.tuples, args.groups, args.nodes, model.params.network, args.memory
    );
    println!("\npredicted cost (analytical model, §2–3):");
    for (algo, ms) in &rec.candidates {
        let marker = if *algo == rec.algorithm { " ← chosen" } else { "" };
        println!("  {:<6} {:>12.1} ms{marker}", algo.label(), ms);
    }
    println!("\nrecommendation: {} — {}", rec.algorithm.label(), rec.rationale);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_args() -> RunArgs {
        RunArgs {
            tuples: 4_000,
            groups: 50,
            nodes: 4,
            ..RunArgs::default()
        }
    }

    #[test]
    fn run_executes_end_to_end() {
        cmd_run(&small_args()).expect("run succeeds");
    }

    #[test]
    fn crashed_run_fails_fast_without_recovery_and_completes_with_it() {
        let mut a = small_args();
        a.crash_node = Some(1);
        let e = cmd_run(&a).unwrap_err();
        assert!(e.message.contains("crash"), "unexpected error: {e}");
        assert_eq!(e.exit_code, 1, "fail-stop crash is an ordinary failure");
        a.recovery = true;
        cmd_run(&a).expect("recovery must complete the crashed query");
    }

    #[test]
    fn seeded_fault_schedule_runs_under_recovery() {
        let mut a = small_args();
        a.fault_seed = Some(3);
        a.recovery = true;
        // Random schedules may legitimately exhaust recovery; anything
        // else (hang, panic, wrong attribution) fails the test harness.
        let _ = cmd_run(&a);
    }

    #[test]
    fn traced_run_executes_in_both_formats() {
        let mut a = small_args();
        a.memory = 16; // force an A2P switch so events render
        a.algo = Some(AlgorithmKind::AdaptiveTwoPhase);
        a.trace = Some(TraceFormat::Text);
        cmd_run(&a).expect("traced text run succeeds");
        a.trace = Some(TraceFormat::Json);
        cmd_run(&a).expect("traced json run succeeds");
    }

    #[test]
    fn explain_prints_candidates() {
        cmd_explain(&small_args()).expect("explain succeeds");
    }

    #[test]
    fn sweep_covers_the_range() {
        let mut a = small_args();
        a.tuples = 2_000;
        cmd_sweep(&a).expect("sweep succeeds");
    }

    #[test]
    fn save_then_load_workload_round_trips() {
        let dir = std::env::temp_dir().join("adaptagg_cli_workload");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("w").to_string_lossy().to_string();

        let mut a = small_args();
        a.save_workload = Some(prefix.clone());
        let generated = partitions(&a).unwrap();

        let mut b = small_args();
        b.load_workload = Some(prefix.clone());
        b.tuples = 1; // ignored on load
        let loaded = partitions(&b).unwrap();

        assert_eq!(generated.len(), loaded.len());
        for (g, l) in generated.iter().zip(&loaded) {
            assert_eq!(g.tuple_count(), l.tuple_count());
        }
        // And the loaded partitions run.
        cmd_run(&b).expect("run from loaded workload succeeds");
        for n in 0..a.nodes {
            let _ = std::fs::remove_file(format!("{prefix}.node{n}.ahf"));
        }
    }

    #[test]
    fn load_missing_workload_is_a_clean_error() {
        let mut a = small_args();
        a.load_workload = Some("/nonexistent/prefix".into());
        let e = cmd_run(&a).unwrap_err();
        assert!(e.message.contains("loading"));
    }

    #[test]
    fn tpcd_workload_binds_its_own_schema() {
        let mut a = small_args();
        a.workload = Workload::Tpcd;
        a.sql = "SELECT flag_status, SUM(quantity) FROM lineitem GROUP BY flag_status".into();
        cmd_run(&a).expect("tpcd run succeeds");
        // Uniform-schema SQL must fail against the tpcd schema.
        a.sql = "SELECT g, SUM(v) FROM r GROUP BY g".into();
        assert!(cmd_run(&a).is_err());
    }

    #[test]
    fn zipf_workload_runs() {
        let mut a = small_args();
        a.workload = Workload::Zipf(1.0);
        cmd_run(&a).expect("zipf run succeeds");
    }

    #[test]
    fn bad_sql_is_a_clean_error() {
        let mut a = small_args();
        a.sql = "SELECT nope FROM r GROUP BY nope".into();
        let e = cmd_run(&a).unwrap_err();
        assert!(e.message.contains("nope"));
    }

    #[test]
    fn auto_pick_small_groups_is_adaptive_two_phase() {
        let (kind, rationale) = pick_algorithm(&small_args());
        assert_eq!(kind, AlgorithmKind::AdaptiveTwoPhase);
        assert!(rationale.is_some());
    }

    #[test]
    fn recovery_exhaustion_maps_to_exit_code_2() {
        let exhausted = ExecError::RecoveryExhausted {
            attempts: 3,
            last: Box::new(ExecError::Protocol("boom")),
        };
        assert_eq!(exec_error(exhausted).exit_code, 2);
        assert_eq!(exec_error(ExecError::Protocol("boom")).exit_code, 1);
    }

    #[test]
    fn explicit_algo_is_respected() {
        let mut a = small_args();
        a.algo = Some(AlgorithmKind::Broadcast);
        let (kind, rationale) = pick_algorithm(&a);
        assert_eq!(kind, AlgorithmKind::Broadcast);
        assert!(rationale.is_none());
    }
}
