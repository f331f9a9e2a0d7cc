//! `adaptagg-worker` — one worker node of a real-process cluster: scan
//! and pre-aggregate the owned partitions, ship partials to the
//! coordinator, repeat under recovery until the coordinator announces
//! completion.

use adaptagg_cluster::{binargs, run_worker, ClusterError, WorkerOpts};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

fn run(argv: &[String]) -> Result<(), ClusterError> {
    let args = binargs::parse(argv, false).map_err(ClusterError::Setup)?;
    if args.help {
        print!("{}", binargs::WORKER_USAGE);
        return Ok(());
    }
    let spec = args.spec();
    let node = args.node;
    let endpoint = adaptagg_cluster::establish_endpoint(node, &args.cluster, args.tcp_config())?;
    eprintln!("[worker {node}] mesh established ({} nodes)", spec.nodes);
    let opts = WorkerOpts {
        idle_timeout: args.idle_timeout,
        slow_scan: args.slow_scan,
        serve: args.serve,
    };
    let report = run_worker(endpoint, &spec, &opts, &mut |line| {
        eprintln!("[worker {node}] {line}");
    })?;
    println!("attempts_run: {}", report.attempts_run);
    println!("rows: {}", report.rows_reported);
    println!("queries_finished: {}", report.queries_finished);
    Ok(())
}
