//! `adaptagg-coordinator` — node 0 of a real-process cluster: dispatch
//! attempts, merge partial aggregates, recover from dead workers.
//! Progress goes to stderr (line-timely under pipes); the result
//! summary goes to stdout.

use adaptagg_cluster::{binargs, run_coordinator, ClusterError, CoordinatorOpts};

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
    let args = binargs::parse(argv, true).map_err(ClusterError::Setup)?;
    if args.help {
        print!("{}", binargs::COORDINATOR_USAGE);
        return Ok(());
    }
    let spec = args.spec();
    let endpoint = adaptagg_cluster::establish_endpoint(0, &args.cluster, args.tcp_config())?;
    eprintln!("[coordinator] mesh established ({} nodes)", spec.nodes);
    let opts = CoordinatorOpts {
        attempt_timeout: args.attempt_timeout,
    };
    let report = run_coordinator(endpoint, &spec, &opts, &mut |line| {
        eprintln!("[coordinator] {line}");
    })?;
    println!("rows: {}", report.rows.len());
    println!("attempts: {}", report.attempts);
    println!("dead_workers: {:?}", report.dead_workers);
    println!("reassigned_partitions: {}", report.reassigned_partitions);
    Ok(())
}
