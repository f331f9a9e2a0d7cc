//! Hand-rolled argument parsing (the offline dependency set has no CLI
//! parser; the grammar is small enough that one is not missed).

use adaptagg_algos::AlgorithmKind;
use adaptagg_model::NetworkKind;
use std::fmt;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run` — execute one query on the simulated cluster.
    Run(RunArgs),
    /// `sweep` — run the figure-8-style group-count sweep.
    Sweep(RunArgs),
    /// `explain` — evaluate the cost model and print the recommendation.
    Explain(RunArgs),
    /// `serve` — run the long-lived multi-query server.
    Serve(ServeArgs),
    /// `help` — print usage.
    Help,
}

/// Knobs for `adaptagg serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// TCP listen address for the line protocol.
    pub listen: String,
    /// Virtual cluster size each query runs over.
    pub nodes: usize,
    /// Relation size in tuples.
    pub tuples: usize,
    /// Group count (uniform workload).
    pub groups: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// The data generator.
    pub workload: Workload,
    /// Per-node hash budget M the broker divides among active queries.
    pub memory: usize,
    /// Network model.
    pub network: NetworkKind,
    /// Admission queue capacity; beyond it queries are shed
    /// (`queue_full`).
    pub queue: usize,
    /// Executor threads (queries running concurrently).
    pub concurrency: usize,
    /// Admission floor: reject (`memory_exhausted`) rather than grant
    /// less than this. 0 means memory/8.
    pub min_grant: usize,
    /// Default per-query deadline, applied when the request sets none.
    pub deadline_ms: Option<u64>,
    /// Comma-separated mesh addresses: attach a real-process worker
    /// cluster and answer `proc` commands over it.
    pub proc_cluster: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            listen: "127.0.0.1:7878".to_string(),
            nodes: 8,
            tuples: 100_000,
            groups: 1_000,
            seed: 0x5eed,
            workload: Workload::Uniform,
            memory: 10_000,
            network: NetworkKind::ethernet_default(),
            queue: 32,
            concurrency: 4,
            min_grant: 0,
            deadline_ms: None,
            proc_cluster: None,
        }
    }
}

/// Which generator feeds the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Uniform group frequencies over `--groups` groups (schema
    /// `g, v, pad`).
    Uniform,
    /// Zipf(s)-distributed group frequencies (same schema).
    Zipf(f64),
    /// TPC-D-flavoured lineitem slice (schema `flag_status, orderkey,
    /// quantity, extendedprice, pad`); `--groups` is ignored.
    Tpcd,
}

/// How to print the run trace (`--trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The `adaptagg-trace/v1` JSON document.
    Json,
    /// A per-node, per-phase text breakdown.
    Text,
}

/// The shared knob set.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// SQL text (defaults to the study's standard query).
    pub sql: String,
    /// The data generator.
    pub workload: Workload,
    /// Cluster size.
    pub nodes: usize,
    /// Relation size in tuples.
    pub tuples: usize,
    /// Group count (uniform workload).
    pub groups: usize,
    /// Strategy, or `None` for the §7 recommendation.
    pub algo: Option<AlgorithmKind>,
    /// Network model.
    pub network: NetworkKind,
    /// Hash-table budget `M` in entries.
    pub memory: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Save the generated partitions to `<prefix>.nodeN.ahf` files.
    pub save_workload: Option<String>,
    /// Load partitions from `<prefix>.nodeN.ahf` files instead of
    /// generating (`--workload`/`--tuples`/`--groups` are then ignored).
    pub load_workload: Option<String>,
    /// Seed a randomized fault schedule over the cluster.
    pub fault_seed: Option<u64>,
    /// Crash this node partway through its scan.
    pub crash_node: Option<usize>,
    /// Enable query-level fault recovery (checkpoint + retry).
    pub recovery: bool,
    /// Run with tracing enabled and print the trace (`run` only).
    pub trace: Option<TraceFormat>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            sql: "SELECT g, SUM(v), COUNT(*) FROM r GROUP BY g".to_string(),
            workload: Workload::Uniform,
            nodes: 8,
            tuples: 100_000,
            groups: 1_000,
            algo: None,
            network: NetworkKind::ethernet_default(),
            memory: 10_000,
            seed: 0x5eed,
            save_workload: None,
            load_workload: None,
            fault_seed: None,
            crash_node: None,
            recovery: false,
            trace: None,
        }
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Usage text.
pub const USAGE: &str = "\
adaptagg — adaptive parallel aggregation on a simulated shared-nothing cluster

USAGE:
  adaptagg run     [OPTIONS]   execute one query, print results + timing
  adaptagg sweep   [OPTIONS]   sweep group counts, compare all strategies
  adaptagg explain [OPTIONS]   cost-model prediction + recommendation
  adaptagg serve   [OPTIONS]   long-lived multi-query server (see below)
  adaptagg help                this text

OPTIONS:
  --sql <QUERY>       SQL over schema (g INT, v INT, pad STR)
                      [default: SELECT g, SUM(v), COUNT(*) FROM r GROUP BY g]
  --nodes <N>         cluster size                    [default: 8]
  --tuples <N>        relation size                   [default: 100000]
  --groups <N>        distinct groups                 [default: 1000]
  --algo <A>          c2p|2p|rep|samp|a2p|arep|opt2p|sort2p|bcast
                      [default: the §7 recommendation]
  --workload <W>      uniform | zipf:<s> | tpcd       [default: uniform]
                      (tpcd schema: flag_status, orderkey, quantity,
                       extendedprice, pad)
  --network <NET>     fast | ethernet                 [default: ethernet]
  --memory <N>        hash-table budget M, entries    [default: 10000]
  --seed <N>          workload seed                   [default: 24301]
  --save-workload <P> save generated partitions to <P>.nodeN.ahf
  --load-workload <P> load partitions from <P>.nodeN.ahf (skips generation)
  --fault-seed <N>    inject a seeded random fault schedule (run only)
  --crash-node <N>    crash node N partway through its scan (run only)
  --recovery          recover from node failures instead of failing fast
  --trace <FMT>       json | text — run with tracing on and print the
                      phase spans, switch events, metrics and per-link
                      traffic (run only)

SERVE OPTIONS (adaptagg serve):
  --listen <ADDR>     TCP listen address               [default: 127.0.0.1:7878]
  --nodes, --tuples, --groups, --workload, --memory, --network, --seed
                      as above: the shared dataset and per-node budget M
  --queue <N>         admission queue capacity         [default: 32]
  --concurrency <N>   queries running at once          [default: 4]
  --min-grant <N>     admission floor in entries       [default: memory/8]
  --deadline-ms <N>   default per-query deadline       [default: none]
  --proc-cluster <A0,A1,...>
                      attach a real-process worker mesh (workers started
                      with adaptagg-worker --serve) and answer 'proc'
                      commands over it

  Protocol: one request per line — optional 'key=value;' options
  (deadline_ms, stall_ms, algo, trace, fault_seed, crash_node,
  recovery) then SQL; or the bare commands ping / metrics / proc /
  shutdown. One JSON response line per request with \"status\":
  \"ok\" | \"rejected\" | \"failed\"; rejected responses carry a typed
  reason: queue_full | deadline_unmeetable | memory_exhausted.

EXIT CODES:
  0  success
  2  the query ran but fault recovery was exhausted (--recovery)
  1  any other failure (arguments, I/O, execution)
";

/// Parse `argv[1..]`.
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => Ok(Command::Run(parse_run_args(&args[1..])?)),
        "sweep" => Ok(Command::Sweep(parse_run_args(&args[1..])?)),
        "explain" => Ok(Command::Explain(parse_run_args(&args[1..])?)),
        "serve" => Ok(Command::Serve(parse_serve_args(&args[1..])?)),
        other => Err(ArgError(format!("unknown command '{other}'; try 'adaptagg help'"))),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, ArgError> {
    let mut out = RunArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Result<&str, ArgError> {
            args.get(i + 1)
                .map(|s| s.as_str())
                .ok_or_else(|| ArgError(format!("{flag} needs a value")))
        };
        match flag {
            "--sql" => out.sql = value(i)?.to_string(),
            "--nodes" => out.nodes = parse_num(flag, value(i)?)?,
            "--tuples" => out.tuples = parse_num(flag, value(i)?)?,
            "--groups" => out.groups = parse_num(flag, value(i)?)?,
            "--memory" => out.memory = parse_num(flag, value(i)?)?,
            "--seed" => out.seed = parse_num(flag, value(i)?)? as u64,
            "--algo" => out.algo = Some(parse_algo(value(i)?)?),
            "--workload" => out.workload = parse_workload(value(i)?)?,
            "--save-workload" => out.save_workload = Some(value(i)?.to_string()),
            "--load-workload" => out.load_workload = Some(value(i)?.to_string()),
            "--fault-seed" => out.fault_seed = Some(parse_num(flag, value(i)?)? as u64),
            "--crash-node" => out.crash_node = Some(parse_num(flag, value(i)?)?),
            "--trace" => {
                out.trace = Some(match value(i)? {
                    "json" => TraceFormat::Json,
                    "text" => TraceFormat::Text,
                    other => {
                        return Err(ArgError(format!(
                            "--trace must be 'json' or 'text', not '{other}'"
                        )))
                    }
                })
            }
            "--recovery" => {
                out.recovery = true;
                i += 1;
                continue;
            }
            "--network" => {
                out.network = match value(i)? {
                    "fast" => NetworkKind::high_speed_default(),
                    "ethernet" => NetworkKind::ethernet_default(),
                    other => {
                        return Err(ArgError(format!(
                            "--network must be 'fast' or 'ethernet', not '{other}'"
                        )))
                    }
                }
            }
            other => return Err(ArgError(format!("unknown option '{other}'"))),
        }
        i += 2;
    }
    if out.nodes == 0 {
        return Err(ArgError("--nodes must be at least 1".into()));
    }
    Ok(out)
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, ArgError> {
    let mut out = ServeArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Result<&str, ArgError> {
            args.get(i + 1)
                .map(|s| s.as_str())
                .ok_or_else(|| ArgError(format!("{flag} needs a value")))
        };
        match flag {
            "--listen" => out.listen = value(i)?.to_string(),
            "--nodes" => out.nodes = parse_num(flag, value(i)?)?,
            "--tuples" => out.tuples = parse_num(flag, value(i)?)?,
            "--groups" => out.groups = parse_num(flag, value(i)?)?,
            "--memory" => out.memory = parse_num(flag, value(i)?)?,
            "--seed" => out.seed = parse_num(flag, value(i)?)? as u64,
            "--workload" => out.workload = parse_workload(value(i)?)?,
            "--queue" => out.queue = parse_num(flag, value(i)?)?,
            "--concurrency" => out.concurrency = parse_num(flag, value(i)?)?,
            "--min-grant" => out.min_grant = parse_num(flag, value(i)?)?,
            "--deadline-ms" => out.deadline_ms = Some(parse_num(flag, value(i)?)? as u64),
            "--proc-cluster" => out.proc_cluster = Some(value(i)?.to_string()),
            "--network" => {
                out.network = match value(i)? {
                    "fast" => NetworkKind::high_speed_default(),
                    "ethernet" => NetworkKind::ethernet_default(),
                    other => {
                        return Err(ArgError(format!(
                            "--network must be 'fast' or 'ethernet', not '{other}'"
                        )))
                    }
                }
            }
            other => return Err(ArgError(format!("unknown option '{other}'"))),
        }
        i += 2;
    }
    if out.nodes == 0 {
        return Err(ArgError("--nodes must be at least 1".into()));
    }
    if out.memory == 0 {
        return Err(ArgError("--memory must be at least 1".into()));
    }
    if out.concurrency == 0 {
        return Err(ArgError("--concurrency must be at least 1".into()));
    }
    Ok(out)
}

fn parse_num(flag: &str, s: &str) -> Result<usize, ArgError> {
    s.replace('_', "")
        .parse()
        .map_err(|_| ArgError(format!("{flag}: '{s}' is not a number")))
}

fn parse_workload(s: &str) -> Result<Workload, ArgError> {
    match s {
        "uniform" => Ok(Workload::Uniform),
        "tpcd" => Ok(Workload::Tpcd),
        other => {
            if let Some(exp) = other.strip_prefix("zipf:") {
                let exp: f64 = exp
                    .parse()
                    .map_err(|_| ArgError(format!("zipf exponent '{exp}' is not a number")))?;
                if exp < 0.0 {
                    return Err(ArgError("zipf exponent must be non-negative".into()));
                }
                Ok(Workload::Zipf(exp))
            } else {
                Err(ArgError(format!(
                    "--workload must be uniform, zipf:<s>, or tpcd, not '{other}'"
                )))
            }
        }
    }
}

fn parse_algo(s: &str) -> Result<AlgorithmKind, ArgError> {
    AlgorithmKind::from_name(s).ok_or_else(|| ArgError(format!("unknown algorithm '{s}'; see 'adaptagg help'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_with_defaults() {
        match parse(&argv("run")).unwrap() {
            Command::Run(a) => {
                assert_eq!(a.nodes, 8);
                assert_eq!(a.tuples, 100_000);
                assert!(a.algo.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_flag_set() {
        let cmd = parse(&argv(
            "run --nodes 4 --tuples 50_000 --groups 77 --algo arep --network fast --memory 512 --seed 9",
        ))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.nodes, 4);
                assert_eq!(a.tuples, 50_000);
                assert_eq!(a.groups, 77);
                assert_eq!(a.algo, Some(AlgorithmKind::AdaptiveRepartitioning));
                assert!(!a.network.is_shared());
                assert_eq!(a.memory, 512);
                assert_eq!(a.seed, 9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sql_flag_takes_one_argument() {
        // The shell would keep a quoted query as one argv entry.
        let args = vec![
            "run".to_string(),
            "--sql".to_string(),
            "SELECT DISTINCT g FROM r".to_string(),
        ];
        match parse(&args).unwrap() {
            Command::Run(a) => assert_eq!(a.sql, "SELECT DISTINCT g FROM r"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_algo_spellings() {
        for (s, k) in [
            ("c2p", AlgorithmKind::CentralizedTwoPhase),
            ("2p", AlgorithmKind::TwoPhase),
            ("rep", AlgorithmKind::Repartitioning),
            ("samp", AlgorithmKind::Sampling),
            ("A2P", AlgorithmKind::AdaptiveTwoPhase),
            ("a-rep", AlgorithmKind::AdaptiveRepartitioning),
            ("opt2p", AlgorithmKind::OptimizedTwoPhase),
            ("sort-2p", AlgorithmKind::SortTwoPhase),
            ("broadcast", AlgorithmKind::Broadcast),
        ] {
            assert_eq!(parse_algo(s).unwrap(), k, "{s}");
        }
    }

    #[test]
    fn workload_flag_parses() {
        match parse(&argv("run --workload zipf:1.2")).unwrap() {
            Command::Run(a) => assert_eq!(a.workload, Workload::Zipf(1.2)),
            other => panic!("{other:?}"),
        }
        match parse(&argv("run --workload tpcd")).unwrap() {
            Command::Run(a) => assert_eq!(a.workload, Workload::Tpcd),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("run --workload zipf:x")).is_err());
        assert!(parse(&argv("run --workload zipf:-1")).is_err());
        assert!(parse(&argv("run --workload pareto")).is_err());
    }

    #[test]
    fn fault_flags_parse() {
        match parse(&argv("run --fault-seed 42 --crash-node 2 --recovery --nodes 4")).unwrap() {
            Command::Run(a) => {
                assert_eq!(a.fault_seed, Some(42));
                assert_eq!(a.crash_node, Some(2));
                assert!(a.recovery);
                // --recovery is a boolean: the flag after it still parses.
                assert_eq!(a.nodes, 4);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("run")).unwrap() {
            Command::Run(a) => {
                assert_eq!(a.fault_seed, None);
                assert_eq!(a.crash_node, None);
                assert!(!a.recovery);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_flag_parses() {
        match parse(&argv("run --trace json")).unwrap() {
            Command::Run(a) => assert_eq!(a.trace, Some(TraceFormat::Json)),
            other => panic!("{other:?}"),
        }
        match parse(&argv("run --trace text --nodes 2")).unwrap() {
            Command::Run(a) => {
                assert_eq!(a.trace, Some(TraceFormat::Text));
                assert_eq!(a.nodes, 2);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("run")).unwrap() {
            Command::Run(a) => assert_eq!(a.trace, None),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("run --trace xml")).unwrap_err().0.contains("xml"));
        assert!(parse(&argv("run --trace")).unwrap_err().0.contains("--trace"));
    }

    #[test]
    fn serve_args_parse() {
        match parse(&argv("serve")).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.listen, "127.0.0.1:7878");
                assert_eq!(a.queue, 32);
                assert_eq!(a.concurrency, 4);
                assert_eq!(a.min_grant, 0);
                assert_eq!(a.deadline_ms, None);
                assert!(a.proc_cluster.is_none());
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "serve --listen 127.0.0.1:0 --nodes 4 --memory 800 --queue 2 \
             --concurrency 2 --min-grant 100 --deadline-ms 5000 \
             --proc-cluster 127.0.0.1:9000,127.0.0.1:9001",
        ))
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.listen, "127.0.0.1:0");
                assert_eq!(a.nodes, 4);
                assert_eq!(a.memory, 800);
                assert_eq!(a.queue, 2);
                assert_eq!(a.concurrency, 2);
                assert_eq!(a.min_grant, 100);
                assert_eq!(a.deadline_ms, Some(5000));
                assert_eq!(
                    a.proc_cluster.as_deref(),
                    Some("127.0.0.1:9000,127.0.0.1:9001")
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --memory 0")).is_err());
        assert!(parse(&argv("serve --concurrency 0")).is_err());
        assert!(parse(&argv("serve --sql x")).is_err());
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(&argv("frobnicate")).unwrap_err().0.contains("frobnicate"));
        assert!(parse(&argv("run --nodes")).unwrap_err().0.contains("--nodes"));
        assert!(parse(&argv("run --nodes zero")).unwrap_err().0.contains("zero"));
        assert!(parse(&argv("run --algo quantum")).unwrap_err().0.contains("quantum"));
        assert!(parse(&argv("run --network token-ring")).unwrap_err().0.contains("token-ring"));
        assert!(parse(&argv("run --nodes 0")).unwrap_err().0.contains("at least 1"));
        // One execution lane per node: there is no thread count to set.
        for cmd in ["run --threads 4", "serve --threads 2"] {
            assert!(parse(&argv(cmd)).unwrap_err().0.contains("unknown option '--threads'"));
        }
    }
}
