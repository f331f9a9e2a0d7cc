//! Hand-rolled argument parsing shared by the two cluster binaries
//! (this workspace takes no CLI dependency).

use crate::spec::ClusterSpec;
use adaptagg_net::TcpConfig;
use std::net::SocketAddr;
use std::time::Duration;

/// Usage text for `adaptagg-coordinator`.
pub const COORDINATOR_USAGE: &str = "\
adaptagg-coordinator — run one aggregation query across real processes

USAGE:
  adaptagg-coordinator --cluster ADDR0,ADDR1,... [OPTIONS]

  ADDR0 is this coordinator's listen address; ADDR1.. are the workers'
  (start each worker with the same --cluster list and its --node index).

OPTIONS:
  --tuples N                relation cardinality        [default: 20000]
  --groups N                distinct groups             [default: 64]
  --seed N                  workload seed               [default: 1]
  --attempt-timeout-ms N    per-attempt deadline        [default: 30000]
  --heartbeat-ms N          heartbeat interval          [default: 50]
  --heartbeat-timeout-ms N  silence = death threshold   [default: 2000]

EXIT CODES:
  0  success
  2  the query ran but fault recovery was exhausted
  1  any other failure (arguments, connectivity, execution)
";

/// Usage text for `adaptagg-worker`.
pub const WORKER_USAGE: &str = "\
adaptagg-worker — serve one worker node of an adaptagg cluster

USAGE:
  adaptagg-worker --node I --cluster ADDR0,ADDR1,... [OPTIONS]

  --node I selects this worker's address (and partition) from the
  cluster list; node 0 is the coordinator. Workload options must match
  the coordinator's — every process regenerates the data from them.

OPTIONS:
  --tuples N                relation cardinality        [default: 20000]
  --groups N                distinct groups             [default: 64]
  --seed N                  workload seed               [default: 1]
  --idle-timeout-ms N       exit if coordinator silent  [default: 120000]
  --slow-scan-ms N          test hook: delay each scan  [default: 0]
  --heartbeat-ms N          heartbeat interval          [default: 50]
  --heartbeat-timeout-ms N  silence = death threshold   [default: 2000]
  --serve                   serving mode: keep taking queries after
                            Finish; exit 0 when the coordinator leaves

EXIT CODES:
  0  coordinator announced completion (serving: coordinator left)
  1  any failure (arguments, connectivity, coordinator death)
";

/// Parsed arguments for either binary.
#[derive(Debug, Clone)]
pub struct BinArgs {
    /// This process's node id (0 for the coordinator).
    pub node: usize,
    /// Every node's listen address, in node order.
    pub cluster: Vec<SocketAddr>,
    pub tuples: usize,
    pub groups: usize,
    pub seed: u64,
    pub attempt_timeout: Duration,
    pub idle_timeout: Duration,
    pub slow_scan: Duration,
    pub heartbeat_interval: Duration,
    pub heartbeat_timeout: Duration,
    /// Worker serving mode (`--serve`).
    pub serve: bool,
    /// `--help` was requested.
    pub help: bool,
}

impl BinArgs {
    /// The cluster spec all processes must agree on.
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec {
            nodes: self.cluster.len(),
            tuples: self.tuples,
            groups: self.groups,
            seed: self.seed,
        }
    }

    /// Transport config derived from the heartbeat flags. Seeded by the
    /// node id so concurrent processes jitter their reconnect backoff
    /// differently.
    pub fn tcp_config(&self) -> TcpConfig {
        let mut cfg = TcpConfig::default().with_seed(self.seed ^ self.node as u64);
        cfg.heartbeat_interval = self.heartbeat_interval;
        cfg.heartbeat_timeout = self.heartbeat_timeout;
        cfg
    }
}

/// Parse `argv` (without the program name). `coordinator` toggles the
/// flags each binary accepts.
pub fn parse(argv: &[String], coordinator: bool) -> Result<BinArgs, String> {
    let mut args = BinArgs {
        node: if coordinator { 0 } else { usize::MAX },
        cluster: Vec::new(),
        tuples: 20_000,
        groups: 64,
        seed: 1,
        attempt_timeout: Duration::from_millis(30_000),
        idle_timeout: Duration::from_millis(120_000),
        slow_scan: Duration::ZERO,
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(2_000),
        serve: false,
        help: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h" | "help") {
            args.help = true;
            return Ok(args);
        }
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cluster" => {
                args.cluster = value("--cluster")?
                    .split(',')
                    .map(|a| {
                        a.parse::<SocketAddr>()
                            .map_err(|e| format!("bad address {a:?}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--node" if !coordinator => {
                args.node = parse_num(value("--node")?, "--node")?;
            }
            "--tuples" => args.tuples = parse_num(value("--tuples")?, "--tuples")?,
            "--groups" => args.groups = parse_num(value("--groups")?, "--groups")?,
            "--seed" => args.seed = parse_num(value("--seed")?, "--seed")?,
            "--attempt-timeout-ms" if coordinator => {
                args.attempt_timeout =
                    Duration::from_millis(parse_num(value("--attempt-timeout-ms")?, "--attempt-timeout-ms")?);
            }
            "--idle-timeout-ms" if !coordinator => {
                args.idle_timeout =
                    Duration::from_millis(parse_num(value("--idle-timeout-ms")?, "--idle-timeout-ms")?);
            }
            "--slow-scan-ms" if !coordinator => {
                args.slow_scan =
                    Duration::from_millis(parse_num(value("--slow-scan-ms")?, "--slow-scan-ms")?);
            }
            "--serve" if !coordinator => args.serve = true,
            "--heartbeat-ms" => {
                args.heartbeat_interval =
                    Duration::from_millis(parse_num(value("--heartbeat-ms")?, "--heartbeat-ms")?);
            }
            "--heartbeat-timeout-ms" => {
                args.heartbeat_timeout =
                    Duration::from_millis(parse_num(value("--heartbeat-timeout-ms")?, "--heartbeat-timeout-ms")?);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.cluster.len() < 2 {
        return Err("--cluster needs at least two addresses (coordinator + 1 worker)".into());
    }
    if coordinator {
        args.node = 0;
    } else {
        if args.node == usize::MAX {
            return Err("--node is required for workers".into());
        }
        if args.node == 0 || args.node >= args.cluster.len() {
            return Err(format!(
                "--node must be in 1..{} (0 is the coordinator)",
                args.cluster.len()
            ));
        }
    }
    if args.tuples == 0 || args.groups == 0 {
        return Err("--tuples and --groups must be positive".into());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse::<T>()
        .map_err(|_| format!("{flag}: not a valid number: {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn coordinator_args_parse_with_defaults() {
        let a = parse(
            &sv(&["--cluster", "127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002"]),
            true,
        )
        .unwrap();
        assert_eq!(a.node, 0);
        assert_eq!(a.cluster.len(), 3);
        assert_eq!(a.spec().workers(), 2);
        assert_eq!(a.tuples, 20_000);
    }

    #[test]
    fn worker_requires_a_valid_node_index() {
        let base = ["--cluster", "127.0.0.1:7000,127.0.0.1:7001"];
        assert!(parse(&sv(&base), false).unwrap_err().contains("--node"));
        let mut with0 = sv(&base);
        with0.extend(sv(&["--node", "0"]));
        assert!(parse(&with0, false).unwrap_err().contains("coordinator"));
        let mut ok = sv(&base);
        ok.extend(sv(&["--node", "1", "--slow-scan-ms", "250"]));
        let a = parse(&ok, false).unwrap();
        assert_eq!(a.node, 1);
        assert_eq!(a.slow_scan, Duration::from_millis(250));
    }

    #[test]
    fn unknown_and_misaddressed_flags_are_rejected() {
        assert!(parse(&sv(&["--bogus"]), true).is_err());
        // A worker-only flag is unknown to the coordinator.
        let r = parse(
            &sv(&["--cluster", "127.0.0.1:1,127.0.0.1:2", "--slow-scan-ms", "5"]),
            true,
        );
        assert!(r.is_err());
        // One execution lane per node: `adaptagg-worker` takes no `--threads`.
        let r = parse(
            &sv(&["--cluster", "127.0.0.1:1,127.0.0.1:2", "--node", "1", "--threads", "2"]),
            false,
        );
        assert!(r.unwrap_err().contains("unknown flag \"--threads\""));
        assert!(parse(&sv(&["--cluster", "notanaddr,127.0.0.1:2"]), true)
            .unwrap_err()
            .contains("bad address"));
    }

    #[test]
    fn heartbeat_flags_reach_the_tcp_config() {
        let a = parse(
            &sv(&[
                "--cluster",
                "127.0.0.1:7000,127.0.0.1:7001",
                "--heartbeat-ms",
                "25",
                "--heartbeat-timeout-ms",
                "700",
            ]),
            true,
        )
        .unwrap();
        let cfg = a.tcp_config();
        assert_eq!(cfg.heartbeat_interval, Duration::from_millis(25));
        assert_eq!(cfg.heartbeat_timeout, Duration::from_millis(700));
    }
}
