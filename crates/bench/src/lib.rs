//! # adaptagg-bench
//!
//! The figure-regeneration harness: one binary per table/figure of the
//! paper (see DESIGN.md §4 for the experiment index), sharing the
//! reporting helpers here. Wall-clock measurement lives in `benchmark/`
//! (BENCHMARK.json), not here.
//!
//! Figures 1–7 evaluate the analytical model (`adaptagg-cost`); Figures
//! 8–9 *run* the algorithms on the simulated cluster (`adaptagg-algos`)
//! and report elapsed **virtual** milliseconds. Absolute values are not
//! expected to match a 1995 SPARC cluster; the shapes and orderings are.
//!
//! Every binary accepts `--full` to use the paper's full data sizes
//! (2 M tuples for the implementation figures); the default is a scaled
//! run that finishes in seconds. `--help` prints usage.

pub mod ablations;
pub mod figures;
pub mod measured;
pub mod report;

pub use report::{Series, Table};

/// Flags shared by every figure binary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cli {
    /// Use the paper's full data sizes.
    pub full: bool,
    /// Emit CSV instead of the aligned table (for plotting tools).
    pub csv: bool,
}

impl Cli {
    /// Print a table per the `--csv` flag.
    pub fn print(&self, table: &report::Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
    }
}

/// Parse the common CLI convention used by every figure binary
/// (`--full`, `--csv`, `--help`).
pub fn parse_args(usage: &str) -> Cli {
    let mut cli = Cli::default();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => cli.full = true,
            "--csv" => cli.csv = true,
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    cli
}
