//! The host-speed probe: a fixed kernel of the harness's own, timed
//! between queries, that the batch timings are corrected with.
//!
//! Why it exists. The hosts this benchmark runs on are a few vCPUs of a
//! shared machine, and their speed moves by tens of percent for minutes at
//! a time with what the neighbours do to the shared cache: the same build
//! read 36 ms and 65 ms per `scan_lowcard` query a few minutes apart, with
//! no steal time reported. A wall clock alone then says more about the
//! neighbours than about the program. The probe is a small hash
//! aggregation (4 MB of keys streamed into a 2 MB table), slowed by the
//! same interference as the engine's own scans and probes; a pure compute
//! loop and a streaming sum were tried and did not track it. Dividing
//! each query's wall by the probe's wall on either side of it cut the
//! spread of ten runs' medians three- to five-fold in a loud hour.
//!
//! The probe calls nothing in the program, so no change to the program
//! can move it.

use std::time::Instant;

/// The probe's wall on a quiet host of the class this was sized on
/// (2 vCPUs of a 2.1 GHz Xeon). Corrected timings are scaled to it, so
/// they read as that host's milliseconds.
pub const NOMINAL_MS: f64 = 2.0;

const KEYS: usize = 1 << 19;
const TABLE_BITS: u32 = 18;

/// The probe's inputs, built once per process.
pub struct Probe {
    keys: Vec<u64>,
    table: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        // splitmix64 from a constant: the probe does not depend on `--seed`.
        let mut x = 0x1234_5678_9ABC_DEF0_u64;
        let keys = (0..KEYS)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        let mut probe = Probe {
            keys,
            table: vec![0; 1 << TABLE_BITS],
        };
        // Touch every page once, so that no sample pays for a page fault.
        probe.sample_ms();
        probe
    }

    /// Run the kernel once: its wall in milliseconds.
    pub fn sample_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        for &k in &self.keys {
            let slot = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TABLE_BITS)) as usize;
            self.table[slot] = self.table[slot].wrapping_add(k ^ (self.table[slot] >> 7));
        }
        std::hint::black_box(&self.table);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// A wall measured between two probe samples, scaled to the nominal host.
pub fn corrected(wall: f64, probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    wall * NOMINAL_MS / ((probe_before_ms + probe_after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_by_the_mean_of_the_two_samples() {
        // A host running at nominal speed leaves the wall alone.
        assert_eq!(corrected(40.0, NOMINAL_MS, NOMINAL_MS), 40.0);
        // Twice as slow on both sides: the wall halves.
        assert_eq!(corrected(40.0, 2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS), 20.0);
        // The two sides are averaged.
        assert_eq!(corrected(30.0, NOMINAL_MS, 2.0 * NOMINAL_MS), 20.0);
    }

    #[test]
    fn the_probe_repeats_and_takes_measurable_time() {
        let mut probe = Probe::new();
        let first = probe.table.clone();
        assert!(probe.sample_ms() > 0.0);
        // The table accumulates: a sample is never optimised away.
        assert_ne!(first, probe.table);
        assert_eq!(probe.keys.len(), KEYS);
    }
}
