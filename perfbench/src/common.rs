//! Pieces shared by the workloads: per-pass statistics, the measured
//! phase's accumulators, and the seeded page pattern.

use aquila_sim::{Breakdown, Counters, Cycles, RunReport};

/// Statistics of one configuration over a set of measured passes.
#[derive(Default, Clone)]
pub struct Acc {
    pub ops: u64,
    /// Sum of the passes' DES makespans.
    pub makespan: u64,
    pub breakdown: Breakdown,
    pub counters: Counters,
    /// Per-operation virtual latencies in cycles (harness-timed).
    pub lat: Vec<u64>,
}

impl Acc {
    pub fn add_run(&mut self, ops: u64, report: &RunReport, lat: &[u64]) {
        self.ops += ops;
        self.makespan += report.makespan.get();
        self.breakdown.merge(&report.breakdown);
        self.counters.merge(&report.counters);
        self.lat.extend_from_slice(lat);
    }

    /// Thousands of operations per virtual second.
    pub fn kops(&self) -> f64 {
        self.ops as f64 / Cycles(self.makespan).as_secs_f64() / 1e3
    }

    /// Sorted latency samples.
    pub fn sorted_lat(&self) -> Vec<u64> {
        let mut v = self.lat.clone();
        v.sort_unstable();
        v
    }

    /// Cycles of `cat` per operation.
    pub fn cyc_per_op(&self, cats: &[aquila_sim::CostCat]) -> f64 {
        let c: u64 = cats.iter().map(|&c| self.breakdown.get(c).get()).sum();
        c as f64 / self.ops.max(1) as f64
    }

    /// `n` per operation.
    pub fn per_op(&self, n: u64) -> f64 {
        n as f64 / self.ops.max(1) as f64
    }
}

/// Host-clock throughput of measured passes: the median of the passes'
/// own rates, so a burst of host interference moves one pass, not the
/// whole figure.
#[derive(Default, Clone)]
pub struct HostAcc {
    rates: Vec<f64>,
}

impl HostAcc {
    pub fn add(&mut self, ops: u64, secs: f64) {
        if secs > 0.0 {
            self.rates.push(ops as f64 / secs / 1e3);
        }
    }

    /// Median thousands of operations per host second (0 with no pass).
    pub fn kops(&self) -> f64 {
        if self.rates.is_empty() {
            0.0
        } else {
            crate::report::median(&self.rates)
        }
    }
}

/// A paper-referenced Aquila-vs-baseline ratio.
pub struct PaperRatio {
    pub label: &'static str,
    pub simulated: f64,
    pub paper: f64,
}

/// What a workload hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds of each full set-up (the first is the one measured on).
    pub setup_s: Vec<f64>,
    /// Host seconds of the Aquila part of each set-up.
    pub core_setup_s: Vec<f64>,
    /// Host seconds of the baseline's `munmap` in the last set-up.
    pub munmap_s: f64,
    /// Host seconds of the Krill load on Aquila in the last set-up.
    pub load_s: f64,
    /// Host resident-memory high-water mark at the end of the reported
    /// prefix: set-up plus a fixed amount of measured work, so it does
    /// not grow with how many passes the host clock allowed.
    pub peak_rss_mb: f64,
    /// Deterministic prefix: Aquila configuration.
    pub mmio: Acc,
    /// Deterministic prefix: baseline configuration.
    pub base: Acc,
    /// Host clock over every measured pass, traced or not.
    pub host: HostAcc,
    /// Host clock over untraced passes after the prefix (traced runs).
    pub host_untraced: HostAcc,
    /// Host clock over traced passes after the prefix (traced runs).
    pub host_traced: HostAcc,
    /// Host seconds spent inside engine steps during traced passes
    /// (subtracted from engine time to get the scheduler's own cost).
    pub traced_run_s: f64,
    pub traced_steps: u64,
    /// Operations of the system under test that were checked, and the
    /// ones that returned an error or wrong bytes.
    pub attempted: u64,
    pub failed: u64,
    /// Baseline operations checked but not gated (kv-ycsb-a's kmmap, see
    /// the benchmark README), and those that read back wrong.
    pub base_checked: u64,
    pub base_wrong: u64,
    pub base_first_error: Option<String>,
    pub gate_errors: Vec<String>,
    pub paper: Vec<PaperRatio>,
    /// Pages the Aquila configuration's operations touched in the prefix.
    pub mmio_touches: u64,
    /// Bytes the workload itself asked to write in the prefix (Aquila).
    pub user_bytes_written: u64,
    /// Page sequence of the first pass (Aquila), for layer replays.
    pub page_trace: Vec<u64>,
    pub passes: usize,
    pub lines: Vec<String>,
}

/// SplitMix64 finaliser: the seeded per-page pattern and input mixing.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Word `word` (8 bytes) of page `page`'s pattern under `seed`.
pub fn pattern_word(seed: u64, page: u64, word: u64) -> u64 {
    mix(seed ^ mix(page.wrapping_mul(0x1_0000_0001) ^ (word << 40)))
}

/// Fills `buf` with `page`'s pattern starting at byte `off` (8-aligned).
pub fn pattern(seed: u64, page: u64, off: usize, buf: &mut [u8]) {
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        let w = pattern_word(seed, page, (off / 8 + i) as u64).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}
