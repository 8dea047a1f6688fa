//! What one run prints: metrics, deterministic counters, errors and the job
//! tally, one tab-separated record per line (`run.py` turns them into the
//! final JSON line), plus the process probes and the independent output
//! check.

use crate::stats::{Outcome, Tally};
use aig::Aig;
use cec::{check_equivalence_swept, CecOptions, CecResult, SweepOptions};
use std::collections::{BTreeMap, HashMap};

/// End-to-end metrics (`--trace 0`): name and unit. Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("area_geomean_um2", "um2"),
    ("delay_geomean_ps", "ps"),
    ("proved_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Every workload reports
/// every one of them; see README.md for where each comes from.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("prepare.s", "s"),
    ("dch.s", "s"),
    ("sweep.sat_calls", "count"),
    ("sweep.proved", "count"),
    ("sweep.unknown", "count"),
    ("sweep.proved_per_call", "ratio"),
    ("convert.s", "s"),
    ("saturate.s", "s"),
    ("saturate.search_s", "s"),
    ("saturate.apply_s", "s"),
    ("saturate.rebuild_s", "s"),
    ("saturate.iterations", "count"),
    ("saturate.enodes", "count"),
    ("saturate.enodes_per_s", "1/s"),
    ("extract.s", "s"),
    ("extract.failed", "count"),
    ("verify.s", "s"),
    ("verify.proved", "count"),
    ("verify.unknown", "count"),
    ("map.s", "s"),
    ("map.gates", "count"),
    ("choices.classes", "count"),
    ("choices.alternatives", "count"),
    ("choices.used_frac", "ratio"),
    ("window.count", "count"),
    ("window.partition_s", "s"),
    ("window.saturate_s", "s"),
    ("window.stitch_s", "s"),
    ("server.cold_p50_s", "s"),
    ("server.restore_p50_s", "s"),
    ("server.hit_p50_s", "s"),
    ("server.cache_hit_frac", "ratio"),
    ("server.checkpoint_hit_frac", "ratio"),
    ("server.saturations", "count"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("cpu_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("trace.stale_jobs", "count"),
];

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Deterministic counters, compared exactly across runs by `run.py`.
    counters: BTreeMap<String, String>,
    errors: Vec<String>,
    notes: Vec<String>,
    pub tally: Tally,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> Option<&f64> {
        self.metrics.get(name)
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// Records a deterministic counter. Floats print with `{:?}`, the
    /// shortest text that round-trips, so exact comparison is meaningful.
    pub fn counter(&mut self, key: String, value: impl std::fmt::Debug) {
        self.counters.insert(key, format!("{value:?}"));
    }

    pub fn error(&mut self, message: String) {
        eprintln!("error: {message}");
        self.errors.push(message);
    }

    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }

    /// Prints the run's records; `names` are the metrics this run must
    /// report (a missing one is a benchmark bug and fails the run).
    pub fn print(mut self, names: &[(&str, &str)]) {
        for (name, _) in names {
            if !self.metrics.contains_key(name) {
                self.error(format!("metric {name} was not measured"));
            }
        }
        for note in &self.notes {
            println!("note\t{note}");
        }
        for (name, unit) in names {
            if let Some(value) = self.metrics.get(name) {
                println!("metric\t{name}\t{value:?}\t{unit}");
            }
        }
        for (key, value) in &self.counters {
            println!("counter\t{key}\t{value}");
        }
        for error in &self.errors {
            println!("error\t{error}");
        }
        println!("jobs\t{}\t{}", self.tally.attempted, self.tally.failed);
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall, in USER_HZ (100 per second on Linux).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// The benchmark's own output check: proves a result against the circuit
/// that was submitted, with swept CEC at the checker's default budgets.
/// Verdicts are memoized on the two structural fingerprints, so a result
/// that repeats bit-identically (a cache hit, a later pass) is proved once.
#[derive(Default)]
pub struct Checker {
    memo: HashMap<(u128, u128), Outcome>,
}

impl Checker {
    pub fn check(&mut self, submitted: &Aig, result: &Aig) -> Outcome {
        if submitted.num_inputs() != result.num_inputs()
            || submitted.num_outputs() != result.num_outputs()
        {
            return Outcome::Failed;
        }
        let key = (
            submitted.structural_fingerprint(),
            result.structural_fingerprint(),
        );
        *self.memo.entry(key).or_insert_with(|| {
            match check_equivalence_swept(
                submitted,
                result,
                &CecOptions::default(),
                &SweepOptions::default(),
            ) {
                CecResult::Equivalent => Outcome::Proved,
                CecResult::Unknown => Outcome::Unproved,
                CecResult::NotEquivalent(_) => Outcome::Failed,
            }
        })
    }
}

/// Folds the program's own `verified` flag into the benchmark's verdict.
pub fn outcome(program_verified: bool, check: Outcome) -> Outcome {
    match check {
        Outcome::Failed => Outcome::Failed,
        Outcome::Proved if program_verified => Outcome::Proved,
        _ => Outcome::Unproved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    #[test]
    fn unproved_and_refuted_results_count_as_failed_frac() {
        let mut tally = Tally::default();
        // The program proved it and so did the benchmark.
        tally.record(outcome(true, Outcome::Proved));
        // The program's own CEC ran out of budget (`verified == false`).
        tally.record(outcome(false, Outcome::Proved));
        // The benchmark's check ran out of budget.
        tally.record(outcome(true, Outcome::Unproved));
        // The benchmark's check refuted the result.
        tally.record(outcome(true, Outcome::Failed));
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.unproved, 2);
        assert_eq!(tally.failed, 1);
        assert!((tally.failed_frac() - 0.75).abs() < 1e-12);
        assert!((tally.proved_frac() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn the_checker_proves_refutes_and_memoizes() {
        let adder = benchgen::adder(4).aig;
        let mut checker = Checker::default();
        assert_eq!(checker.check(&adder, &adder.strash_copy()), Outcome::Proved);
        assert_eq!(checker.check(&adder, &adder.strash_copy()), Outcome::Proved);
        assert_eq!(checker.memo.len(), 1);
        // Same interface, one output inverted: refuted.
        let mut broken = adder.strash_copy();
        broken.set_output(0, !broken.outputs()[0]);
        assert_eq!(checker.check(&adder, &broken), Outcome::Failed);
        // Another interface: failed without a SAT call.
        let mut wider = adder.strash_copy();
        wider.add_output(aig::Lit::TRUE, "extra");
        assert_eq!(checker.check(&adder, &wider), Outcome::Failed);
        assert_eq!(checker.memo.len(), 2);
    }

    #[test]
    fn tab_separated_records_keep_every_digit() {
        let mut report = Report::default();
        report.set("wall_s", 0.1 + 0.2);
        report.counter("w/c/area".into(), 12.345_678_901_234_f64);
        assert_eq!(report.counters["w/c/area"], "12.345678901234");
        assert_eq!(
            format!("{:?}", report.metrics["wall_s"]),
            "0.30000000000000004"
        );
    }
}
