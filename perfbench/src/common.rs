//! Pieces every workload shares: the circuit suite, set-up timing, the pass
//! loop, the end-to-end metrics and the per-job counters.

use crate::report::{peak_rss_mb, Report};
use crate::stats::{geomean, nearest_rank, tail_percentile, Outcome, SplitMix64};
use aig::Aig;
use benchgen::SuiteScale;
use std::time::Instant;

/// How many times set-up runs in one run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// A circuit and the label the benchmark reports it under (size included,
/// so `multiplier8` and `multiplier16` stay apart).
#[derive(Clone)]
pub struct Circuit {
    pub label: String,
    pub aig: Aig,
}

fn labeled(label: &str, circuit: benchgen::BenchCircuit) -> Circuit {
    Circuit {
        label: label.to_string(),
        aig: circuit.aig,
    }
}

/// The tiny EPFL-like suite with hyp at 6 bits instead of 8: one 8-bit hyp
/// flow takes minutes, almost all of it one unproved CEC.
pub fn resynth_suite() -> Vec<Circuit> {
    benchgen::epfl_like_suite(SuiteScale::Tiny)
        .into_iter()
        .map(|c| match c.name.clone().as_str() {
            "hyp" => labeled("hyp6", benchgen::hypotenuse(6)),
            "div" => labeled("div8", c),
            "mem_ctrl" => labeled("mem_ctrl8", c),
            "log2" => labeled("log2_8", c),
            "multiplier" => labeled("multiplier8", c),
            "sqrt" => labeled("sqrt8", c),
            "square" => labeled("square8", c),
            "arbiter" => labeled("arbiter32", c),
            "sin" => labeled("sin6", c),
            "adder" => labeled("adder16", c),
            other => labeled(other, c),
        })
        .collect()
}

/// A permutation of `0..n` drawn from the workload seed.
pub fn order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order
}

/// Times `setup` [`SETUP_REPEATS`] times and keeps the last product.
pub fn timed_setup<T>(samples: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut product = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        product = Some(setup());
        samples.push(t.elapsed().as_secs_f64());
    }
    product.expect("SETUP_REPEATS is positive")
}

/// One finished job of a pass.
pub struct Job {
    /// Stable identity of the job (circuit, mode, …), independent of order.
    pub key: String,
    pub latency_s: f64,
    pub area_um2: f64,
    pub delay_ps: f64,
    pub outcome: Outcome,
}

/// One pass over a workload's whole job list.
pub struct Pass {
    pub wall_s: f64,
    pub jobs: Vec<Job>,
}

/// Repeats `pass` until `seconds` of measured time have passed (at least
/// once). Each call returns its measured wall time and what it produced;
/// checking the products is left to the caller, outside the timed region.
pub fn measure<P>(seconds: f64, mut pass: impl FnMut() -> (f64, P)) -> Vec<(f64, P)> {
    let mut passes = Vec::new();
    let mut measured = 0.0;
    while passes.is_empty() || measured < seconds {
        let (wall, product) = pass();
        measured += wall;
        passes.push((wall, product));
    }
    passes
}

/// What one latency sample is.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// Batch workloads (resynth, choice_map): the user submits the whole
    /// job list and waits for all of it, so a sample is one pass's wall
    /// time. The latency metrics are made for serve; the batch workloads
    /// print them too because every workload prints every end-to-end
    /// metric.
    Batch,
    /// The serve workload: a sample is one job's submit→completion time,
    /// and the p90 is defined only over at least 100 jobs.
    PerJob,
}

/// Fills the end-to-end metrics, the job tally and the per-job counters
/// from the measured passes. Jobs must repeat exactly from pass to pass.
pub fn end_to_end(
    report: &mut Report,
    workload: &str,
    passes: &[Pass],
    setup: &[f64],
    latency: Latency,
) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let jobs: usize = passes.iter().map(|p| p.jobs.len()).sum();
    let latencies: Vec<f64> = match latency {
        Latency::Batch => walls.clone(),
        Latency::PerJob => passes
            .iter()
            .flat_map(|p| p.jobs.iter().map(|j| j.latency_s))
            .collect(),
    };
    let total_wall: f64 = walls.iter().sum();
    report.set("wall_s", total_wall / walls.len() as f64);
    report.set("jobs_per_s", jobs as f64 / total_wall);
    if let Some(p50) = nearest_rank(&latencies, 0.5) {
        report.set("latency_p50_s", p50);
    }
    let p90 = match latency {
        Latency::Batch => nearest_rank(&latencies, 0.9),
        Latency::PerJob => tail_percentile(&latencies, 0.9),
    };
    match p90 {
        Some(v) => report.set("latency_p90_s", v),
        None => report.error(format!(
            "{workload}: {} latency samples are too few for a p90",
            latencies.len()
        )),
    }
    report.note(format!(
        "{workload}: {} passes, {jobs} jobs, {} latency samples",
        passes.len(),
        latencies.len()
    ));

    let first = &passes[0].jobs;
    for job in first {
        report.note(format!("{workload}/{}: {:.4} s", job.key, job.latency_s));
    }
    let areas: Vec<f64> = first.iter().map(|j| j.area_um2).collect();
    let delays: Vec<f64> = first.iter().map(|j| j.delay_ps).collect();
    match (geomean(&areas), geomean(&delays)) {
        (Some(a), Some(d)) => {
            report.set("area_geomean_um2", a);
            report.set("delay_geomean_ps", d);
        }
        _ => report.error(format!(
            "{workload}: a result has no positive area or delay"
        )),
    }
    for pass in passes {
        for job in &pass.jobs {
            report.tally.record(job.outcome);
        }
    }
    report.set("proved_frac", report.tally.proved_frac());
    report.set("failed_frac", report.tally.failed_frac());
    if let Some(rss) = peak_rss_mb() {
        report.set("peak_rss_mb", rss);
    }
    report.set("setup_s", crate::stats::median(setup).unwrap_or(0.0));

    for job in first {
        report.counter(format!("{workload}/{}/area_um2", job.key), job.area_um2);
        report.counter(format!("{workload}/{}/delay_ps", job.key), job.delay_ps);
        report.counter(format!("{workload}/{}/outcome", job.key), job.outcome);
    }
    // Later passes must reproduce the first one job for job.
    for pass in &passes[1..] {
        for job in &pass.jobs {
            let Some(reference) = first.iter().find(|j| j.key == job.key) else {
                report.error(format!("{workload}: job {} missing from pass 1", job.key));
                continue;
            };
            if (reference.area_um2, reference.delay_ps, reference.outcome)
                != (job.area_um2, job.delay_ps, job.outcome)
            {
                report.error(format!(
                    "{workload}: job {} changed QoR or outcome between passes",
                    job.key
                ));
            }
        }
    }
}
