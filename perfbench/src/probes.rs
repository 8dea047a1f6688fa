//! Layer probes for the traced runs: timed calls into one layer's public
//! entry point on the workload's circuits. A workload probes the layers its
//! own jobs do not expose (see README.md), so every traced run reports every
//! per-layer metric with a measured value.

use crate::common::Circuit;
use crate::report::Report;
use crate::trace::Tracer;
use choices::ChoiceConfig;
use emorphic::flow::{extract_network, map_network, prepare_network, FlowConfig, SaturatedState};
use emorphic::{ExtractorKind, FlowCheckpoint};
use emorphic_server::{JobRequest, JobState, ServerOptions, SynthesisServer};
use std::time::Instant;
use techmap::sop::sop_balance;
use window::WindowOptions;

/// Saturation metrics of one saturated state.
pub fn saturation(report: &mut Report, state: &SaturatedState) {
    let search: f64 = state
        .saturation
        .iter()
        .map(|r| r.search_time.as_secs_f64())
        .sum();
    let rebuild: f64 = state
        .saturation
        .iter()
        .map(|r| r.rebuild_time.as_secs_f64())
        .sum();
    let total: f64 = state
        .saturation
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .sum();
    report.add("convert.s", state.conversion_time.as_secs_f64());
    report.add("saturate.s", state.saturation_time.as_secs_f64());
    report.add("saturate.search_s", search);
    report.add("saturate.rebuild_s", rebuild);
    report.add("saturate.apply_s", (total - search - rebuild).max(0.0));
    report.add("saturate.iterations", state.saturation.len() as f64);
    report.add("saturate.enodes", state.egraph.total_nodes() as f64);
}

/// `saturate.enodes_per_s` once every saturation is accounted.
pub fn finish_saturation(report: &mut Report) {
    if let (Some(&n), Some(&s)) = (report.get("saturate.enodes"), report.get("saturate.s")) {
        if s > 0.0 {
            report.set("saturate.enodes_per_s", n / s);
        }
    }
}

/// `FlowCheckpoint::capture → to_json → restore` on a saturated state;
/// returns the restored state.
pub fn checkpoint(
    report: &mut Report,
    tracer: &mut Tracer,
    job: &str,
    state: &SaturatedState,
) -> Option<SaturatedState> {
    let (cp, _) = tracer.span("checkpoint.capture", job, None, || {
        FlowCheckpoint::capture(state)
    });
    let (json, _) = tracer.span("checkpoint.to_json", job, None, || cp.to_json());
    let (restored, _) = tracer.span("checkpoint.restore", job, None, || cp.restore());
    report.add("checkpoint.bytes", json.len() as f64);
    report.set("checkpoint.restore_s", tracer.total("checkpoint.restore"));
    match restored {
        Ok(r) if r.egraph.total_nodes() == state.egraph.total_nodes() => Some(r),
        _ => {
            report.error(format!("{job}: checkpoint restore lost e-nodes"));
            None
        }
    }
}

/// The network the first conventional round hands to `dch_like`.
fn round1_input(aig: &aig::Aig, config: &FlowConfig) -> aig::Aig {
    sop_balance(&aig.strash_copy(), &config.lut_options).strash_copy()
}

/// `dch_like` (timed) and `dch_choices` (for its sweep statistics) on each
/// circuit's round-1 input. Sweep counts also go to the counters.
pub fn dch(
    report: &mut Report,
    tracer: &mut Tracer,
    workload: &str,
    circuits: &[Circuit],
    config: &FlowConfig,
) {
    for c in circuits {
        let input = round1_input(&c.aig, config);
        tracer.span("dch", &c.label, None, || {
            logic_opt::dch_like(&input, &config.dch_options)
        });
        match logic_opt::dch_choices(&input, &config.dch_options) {
            Ok((_, _, stats)) => {
                report.add("sweep.sat_calls", stats.sat_calls as f64);
                report.add("sweep.proved", stats.proved as f64);
                report.add("sweep.unknown", stats.unknown as f64);
                let key = format!("{workload}/{}/sweep", c.label);
                report.counter(
                    key,
                    (
                        stats.sat_calls,
                        stats.proved,
                        stats.disproved,
                        stats.unknown,
                    ),
                );
            }
            Err(e) => report.error(format!("{}: dch_choices failed: {e}", c.label)),
        }
    }
    report.set("dch.s", tracer.total("dch"));
    let calls = report.get("sweep.sat_calls").copied().unwrap_or(0.0);
    let proved = report.get("sweep.proved").copied().unwrap_or(0.0);
    report.set(
        "sweep.proved_per_call",
        if calls > 0.0 { proved / calls } else { 0.0 },
    );
}

/// `prepare_network` on each circuit.
pub fn prepare(
    report: &mut Report,
    tracer: &mut Tracer,
    circuits: &[Circuit],
    config: &FlowConfig,
) {
    for c in circuits {
        tracer.span("prepare", &c.label, None, || {
            prepare_network(&c.aig, config)
        });
    }
    report.set("prepare.s", tracer.total("prepare"));
}

/// `map_network` on each circuit.
pub fn map(report: &mut Report, tracer: &mut Tracer, circuits: &[Circuit], config: &FlowConfig) {
    for c in circuits {
        let ((_, netlist), _) = tracer.span("map", &c.label, None, || map_network(&c.aig, config));
        report.add("map.gates", netlist.num_gates() as f64);
    }
    report.set("map.s", tracer.total("map"));
}

/// `extract_network` on a saturated state.
pub fn extract(
    report: &mut Report,
    tracer: &mut Tracer,
    job: &str,
    state: &SaturatedState,
    config: &FlowConfig,
) {
    let ((extracted, _), _) = tracer.span("extract", job, None, || extract_network(state, config));
    report.add(
        "extract.failed",
        if extracted.is_none() { 1.0 } else { 0.0 },
    );
    report.set("extract.s", tracer.total("extract"));
}

/// Windowed saturation (`saturate_windows`) of each circuit with the default
/// window options.
pub fn window(report: &mut Report, circuits: &[Circuit], config: &FlowConfig) {
    for c in circuits {
        match emorphic::saturate_windows(
            &c.aig.strash_copy(),
            &WindowOptions::default(),
            config,
            &ChoiceConfig::default(),
        ) {
            Ok((_, _, w)) => add_window(report, &w),
            Err(e) => report.error(format!("{}: windowed saturation failed: {e}", c.label)),
        }
    }
}

pub fn add_window(report: &mut Report, w: &emorphic::WindowReport) {
    report.add("window.count", w.windows as f64);
    report.add("window.partition_s", w.partition_time.as_secs_f64());
    report.add("window.saturate_s", w.saturation_time.as_secs_f64());
    report.add("window.stitch_s", w.stitch_time.as_secs_f64());
}

/// One job family on a fresh two-worker server, one job at a time: a cold
/// job, a restore under another extractor and an exact resubmission.
pub fn server(report: &mut Report, circuit: &Circuit, config: &FlowConfig) {
    let server = SynthesisServer::start(&ServerOptions { workers: 2 });
    let restore = config.clone().with_extractor(ExtractorKind::BottomUp);
    for (name, config) in [
        ("server.cold_p50_s", config.clone()),
        ("server.restore_p50_s", restore),
        ("server.hit_p50_s", config.clone()),
    ] {
        let t = Instant::now();
        let id = server.submit(JobRequest::new(circuit.aig.clone(), config));
        let status = server.wait(id);
        report.set(name, t.elapsed().as_secs_f64());
        if status.map(|s| s.state) != Some(JobState::Completed) {
            report.error(format!(
                "{}: server probe job did not complete",
                circuit.label
            ));
        }
    }
    server_stats(report, &server.stats());
}

pub fn server_stats(report: &mut Report, stats: &emorphic_server::ServerStats) {
    let frac = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    report.set(
        "server.cache_hit_frac",
        frac(stats.cache_hits, stats.completed),
    );
    report.set(
        "server.checkpoint_hit_frac",
        frac(
            stats.checkpoint_hits,
            stats.checkpoint_hits + stats.saturations,
        ),
    );
    report.set("server.saturations", stats.saturations as f64);
}

/// `prepare.s`, `extract.s`, `verify.s` and `map.s` as the summed
/// durations of the spans of those names.
pub fn span_seconds(report: &mut Report, tracer: &Tracer) {
    report.set("prepare.s", tracer.total("prepare"));
    report.set("extract.s", tracer.total("extract"));
    report.set("verify.s", tracer.total("verify"));
    report.set("map.s", tracer.total("map"));
}

/// The circuit with the fewest AND gates (the cheapest probe target).
pub fn smallest(circuits: &[Circuit]) -> &Circuit {
    circuits
        .iter()
        .min_by_key(|c| c.aig.num_ands())
        .expect("a workload has circuits")
}

/// Zero for every count or ratio a workload does not produce; a missing
/// time is left for `Report::print` to flag.
pub fn zero_missing_counts(report: &mut Report) {
    for (name, unit) in crate::report::PER_LAYER {
        if *unit != "s" && !report.has(name) {
            report.set(name, 0.0);
        }
    }
}
