//! `choice_map`: the choice-aware mapping flow (`emorphic_map_flow`) with
//! the paper's saturation knobs, each circuit once monolithic and once
//! windowed.

use crate::common::{end_to_end, measure, timed_setup, Circuit, Job, Latency, Pass};
use crate::probes;
use crate::report::{cpu_s, Report};
use crate::serve;
use crate::stats::{Outcome, SplitMix64};
use crate::trace::Tracer;
use benchgen::SuiteScale;
use emorphic::flow::{
    emorphic_map_flow, saturate_network, MapFlowConfig, MapFlowError, MapFlowResult,
};
use std::time::Instant;
use window::WindowOptions;

const WORKLOAD: &str = "choice_map";

/// One job: a circuit and whether it runs windowed.
struct MapJob {
    circuit: usize,
    windowed: bool,
    key: String,
}

fn circuits() -> Vec<Circuit> {
    let mut circuits: Vec<Circuit> = benchgen::scaling_suite(SuiteScale::Small)
        .into_iter()
        .map(|c| Circuit {
            label: c.name,
            aig: c.aig,
        })
        .collect();
    for (label, c) in [
        ("div8", benchgen::divider(8)),
        ("square8", benchgen::square(8)),
        ("multiplier8", benchgen::multiplier(8)),
        ("hyp6", benchgen::hypotenuse(6)),
    ] {
        circuits.push(Circuit {
            label: label.to_string(),
            aig: c.aig,
        });
    }
    circuits
}

fn config() -> MapFlowConfig {
    let mut config = MapFlowConfig::paper();
    config.flow.search_threads = 2;
    config
}

fn job_config(base: &MapFlowConfig, windowed: bool) -> MapFlowConfig {
    let mut config = base.clone();
    if windowed {
        config.flow.partitioning = Some(WindowOptions::default());
    }
    config
}

fn setup() -> (Vec<Circuit>, MapFlowConfig) {
    let circuits = circuits();
    let config = config();
    // Warm-up on a circuit outside the job list.
    let warm = emorphic_map_flow(&benchgen::adder(8).aig, &config);
    std::hint::black_box(warm.is_ok());
    (circuits, config)
}

type Results = Vec<(usize, f64, Result<MapFlowResult, MapFlowError>)>;

fn map_pass(circuits: &[Circuit], jobs: &[MapJob], config: &MapFlowConfig) -> (f64, Results) {
    let start = Instant::now();
    let results = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| {
            let config = job_config(config, job.windowed);
            let t = Instant::now();
            let result = emorphic_map_flow(&circuits[job.circuit].aig, &config);
            (j, t.elapsed().as_secs_f64(), result)
        })
        .collect();
    (start.elapsed().as_secs_f64(), results)
}

/// Accounts a pass. The mapped netlist's source network is private to the
/// flow, so the flow's own swept-CEC `verified` flag is the outcome.
fn accounted(report: &mut Report, jobs: &[MapJob], wall_s: f64, results: &Results) -> Pass {
    let jobs = results
        .iter()
        .map(|(j, latency_s, result)| {
            let key = &jobs[*j].key;
            match result {
                Ok(r) => {
                    report.counter(format!("{WORKLOAD}/{key}/enodes"), r.egraph_nodes);
                    report.counter(
                        format!("{WORKLOAD}/{key}/export"),
                        (
                            r.export.live_classes,
                            r.export.classes,
                            r.export.alternatives,
                            r.export.rejected,
                        ),
                    );
                    report.counter(format!("{WORKLOAD}/{key}/used_choices"), r.used_choices);
                    Job {
                        key: key.clone(),
                        latency_s: *latency_s,
                        area_um2: r.qor.area_um2,
                        delay_ps: r.qor.delay_ps,
                        outcome: if r.verified {
                            Outcome::Proved
                        } else {
                            Outcome::Unproved
                        },
                    }
                }
                Err(e) => {
                    report.error(format!("{WORKLOAD}/{key}: {e}"));
                    Job {
                        key: key.clone(),
                        latency_s: *latency_s,
                        area_um2: 0.0,
                        delay_ps: 0.0,
                        outcome: Outcome::Failed,
                    }
                }
            }
        })
        .collect();
    Pass { wall_s, jobs }
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report, tracer: &mut Tracer) {
    let mut setup_s = Vec::new();
    let (circuits, config) = timed_setup(&mut setup_s, setup);
    let mut jobs = Vec::new();
    for windowed in [false, true] {
        for (i, c) in circuits.iter().enumerate() {
            let mode = if windowed { "windowed" } else { "monolithic" };
            jobs.push(MapJob {
                circuit: i,
                windowed,
                key: format!("{}/{mode}", c.label),
            });
        }
    }
    SplitMix64::new(seed).shuffle(&mut jobs);

    if !traced {
        let raw = measure(seconds, || map_pass(&circuits, &jobs, &config));
        let passes: Vec<Pass> = raw
            .iter()
            .map(|(wall, results)| accounted(report, &jobs, *wall, results))
            .collect();
        end_to_end(report, WORKLOAD, &passes, &setup_s, Latency::Batch);
        return;
    }

    let cpu0 = cpu_s();
    let (wall, results) = map_pass(&circuits, &jobs, &config);
    if let (Some(a), Some(b)) = (cpu0, cpu_s()) {
        report.set("cpu_s", b - a);
    }
    let pass = accounted(report, &jobs, wall, &results);
    end_to_end(report, WORKLOAD, &[pass], &setup_s, Latency::Batch);

    // Traced pass: one span per flow call; the layer split comes from the
    // stats each result already carries.
    let start = Instant::now();
    let mut traced = Vec::new();
    for job in &jobs {
        let job_config = job_config(&config, job.windowed);
        let (result, _) = tracer.span("job", &job.key, None, || {
            emorphic_map_flow(&circuits[job.circuit].aig, &job_config)
        });
        traced.push(result);
    }
    let traced_wall = start.elapsed().as_secs_f64();
    report.set("trace_overhead_frac", (traced_wall - wall) / wall);

    let mut used = 0usize;
    for (job, result) in jobs.iter().zip(&traced) {
        let Ok(r) = result else { continue };
        report.add("choices.classes", r.export.classes as f64);
        report.add("choices.alternatives", r.export.alternatives as f64);
        report.add(
            if r.verified {
                "verify.proved"
            } else {
                "verify.unknown"
            },
            1.0,
        );
        used += usize::from(r.used_choices);
        if let Some(w) = &r.window {
            probes::add_window(report, w);
        }
        if !job.windowed {
            // Probe the saturation with the same knobs; it must build the
            // e-graph the flow reported.
            let c = &circuits[job.circuit];
            let (state, _) = tracer.span("saturate", &job.key, None, || {
                saturate_network(&c.aig.strash_copy(), &config.flow)
            });
            probes::saturation(report, &state);
            if state.egraph.total_nodes() != r.egraph_nodes {
                report.add("trace.stale_jobs", 1.0);
                report.note(format!(
                    "STALE: saturate_network builds {} e-nodes on {}, emorphic_map_flow reports {}",
                    state.egraph.total_nodes(),
                    job.key,
                    r.egraph_nodes
                ));
            }
            let extract_config = config.flow.clone().with_extractor(config.extractor);
            probes::extract(report, tracer, &job.key, &state, &extract_config);
            probes::checkpoint(report, tracer, &job.key, &state);
        }
    }
    report.set("choices.used_frac", used as f64 / jobs.len() as f64);
    probes::finish_saturation(report);

    // `verify.s`: each traced call minus the same call with verification
    // off.
    let mut verify_s = 0.0;
    for (job, with_verify) in jobs.iter().zip(tracer.durations("job")) {
        let mut off = job_config(&config, job.windowed);
        off.flow.verify = false;
        let t = Instant::now();
        std::hint::black_box(emorphic_map_flow(&circuits[job.circuit].aig, &off).is_ok());
        verify_s += with_verify - t.elapsed().as_secs_f64();
    }
    report.set("verify.s", verify_s);

    // Layers this workload does not call: probes on its smallest circuit
    // (the 4-round prepare over the whole list would double the run).
    let smallest = std::slice::from_ref(probes::smallest(&circuits));
    probes::prepare(report, tracer, smallest, &config.flow);
    probes::dch(report, tracer, WORKLOAD, smallest, &config.flow);
    probes::map(report, tracer, smallest, &config.flow);
    probes::server(report, &smallest[0], &serve::base_config());
}
