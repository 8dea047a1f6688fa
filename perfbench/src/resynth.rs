//! `resynth`: the paper's flow (`emorphic_flow` with `FlowConfig::fast()`)
//! over the tiny EPFL-like suite, one circuit after another.

use crate::common::{
    end_to_end, measure, order, resynth_suite, timed_setup, Circuit, Job, Latency, Pass,
};
use crate::probes;
use crate::report::{cpu_s, outcome, Checker, Report};
use crate::serve;
use crate::stats::Outcome;
use crate::trace::Tracer;
use cec::{check_equivalence, CecResult};
use emorphic::flow::{
    emorphic_flow, extract_network, map_network, prepare_network, saturate_network, FlowConfig,
    FlowResult,
};
use std::time::Instant;

const WORKLOAD: &str = "resynth";

fn setup() -> (Vec<Circuit>, FlowConfig) {
    let circuits = resynth_suite();
    let config = FlowConfig::fast();
    // Warm-up on a circuit outside the suite.
    std::hint::black_box(emorphic_flow(&benchgen::adder(8).aig, &config));
    (circuits, config)
}

/// One pass, output checks left for later: `(wall, [(circuit index, latency, result)])`.
fn flow_pass(
    circuits: &[Circuit],
    config: &FlowConfig,
    order: &[usize],
) -> (f64, Vec<(usize, f64, FlowResult)>) {
    let start = Instant::now();
    let flows = order
        .iter()
        .map(|&i| {
            let t = Instant::now();
            let result = emorphic_flow(&circuits[i].aig, config);
            (i, t.elapsed().as_secs_f64(), result)
        })
        .collect();
    (start.elapsed().as_secs_f64(), flows)
}

/// Checks a pass's results against the submitted circuits.
fn checked(
    report: &mut Report,
    checker: &mut Checker,
    circuits: &[Circuit],
    wall_s: f64,
    flows: &[(usize, f64, FlowResult)],
) -> Pass {
    let jobs = flows
        .iter()
        .map(|(i, latency_s, r)| {
            let c = &circuits[*i];
            let check = checker.check(&c.aig, &r.final_aig);
            if check == Outcome::Failed {
                report.error(format!(
                    "{WORKLOAD}/{}: final_aig is not equivalent to the input",
                    c.label
                ));
            }
            report.counter(format!("{WORKLOAD}/{}/enodes", c.label), r.egraph_nodes);
            report.counter(format!("{WORKLOAD}/{}/verified", c.label), r.verified);
            Job {
                key: c.label.clone(),
                latency_s: *latency_s,
                area_um2: r.qor.area_um2,
                delay_ps: r.qor.delay_ps,
                outcome: outcome(r.verified, check),
            }
        })
        .collect();
    Pass { wall_s, jobs }
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report, tracer: &mut Tracer) {
    let mut setup_s = Vec::new();
    let (circuits, config) = timed_setup(&mut setup_s, setup);
    let order = order(circuits.len(), seed);
    let mut checker = Checker::default();

    if !traced {
        let raw = measure(seconds, || flow_pass(&circuits, &config, &order));
        let passes: Vec<Pass> = raw
            .iter()
            .map(|(wall, flows)| checked(report, &mut checker, &circuits, *wall, flows))
            .collect();
        end_to_end(report, WORKLOAD, &passes, &setup_s, Latency::Batch);
        return;
    }

    // Untraced reference pass: the wall time the trace overhead is taken
    // against and the QoR the composed phases must reproduce.
    let cpu0 = cpu_s();
    let (wall, flows) = flow_pass(&circuits, &config, &order);
    if let (Some(a), Some(b)) = (cpu0, cpu_s()) {
        report.set("cpu_s", b - a);
    }
    let pass = checked(report, &mut checker, &circuits, wall, &flows);
    end_to_end(report, WORKLOAD, &[pass], &setup_s, Latency::Batch);

    // Traced pass: the phases of `emorphic_flow`, composed as it does.
    let start = Instant::now();
    let mut states = Vec::new();
    for (i, _, reference) in &flows {
        let c = &circuits[*i];
        let job = tracer.open("job", &c.label, None);
        let (prepared, _) = tracer.span("prepare", &c.label, Some(job), || {
            prepare_network(&c.aig, &config)
        });
        let (state, _) = tracer.span("saturate", &c.label, Some(job), || {
            saturate_network(&prepared, &config)
        });
        let ((extracted, _), _) = tracer.span("extract", &c.label, Some(job), || {
            extract_network(&state, &config)
        });
        let extract_failed = extracted.is_none();
        let mut resynthesized = extracted.unwrap_or_else(|| prepared.clone());
        let (verdict, _) = tracer.span("verify", &c.label, Some(job), || {
            check_equivalence(&prepared, &resynthesized, &config.cec)
        });
        match verdict {
            CecResult::Equivalent => report.add("verify.proved", 1.0),
            CecResult::NotEquivalent(_) => resynthesized = prepared.clone(),
            CecResult::Unknown => report.add("verify.unknown", 1.0),
        }
        let ((_, netlist), _) = tracer.span("map", &c.label, Some(job), || {
            map_network(&resynthesized, &config)
        });
        tracer.close(job);

        report.add("extract.failed", if extract_failed { 1.0 } else { 0.0 });
        report.add("map.gates", netlist.num_gates() as f64);
        probes::saturation(report, &state);
        if (netlist.area_um2(), netlist.delay_ps())
            != (reference.qor.area_um2, reference.qor.delay_ps)
        {
            report.add("trace.stale_jobs", 1.0);
            report.note(format!(
                "STALE: composed phases give area {} delay {} on {}, emorphic_flow gives {} {}",
                netlist.area_um2(),
                netlist.delay_ps(),
                c.label,
                reference.qor.area_um2,
                reference.qor.delay_ps
            ));
        }
        states.push((c.label.clone(), state));
    }
    let traced_wall = start.elapsed().as_secs_f64();
    report.set("trace_overhead_frac", (traced_wall - wall) / wall);
    probes::span_seconds(report, tracer);
    // The saturate span covers conversion too; `saturate.s` is the
    // runner's own time, reported by the state.
    probes::finish_saturation(report);

    // Probes: the sweep inside `dch_like`, checkpointing of the saturated
    // states, and the two layers this workload never calls.
    probes::dch(report, tracer, WORKLOAD, &circuits, &config);
    for (label, state) in &states {
        probes::checkpoint(report, tracer, label, state);
    }
    probes::window(report, &circuits, &config);
    probes::server(report, probes::smallest(&circuits), &serve::base_config());
}
