//! `serve`: the synthesis server under a closed loop. One client thread
//! keeps up to [`OUTSTANDING`] jobs in flight on a two-worker server, so a
//! queue forms. Jobs come in families (circuit × saturation variant): one
//! cold job, restores under other extractors (checkpoint hits) and exact
//! resubmissions (result-cache hits).

use crate::common::{end_to_end, order, resynth_suite, Circuit, Job, Latency, Pass};
use crate::probes;
use crate::report::{cpu_s, outcome, Checker, Report};
use crate::stats::{median, Outcome};
use crate::trace::Tracer;
use emorphic::flow::{extract_network, map_network, prepare_network, saturate_network, FlowConfig};
use emorphic::ExtractorKind;
use emorphic_server::{
    JobRequest, JobState, JobStatus, ServerOptions, ServerStats, SynthesisServer,
};
use std::sync::mpsc;
use std::time::Instant;

const WORKLOAD: &str = "serve";
/// Pool size: one worker per core of the 2-core reference host.
const WORKERS: usize = 2;
/// Jobs the client keeps outstanding: twice the workers, so a queue forms.
const OUTSTANDING: usize = 4;
/// Jobs a run completes at least, so the p90 has 10 samples beyond it.
const MIN_JOBS: usize = 100;
/// The served circuits: the resynth circuits whose jobs take between 0.5
/// and 1.5 s. Five others take milliseconds; with them in the mix the
/// median job falls between two latency modes and flips with the job order
/// (its spread across seeds exceeded 25 % of its value). hyp6 and
/// arbiter32 take 2-4 s a job, and the 100 jobs the p90 needs would not fit
/// the run's time.
const SERVED: [&str; 3] = ["div8", "multiplier8", "square8"];

/// The served flow: `FlowConfig::fast()` with one search thread and one
/// annealing chain, so two workers keep at most two threads busy.
pub fn base_config() -> FlowConfig {
    let mut config = FlowConfig::fast();
    config.search_threads = 1;
    config.sa.threads = 1;
    config
}

/// The two saturation variants (distinct checkpoint keys): the fast
/// configuration's 3 rewriting iterations, and 2.
fn variants() -> [(&'static str, FlowConfig); 2] {
    let mut shallow = base_config();
    shallow.rewrite_iterations = 2;
    [("it3", base_config()), ("it2", shallow)]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Cold,
    Restore,
    Hit,
}

struct ServeJob {
    key: String,
    circuit: usize,
    config: FlowConfig,
    kind: Kind,
    /// The job that must have completed before this one is submitted.
    after: Option<usize>,
}

/// Six jobs per family: cold (SA), restores under BottomUp and SlackAware,
/// and a resubmission of each of those three.
fn job_list(circuits: &[Circuit]) -> Vec<ServeJob> {
    let mut jobs = Vec::new();
    for (i, c) in circuits.iter().enumerate() {
        for (variant, config) in variants() {
            let family = format!("{}/{variant}", c.label);
            let cold = jobs.len();
            let job = |name: &str, kind, config: FlowConfig, after| ServeJob {
                key: format!("{family}/{name}"),
                circuit: i,
                config,
                kind,
                after,
            };
            let bottom_up = config.clone().with_extractor(ExtractorKind::BottomUp);
            let slack = config.clone().with_extractor(ExtractorKind::SlackAware);
            jobs.push(job("cold", Kind::Cold, config.clone(), None));
            jobs.push(job(
                "restore_bottom_up",
                Kind::Restore,
                bottom_up.clone(),
                Some(cold),
            ));
            jobs.push(job(
                "restore_slack",
                Kind::Restore,
                slack.clone(),
                Some(cold),
            ));
            jobs.push(job("hit_cold", Kind::Hit, config, Some(cold)));
            jobs.push(job("hit_bottom_up", Kind::Hit, bottom_up, Some(cold + 1)));
            jobs.push(job("hit_slack", Kind::Hit, slack, Some(cold + 2)));
        }
    }
    jobs
}

/// The submit order of one pass, drawn from the workload seed; every pass
/// of a run gets its own.
fn submit_order(jobs: &[ServeJob], seed: u64, pass: usize) -> Vec<usize> {
    order(jobs.len(), seed.wrapping_add((pass as u64) << 32))
}

/// Circuit generation, job list, server start and a warm-up job on a
/// circuit outside the job list.
fn setup() -> (Vec<Circuit>, Vec<ServeJob>, SynthesisServer) {
    let circuits: Vec<Circuit> = resynth_suite()
        .into_iter()
        .filter(|c| SERVED.contains(&c.label.as_str()))
        .collect();
    let jobs = job_list(&circuits);
    let server = SynthesisServer::start(&ServerOptions { workers: WORKERS });
    let warm = server.submit(JobRequest::new(benchgen::adder(8).aig, base_config()));
    std::hint::black_box(server.wait(warm));
    (circuits, jobs, server)
}

/// A served job: its status and submit→completion interval.
struct Served {
    status: Option<JobStatus>,
    submitted: Instant,
    completed: Instant,
}

/// One closed-loop pass over the job list in `order`. A job is submitted
/// once a slot is free and the job it depends on has completed; the first
/// such job in the order goes next.
fn closed_loop(
    server: &SynthesisServer,
    circuits: &[Circuit],
    jobs: &[ServeJob],
    order: &[usize],
) -> (f64, Vec<Served>, ServerStats) {
    let stats_before = server.stats();
    let start = Instant::now();
    let mut served: Vec<Option<Served>> = (0..jobs.len()).map(|_| None).collect();
    let mut pending: Vec<usize> = order.to_vec();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let mut outstanding = 0;
        loop {
            while outstanding < OUTSTANDING {
                let ready = pending
                    .iter()
                    .position(|&j| jobs[j].after.is_none_or(|a| served[a].is_some()));
                let Some(pos) = ready else { break };
                let j = pending.remove(pos);
                let job = &jobs[j];
                let submitted = Instant::now();
                let id = server.submit(JobRequest::new(
                    circuits[job.circuit].aig.clone(),
                    job.config.clone(),
                ));
                let tx = tx.clone();
                scope.spawn(move || {
                    let status = server.wait(id);
                    let _ = tx.send((j, submitted, status, Instant::now()));
                });
                outstanding += 1;
            }
            if outstanding == 0 {
                break;
            }
            let (j, submitted, status, completed) =
                rx.recv().expect("a waiter thread holds a sender");
            served[j] = Some(Served {
                status,
                submitted,
                completed,
            });
            outstanding -= 1;
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let after = server.stats();
    let delta = ServerStats {
        submitted: after.submitted - stats_before.submitted,
        completed: after.completed - stats_before.completed,
        preempted: after.preempted - stats_before.preempted,
        failed: after.failed - stats_before.failed,
        cache_hits: after.cache_hits - stats_before.cache_hits,
        checkpoint_hits: after.checkpoint_hits - stats_before.checkpoint_hits,
        saturations: after.saturations - stats_before.saturations,
    };
    let served = served
        .into_iter()
        .map(|s| s.expect("every job is submitted once its dependency completes"))
        .collect();
    (wall, served, delta)
}

fn latency(s: &Served) -> f64 {
    s.completed.duration_since(s.submitted).as_secs_f64()
}

/// Checks a pass: every served netlist is proved against the submitted
/// circuit, and every job got the service its kind promises.
fn checked(
    report: &mut Report,
    checker: &mut Checker,
    circuits: &[Circuit],
    jobs: &[ServeJob],
    wall_s: f64,
    served: &[Served],
    stats: &ServerStats,
) -> Pass {
    report.counter(
        format!("{WORKLOAD}/server_stats"),
        (
            stats.submitted,
            stats.completed,
            stats.preempted,
            stats.failed,
            stats.cache_hits,
            stats.checkpoint_hits,
            stats.saturations,
        ),
    );
    let jobs = jobs
        .iter()
        .zip(served)
        .map(|(job, s)| {
            let c = &circuits[job.circuit];
            let completed = s
                .status
                .as_ref()
                .filter(|st| st.state == JobState::Completed);
            let Some((status, result)) =
                completed.and_then(|st| st.result.as_ref().map(|r| (st, r)))
            else {
                report.error(format!("{WORKLOAD}/{}: job did not complete", job.key));
                return Job {
                    key: job.key.clone(),
                    latency_s: latency(s),
                    area_um2: 0.0,
                    delay_ps: 0.0,
                    outcome: Outcome::Failed,
                };
            };
            let check = checker.check(&c.aig, &result.final_aig);
            if check == Outcome::Failed {
                report.error(format!(
                    "{WORKLOAD}/{}: served netlist is not equivalent to the input",
                    job.key
                ));
            }
            let service = (status.cache_hit, result.reused_checkpoint);
            report.counter(
                format!("{WORKLOAD}/{}/enodes", job.key),
                result.egraph_nodes,
            );
            report.counter(
                format!("{WORKLOAD}/{}/cache_hit_reused_checkpoint", job.key),
                service,
            );
            Job {
                key: job.key.clone(),
                latency_s: latency(s),
                area_um2: result.qor.area_um2,
                delay_ps: result.qor.delay_ps,
                outcome: outcome(result.verified, check),
            }
        })
        .collect();
    Pass { wall_s, jobs }
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report, tracer: &mut Tracer) {
    let mut setup_s = Vec::new();
    let mut checker = Checker::default();
    let mut passes = Vec::new();
    let mut measured = 0.0;
    let mut completed = 0;
    // Each pass needs a cold server, so set-up precedes every pass (timed
    // three times before the first, the last server kept).
    let (circuits, jobs) = loop {
        let (circuits, jobs, server) = if passes.is_empty() {
            crate::common::timed_setup(&mut setup_s, setup)
        } else {
            let t = Instant::now();
            let product = setup();
            setup_s.push(t.elapsed().as_secs_f64());
            product
        };
        let order = submit_order(&jobs, seed, passes.len());
        let cpu0 = cpu_s();
        let (wall, served, stats) = closed_loop(&server, &circuits, &jobs, &order);
        if let (Some(a), Some(b)) = (cpu0, cpu_s()) {
            report.add("cpu_s", b - a);
        }
        drop(server);
        measured += wall;
        completed += jobs.len();
        passes.push(checked(
            report,
            &mut checker,
            &circuits,
            &jobs,
            wall,
            &served,
            &stats,
        ));
        if measured >= seconds && completed >= MIN_JOBS {
            break (circuits, jobs);
        }
    };
    end_to_end(report, WORKLOAD, &passes, &setup_s, Latency::PerJob);
    if !traced {
        return;
    }
    let untraced_wall = passes[0].wall_s;
    let cpu_per_pass = report.get("cpu_s").copied().unwrap_or(0.0) / passes.len() as f64;
    report.set("cpu_s", cpu_per_pass);

    // Traced pass: one span per job from submit to completion, tagged by
    // the service its kind gets, plus the pass's server-stat deltas.
    let server = SynthesisServer::start(&ServerOptions { workers: WORKERS });
    let (wall, served, stats) =
        closed_loop(&server, &circuits, &jobs, &submit_order(&jobs, seed, 0));
    drop(server);
    report.set(
        "trace_overhead_frac",
        (wall - untraced_wall) / untraced_wall,
    );
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    for (job, s) in jobs.iter().zip(&served) {
        let name = match job.kind {
            Kind::Cold => "job.cold",
            Kind::Restore => "job.restore",
            Kind::Hit => "job.hit",
        };
        tracer.push(name, &job.key, None, s.submitted, s.completed);
        by_kind[job.kind as usize].push(latency(s));
    }
    for (kind, name) in [
        (Kind::Cold, "server.cold_p50_s"),
        (Kind::Restore, "server.restore_p50_s"),
        (Kind::Hit, "server.hit_p50_s"),
    ] {
        if let Some(p50) = median(&by_kind[kind as usize]) {
            report.set(name, p50);
        }
    }
    probes::server_stats(report, &stats);

    // Replay probe: each family's job sequence run synchronously through
    // the phases the server composes (prepare → saturate → checkpoint →
    // extract → swept CEC against the submitted circuit → map).
    for c in &circuits {
        for (variant, config) in variants() {
            let family = format!("{}/{variant}", c.label);
            let (prepared, _) = tracer.span("prepare", &family, None, || {
                prepare_network(&c.aig, &config)
            });
            let (state, _) = tracer.span("saturate", &family, None, || {
                saturate_network(&prepared, &config)
            });
            probes::saturation(report, &state);
            let Some(restored) = probes::checkpoint(report, tracer, &family, &state) else {
                continue;
            };
            for extractor in [
                ExtractorKind::Sa,
                ExtractorKind::BottomUp,
                ExtractorKind::SlackAware,
            ] {
                let config = config.clone().with_extractor(extractor);
                let source = if extractor == ExtractorKind::Sa {
                    &state
                } else {
                    &restored
                };
                let ((extracted, _), _) = tracer.span("extract", &family, None, || {
                    extract_network(source, &config)
                });
                report.add(
                    "extract.failed",
                    if extracted.is_none() { 1.0 } else { 0.0 },
                );
                let resynthesized = extracted.unwrap_or_else(|| prepared.clone());
                let (verdict, _) = tracer.span("verify", &family, None, || {
                    cec::check_equivalence_swept(&c.aig, &resynthesized, &config.cec, &config.sweep)
                });
                report.add(
                    if verdict.is_equivalent() {
                        "verify.proved"
                    } else {
                        "verify.unknown"
                    },
                    1.0,
                );
                let ((_, netlist), _) = tracer.span("map", &family, None, || {
                    map_network(&resynthesized, &config)
                });
                report.add("map.gates", netlist.num_gates() as f64);
            }
        }
    }
    probes::span_seconds(report, tracer);
    probes::finish_saturation(report);
    probes::dch(report, tracer, WORKLOAD, &circuits, &base_config());
    probes::window(report, &circuits, &base_config());
}
