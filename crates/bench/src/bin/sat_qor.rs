//! SAT-engine QoR gate: the modern CDCL engine (`sat::Solver`) against the
//! retained first-generation oracle (`sat::ReferenceSolver`) on the CNF
//! workloads that sit on the flow's critical path.
//!
//! Two workloads are measured:
//!
//! * **Miters** — each benchgen circuit is paired with a `logic_opt`
//!   restructuring of itself and Tseitin-encoded over shared inputs; every
//!   output pair is then decided with the same two-phase assumption queries
//!   the CEC uses. Both engines answer the identical query sequence; the
//!   binary asserts zero verdict disagreements, validates every Sat model by
//!   clause evaluation, checks failed-assumption cores re-solve to Unsat,
//!   and requires the new engine to spend no more conflicts and no more
//!   wall time than the reference on every circuit.
//! * **Sweeps** — `SatSweeper::find_equivalences` over a choice-rich stacked
//!   network, with counterexample-guided class refinement on vs off. The
//!   binary asserts refinement needs no more SAT calls per proved class and,
//!   when neither run hit the conflict budget, that every class the
//!   refinement-off run proves is also proved with refinement on.
//!
//! Results go to `BENCH_sat.json` (a `{"miters": [...], "sweeps": [...]}`
//! object; each miter row carries per-engine conflicts/propagations/time,
//! each sweep row the SAT-call, structural-proof and split counters).
//!
//! Usage: `cargo run -p emorphic-bench --bin sat_qor --release [-- --smoke]`
//! Set `EMORPHIC_SCALE=tiny|small|default` to control circuit sizes.

use aig::Aig;
use cec::{AigCnf, SatSweeper, SweepOptions};
use emorphic_bench::scale_from_env;
use sat::dimacs::CnfFormula;
use sat::{ClauseSink, Lit as SLit, SatResult};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct MiterRecord {
    circuit: String,
    engine: String,
    queries: usize,
    sat: usize,
    unsat: usize,
    unknown: usize,
    conflicts: u64,
    propagations: u64,
    solve_s: f64,
}

#[derive(Serialize)]
struct SweepRecord {
    circuit: String,
    cex_refinement: bool,
    sat_calls: usize,
    structural: usize,
    proved_classes: usize,
    redundant_nodes: usize,
    resimulations: usize,
    cex_splits: usize,
    calls_per_class: f64,
    sweep_s: f64,
}

#[derive(Serialize)]
struct Report {
    miters: Vec<MiterRecord>,
    sweeps: Vec<SweepRecord>,
}

/// Rebuilds `aig` with its operand halves swapped (`f(a, b)` → `f(b, a)`).
/// For commutative arithmetic this yields an equivalent circuit with
/// structurally unrelated cones — the classic CEC workload, where conflict
/// analysis quality decides the outcome rather than structural luck.
fn commuted(aig: &Aig) -> Aig {
    let n = aig.num_inputs();
    let w = n / 2;
    let mut fresh = Aig::new(format!("{}_comm", aig.name()));
    let fresh_inputs: Vec<aig::Lit> = (0..n).map(|i| fresh.add_input(aig.input_name(i))).collect();
    let mut map: Vec<Option<aig::Lit>> = vec![None; aig.num_nodes()];
    map[0] = Some(aig::Lit::FALSE);
    for (idx, &input) in aig.inputs().iter().enumerate() {
        map[input.index()] = Some(fresh_inputs[(idx + w) % n]);
    }
    for id in aig.and_ids() {
        let (f0, f1) = aig.fanins(id);
        let a = map[f0.node().index()].unwrap().xor(f0.is_complemented());
        let b = map[f1.node().index()].unwrap().xor(f1.is_complemented());
        map[id.index()] = Some(fresh.and(a, b));
    }
    for (idx, &po) in aig.outputs().iter().enumerate() {
        let lit = map[po.node().index()].unwrap().xor(po.is_complemented());
        fresh.add_output(lit, aig.output_name(idx));
    }
    fresh
}

/// The miter CNF: both circuits over shared inputs, plus the query plan
/// (every matched output pair, and one crossed pair to exercise Sat).
struct MiterInstance {
    cnf: CnfFormula,
    queries: Vec<[SLit; 2]>,
}

fn build_miter(golden: &Aig, revised: &Aig) -> MiterInstance {
    let mut cnf = CnfFormula::default();
    let shared: Vec<SLit> = (0..golden.num_inputs())
        .map(|_| SLit::pos(cnf.new_var()))
        .collect();
    let image_a = AigCnf::encode(&mut cnf, golden, Some(&shared));
    let image_b = AigCnf::encode(&mut cnf, revised, Some(&shared));
    let mut queries = Vec::new();
    for (o, (&a, &b)) in image_a
        .output_lits
        .iter()
        .zip(&image_b.output_lits)
        .enumerate()
    {
        // Two-phase inequivalence queries, exactly as the CEC issues them.
        queries.push([a, !b]);
        queries.push([!a, b]);
        if o == 0 && image_b.output_lits.len() >= 2 {
            // One crossed pair so the Sat/model path is exercised too.
            let c = image_b.output_lits[1];
            queries.push([a, !c]);
            queries.push([!a, c]);
        }
    }
    MiterInstance { cnf, queries }
}

fn clauses_satisfied(cnf: &CnfFormula, mut value: impl FnMut(SLit) -> Option<bool>) -> bool {
    cnf.clauses
        .iter()
        .all(|cl| cl.iter().any(|&l| value(l).unwrap_or(true)))
}

/// Runs the full query plan on one engine; `solve` adapts the two APIs.
fn run_queries<S>(
    instance: &MiterInstance,
    engine: &mut S,
    mut solve: impl FnMut(&mut S, &[SLit]) -> SatResult,
    mut value: impl FnMut(&S, SLit) -> Option<bool>,
) -> (Vec<SatResult>, usize, f64) {
    let mut verdicts = Vec::with_capacity(instance.queries.len());
    let mut bad_models = 0usize;
    let mut solve_s = 0.0f64;
    for q in &instance.queries {
        let t = Instant::now();
        let verdict = solve(engine, q);
        solve_s += t.elapsed().as_secs_f64();
        if verdict == SatResult::Sat && !clauses_satisfied(&instance.cnf, |l| value(engine, l)) {
            bad_models += 1;
        }
        verdicts.push(verdict);
    }
    (verdicts, bad_models, solve_s)
}

fn count(verdicts: &[SatResult], which: SatResult) -> usize {
    verdicts.iter().filter(|&&v| v == which).count()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = scale_from_env();
    // (name, circuit, commuted-partner?): commuted pairs give structurally
    // unrelated miters, the rest are paired with a balanced restructuring.
    let circuits: Vec<(String, Aig, bool)> = if smoke {
        vec![
            ("adder16".into(), benchgen::adder(16).aig, true),
            ("multiplier4".into(), benchgen::multiplier(4).aig, true),
        ]
    } else {
        let (aw, mw, sw) = match scale {
            benchgen::SuiteScale::Tiny => (16, 4, 4),
            benchgen::SuiteScale::Small => (24, 5, 5),
            benchgen::SuiteScale::Default => (32, 6, 6),
        };
        vec![
            (format!("adder{aw}"), benchgen::adder(aw).aig, true),
            (
                format!("multiplier{mw}"),
                benchgen::multiplier(mw).aig,
                true,
            ),
            (format!("square{sw}"), benchgen::square(sw).aig, false),
            ("hypotenuse4".into(), benchgen::hypotenuse(4).aig, false),
            ("arbiter8".into(), benchgen::arbiter(8).aig, false),
        ]
    };

    println!("SAT-engine QoR: modern CDCL vs reference oracle, identical query plans");
    println!(
        "{:<14} {:<10} {:>7} {:>6} {:>6} {:>4} {:>10} {:>12} {:>9}",
        "circuit", "engine", "queries", "sat", "unsat", "unk", "conflicts", "props", "solve(s)"
    );

    let mut violations = 0usize;
    let mut miters: Vec<MiterRecord> = Vec::new();
    for (name, golden, commute) in &circuits {
        let revised = if *commute {
            commuted(golden)
        } else {
            logic_opt::balance(golden)
        };
        let instance = build_miter(golden, &revised);

        let mut solver = instance.cnf.to_solver();
        let (new_verdicts, new_bad, new_s) = run_queries(
            &instance,
            &mut solver,
            |s, q| s.solve_with_assumptions(q),
            |s, l| s.value(l),
        );
        let new_stats = solver.stats();

        // The post-query solver state must satisfy every structural invariant
        // (watches, trail, heap, learnt LBDs).
        let solver_audit = audit::audit_solver(&solver, audit::AuditLevel::Paranoid);
        if !solver_audit.is_clean() {
            eprintln!("{name}: solver audit failed:\n{solver_audit}");
            violations += 1;
        }

        let mut oracle = instance.cnf.to_reference_solver();
        let (old_verdicts, old_bad, old_s) = run_queries(
            &instance,
            &mut oracle,
            |s, q| s.solve_with_assumptions(q),
            |s, l| s.value(l),
        );
        let old_stats = oracle.stats();

        if new_verdicts != old_verdicts {
            eprintln!("{name}: VERDICT DISAGREEMENT between engines");
            violations += 1;
        }
        if new_bad + old_bad > 0 {
            eprintln!("{name}: {new_bad}+{old_bad} Sat model(s) violating a clause");
            violations += 1;
        }
        if new_stats.conflicts > old_stats.conflicts {
            eprintln!(
                "{name}: new engine used more conflicts ({} > {})",
                new_stats.conflicts, old_stats.conflicts
            );
            violations += 1;
        }
        if new_s > old_s {
            eprintln!("{name}: new engine slower ({new_s:.3}s > {old_s:.3}s)");
            violations += 1;
        }

        // Every Unsat answer must come with an assumption core that re-solves
        // to Unsat (checked on a fresh solver so the timed runs stay clean).
        let mut core_check = instance.cnf.to_solver();
        for (q, &v) in instance.queries.iter().zip(&new_verdicts) {
            if v != SatResult::Unsat {
                continue;
            }
            if core_check.solve_with_assumptions(q) != SatResult::Unsat {
                eprintln!("{name}: Unsat query not reproducible");
                violations += 1;
                continue;
            }
            let core: Vec<SLit> = core_check.failed_assumptions().to_vec();
            if !core.iter().all(|l| q.contains(l)) {
                eprintln!("{name}: core contains non-assumption literals");
                violations += 1;
            }
            if core_check.solve_with_assumptions(&core) != SatResult::Unsat {
                eprintln!("{name}: failed-assumption core is not unsatisfiable");
                violations += 1;
            }
        }

        for (engine, verdicts, stats_conflicts, stats_props, solve_s) in [
            (
                "cdcl",
                &new_verdicts,
                new_stats.conflicts,
                new_stats.propagations,
                new_s,
            ),
            (
                "reference",
                &old_verdicts,
                old_stats.conflicts,
                old_stats.propagations,
                old_s,
            ),
        ] {
            println!(
                "{:<14} {:<10} {:>7} {:>6} {:>6} {:>4} {:>10} {:>12} {:>9.3}",
                name,
                engine,
                verdicts.len(),
                count(verdicts, SatResult::Sat),
                count(verdicts, SatResult::Unsat),
                count(verdicts, SatResult::Unknown),
                stats_conflicts,
                stats_props,
                solve_s
            );
            miters.push(MiterRecord {
                circuit: name.clone(),
                engine: engine.into(),
                queries: verdicts.len(),
                sat: count(verdicts, SatResult::Sat),
                unsat: count(verdicts, SatResult::Unsat),
                unknown: count(verdicts, SatResult::Unknown),
                conflicts: stats_conflicts,
                propagations: stats_props,
                solve_s,
            });
        }
    }

    // Sweep workload: a choice-rich network (circuit stacked with two of its
    // restructurings) swept with and without counterexample refinement.
    println!(
        "\n{:<14} {:<6} {:>9} {:>10} {:>8} {:>9} {:>7} {:>7} {:>11} {:>9}",
        "circuit",
        "cex",
        "sat_calls",
        "structural",
        "classes",
        "redundant",
        "resim",
        "splits",
        "calls/class",
        "sweep(s)"
    );
    let mut sweeps: Vec<SweepRecord> = Vec::new();
    for (name, golden, _) in &circuits {
        let stacked = aig::stack_over_shared_inputs(golden, &logic_opt::balance(golden), "_b");
        let stacked = aig::stack_over_shared_inputs(&stacked, &logic_opt::rewrite(&stacked), "_c");
        let mut calls_per_class = [f64::NAN; 2];
        // Proved classes and whether the budget cut any pair, per run.
        let mut outcomes = Vec::with_capacity(2);
        for cex_refinement in [true, false] {
            // One simulation word (64 patterns) leaves plenty of aliased
            // candidates for SAT to refute — the regime where refinement pays.
            let sweeper = SatSweeper::new(SweepOptions {
                cex_refinement,
                sim_words: 1,
                ..SweepOptions::default()
            });
            let t = Instant::now();
            let (classes, stats) = sweeper.find_equivalences(&stacked);
            let sweep_s = t.elapsed().as_secs_f64();
            let proved_classes = classes.classes.len();
            let cpc = stats.sat_calls as f64 / proved_classes.max(1) as f64;
            calls_per_class[usize::from(!cex_refinement)] = cpc;
            println!(
                "{:<14} {:<6} {:>9} {:>10} {:>8} {:>9} {:>7} {:>7} {:>11.2} {:>9.3}",
                name,
                if cex_refinement { "on" } else { "off" },
                stats.sat_calls,
                stats.structural,
                proved_classes,
                classes.num_redundant(),
                stats.resimulations,
                stats.cex_splits,
                cpc,
                sweep_s
            );
            sweeps.push(SweepRecord {
                circuit: name.clone(),
                cex_refinement,
                sat_calls: stats.sat_calls,
                structural: stats.structural,
                proved_classes,
                redundant_nodes: classes.num_redundant(),
                resimulations: stats.resimulations,
                cex_splits: stats.cex_splits,
                calls_per_class: cpc,
                sweep_s,
            });
            outcomes.push((classes.classes, stats.unknown));
        }
        if calls_per_class[0] > calls_per_class[1] {
            eprintln!(
                "{name}: refinement used MORE SAT calls per proved class ({:.2} > {:.2})",
                calls_per_class[0], calls_per_class[1]
            );
            violations += 1;
        }
        // Proofs are exact, so without budget cuts both runs must agree on
        // every class the refinement-off run proves. (That run drops a
        // refuted member instead of re-grouping it, so it may prove fewer.)
        if let [(on, 0), (off, 0)] = outcomes.as_slice() {
            if let Some(class) = off.iter().find(|c| !on.contains(c)) {
                eprintln!(
                    "{name}: refinement on and off proved different classes (off-only: {class:?})"
                );
                violations += 1;
            }
        }
    }

    let report = Report { miters, sweeps };
    let json = serde_json::to_string_pretty(&report).expect("report serialize");
    std::fs::write("BENCH_sat.json", json).expect("write BENCH_sat.json");
    println!(
        "\n{} circuit(s), {} violation(s); wrote BENCH_sat.json",
        circuits.len(),
        violations
    );
    if violations > 0 {
        std::process::exit(1);
    }
}
