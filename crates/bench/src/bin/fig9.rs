//! Figure 9: runtime breakdown of the E-morphic flow — how much of the total
//! wall-clock time is spent in the conventional delay-oriented flow, in
//! e-graph conversion, and in SA extraction, for both cost models. Every row
//! also reports whether the flow proved its result against the input; the
//! binary exits non-zero if any row is unproved.
//!
//! Usage: `cargo run -p emorphic-bench --bin fig9 --release`

use emorphic::flow::emorphic_flow;
use emorphic_bench::{flow_config_for, scale_from_env, suite, train_learned_model};

fn main() {
    let scale = scale_from_env();
    let circuits = suite();
    let config = flow_config_for(scale);

    println!("Figure 9 reproduction: runtime breakdown of E-morphic (scale {scale:?})");

    let training: Vec<aig::Aig> = circuits
        .iter()
        .filter(|c| c.aig.num_ands() < 2_000)
        .map(|c| c.aig.clone())
        .collect();
    let (model, _, _) = train_learned_model(&training, 5);
    let mut unproved = Vec::new();

    for (title, use_ml) in [
        ("E-morphic with ABC-style mapping cost model", false),
        ("E-morphic with ML cost model", true),
    ] {
        println!("\n== {title} ==");
        println!(
            "{:<12} {:>22} {:>20} {:>18} {:>8} {:>7}",
            "circuit",
            "delay-oriented flow %",
            "egraph conversion %",
            "SA extraction %",
            "CEC %",
            "proved"
        );
        for circuit in circuits.iter().rev() {
            let cfg = if use_ml {
                config.clone().with_learned_model(model.clone())
            } else {
                config.clone()
            };
            let result = emorphic_flow(&circuit.aig, &cfg);
            let (conventional, conversion, extraction, verification) =
                result.breakdown.percentages();
            println!(
                "{:<12} {:>22.1} {:>20.1} {:>18.1} {:>8.1} {:>7}",
                circuit.name,
                conventional,
                conversion,
                extraction,
                verification,
                if result.verified { "yes" } else { "NO" }
            );
            if !result.verified {
                unproved.push(format!("{} ({title})", circuit.name));
            }
        }
    }

    println!("\nPaper (Fig. 9): the conventional delay-oriented flow dominates the runtime,");
    println!("the e-graph conversion is negligible, and the SA extraction share shrinks on");
    println!("the larger circuits; the ML cost model further reduces the extraction share.");

    if !unproved.is_empty() {
        eprintln!("FAIL: unproved results: {}", unproved.join(", "));
        std::process::exit(1);
    }
}
