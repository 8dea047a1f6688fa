//! Workspace integration tests: the complete E-morphic flow on several
//! benchmark circuits, spanning every crate in the workspace.

use cec::{check_equivalence, CecOptions};
use emorphic::flow::{
    baseline_flow, emorphic_flow, emorphic_map_flow, saturate_network, verify_network, FlowConfig,
    MapFlowConfig,
};

fn tiny_suite() -> Vec<benchgen::BenchCircuit> {
    // A cross-section of the benchmark families at very small sizes.
    vec![
        benchgen::adder(6),
        benchgen::multiplier(4),
        benchgen::arbiter(8),
        benchgen::mem_ctrl(5),
    ]
}

#[test]
fn baseline_flow_runs_on_every_circuit_family() {
    let config = FlowConfig::fast();
    for circuit in tiny_suite() {
        let result = baseline_flow(&circuit.aig, &config);
        assert!(result.qor.area_um2 > 0.0, "{}", circuit.name);
        assert!(result.qor.delay_ps > 0.0, "{}", circuit.name);
        assert_eq!(result.qor.name, circuit.name);
        // The final technology-independent network is still equivalent.
        let check = check_equivalence(&circuit.aig, &result.final_aig, &CecOptions::default());
        assert!(check.is_equivalent(), "{}: {:?}", circuit.name, check);
    }
}

#[test]
fn emorphic_flow_is_equivalence_preserving_end_to_end() {
    let config = FlowConfig::fast();
    for circuit in tiny_suite() {
        let result = emorphic_flow(&circuit.aig, &config);
        assert!(
            result.verified,
            "{} failed internal verification",
            circuit.name
        );
        let check = check_equivalence(&circuit.aig, &result.final_aig, &CecOptions::default());
        assert!(check.is_equivalent(), "{}: {:?}", circuit.name, check);
        assert!(result.egraph_nodes >= result.egraph_classes);
        assert!(result.egraph_classes > 0);
    }
}

#[test]
fn emorphic_explores_more_structures_than_it_started_with() {
    let config = FlowConfig::fast();
    let circuit = benchgen::adder(8);
    let result = emorphic_flow(&circuit.aig, &config);
    // After rewriting there must be strictly more e-nodes than e-classes:
    // multiple structural choices per signal (the paper's core premise).
    assert!(
        result.egraph_nodes > result.egraph_classes,
        "{} e-nodes vs {} e-classes",
        result.egraph_nodes,
        result.egraph_classes
    );
}

#[test]
fn flow_runtime_breakdown_is_consistent() {
    let config = FlowConfig::fast();
    let result = emorphic_flow(&benchgen::adder(6).aig, &config);
    let total = result.breakdown.total();
    // The four parts cover disjoint intervals of the flow, so their sum can
    // never exceed the measured runtime (the old double-counted conversion
    // time violated exactly this).
    assert!(total <= result.runtime + std::time::Duration::from_millis(5));
    let (a, b, c, d) = result.breakdown.percentages();
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0);
    assert!((a + b + c + d - 100.0).abs() < 1.0);
}

#[test]
fn multiplier8_flow_is_proved() {
    // Swept CEC against the submitted circuit closes the multiplier miter
    // that a monolithic check leaves `Unknown` within the conflict budget.
    let result = emorphic_flow(&benchgen::multiplier(8).aig, &FlowConfig::fast());
    assert!(result.verified);
}

#[test]
fn map_flow_saturates_like_saturate_network() {
    let circuit = benchgen::multiplier(4).aig;
    let config = MapFlowConfig::fast();
    let result = emorphic_map_flow(&circuit, &config).unwrap();
    let state = saturate_network(&circuit.strash_copy(), &config.flow);
    assert_eq!(result.egraph_nodes, state.egraph.total_nodes());
}

/// `circuit` with its first output inverted.
fn with_first_output_inverted(circuit: &aig::Aig) -> aig::Aig {
    let mut broken = circuit.clone();
    broken.set_output(0, circuit.outputs()[0].not());
    broken
}

#[test]
fn verify_falls_back_to_prepared_network_on_mismatch() {
    let submitted = benchgen::adder(4).aig;
    let mut prepared = submitted.strash_copy();
    prepared.set_name("prepared");
    let candidate = with_first_output_inverted(&submitted);
    let (kept, verified) = verify_network(&submitted, &prepared, candidate, &FlowConfig::fast());
    assert!(!verified);
    assert_eq!(kept.name(), "prepared");
    assert_eq!(
        kept.structural_fingerprint(),
        prepared.structural_fingerprint()
    );
}

#[test]
fn verify_disabled_runs_no_check() {
    // A wrong candidate comes back untouched and reported verified: nothing
    // looked at it.
    let submitted = benchgen::adder(4).aig;
    let candidate = with_first_output_inverted(&submitted);
    let config = FlowConfig {
        verify: false,
        ..FlowConfig::fast()
    };
    let (kept, verified) = verify_network(&submitted, &submitted, candidate.clone(), &config);
    assert!(verified);
    assert_eq!(
        kept.structural_fingerprint(),
        candidate.structural_fingerprint()
    );
    assert_ne!(
        kept.structural_fingerprint(),
        submitted.structural_fingerprint()
    );
}
