//! Cross-validation of the static semantic analysis (`kms-analysis`)
//! against the SAT and ATPG oracles — the acceptance criteria of the
//! analysis subsystem:
//!
//! * applying every strash/sweep merge preserves the circuit function
//!   (SAT miter), on random networks (property test) and on the Table I
//!   suites;
//! * every fault in the [`StaticRedundancyReport`] is classified
//!   redundant by the full ATPG engine.
//!
//! [`StaticRedundancyReport`]: kms::analysis::StaticRedundancyReport

use std::collections::BTreeSet;

use proptest::prelude::*;

use kms::analysis::{AnalysisOptions, FaultRef, StaticAnalysis};
use kms::atpg::{analyze, collapsed_faults, Engine, Fault, FaultSite, ParallelOptions};
use kms::core::cross_check_static_analysis;
use kms::gen::random::{random_network, RandomNetworkSpec};
use kms::netlist::{transform, Delay, GateId, GateKind, Network};
use kms::opt::flow::{prepare_benchmark, FlowOptions};
use kms::sat::check_equivalence;
use kms::timing::InputArrivals;
use kms_bench::table1_csa;

fn spec() -> RandomNetworkSpec {
    RandomNetworkSpec {
        inputs: 5,
        gates: 18,
        outputs: 2,
        max_fanin: 3,
        max_delay: 3,
    }
}

/// The late-last-input MCNC preparation shared with `bench_atpg` /
/// `bench_sweep`.
fn mcnc_net(name: &str) -> Network {
    let suite = kms::gen::mcnc::table1_suite();
    let b = suite.iter().find(|b| b.name == name).unwrap();
    let late = |net: &Network| {
        let mut arr = InputArrivals::zero();
        if let Some(&last) = net.inputs().last() {
            arr.set(last, 4);
        }
        arr
    };
    let (net, _) = prepare_benchmark(&b.pla, b.name, late, FlowOptions::default());
    net
}

fn fault_ref(f: Fault) -> (FaultRef, bool) {
    let site = match f.site {
        FaultSite::GateOutput(g) => FaultRef::Output(g),
        FaultSite::Conn(c) => FaultRef::Conn(c),
    };
    (site, f.stuck)
}

/// Applies every merge and constant the analysis proved — fanouts of a
/// merged node rewired to its representative (through a fresh inverter
/// for antivalent merges), constant nodes replaced by `Const` gates —
/// and returns the rewritten copy.
fn apply_merges(net: &Network, analysis: &StaticAnalysis) -> Network {
    let merges: Vec<(GateId, GateId, bool)> = net
        .topo_order()
        .iter()
        .filter_map(|&g| analysis.node_rep(g).map(|(r, same)| (g, r, same)))
        .collect();
    let constants: Vec<(GateId, bool)> = net
        .topo_order()
        .iter()
        .filter_map(|&g| analysis.node_constant(g).map(|v| (g, v)))
        .collect();
    let mut out = net.clone();
    for (node, rep, same) in merges {
        let target = if same {
            rep
        } else {
            out.add_gate(GateKind::Not, &[rep], Delay::ZERO)
        };
        transform::substitute_gate(&mut out, node, target);
    }
    for (node, value) in constants {
        let c = out.add_const(value);
        transform::substitute_gate(&mut out, node, c);
    }
    out.validate().expect("merged network validates");
    out
}

/// The redundant fault set of the ATPG oracle.
fn oracle_redundant(net: &Network) -> BTreeSet<(FaultRef, bool)> {
    analyze(net, Engine::SharedSat(ParallelOptions::default()))
        .redundant()
        .into_iter()
        .map(fault_ref)
        .collect()
}

/// Asserts the acceptance criterion on one network: the static report is
/// a subset of the ATPG redundant set.
fn check_report_subset(net: &Network, context: &str) {
    let analysis = StaticAnalysis::build(net, &AnalysisOptions::default());
    let faults: Vec<(FaultRef, bool)> = collapsed_faults(net).into_iter().map(fault_ref).collect();
    let report = analysis.report(&faults);
    let redundant = oracle_redundant(net);
    for proof in &report.proofs {
        assert!(
            redundant.contains(&(proof.fault, proof.stuck)),
            "{context}: static proof for testable fault {:?}/{}",
            proof.fault,
            proof.stuck,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Strash + SAT-sweep merging preserves the circuit function.
    #[test]
    fn merging_preserves_function(seed in 1u64..5000) {
        let net = random_network(seed, spec());
        let analysis = StaticAnalysis::build(&net, &AnalysisOptions::default());
        let merged = apply_merges(&net, &analysis);
        prop_assert!(
            check_equivalence(&net, &merged).is_equivalent(),
            "seed {seed}: merge changed the function",
        );
    }

    /// Every statically-proved fault is redundant per the ATPG oracle.
    #[test]
    fn static_proofs_sound_on_random_networks(seed in 1u64..2000) {
        let net = random_network(seed, spec());
        check_report_subset(&net, &format!("seed {seed}"));
    }
}

#[test]
fn merging_preserves_function_on_table1() {
    for (bits, block) in [(2usize, 2usize), (4, 4), (8, 2)] {
        let net = table1_csa(bits, block);
        let analysis = StaticAnalysis::build(&net, &AnalysisOptions::default());
        let merged = apply_merges(&net, &analysis);
        assert!(
            check_equivalence(&net, &merged).is_equivalent(),
            "csa {bits}.{block}: merge changed the function",
        );
    }
    let net = mcnc_net("rd73");
    let analysis = StaticAnalysis::build(&net, &AnalysisOptions::default());
    let merged = apply_merges(&net, &analysis);
    assert!(check_equivalence(&net, &merged).is_equivalent());
}

#[test]
fn static_report_subset_of_atpg_on_table1() {
    for (bits, block) in [(2usize, 2usize), (4, 4), (8, 2)] {
        let net = table1_csa(bits, block);
        check_report_subset(&net, &format!("csa {bits}.{block}"));
    }
}

#[test]
fn static_report_subset_of_atpg_on_mcnc() {
    for name in ["rd73", "misex1"] {
        let net = mcnc_net(name);
        check_report_subset(&net, name);
    }
}

#[test]
fn cross_check_sound_on_table1() {
    // The kms-core cross-check (fault proofs vs ATPG, merges and
    // constants vs fresh miters) holds on the canonical suites.
    for (bits, block) in [(2usize, 2usize), (4, 4)] {
        let net = table1_csa(bits, block);
        let check = cross_check_static_analysis(&net, &AnalysisOptions::default(), Engine::Sat);
        assert!(check.sound(), "csa {bits}.{block}: {check:?}");
        // The static-proof acceptance floor: at least half of the
        // redundant faults are proved without invoking SAT/PODEM.
        assert!(
            2 * check.static_proved >= check.oracle_redundant,
            "csa {bits}.{block}: static proofs below 50% ({} of {})",
            check.static_proved,
            check.oracle_redundant,
        );
    }
}
