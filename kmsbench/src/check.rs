//! Output checks, run outside the timed region.
//!
//! Gate counts and delays are never compared with recorded values: they
//! are metrics, not correctness. A circuit is correct when its output is
//! equivalent to the input, fully stuck-at testable, and no slower.

use kms_atpg::{analyze, Engine};
use kms_netlist::Network;
use kms_sat::check_equivalence;
use kms_timing::{computed_delay, InputArrivals, PathCondition, Time};

/// Widest input count checked by exhaustive simulation (2^20 vectors, 64
/// per simulator call); wider circuits get a SAT miter plus random
/// vectors.
const EXHAUSTIVE_MAX_INPUTS: usize = 20;
const RANDOM_VECTORS: usize = 4096;
/// `table1`'s delay metric: viability up to this many inputs, static
/// sensitization above, with its path-enumeration caps.
const VIABILITY_MAX_INPUTS: usize = 16;
const VIABILITY_CAP: usize = 1 << 22;
const STATIC_CAP: usize = 200_000;

/// The outcome of [`verify`].
pub struct Verdict {
    /// Empty when every check passed.
    pub failures: Vec<String>,
    pub delay_in: Time,
    pub delay_out: Time,
}

/// Checks `output` (what `kms()` returned) against `input` (what it was
/// given) under `arrivals`: equivalence by simulation or SAT miter, full
/// testability by the per-fault `Engine::Sat` (not the shared engine that
/// did the removal), and neither the topological nor the computed delay
/// increased.
pub fn verify(input: &Network, output: &Network, arrivals: &InputArrivals) -> Verdict {
    let mut failures = Vec::new();
    if let Err(e) = equivalent(input, output) {
        failures.push(format!("not equivalent to the kms() input: {e}"));
    }
    let report = analyze(output, Engine::Sat);
    if !report.fully_testable() {
        let redundant = report.verdicts.iter().filter(|v| v.is_redundant()).count();
        let unknown = report.unknown_count();
        failures.push(format!(
            "not fully testable: {redundant} redundant, {unknown} unknown faults"
        ));
    }
    let (topo_in, topo_out) = (
        topological_delay(input, arrivals),
        topological_delay(output, arrivals),
    );
    if topo_out > topo_in {
        failures.push(format!("topological delay rose {topo_in} -> {topo_out}"));
    }
    let (condition, cap) = if input.inputs().len() > VIABILITY_MAX_INPUTS {
        (PathCondition::StaticSensitization, STATIC_CAP)
    } else {
        (PathCondition::Viability, VIABILITY_CAP)
    };
    let delay = |net: &Network| computed_delay(net, arrivals, condition, cap).map(|r| r.delay);
    let (delay_in, delay_out) = match (delay(input), delay(output)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            failures.push(format!("computed delay failed: {e}"));
            (0, 0)
        }
    };
    if delay_out > delay_in {
        failures.push(format!("computed delay rose {delay_in} -> {delay_out}"));
    }
    Verdict {
        failures,
        delay_in,
        delay_out,
    }
}

/// Functional equivalence with inputs and outputs matched by position.
pub fn equivalent(a: &Network, b: &Network) -> Result<(), String> {
    let n = a.inputs().len();
    if n != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(format!(
            "interface differs: {}/{} vs {}/{} inputs/outputs",
            n,
            a.outputs().len(),
            b.inputs().len(),
            b.outputs().len()
        ));
    }
    let show = |v: Vec<bool>| {
        v.iter()
            .map(|&x| if x { '1' } else { '0' })
            .collect::<String>()
    };
    if n <= EXHAUSTIVE_MAX_INPUTS {
        return a
            .exhaustive_equiv(b)
            .map_err(|v| format!("differs on {}", show(v)));
    }
    a.random_equiv(b, RANDOM_VECTORS, 0x6B6D_7362)
        .map_err(|v| format!("differs on random vector {}", show(v)))?;
    match check_equivalence(a, b) {
        kms_sat::Equivalence::Equivalent => Ok(()),
        kms_sat::Equivalence::CounterExample(v) => Err(format!("miter SAT on {}", show(v))),
    }
}

/// Latest output arrival over all structural paths: input arrivals plus
/// gate and wire delays. Constants never arrive. Written here, not taken
/// from the timing crate under test.
pub fn topological_delay(net: &Network, arrivals: &InputArrivals) -> Time {
    let mut at: Vec<Option<Time>> = vec![None; net.num_gate_slots()];
    for id in net.topo_order() {
        let g = net.gate(id);
        at[id.index()] = match g.kind {
            kms_netlist::GateKind::Input => Some(arrivals.get(id)),
            kms_netlist::GateKind::Const(_) => None,
            _ => g
                .pins
                .iter()
                .filter_map(|p| at[p.src.index()].map(|t| t + p.wire_delay.units()))
                .max()
                .map(|t| t + g.delay.units()),
        };
    }
    net.outputs()
        .iter()
        .filter_map(|o| at[o.src.index()])
        .max()
        .unwrap_or(0)
}
