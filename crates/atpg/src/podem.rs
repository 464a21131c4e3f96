//! PODEM (path-oriented decision making) test generation.
//!
//! The five-valued D-calculus is represented as a pair of three-valued
//! simulations (good, faulty): `D = (1,0)`, `D̄ = (0,1)`. Decisions are
//! made only on primary inputs, with objective/backtrace heuristics and
//! exhaustive backtracking, so the procedure is complete: exhausting the
//! decision tree proves the fault redundant. Three-valued simulation is
//! monotone in the unknowns, which is what makes the activation,
//! D-frontier, and X-path prunes sound.

use kms_netlist::{ConnRef, GateId, GateKind, Network, Topology, Value};

use crate::fault::{Fault, FaultSite};

/// The outcome of a PODEM run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PodemResult {
    /// A detecting input cube (one [`Value`] per primary input; `X` means
    /// either value works).
    Test(Vec<Value>),
    /// The decision tree was exhausted: the fault is untestable
    /// (redundant).
    Redundant,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

impl PodemResult {
    /// The test as Booleans with `X` filled as 0, if a test was found.
    pub fn test_vector(&self) -> Option<Vec<bool>> {
        match self {
            PodemResult::Test(cube) => {
                Some(cube.iter().map(|v| v.to_bool().unwrap_or(false)).collect())
            }
            _ => None,
        }
    }
}

/// What a series of PODEM runs decided: the budgeted pre-pass of the
/// shared-CNF classifier reports these so that a removal phase PODEM
/// settles does not read as near-zero solver work. Every surface names
/// them `podem_calls`, `podem_redundant` and `podem_aborted`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PodemStats {
    /// Runs started.
    pub calls: u64,
    /// Runs that exhausted the decision tree (fault proved redundant).
    pub redundant: u64,
    /// Runs that hit the backtrack limit; the classifier falls through to
    /// SAT for these.
    pub aborted: u64,
}

impl PodemStats {
    /// Counts one run's outcome.
    pub(crate) fn record(&mut self, result: &PodemResult) {
        self.calls += 1;
        match result {
            PodemResult::Test(_) => {}
            PodemResult::Redundant => self.redundant += 1,
            PodemResult::Aborted => self.aborted += 1,
        }
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: &PodemStats) {
        self.calls += other.calls;
        self.redundant += other.redundant;
        self.aborted += other.aborted;
    }

    /// The three counters as JSON members (no braces), for embedding in a
    /// report object.
    pub fn render_json_fields(&self) -> String {
        format!(
            "\"podem_calls\": {}, \"podem_redundant\": {}, \"podem_aborted\": {}",
            self.calls, self.redundant, self.aborted
        )
    }
}

/// A good/faulty value pair (the five-valued calculus: 0, 1, X, D, D̄ plus
/// the mixed partially-known states).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Pair {
    good: Value,
    faulty: Value,
}

impl Pair {
    const X: Pair = Pair {
        good: Value::X,
        faulty: Value::X,
    };

    fn is_d_or_dbar(self) -> bool {
        matches!(
            (self.good, self.faulty),
            (Value::One, Value::Zero) | (Value::Zero, Value::One)
        )
    }

    fn has_unknown(self) -> bool {
        self.good == Value::X || self.faulty == Value::X
    }
}

fn eval3(kind: GateKind, vals: &[Value]) -> Value {
    match kind {
        GateKind::Input => unreachable!("inputs seeded"),
        GateKind::Const(b) => Value::known(b),
        GateKind::Buf => vals[0],
        GateKind::Not => vals[0].not(),
        GateKind::And | GateKind::Nand => {
            let mut out = Value::One;
            for &v in vals {
                out = match (out, v) {
                    (Value::Zero, _) | (_, Value::Zero) => Value::Zero,
                    (Value::X, _) | (_, Value::X) => Value::X,
                    _ => Value::One,
                };
            }
            if kind == GateKind::Nand {
                out.not()
            } else {
                out
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut out = Value::Zero;
            for &v in vals {
                out = match (out, v) {
                    (Value::One, _) | (_, Value::One) => Value::One,
                    (Value::X, _) | (_, Value::X) => Value::X,
                    _ => Value::Zero,
                };
            }
            if kind == GateKind::Nor {
                out.not()
            } else {
                out
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut out = Value::Zero;
            for &v in vals {
                out = match (out, v) {
                    (Value::X, _) | (_, Value::X) => Value::X,
                    (a, b) => Value::known((a == Value::One) ^ (b == Value::One)),
                };
            }
            if kind == GateKind::Xnor {
                out.not()
            } else {
                out
            }
        }
        GateKind::Mux => match vals[0] {
            Value::Zero => vals[1],
            Value::One => vals[2],
            Value::X => {
                if vals[1] == vals[2] && vals[1] != Value::X {
                    vals[1]
                } else {
                    Value::X
                }
            }
        },
    }
}

/// Sentinel in [`Podem`]'s slot → input-position table for every slot
/// that is not a primary input.
const NOT_INPUT: u32 = u32::MAX;

/// The PODEM engine for one network. It holds its whole workspace, so a
/// caller that classifies many faults of a fixed network (the shared-CNF
/// classifier does, once per run) builds it once and calls
/// [`Podem::run`] per fault.
///
/// Implication is **event-driven**: each call starts from the cached
/// all-`X` fault-free values, injects the fault, and after every decision
/// or backtrack re-evaluates only the fanout of the primary inputs that
/// changed, level by level. Gate values are a pure function of the
/// input assignment, so they match a full re-simulation exactly. The
/// D-frontier is read off the fault's transitive fanout in topological
/// order — a D or D̄ cannot appear anywhere else — so it comes out in the
/// same order as a scan of the whole network, and the search makes the
/// same decisions.
pub struct Podem<'a> {
    net: &'a Network,
    topo: &'a Topology,
    /// Slot → primary-input position ([`NOT_INPUT`] elsewhere).
    input_pos: Vec<u32>,
    /// Slot → drives some primary output.
    is_po: Vec<bool>,
    /// Fault-free values under the all-`X` assignment.
    base: Vec<Pair>,
    /// Current values; they differ from `base` only at `dirty` slots.
    pairs: Vec<Pair>,
    dirty: Vec<GateId>,
    is_dirty: Vec<bool>,
    /// Gates scheduled for re-evaluation, bucketed by level; `lo..=hi`
    /// bounds the non-empty buckets.
    buckets: Vec<Vec<GateId>>,
    queued: Vec<bool>,
    lo: usize,
    hi: usize,
    /// The fault's transitive fanout in topological order.
    tfo: Vec<GateId>,
    frontier: Vec<GateId>,
    /// Visit stamps for the fanout walks (`epoch` marks this walk's).
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<GateId>,
    good_buf: Vec<Value>,
    faulty_buf: Vec<Value>,
    pi_values: Vec<Value>,
    /// Decision stack: (input position, current value, flipped already?).
    decisions: Vec<(usize, bool, bool)>,
    /// Decisions and backtracks of the last [`Podem::run`].
    decided: u64,
    backtracks: u64,
}

impl<'a> Podem<'a> {
    /// Builds the workspace for `net`. `topo` must be current for `net`
    /// (see [`Topology`]'s invalidation contract).
    pub fn new(net: &'a Network, topo: &'a Topology) -> Self {
        let n = net.num_gate_slots();
        let mut input_pos = vec![NOT_INPUT; n];
        for (pos, &id) in net.inputs().iter().enumerate() {
            input_pos[id.index()] = pos as u32;
        }
        let mut is_po = vec![false; n];
        for o in net.outputs() {
            is_po[o.src.index()] = true;
        }
        let mut base = vec![Pair::X; n];
        let mut buf = Vec::new();
        for &id in topo.order() {
            let g = net.gate(id);
            let v = match g.kind {
                GateKind::Input => Value::X,
                _ => {
                    buf.clear();
                    buf.extend(g.pins.iter().map(|p| base[p.src.index()].good));
                    eval3(g.kind, &buf)
                }
            };
            base[id.index()] = Pair { good: v, faulty: v };
        }
        Podem {
            net,
            topo,
            input_pos,
            is_po,
            pairs: base.clone(),
            base,
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            buckets: vec![Vec::new(); topo.max_level() + 1],
            queued: vec![false; n],
            lo: usize::MAX,
            hi: 0,
            tfo: Vec::new(),
            frontier: Vec::new(),
            seen: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
            good_buf: Vec::new(),
            faulty_buf: Vec::new(),
            pi_values: vec![Value::X; net.inputs().len()],
            decisions: Vec::new(),
            decided: 0,
            backtracks: 0,
        }
    }

    /// A fresh stamp for a fanout walk.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Five-valued evaluation of one gate from its fanins' current values,
    /// with the fault injected at its site.
    fn eval(&mut self, id: GateId, fault: Fault) -> Pair {
        let g = self.net.gate(id);
        let mut pair = match g.kind {
            GateKind::Input => {
                let v = self.pi_values[self.input_pos[id.index()] as usize];
                Pair { good: v, faulty: v }
            }
            _ => {
                self.good_buf.clear();
                self.faulty_buf.clear();
                for (pin_idx, p) in g.pins.iter().enumerate() {
                    let mut pv = self.pairs[p.src.index()];
                    if fault.site == FaultSite::Conn(ConnRef::new(id, pin_idx)) {
                        pv.faulty = Value::known(fault.stuck);
                    }
                    self.good_buf.push(pv.good);
                    self.faulty_buf.push(pv.faulty);
                }
                Pair {
                    good: eval3(g.kind, &self.good_buf),
                    faulty: eval3(g.kind, &self.faulty_buf),
                }
            }
        };
        if fault.site == FaultSite::GateOutput(id) {
            pair.faulty = Value::known(fault.stuck);
        }
        pair
    }

    fn schedule(&mut self, id: GateId) {
        if self.queued[id.index()] {
            return;
        }
        self.queued[id.index()] = true;
        let l = self.topo.level(id);
        self.buckets[l].push(id);
        self.lo = self.lo.min(l);
        self.hi = self.hi.max(l);
    }

    /// Assigns primary input `pos` and schedules it for implication.
    fn assign(&mut self, pos: usize, v: Value) {
        if self.pi_values[pos] != v {
            self.pi_values[pos] = v;
            self.schedule(self.net.inputs()[pos]);
        }
    }

    /// Event-driven implication: re-evaluates the scheduled gates level by
    /// level, scheduling the fanout of every gate whose value changed. A
    /// gate's fanins sit on lower levels, so each gate is evaluated once,
    /// after all of them have settled.
    fn imply(&mut self, fault: Fault) {
        let topo = self.topo;
        let mut l = self.lo;
        while l <= self.hi {
            let mut bucket = std::mem::take(&mut self.buckets[l]);
            for &id in &bucket {
                self.queued[id.index()] = false;
                let pair = self.eval(id, fault);
                if pair == self.pairs[id.index()] {
                    continue;
                }
                self.pairs[id.index()] = pair;
                if !self.is_dirty[id.index()] {
                    self.is_dirty[id.index()] = true;
                    self.dirty.push(id);
                }
                for c in topo.fanouts(id) {
                    self.schedule(c.gate);
                }
            }
            bucket.clear();
            self.buckets[l] = bucket;
            l += 1;
        }
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// Resets the workspace to the all-`X` assignment with `fault`
    /// injected, and collects the fault's transitive fanout.
    fn start(&mut self, fault: Fault) {
        for &id in &self.dirty {
            self.pairs[id.index()] = self.base[id.index()];
            self.is_dirty[id.index()] = false;
        }
        self.dirty.clear();
        self.pi_values.fill(Value::X);
        self.decisions.clear();
        self.decided = 0;
        self.backtracks = 0;

        let epoch = self.next_epoch();
        self.tfo.clear();
        self.stack.clear();
        self.stack.push(fault.observing_gate());
        while let Some(id) = self.stack.pop() {
            if self.seen[id.index()] == epoch {
                continue;
            }
            self.seen[id.index()] = epoch;
            self.tfo.push(id);
            self.stack
                .extend(self.topo.fanouts(id).iter().map(|c| c.gate));
        }
        let topo = self.topo;
        self.tfo.sort_unstable_by_key(|&id| topo.pos(id));

        self.schedule(fault.observing_gate());
    }

    /// `true` if some primary output currently observes the fault (an
    /// output-fault site already carries its stuck value: `start`
    /// schedules it, so `eval` has overridden it).
    fn detected(&self) -> bool {
        self.net
            .outputs()
            .iter()
            .any(|o| self.pairs[o.src.index()].is_d_or_dbar())
    }

    /// Collects the classic D-frontier — gates whose output is still
    /// (partly) unknown but which have a D/D̄ on some input — in
    /// topological order.
    fn d_frontier(&mut self, fault: Fault) {
        self.frontier.clear();
        for &id in &self.tfo {
            let g = self.net.gate(id);
            if g.kind.is_source() || !self.pairs[id.index()].has_unknown() {
                continue;
            }
            let has_d = g.pins.iter().enumerate().any(|(pin_idx, p)| {
                let mut pv = self.pairs[p.src.index()];
                if fault.site == FaultSite::Conn(ConnRef::new(id, pin_idx)) {
                    pv.faulty = Value::known(fault.stuck);
                }
                pv.is_d_or_dbar()
            });
            if has_d {
                self.frontier.push(id);
            }
        }
    }

    /// `true` if some D-frontier gate reaches a primary output through
    /// gates with unknown values (the X-path check).
    fn x_path_exists(&mut self) -> bool {
        let epoch = self.next_epoch();
        self.stack.clear();
        self.stack.extend_from_slice(&self.frontier);
        while let Some(id) = self.stack.pop() {
            if self.seen[id.index()] == epoch {
                continue;
            }
            self.seen[id.index()] = epoch;
            if !self.pairs[id.index()].has_unknown() {
                continue;
            }
            if self.is_po[id.index()] {
                return true;
            }
            self.stack
                .extend(self.topo.fanouts(id).iter().map(|c| c.gate));
        }
        false
    }

    /// The objective that drives the fault through the first D-frontier
    /// gate: an unknown input at the gate's noncontrolling value (or an
    /// arbitrary value for parity-style gates).
    fn propagation_objective(&self) -> Option<(GateId, bool)> {
        let gate = self.net.gate(*self.frontier.first()?);
        for (pin_idx, p) in gate.pins.iter().enumerate() {
            let pv = self.pairs[p.src.index()];
            if pv.good == Value::X {
                let v = match gate.kind {
                    GateKind::Mux if pin_idx == 0 => {
                        // Select the data pin carrying the D, if any.
                        self.pairs[gate.pins[2].src.index()].is_d_or_dbar()
                    }
                    _ => gate.kind.noncontrolling_value().unwrap_or(false),
                };
                return Some((p.src, v));
            }
        }
        None
    }

    /// Backtraces an objective to an unassigned primary input.
    fn backtrace(&self, mut gate: GateId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            let g = self.net.gate(gate);
            match g.kind {
                GateKind::Input => {
                    let pos = self.input_pos[gate.index()] as usize;
                    return if self.pi_values[pos] == Value::X {
                        Some((pos, value))
                    } else {
                        None
                    };
                }
                GateKind::Const(_) => return None,
                GateKind::Buf => gate = g.pins[0].src,
                GateKind::Not => {
                    value = !value;
                    gate = g.pins[0].src;
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    if g.kind.is_inverting() {
                        value = !value;
                    }
                    // Pick the first input with an unknown good value.
                    let next = g
                        .pins
                        .iter()
                        .find(|p| self.pairs[p.src.index()].good == Value::X)?;
                    gate = next.src;
                    // For AND a 0 objective needs one 0 input; a 1 needs
                    // all 1 — either way the chosen input takes `value`.
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Parity of the known inputs, folded into the target.
                    let mut v = value ^ (g.kind == GateKind::Xnor);
                    let mut next = None;
                    for p in &g.pins {
                        match self.pairs[p.src.index()].good {
                            Value::One => v = !v,
                            Value::Zero => {}
                            Value::X => {
                                if next.is_none() {
                                    next = Some(p.src);
                                }
                            }
                        }
                    }
                    gate = next?;
                    value = v;
                }
                GateKind::Mux => {
                    let sel = self.pairs[g.pins[0].src.index()].good;
                    match sel {
                        Value::Zero => gate = g.pins[1].src,
                        Value::One => gate = g.pins[2].src,
                        Value::X => {
                            // Drive the select first (to 0, arbitrarily).
                            gate = g.pins[0].src;
                            value = false;
                        }
                    }
                }
            }
        }
    }

    /// Runs the search for `fault`. `backtrack_limit` bounds it; for the
    /// circuit sizes of the paper a limit in the thousands is effectively
    /// complete.
    pub fn run(&mut self, fault: Fault, backtrack_limit: u64) -> PodemResult {
        self.start(fault);
        let exc_src = fault.excitation_source(self.net);
        loop {
            self.imply(fault);
            if self.detected() {
                return PodemResult::Test(self.pi_values.clone());
            }
            // Excite the fault first, then drive it through the
            // D-frontier while an X-path to some output remains.
            let exc = self.pairs[exc_src.index()].good;
            let objective = if exc == Value::known(fault.stuck) {
                None
            } else if exc == Value::X {
                Some((exc_src, !fault.stuck))
            } else {
                self.d_frontier(fault);
                if self.frontier.is_empty() || !self.x_path_exists() {
                    None
                } else {
                    self.propagation_objective()
                }
            };
            if let Some((pi, v)) = objective.and_then(|(g, v)| self.backtrace(g, v)) {
                self.assign(pi, Value::known(v));
                self.decisions.push((pi, v, false));
                self.decided += 1;
                continue;
            }
            // Backtrack.
            loop {
                match self.decisions.pop() {
                    None => return PodemResult::Redundant,
                    Some((pi, v, flipped)) => {
                        if flipped {
                            self.assign(pi, Value::X);
                            continue;
                        }
                        self.backtracks += 1;
                        if self.backtracks > backtrack_limit {
                            return PodemResult::Aborted;
                        }
                        self.assign(pi, Value::known(!v));
                        self.decisions.push((pi, !v, true));
                        break;
                    }
                }
            }
        }
    }
}

/// Convenience wrapper: run PODEM on `(net, fault)`, building the
/// topology and workspace for this one call.
pub fn podem(net: &Network, fault: Fault, backtrack_limit: u64) -> PodemResult {
    let topo = Topology::build(net);
    Podem::new(net, &topo).run(fault, backtrack_limit)
}

#[cfg(test)]
mod reference {
    use kms_netlist::{GateId, GateKind, Network, Value};

    use super::{eval3, Pair, PodemResult};
    use crate::fault::{Fault, FaultSite};

    /// The full-resimulation PODEM the event-driven engine replaced, kept
    /// as the oracle of the equivalence tests (only a decision counter was
    /// added): every decision re-simulates the whole network, rescans the
    /// whole order for the D-frontier and rebuilds the fanout table for
    /// the X-path check.
    pub(crate) struct Reference<'a> {
        net: &'a Network,
        fault: Fault,
        order: Vec<GateId>,
        pairs: Vec<Pair>,
        pi_values: Vec<Value>,
        backtrack_limit: u64,
        backtracks: u64,
        decided: u64,
    }

    impl<'a> Reference<'a> {
        /// Prepares a PODEM run. `backtrack_limit` bounds the search; for the
        /// circuit sizes of the paper a limit in the thousands is effectively
        /// complete.
        pub fn new(net: &'a Network, fault: Fault, backtrack_limit: u64) -> Self {
            Reference {
                net,
                fault,
                order: net.topo_order(),
                pairs: vec![Pair::X; net.num_gate_slots()],
                pi_values: vec![Value::X; net.inputs().len()],
                backtrack_limit,
                backtracks: 0,
                decided: 0,
            }
        }

        /// Full five-valued resimulation under the current PI assignment.
        fn imply(&mut self) {
            for slot in self.pairs.iter_mut() {
                *slot = Pair::X;
            }
            let mut good_buf = Vec::new();
            let mut faulty_buf = Vec::new();
            for idx in 0..self.order.len() {
                let id = self.order[idx];
                let g = self.net.gate(id);
                let mut pair = match g.kind {
                    GateKind::Input => {
                        let pos = self
                            .net
                            .input_position(id)
                            .expect("input gates are registered inputs");
                        let v = self.pi_values[pos];
                        Pair { good: v, faulty: v }
                    }
                    _ => {
                        good_buf.clear();
                        faulty_buf.clear();
                        for (pin_idx, p) in g.pins.iter().enumerate() {
                            let mut pv = self.pairs[p.src.index()];
                            if self.fault.site
                                == FaultSite::Conn(kms_netlist::ConnRef::new(id, pin_idx))
                            {
                                pv.faulty = Value::known(self.fault.stuck);
                            }
                            good_buf.push(pv.good);
                            faulty_buf.push(pv.faulty);
                        }
                        Pair {
                            good: eval3(g.kind, &good_buf),
                            faulty: eval3(g.kind, &faulty_buf),
                        }
                    }
                };
                if self.fault.site == FaultSite::GateOutput(id) {
                    pair.faulty = Value::known(self.fault.stuck);
                }
                self.pairs[id.index()] = pair;
            }
        }

        /// `true` if some primary output currently observes the fault.
        fn detected(&self) -> bool {
            self.net.outputs().iter().any(|o| {
                let mut p = self.pairs[o.src.index()];
                if self.fault.site == FaultSite::GateOutput(o.src) {
                    p.faulty = Value::known(self.fault.stuck);
                }
                p.is_d_or_dbar()
            })
        }

        /// The good value at the excitation source.
        fn excitation_value(&self) -> Value {
            self.pairs[self.fault.excitation_source(self.net).index()].good
        }

        /// Gates whose output is still (partly) unknown but which have a
        /// D/D̄ on some input: the classic D-frontier.
        fn d_frontier(&self) -> Vec<GateId> {
            let mut out = Vec::new();
            for &id in &self.order {
                let g = self.net.gate(id);
                if g.kind.is_source() {
                    continue;
                }
                if !self.pairs[id.index()].has_unknown() {
                    continue;
                }
                let has_d = g.pins.iter().enumerate().any(|(pin_idx, p)| {
                    let mut pv = self.pairs[p.src.index()];
                    if self.fault.site == FaultSite::Conn(kms_netlist::ConnRef::new(id, pin_idx)) {
                        pv.faulty = Value::known(self.fault.stuck);
                    }
                    pv.is_d_or_dbar()
                });
                if has_d {
                    out.push(id);
                }
            }
            out
        }

        /// `true` if some D-frontier gate reaches a primary output through
        /// gates with unknown values (the X-path check).
        fn x_path_exists(&self, frontier: &[GateId]) -> bool {
            let fanouts = self.net.fanouts();
            let mut seen = vec![false; self.net.num_gate_slots()];
            let mut stack: Vec<GateId> = frontier.to_vec();
            let po_drivers: Vec<GateId> = self.net.outputs().iter().map(|o| o.src).collect();
            while let Some(id) = stack.pop() {
                if seen[id.index()] {
                    continue;
                }
                seen[id.index()] = true;
                if !self.pairs[id.index()].has_unknown() {
                    continue;
                }
                if po_drivers.contains(&id) {
                    return true;
                }
                for c in &fanouts[id.index()] {
                    stack.push(c.gate);
                }
            }
            false
        }

        /// The next objective `(gate, value)`: excite the fault, then drive it
        /// through the first D-frontier gate.
        fn objective(&self) -> Option<(GateId, bool)> {
            let exc = self.excitation_value();
            if exc == Value::X {
                return Some((self.fault.excitation_source(self.net), !self.fault.stuck));
            }
            let frontier = self.d_frontier();
            let g = *frontier.first()?;
            let gate = self.net.gate(g);
            // Set an unknown input to the gate's noncontrolling value (or an
            // arbitrary value for parity-style gates).
            for (pin_idx, p) in gate.pins.iter().enumerate() {
                let pv = self.pairs[p.src.index()];
                if pv.good == Value::X {
                    let v = match gate.kind {
                        GateKind::Mux if pin_idx == 0 => {
                            // Select the data pin carrying the D, if any.

                            self.pairs[gate.pins[2].src.index()].is_d_or_dbar()
                        }
                        _ => gate.kind.noncontrolling_value().unwrap_or(false),
                    };
                    return Some((p.src, v));
                }
            }
            None
        }

        /// Backtraces an objective to an unassigned primary input.
        fn backtrace(&self, mut gate: GateId, mut value: bool) -> Option<(usize, bool)> {
            loop {
                let g = self.net.gate(gate);
                match g.kind {
                    GateKind::Input => {
                        let pos = self
                            .net
                            .input_position(gate)
                            .expect("input gates are registered");
                        return if self.pi_values[pos] == Value::X {
                            Some((pos, value))
                        } else {
                            None
                        };
                    }
                    GateKind::Const(_) => return None,
                    GateKind::Buf => gate = g.pins[0].src,
                    GateKind::Not => {
                        value = !value;
                        gate = g.pins[0].src;
                    }
                    GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                        if g.kind.is_inverting() {
                            value = !value;
                        }
                        // Pick the first input with an unknown good value.
                        let next = g
                            .pins
                            .iter()
                            .find(|p| self.pairs[p.src.index()].good == Value::X)?;
                        gate = next.src;
                        // For AND a 0 objective needs one 0 input; a 1 needs
                        // all 1 — either way the chosen input takes `value`.
                    }
                    GateKind::Xor | GateKind::Xnor => {
                        // Parity of the known inputs, folded into the target.
                        let mut v = value ^ (g.kind == GateKind::Xnor);
                        let mut next = None;
                        for p in &g.pins {
                            match self.pairs[p.src.index()].good {
                                Value::One => v = !v,
                                Value::Zero => {}
                                Value::X => {
                                    if next.is_none() {
                                        next = Some(p.src);
                                    }
                                }
                            }
                        }
                        gate = next?;
                        value = v;
                    }
                    GateKind::Mux => {
                        let sel = self.pairs[g.pins[0].src.index()].good;
                        match sel {
                            Value::Zero => gate = g.pins[1].src,
                            Value::One => gate = g.pins[2].src,
                            Value::X => {
                                // Drive the select first (to 0, arbitrarily).
                                gate = g.pins[0].src;
                                value = false;
                            }
                        }
                    }
                }
            }
        }

        /// Runs the search.
        pub fn run(&mut self) -> PodemResult {
            // Decision stack: (pi index, current value, flipped already?).
            let mut stack: Vec<(usize, bool, bool)> = Vec::new();
            loop {
                self.imply();
                if self.detected() {
                    return PodemResult::Test(self.pi_values.clone());
                }
                let mut failed = self.excitation_value() == Value::known(self.fault.stuck);
                if !failed && self.excitation_value() != Value::X {
                    let frontier = self.d_frontier();
                    failed = frontier.is_empty() || !self.x_path_exists(&frontier);
                }
                if !failed {
                    match self.objective().and_then(|(g, v)| self.backtrace(g, v)) {
                        Some((pi, v)) => {
                            self.pi_values[pi] = Value::known(v);
                            stack.push((pi, v, false));
                            self.decided += 1;
                            continue;
                        }
                        None => failed = true,
                    }
                }
                debug_assert!(failed);
                // Backtrack.
                loop {
                    match stack.pop() {
                        None => return PodemResult::Redundant,
                        Some((pi, v, flipped)) => {
                            if flipped {
                                self.pi_values[pi] = Value::X;
                                continue;
                            }
                            self.backtracks += 1;
                            if self.backtracks > self.backtrack_limit {
                                return PodemResult::Aborted;
                            }
                            self.pi_values[pi] = Value::known(!v);
                            stack.push((pi, !v, true));
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Runs the reference search, returning its result with the number of
    /// decisions and backtracks it took.
    pub(crate) fn reference_podem(
        net: &Network,
        fault: Fault,
        backtrack_limit: u64,
    ) -> (PodemResult, u64, u64) {
        let mut p = Reference::new(net, fault, backtrack_limit);
        let r = p.run();
        (r, p.decided, p.backtracks)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::reference_podem;
    use super::*;
    use crate::fault::{all_faults, collapsed_faults};
    use crate::inject::faulty_copy;
    use kms_gen::adders::{carry_select_adder, carry_skip_adder, unit_model};
    use kms_gen::mcnc::table1_suite;
    use kms_gen::random::{random_network, RandomNetworkSpec};
    use kms_netlist::{ConnRef, Delay, GateKind, Network};
    use kms_twolevel::{espresso, synth, EspressoOptions};
    use proptest::prelude::*;

    /// Backtrack limits of the equivalence tests: from immediate abort to
    /// effectively complete, so tests, redundancies and aborts all occur.
    const LIMITS: [u64; 5] = [0, 1, 8, 128, 10_000];

    /// Runs the event-driven engine (one workspace, reused across every
    /// fault) and the full-resimulation reference on every collapsed fault
    /// of `net` at every limit of [`LIMITS`], requiring the same result,
    /// decision count and backtrack count. Returns the tally of tests,
    /// redundancies and aborts seen.
    fn assert_same_search(net: &Network) -> [usize; 3] {
        let topo = Topology::build(net);
        let mut engine = Podem::new(net, &topo);
        let mut tally = [0; 3];
        for f in collapsed_faults(net) {
            for limit in LIMITS {
                let got = engine.run(f, limit);
                let want = reference_podem(net, f, limit);
                assert_eq!(
                    (&got, engine.decided, engine.backtracks),
                    (&want.0, want.1, want.2),
                    "{}: {f} at backtrack limit {limit}",
                    net.name()
                );
                tally[match got {
                    PodemResult::Test(_) => 0,
                    PodemResult::Redundant => 1,
                    PodemResult::Aborted => 2,
                }] += 1;
            }
        }
        tally
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The event-driven engine searches exactly like the reference on
        /// random networks.
        #[test]
        fn same_search_as_reference_on_random_networks(seed in 1u64..100_000) {
            let spec = RandomNetworkSpec {
                inputs: 8,
                gates: 40,
                outputs: 3,
                max_fanin: 3,
                max_delay: 2,
            };
            assert_same_search(&random_network(seed, spec));
        }
    }

    /// The event-driven engine searches exactly like the reference on the
    /// carry-skip/select adders and the Table I MCNC substitutes, and the
    /// corpus exercises all three outcomes. The substitutes go through the
    /// area step of the benchmark flow (per-output espresso up to 12
    /// inputs, containment cleanup beyond) as the classifier meets them;
    /// the raw PLA elaborations abort thousands of times at the largest
    /// limit and would cost the full-resimulation reference minutes.
    #[test]
    fn same_search_as_reference_on_adders_and_mcnc() {
        let mut nets = vec![
            carry_skip_adder(4, 2, unit_model()),
            carry_skip_adder(8, 4, unit_model()),
            carry_select_adder(8, 2, unit_model()),
        ];
        nets.extend(table1_suite().iter().map(|b| {
            let pla = &b.pla;
            let covers: Vec<_> = (0..pla.num_outputs)
                .map(|o| {
                    let (on, dc) = synth::pla_output_covers(pla, o);
                    let cover = if pla.num_inputs <= 12 {
                        espresso(&on, &dc, EspressoOptions::default())
                    } else {
                        let mut c = on;
                        c.remove_contained();
                        c
                    };
                    (pla.output_labels[o].clone(), cover)
                })
                .collect();
            synth::covers_to_network(b.name, &pla.input_labels, &covers)
        }));
        let mut tally = [0; 3];
        for net in &nets {
            let t = assert_same_search(net);
            for (sum, n) in tally.iter_mut().zip(t) {
                *sum += n;
            }
        }
        assert!(tally.iter().all(|&n| n > 0), "outcomes seen: {tally:?}");
    }

    fn verify_test(net: &Network, fault: Fault, cube: &[Value]) {
        let bits: Vec<bool> = cube.iter().map(|v| v.to_bool().unwrap_or(false)).collect();
        let faulty = faulty_copy(net, fault);
        assert_ne!(
            net.eval_bool(&bits),
            faulty.eval_bool(&bits),
            "vector must distinguish good and faulty circuits for {fault}"
        );
    }

    #[test]
    fn and_gate_all_faults_testable() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        for f in all_faults(&net) {
            match podem(&net, f, 1000) {
                PodemResult::Test(cube) => verify_test(&net, f, &cube),
                other => panic!("{f} should be testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn classic_redundancy_detected() {
        // y = (a AND b) OR (a AND NOT b) OR b  — actually use the classic:
        // y = a·b + a·b̄ = a; realize non-minimally: t1 = a·b, t2 = a·b̄,
        // y = t1 + t2 + a — the `+ a` makes t1/t2 connection faults
        // redundant? Use the textbook case: y = a + a·b: the connection
        // b (and the AND gate) is redundant for s-a-…
        let mut net = Network::new("r");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let t = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let y = net.add_gate(GateKind::Or, &[a, t], Delay::UNIT);
        net.add_output("y", y);
        // t s-a-0 is undetectable: y = a + a·b = a either way.
        let f = Fault::output(t, false);
        assert_eq!(podem(&net, f, 10_000), PodemResult::Redundant);
        // But t s-a-1 is testable (y becomes 1 when a=0).
        let f1 = Fault::output(t, true);
        match podem(&net, f1, 10_000) {
            PodemResult::Test(cube) => verify_test(&net, f1, &cube),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn connection_fault_distinct_from_stem() {
        // a fans out to both pins of an OR: a→or(a,a). The connection
        // faults s-a-0 are redundant (other branch still carries a), the
        // stem fault is testable.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::Or, &[a, a], Delay::UNIT);
        net.add_output("y", g);
        assert!(matches!(
            podem(&net, Fault::conn(ConnRef::new(g, 0), false), 1000),
            PodemResult::Redundant
        ));
        assert!(matches!(
            podem(&net, Fault::output(a, false), 1000),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn xor_cone_faults() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::Xor, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Xor, &[g1, c], Delay::UNIT);
        net.add_output("y", g2);
        // XOR trees are fully testable.
        for f in all_faults(&net) {
            match podem(&net, f, 10_000) {
                PodemResult::Test(cube) => verify_test(&net, f, &cube),
                other => panic!("{f} in XOR tree must be testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn abort_on_tiny_limit() {
        // A 6-input parity tree with limit 0 must abort (or find a test
        // with zero backtracks — parity usually needs none, so use a
        // redundancy which requires exhausting the tree).
        let mut net = Network::new("r");
        let ins: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let t = net.add_gate(GateKind::And, &ins[..2], Delay::UNIT);
        let y = net.add_gate(GateKind::Or, &[ins[0], t], Delay::UNIT);
        let z = net.add_gate(
            GateKind::Xor,
            &[y, ins[2], ins[3], ins[4], ins[5]],
            Delay::UNIT,
        );
        net.add_output("y", z);
        let f = Fault::output(t, false);
        assert_eq!(podem(&net, f, 0), PodemResult::Aborted);
        assert_eq!(podem(&net, f, 1_000_000), PodemResult::Redundant);
    }

    #[test]
    fn test_vector_helper() {
        let r = PodemResult::Test(vec![Value::One, Value::X]);
        assert_eq!(r.test_vector(), Some(vec![true, false]));
        assert_eq!(PodemResult::Redundant.test_vector(), None);
    }
}
