//! BLIF writer: renders a [`Network`] as `.names` nodes.
//!
//! Each gate becomes one `.names` node with the canonical cover for its
//! kind; the result round-trips through [`crate::parse_blif`] to an
//! equivalent network (structure may differ — covers are re-elaborated).

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;

use kms_netlist::{GateKind, Network};

/// The signal name of every gate slot: the gate's own name, or `n<index>`
/// for an unnamed gate. A read network keeps its source names, so
/// `n<index>` may already name another signal; a generated name then
/// takes the first suffix `_1`, `_2`, … that no gate or output uses.
/// Generated names cannot collide with each other: only slot `i` has the
/// stem `n<i>`.
fn signal_names(net: &Network) -> Vec<Cow<'_, str>> {
    // Only a name starting with `n` can equal a generated one.
    let taken: HashSet<&str> = net
        .gate_ids()
        .filter_map(|id| net.gate(id).name.as_deref())
        .chain(net.outputs().iter().map(|o| o.name.as_str()))
        .filter(|n| n.starts_with('n'))
        .collect();
    let mut names = vec![Cow::Borrowed(""); net.num_gate_slots()];
    for id in net.gate_ids() {
        names[id.index()] = match &net.gate(id).name {
            Some(n) => Cow::Borrowed(n.as_str()),
            None => {
                let mut name = format!("n{}", id.index());
                let stem_len = name.len();
                let mut k = 0;
                while taken.contains(name.as_str()) {
                    k += 1;
                    name.truncate(stem_len);
                    let _ = write!(name, "_{k}");
                }
                Cow::Owned(name)
            }
        };
    }
    names
}

/// Renders `net` as BLIF text.
///
/// Unnamed gates get generated names `n<id>`, suffixed where that name is
/// already taken. Gate and wire delays are not representable in BLIF and
/// are dropped; re-apply a [`kms_netlist::DelayModel`] after reading back.
pub fn write_blif(net: &Network) -> String {
    let names = signal_names(net);
    let mut s = String::new();
    let _ = writeln!(s, ".model {}", net.name());
    let inames: Vec<&str> = net.inputs().iter().map(|&i| &*names[i.index()]).collect();
    let _ = writeln!(s, ".inputs {}", inames.join(" "));
    let onames: Vec<String> = net.outputs().iter().map(|o| o.name.clone()).collect();
    let _ = writeln!(s, ".outputs {}", onames.join(" "));

    for id in net.topo_order() {
        let g = net.gate(id);
        let out = &names[id.index()];
        let ins: Vec<&str> = g.pins.iter().map(|p| &*names[p.src.index()]).collect();
        match g.kind {
            GateKind::Input => {}
            GateKind::Const(v) => {
                let _ = writeln!(s, ".names {out}");
                if v {
                    let _ = writeln!(s, "1");
                }
            }
            GateKind::Buf => {
                let _ = writeln!(s, ".names {} {out}\n1 1", ins[0]);
            }
            GateKind::Not => {
                let _ = writeln!(s, ".names {} {out}\n0 1", ins[0]);
            }
            GateKind::And | GateKind::Nand => {
                let _ = writeln!(s, ".names {} {out}", ins.join(" "));
                let ones = "1".repeat(ins.len());
                let bit = if g.kind == GateKind::And { 1 } else { 0 };
                let _ = writeln!(s, "{ones} {bit}");
            }
            GateKind::Or | GateKind::Nor => {
                let _ = writeln!(s, ".names {} {out}", ins.join(" "));
                if g.kind == GateKind::Or {
                    for k in 0..ins.len() {
                        let mut plane = vec!['-'; ins.len()];
                        plane[k] = '1';
                        let _ = writeln!(s, "{} 1", plane.into_iter().collect::<String>());
                    }
                } else {
                    let zeros = "0".repeat(ins.len());
                    let _ = writeln!(s, "{zeros} 1");
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let _ = writeln!(s, ".names {} {out}", ins.join(" "));
                let want_odd = g.kind == GateKind::Xor;
                for m in 0..(1u32 << ins.len()) {
                    let ones = m.count_ones() as usize;
                    if (ones % 2 == 1) == want_odd {
                        let plane: String = (0..ins.len())
                            .map(|i| if (m >> i) & 1 == 1 { '1' } else { '0' })
                            .collect();
                        let _ = writeln!(s, "{plane} 1");
                    }
                }
            }
            GateKind::Mux => {
                let _ = writeln!(s, ".names {} {} {} {out}", ins[0], ins[1], ins[2]);
                let _ = writeln!(s, "01- 1\n1-1 1");
            }
        }
    }
    // Emit buffers for outputs driven by inputs or by gates whose names
    // differ from the output name.
    for o in net.outputs() {
        let drv = &names[o.src.index()];
        if *drv != o.name.as_str() {
            let _ = writeln!(s, ".names {drv} {}\n1 1", o.name);
        }
    }
    let _ = writeln!(s, ".end");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::parse_blif;
    use kms_netlist::{Delay, GateKind, Network};

    fn roundtrip(net: &Network) {
        let text = write_blif(net);
        let back = parse_blif(&text).expect("written BLIF parses");
        net.exhaustive_equiv(&back.network)
            .expect("roundtrip equivalence");
    }

    #[test]
    fn roundtrip_all_gate_kinds() {
        let mut net = Network::new("kinds");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Or, &[b, c], Delay::UNIT);
        let g3 = net.add_gate(GateKind::Nand, &[g1, g2], Delay::UNIT);
        let g4 = net.add_gate(GateKind::Nor, &[a, g2], Delay::UNIT);
        let g5 = net.add_gate(GateKind::Xor, &[g3, g4], Delay::UNIT);
        let g6 = net.add_gate(GateKind::Xnor, &[g5, c], Delay::UNIT);
        let g7 = net.add_gate(GateKind::Mux, &[a, g5, g6], Delay::UNIT);
        let g8 = net.add_gate(GateKind::Not, &[g7], Delay::UNIT);
        let g9 = net.add_gate(GateKind::Buf, &[g8], Delay::ZERO);
        net.add_output("y", g9);
        roundtrip(&net);
    }

    #[test]
    fn roundtrip_constants_and_input_outputs() {
        let mut net = Network::new("consts");
        let a = net.add_input("a");
        let c1 = net.add_const(true);
        let c0 = net.add_const(false);
        net.add_output("ao", a); // output driven directly by an input
        net.add_output("one", c1);
        net.add_output("zero", c0);
        roundtrip(&net);
    }

    #[test]
    fn written_text_shape() {
        let mut net = Network::new("shape");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Or, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let text = write_blif(&net);
        assert!(text.contains(".model shape"));
        assert!(text.contains(".inputs a b"));
        assert!(text.contains(".outputs y"));
        assert!(text.contains("1- 1"));
        assert!(text.contains("-1 1"));
        assert!(text.ends_with(".end\n"));
    }
}
