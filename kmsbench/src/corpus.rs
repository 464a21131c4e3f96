//! The three seeded workloads and their set-up.
//!
//! Every circuit is generated in process from `--seed`; the pipeline under
//! test only ever sees the generated networks (or their BLIF text).

use kms_blif::{write_blif, PlaFile};
use kms_gen::{adders, mcnc};
use kms_netlist::{transform, DelayModel, Network};
use kms_opt::flow::{prepare_benchmark, FlowOptions};
use kms_timing::{InputArrivals, Time};

use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `table1` library path on iterating carry-skip/select adders.
    AdderLoop,
    /// `table1 --mcnc` library path on control logic.
    ControlAtpg,
    /// `kms` CLI path: BLIF text through reader, pipeline and writer.
    BlifFlow,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "adder_loop" => Some(Workload::AdderLoop),
            "control_atpg" => Some(Workload::ControlAtpg),
            "blif_flow" => Some(Workload::BlifFlow),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdderLoop => "adder_loop",
            Workload::ControlAtpg => "control_atpg",
            Workload::BlifFlow => "blif_flow",
        }
    }
}

/// One generated circuit.
pub struct Circuit {
    pub name: String,
    /// The generated network: the `kms()` input on the library paths, and
    /// the network the BLIF text was written from on the CLI path.
    pub source: Network,
    /// The late input (by name) and its arrival time.
    pub late: (String, Time),
    /// BLIF text of `source`, on the CLI path only.
    pub blif: Option<String>,
}

impl Circuit {
    /// Arrival times on `net`, which must have the late input.
    pub fn arrivals(&self, net: &Network) -> Option<InputArrivals> {
        let id = net.input_by_name(&self.late.0)?;
        Some(InputArrivals::zero().with(id, self.late.1))
    }
}

/// Carry-skip adders whose while-loop iterates but stays under the
/// iteration cap, plus one carry-select adder: `(carry-select?, bits,
/// block, carry-ins)`. Each runs at that many distinct seed-drawn carry-in
/// arrivals from [`CARRY_INS`]. The loop phases are 40–70% of
/// `kms()` on the carry-skip shapes there and about 10% on the
/// carry-select one, which runs at one carry-in only so that the loop
/// phases keep the majority of the pass. Every circuit takes under half a
/// second, so that a run repeats each about a dozen times; larger loop
/// shapes (csa 8.2, 9.2, 10.3, 11.3, 12.3, 12.4, 16.4 and csel 16.4:
/// 0.5–6 s each) are left out, and so is csa 9.3 (0.3 s, 40% loop). The
/// shapes that hit the cap (csa 10.2, 12.2, 20.4) are left to a wide
/// corpus.
const LOOP_ADDERS: [(bool, usize, usize, usize); 6] = [
    (false, 5, 2, 2),
    (false, 6, 2, 2),
    (false, 7, 2, 2),
    (false, 7, 3, 2),
    (false, 8, 3, 2),
    (true, 8, 2, 1),
];

/// The carry-in arrivals of the adders. From 0 to 2 every shape here
/// iterates within 5% of the same count. From 3 on the loop shortens
/// (csel 8.2: 24–27 iterations and about 100 ms at 0–2, 9 and 38 ms at 3;
/// csa 8.2: about 410 at 0–2, 86 at 9), which let the seed alone move a
/// pass by 15% and the geometric mean by more.
const CARRY_INS: (Time, Time) = (0, 2);

/// Seed-drawn control PLAs `(inputs, outputs, cubes)`, in the MCNC range
/// of Table I. They run beside the fixed Table I suite; shapes stay fixed
/// and the seed draws their cubes, so the work per pass does not swing
/// with the seed.
const CONTROL_SHAPES: [(usize, usize, usize); 16] = [
    (8, 4, 40),
    (8, 7, 32),
    (9, 5, 60),
    (9, 8, 45),
    (10, 4, 58),
    (10, 6, 50),
    (11, 5, 55),
    (12, 4, 60),
    (12, 8, 40),
    (13, 6, 48),
    (14, 10, 36),
    (16, 10, 50),
    (18, 12, 44),
    (20, 14, 40),
    (24, 16, 32),
    (25, 18, 28),
];

/// The BLIF mix draws from both corpora, with its adders at one carry-in
/// each. It leaves out the circuits whose CLI run takes more than a second
/// or so (rd73 2 s, csa 12.4 1.5 s, csa 8.2, 12.3, 16.4 and csel 16.4
/// 2–20 s through the reader), so that a run repeats every circuit several
/// times.
const BLIF_ADDERS: [(bool, usize, usize, usize); 3] =
    [(false, 6, 2, 1), (false, 8, 3, 1), (true, 8, 2, 1)];
/// Of the control shapes, the ones whose time on this path moves least
/// with the seed's cubes (a spread of logs of 0.14–0.28 over ten seeds,
/// against up to 0.33 for the others).
const BLIF_CONTROL_SHAPES: [(usize, usize, usize); 4] =
    [(8, 7, 32), (10, 4, 58), (10, 6, 50), (25, 18, 28)];

/// Arrival of the last input on the control circuits: the timing
/// optimizer needs a late signal to bypass, as in `table1 --mcnc`.
const CONTROL_LATE: Time = 4;

/// splitmix64: a small, seedable, dependency-free generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Builds the corpus of `workload` for `seed`, recording `gen.corpus`,
/// `opt.prepare` and `blif.serialize` spans.
pub fn build(workload: Workload, seed: u64, tracer: &mut Tracer) -> Vec<Circuit> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    match workload {
        Workload::AdderLoop => adder_circuits(&LOOP_ADDERS, &mut rng, tracer, &mut out),
        Workload::ControlAtpg => {
            let suite = tracer.span("gen.corpus", |_| mcnc::table1_suite());
            let fixed = suite
                .into_iter()
                .map(|b| (b.name.to_string(), b.pla))
                .collect();
            control_circuits(fixed, &CONTROL_SHAPES, &mut rng, tracer, &mut out);
        }
        Workload::BlifFlow => {
            let fixed = tracer.span("gen.corpus", |_| {
                vec![
                    ("z4ml".to_string(), mcnc::z4ml()),
                    ("f51m".to_string(), mcnc::f51m_like()),
                    ("5xp1".to_string(), mcnc::x5xp1_like()),
                ]
            });
            control_circuits(fixed, &BLIF_CONTROL_SHAPES, &mut rng, tracer, &mut out);
            adder_circuits(&BLIF_ADDERS, &mut rng, tracer, &mut out);
            tracer.span("blif.serialize", |_| {
                for c in &mut out {
                    c.blif = Some(write_blif(&c.source));
                }
            });
        }
    }
    out
}

/// Table I adders: build, decompose to simple gates, unit delays, each at
/// its count of distinct seed-drawn carry-in arrivals from
/// [`CARRY_INS`].
fn adder_circuits(
    shapes: &[(bool, usize, usize, usize)],
    rng: &mut Rng,
    tracer: &mut Tracer,
    out: &mut Vec<Circuit>,
) {
    let (lo, hi) = CARRY_INS;
    for &(select, bits, block, count) in shapes {
        // A partial Fisher–Yates shuffle of `lo..=hi`.
        let mut cins: Vec<Time> = (lo..=hi).collect();
        for k in 0..count {
            let j = k + rng.below((cins.len() - k) as u64) as usize;
            cins.swap(k, j);
        }
        for &cin in &cins[..count] {
            let source = tracer.span("gen.corpus", |_| {
                let mut net = if select {
                    adders::carry_select_adder(bits, block, DelayModel::Unit)
                } else {
                    adders::carry_skip_adder(bits, block, DelayModel::Unit)
                };
                transform::decompose_to_simple(&mut net);
                net.apply_delay_model(DelayModel::Unit);
                net
            });
            let kind = if select { "csel" } else { "csa" };
            out.push(Circuit {
                name: format!("{kind} {bits}.{block} cin@{cin}"),
                source,
                late: ("cin".to_string(), cin),
                blif: None,
            });
        }
    }
}

/// The `fixed` PLAs plus one seed-drawn random control PLA per shape,
/// each through `prepare_benchmark` with the last input late.
fn control_circuits(
    mut plas: Vec<(String, PlaFile)>,
    shapes: &[(usize, usize, usize)],
    rng: &mut Rng,
    tracer: &mut Tracer,
    out: &mut Vec<Circuit>,
) {
    for &(i, o, c) in shapes {
        let pla_seed = rng.next();
        let pla = tracer.span("gen.corpus", |_| {
            mcnc::random_control_pla(pla_seed, i, o, c)
        });
        plas.push((format!("ctl {i}/{o}/{c}#{:04x}", pla_seed & 0xffff), pla));
    }
    let late_last = |net: &Network| {
        let mut arr = InputArrivals::zero();
        if let Some(&last) = net.inputs().last() {
            arr.set(last, CONTROL_LATE);
        }
        arr
    };
    for (name, pla) in plas {
        let (source, _) = tracer.span("opt.prepare", |_| {
            prepare_benchmark(&pla, &name, late_last, FlowOptions::default())
        });
        let last = *source.inputs().last().expect("PLA has inputs");
        let late_name = source.gate(last).name.clone().expect("inputs are named");
        out.push(Circuit {
            name,
            source,
            late: (late_name, CONTROL_LATE),
            blif: None,
        });
    }
}
