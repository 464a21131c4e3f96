//! `kmsbench` — one seeded benchmark of the KMS pipeline, end to end and
//! by layer.
//!
//! ```text
//! kmsbench --workload <adder_loop|control_atpg|blif_flow> --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's circuits from the seed, runs the production
//! pipeline on them in passes for about `S` seconds, checks every output
//! outside the timed region, and prints one JSON object as the last line
//! of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from spans placed around the calls into each crate)
//! with `--trace 1`. See README.md for the workloads and metrics.

mod check;
mod corpus;
mod layers;
mod record;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use kms_atpg::{classify_faults_report, collapsed_faults, Engine, ParallelOptions};
use kms_blif::{parse_blif, write_blif};
use kms_core::{kms, KmsOptions};
use kms_netlist::{transform, DelayModel, Network};

use corpus::{Circuit, Workload};
use layers::KmsLayers;
use trace::Tracer;

/// Set-up runs once before the first pass, and again for at least
/// `SETUP_BETWEEN_S` (at most `SETUP_MAX_REPS` times) after every pass;
/// `setup_s` is the median of them all. A set-up of a fraction of a
/// millisecond then still reads steadily, and its median samples the
/// host's slow and fast spells over the whole run, the way the passes do.
const SETUP_MAX_REPS: usize = 10_000;
const SETUP_BETWEEN_S: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The classification engine is pinned to the CLIs' default, the shared
/// engine: in line on the library paths (`table1 --jobs 1`), and one
/// worker per CPU on the CLI path (the `kms` default `-j 0`).
fn atpg_options(w: Workload) -> ParallelOptions {
    let jobs = if w == Workload::BlifFlow { 0 } else { 1 };
    ParallelOptions {
        jobs,
        ..Default::default()
    }
}

fn kms_options(w: Workload) -> KmsOptions {
    KmsOptions {
        engine: Engine::SharedSat(atpg_options(w)),
        jobs: 1,
        ..Default::default()
    }
}

/// The networks of a circuit's first pass, kept for the checks.
struct Kept {
    /// The network `kms()` was given.
    input: Network,
    output: Network,
    written: Option<String>,
}

/// What one circuit did in one pass.
struct CircuitRun {
    /// Per-circuit wall time: `kms()` on the library paths; read,
    /// `kms()` and write on the CLI path.
    ms: f64,
    cpu_s: f64,
    layers: KmsLayers,
    gates_in: usize,
    gates_out: usize,
    /// Digest of the output network and the report's decisions; must
    /// repeat across passes and runs.
    digest: u64,
    kept: Option<Kept>,
}

fn run_circuit(
    c: &Circuit,
    w: Workload,
    tracer: &mut Tracer,
    keep: bool,
) -> Result<CircuitRun, String> {
    let copy = c.source.clone(); // untimed; the library paths' input
    let start = Instant::now();
    let mut net = match &c.blif {
        None => copy,
        Some(text) => {
            let circuit = tracer
                .span("blif.parse", |_| parse_blif(text))
                .map_err(|e| format!("parse_blif: {e}"))?;
            let mut net = circuit.network;
            tracer.span("netlist.decompose", |_| {
                transform::decompose_to_simple(&mut net);
                net.apply_delay_model(DelayModel::Unit);
            });
            net
        }
    };
    let arrivals = c
        .arrivals(&net)
        .ok_or_else(|| format!("no input named {}", c.late.0))?;
    let read_s = start.elapsed().as_secs_f64();
    let input = keep.then(|| net.clone());
    let gates_in = net.simple_gate_count();
    let cpu0 = record::process_cpu_s();
    let start = Instant::now();
    let report = tracer
        .span("core.kms", |_| kms(&mut net, &arrivals, kms_options(w)))
        .map_err(|e| format!("kms: {e}"))?;
    let written = c
        .blif
        .as_ref()
        .map(|_| tracer.span("blif.write", |_| write_blif(&net)));
    let ms = (read_s + start.elapsed().as_secs_f64()) * 1e3;
    let cpu_s = record::process_cpu_s() - cpu0;

    let layers = KmsLayers::from_report(&report);
    tracer.counter("core.iterations", layers.iterations as f64);
    tracer.counter("core.dup_gates", layers.dup_gates as f64);
    tracer.counter("atpg.unknown", layers.unknown as f64);
    let decisions = format!(
        "{} {} {} {} {}",
        report.iterations.len(),
        report.duplicated_gates,
        report.removed_redundancies.len(),
        report.gates_after,
        report.topological_after
    );
    let digest = record::fnv(
        decisions.as_bytes(),
        record::fnv(net.dump().as_bytes(), record::FNV_SEED),
    );
    Ok(CircuitRun {
        ms,
        cpu_s,
        layers,
        gates_in,
        gates_out: net.simple_gate_count(),
        digest,
        kept: input.map(|input| Kept {
            input,
            output: net,
            written,
        }),
    })
}

/// One pass over the corpus.
struct Pass {
    wall_s: f64,
    traced: bool,
    runs: Vec<Result<CircuitRun, String>>,
    /// Span totals of the pass (traced passes only).
    spans_ms: SpanTotals,
}

#[derive(Clone, Copy, Default)]
struct SpanTotals {
    parse: f64,
    decompose: f64,
    kms: f64,
    write: f64,
}

fn run_pass(corpus: &[Circuit], w: Workload, tracer: &mut Tracer, keep: bool) -> Pass {
    let mark = tracer.mark();
    let start = Instant::now();
    let runs = tracer.span("pass", |tracer| {
        corpus
            .iter()
            .map(|c| {
                tracer.span("circuit", |tracer| {
                    catch_unwind(AssertUnwindSafe(|| run_circuit(c, w, tracer, keep)))
                        .unwrap_or_else(|_| Err("panicked".to_string()))
                })
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    Pass {
        wall_s,
        traced: false,
        runs,
        spans_ms: SpanTotals {
            parse: tracer.total_ms("blif.parse", mark),
            decompose: tracer.total_ms("netlist.decompose", mark),
            kms: tracer.total_ms("core.kms", mark),
            write: tracer.total_ms("blif.write", mark),
        },
    }
}

/// A standalone `classify_faults_report` over every `kms()` input, in
/// line on every workload: with more workers the pool's speculative
/// queries make `engine_calls` vary with thread timing, and these counters
/// must repeat exactly.
#[derive(Clone, Copy, Default)]
struct AtpgProbe {
    ms: f64,
    faults: u64,
    engine_calls: u64,
    redundant: u64,
}

impl AtpgProbe {
    /// The counters that must repeat across passes and runs.
    fn counts(&self) -> (u64, u64, u64) {
        (self.faults, self.engine_calls, self.redundant)
    }
}

fn atpg_probe(inputs: &[&Network], tracer: &mut Tracer) -> AtpgProbe {
    let opts = ParallelOptions {
        jobs: 1,
        ..Default::default()
    };
    let mark = tracer.mark();
    let mut p = AtpgProbe::default();
    for net in inputs {
        let faults = collapsed_faults(net);
        p.faults += faults.len() as u64;
        let r = tracer.span("atpg.classify", |_| {
            classify_faults_report(net, faults, opts)
        });
        p.engine_calls += r.engine_calls;
        p.redundant += r
            .testability
            .verdicts
            .iter()
            .filter(|v| v.is_redundant())
            .count() as u64;
    }
    p.ms = tracer.total_ms("atpg.classify", mark);
    p
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The corpus and the times of its repeated set-up.
struct Setup {
    corpus: Vec<Circuit>,
    /// Seconds per set-up.
    seconds: Vec<f64>,
    /// `gen.corpus` and `opt.prepare` span totals per set-up, in ms.
    spans_ms: Vec<(f64, f64)>,
}

/// Corpus generation, preparation and BLIF text, repeated for at least
/// `min_s`: see `SETUP_BETWEEN_S`. The times go to `setup`; the last
/// corpus is returned.
fn set_up(args: &Args, tracer: &mut Tracer, setup: &mut Setup, min_s: f64) -> Vec<Circuit> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let mark = tracer.mark();
        let rep = Instant::now();
        let corpus = tracer.span("setup", |t| corpus::build(args.workload, args.seed, t));
        setup.seconds.push(rep.elapsed().as_secs_f64());
        setup.spans_ms.push((
            tracer.total_ms("gen.corpus", mark),
            tracer.total_ms("opt.prepare", mark),
        ));
        reps += 1;
        if reps >= SETUP_MAX_REPS || start.elapsed().as_secs_f64() >= min_s {
            return corpus;
        }
    }
}

/// Runs passes for about `args.seconds`: a new pass starts only while the
/// average pass so far still fits. A traced run alternates untraced and
/// traced passes, so that the tracing overhead is measured within one
/// run, and probes the ATPG layer after each traced pass. Set-up repeats
/// after every pass: see `SETUP_BETWEEN_S`.
fn measure(setup: &mut Setup, args: &Args, tracer: &mut Tracer) -> (Vec<Pass>, Vec<AtpgProbe>) {
    let mut passes: Vec<Pass> = Vec::new();
    let mut probes = Vec::new();
    let start = Instant::now();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let mut pass = run_pass(&setup.corpus, args.workload, tracer, passes.is_empty());
        pass.traced = traced;
        tracer.set_enabled(args.trace);
        set_up(args, tracer, setup, SETUP_BETWEEN_S);
        passes.push(pass);
        if traced {
            let inputs: Vec<&Network> = passes[0]
                .runs
                .iter()
                .filter_map(|r| r.as_ref().ok()?.kept.as_ref().map(|k| &k.input))
                .collect();
            probes.push(atpg_probe(&inputs, tracer));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = !args.trace || passes.len() >= 2;
        if enough && elapsed + elapsed / passes.len() as f64 > args.seconds {
            return (passes, probes);
        }
    }
}

/// What the checks of the first pass found.
struct Checked {
    /// Per circuit; empty when it passed.
    failures: Vec<Vec<String>>,
    /// Computed delay before and after, per circuit.
    delays: Vec<(i64, i64)>,
    /// Collapsed faults of every `kms()` input.
    faults: u64,
    /// Written outputs that `parse_blif` rejects.
    reparse_failures: u64,
}

fn check_outputs(corpus: &[Circuit], first: &Pass) -> Checked {
    let n = corpus.len();
    let mut out = Checked {
        failures: vec![Vec::new(); n],
        delays: vec![(0, 0); n],
        faults: 0,
        reparse_failures: 0,
    };
    for (i, c) in corpus.iter().enumerate() {
        let Ok(run) = &first.runs[i] else {
            continue;
        };
        let k = run
            .kept
            .as_ref()
            .expect("the first pass keeps its networks");
        out.faults += collapsed_faults(&k.input).len() as u64;
        let arrivals = c.arrivals(&k.input).expect("found when the circuit ran");
        let verdict = check::verify(&k.input, &k.output, &arrivals);
        out.failures[i].extend(verdict.failures);
        out.delays[i] = (verdict.delay_in, verdict.delay_out);
        if c.blif.is_some() {
            if let Err(e) = check::equivalent(&c.source, &k.input) {
                out.failures[i].push(format!("read network differs from the source: {e}"));
            }
        }
        if let Some(text) = &k.written {
            if parse_blif(text).is_err() {
                out.reparse_failures += 1;
            }
        }
    }
    out
}

/// Each circuit's output and decisions must repeat in every pass, and in
/// every run of the same sources and seed; so must the ATPG probe's
/// counters. Circuit mismatches land in `failures`; the rest is returned.
fn check_determinism(
    args: &Args,
    corpus: &[Circuit],
    passes: &[Pass],
    probes: &[AtpgProbe],
    source: &str,
    failures: &mut [Vec<String>],
) -> Vec<String> {
    let mut run_failures = Vec::new();
    let mut digests: Vec<(String, u64)> = Vec::new();
    for (i, c) in corpus.iter().enumerate() {
        let first = passes[0].runs[i].as_ref().ok().map(|r| r.digest);
        if passes
            .iter()
            .any(|p| p.runs[i].as_ref().ok().map(|r| r.digest) != first)
        {
            failures[i].push("output differs between passes".to_string());
        }
        if let Some(d) = first {
            digests.push((c.name.clone(), d));
        }
    }
    if probes.windows(2).any(|p| p[0].counts() != p[1].counts()) {
        run_failures.push("atpg counters differ between passes".to_string());
    }
    if let Some(p) = probes.first() {
        let key = format!("{:?}", p.counts());
        digests.push((
            "atpg.probe".to_string(),
            record::fnv(key.as_bytes(), record::FNV_SEED),
        ));
    }
    match record::cross_run_mismatches(args.workload.name(), args.seed, source, &digests) {
        Ok(keys) => {
            for key in keys {
                match corpus.iter().position(|c| c.name == key) {
                    Some(i) => failures[i].push("output differs from an earlier run".to_string()),
                    None => run_failures.push(format!("{key} differs from an earlier run")),
                }
            }
        }
        Err(e) => run_failures.push(format!("cannot store digests: {e}")),
    }
    run_failures
}

fn layers_of(pass: &Pass) -> KmsLayers {
    let mut l = KmsLayers::default();
    for r in pass.runs.iter().flatten() {
        l.add(&r.layers);
    }
    l
}

/// Each circuit's fastest time over the untraced passes, in ms. The
/// host's slow spells (other tenants of a shared machine) only ever add
/// time, and most pass within seconds, so the fastest of a dozen or more
/// repetitions measures the work steadily where a median measures how
/// busy the host was.
fn fastest_ms(corpus_len: usize, untraced: &[&Pass]) -> Vec<Option<f64>> {
    (0..corpus_len)
        .map(|i| {
            untraced
                .iter()
                .filter_map(|p| p.runs[i].as_ref().ok().map(|r| r.ms))
                .min_by(f64::total_cmp)
        })
        .collect()
}

/// The metrics a user sees, from the untraced passes.
fn end_to_end(
    setup: &Setup,
    passes: &[Pass],
    checked: &Checked,
    peak_rss_mb: f64,
    (attempted, failed): (u64, u64),
) -> Vec<Metric> {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let fastest: Vec<f64> = fastest_ms(setup.corpus.len(), &untraced)
        .into_iter()
        .flatten()
        .collect();
    let wall_s = fastest.iter().sum::<f64>() / 1e3;
    let log_ms: Vec<f64> = fastest.iter().map(|ms| ms.max(1e-6).ln()).collect();
    let geomean_ms = ratio(log_ms.iter().sum::<f64>(), log_ms.len() as f64).exp();
    let gates_out: usize = passes[0].runs.iter().flatten().map(|r| r.gates_out).sum();
    let delay_out: i64 = checked.delays.iter().map(|d| d.1).sum();
    let unknown = layers_of(&passes[0]).unknown.min(checked.faults);
    vec![
        ("setup_s", median(&setup.seconds), "s"),
        ("wall_s", wall_s, "s"),
        ("circuit_ms_geomean", geomean_ms, "ms"),
        ("gates_out", gates_out as f64, "gates"),
        ("delay_out", delay_out as f64, "gate_delays"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        (
            "ok_frac",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        ),
        (
            "decided_frac",
            ratio((checked.faults - unknown) as f64, checked.faults as f64),
            "ratio",
        ),
    ]
}

/// The per-layer metrics: times are medians over the traced passes,
/// counters come from the first traced pass and probe.
fn per_layer(
    setup: &Setup,
    passes: &[Pass],
    probes: &[AtpgProbe],
    checked: &Checked,
) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let kms_ms = med(&|p| p.spans_ms.kms);
    let removal_ms = med(&|p| layers_of(p).removal_ms);
    let cpu_s: f64 = traced
        .iter()
        .flat_map(|p| p.runs.iter().flatten())
        .map(|r| r.cpu_s)
        .sum();
    let kms_s: f64 = traced.iter().map(|p| p.spans_ms.kms / 1e3).sum();
    let source_gates: usize = setup
        .corpus
        .iter()
        .map(|c| c.source.simple_gate_count())
        .sum();
    let input_gates: usize = passes[0].runs.iter().flatten().map(|r| r.gates_in).sum();
    let untraced_wall = median(
        &passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.wall_s)
            .collect::<Vec<_>>(),
    );
    let l = traced.first().map(|p| layers_of(p)).unwrap_or_default();
    let probe = probes.first().copied().unwrap_or_default();
    let setup_med =
        |f: fn(&(f64, f64)) -> f64| median(&setup.spans_ms.iter().map(f).collect::<Vec<_>>());
    vec![
        ("gen.corpus_ms", setup_med(|s| s.0), "ms"),
        ("opt.prepare_ms", setup_med(|s| s.1), "ms"),
        ("blif.parse_ms", med(&|p| p.spans_ms.parse), "ms"),
        ("blif.write_ms", med(&|p| p.spans_ms.write), "ms"),
        ("netlist.decompose_ms", med(&|p| p.spans_ms.decompose), "ms"),
        (
            "blif.gate_inflation",
            ratio(input_gates as f64, source_gates as f64),
            "ratio",
        ),
        (
            "blif.reparse_failures",
            checked.reparse_failures as f64,
            "count",
        ),
        ("core.kms_ms", kms_ms, "ms"),
        ("core.iterations", l.iterations as f64, "count"),
        ("core.dup_gates", l.dup_gates as f64, "gates"),
        ("core.capped", l.capped as f64, "count"),
        ("core.dropped_paths", l.dropped_paths as f64, "count"),
        (
            "core.cache_hit_ratio",
            ratio(l.cache_hits as f64, (l.cache_hits + l.cache_misses) as f64),
            "ratio",
        ),
        ("core.engine_ms", med(&|p| layers_of(p).engine_ms), "ms"),
        (
            "timing.path_enum_ms",
            med(&|p| layers_of(p).path_enum_ms),
            "ms",
        ),
        ("core.oracle_ms", med(&|p| layers_of(p).oracle_ms), "ms"),
        (
            "core.transform_ms",
            med(&|p| layers_of(p).transform_ms),
            "ms",
        ),
        ("sat.oracle_calls", l.oracle_calls as f64, "count"),
        ("sat.oracle_props", l.oracle_props as f64, "count"),
        (
            "sat.oracle_conflicts_per_call",
            ratio(l.oracle_conflicts as f64, l.oracle_calls as f64),
            "ratio",
        ),
        ("atpg.removal_ms", removal_ms, "ms"),
        ("sat.atpg_calls", l.atpg_calls as f64, "count"),
        ("sat.atpg_props", l.atpg_props as f64, "count"),
        ("sat.atpg_conflicts", l.atpg_conflicts as f64, "count"),
        (
            "atpg.classify_ms",
            median(&probes.iter().map(|p| p.ms).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "atpg.calls_per_fault",
            ratio(probe.engine_calls as f64, probe.faults as f64),
            "ratio",
        ),
        ("atpg.redundant", probe.redundant as f64, "count"),
        ("core.cpu_per_wall", ratio(cpu_s, kms_s), "ratio"),
        ("atpg.unknown", l.unknown as f64, "count"),
        (
            "core.loop_share",
            ratio(kms_ms - removal_ms, kms_ms),
            "ratio",
        ),
        ("trace.overhead_s", med(&|p| p.wall_s) - untraced_wall, "s"),
    ]
}

/// One row per circuit, for standard error and the run record.
fn rows(corpus: &[Circuit], passes: &[Pass], checked: &Checked) -> Vec<record::Row> {
    corpus
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let first = passes[0].runs[i].as_ref();
            let ms: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.runs[i].as_ref().ok().map(|r| r.ms))
                .collect();
            let mut failures = checked.failures[i].clone();
            if let Err(e) = first {
                failures.push(e.clone());
            }
            record::Row {
                name: c.name.clone(),
                inputs: c.source.inputs().len(),
                gates_in: first.map_or(0, |r| r.gates_in),
                gates_out: first.map_or(0, |r| r.gates_out),
                delay_in: checked.delays[i].0,
                delay_out: checked.delays[i].1,
                iterations: first.map_or(0, |r| r.layers.iterations),
                ms: median(&ms),
                failures,
            }
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: kmsbench --workload <adder_loop|control_atpg|blif_flow> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut tracer = Tracer::new(args.trace);
    let mut setup = Setup {
        corpus: Vec::new(),
        seconds: Vec::new(),
        spans_ms: Vec::new(),
    };
    setup.corpus = set_up(&args, &mut tracer, &mut setup, 0.0);
    let (passes, probes) = measure(&mut setup, &args, &mut tracer);
    // Read before the checks, whose memory is not the workload's.
    let peak_rss_mb = record::peak_rss_mb();

    let checks_start = Instant::now();
    let mut checked = check_outputs(&setup.corpus, &passes[0]);
    let source = record::source_digest();
    let run_failures = check_determinism(
        &args,
        &setup.corpus,
        &passes,
        &probes,
        &source,
        &mut checked.failures,
    );
    let checks_s = checks_start.elapsed().as_secs_f64();

    // Every run of a circuit that failed anywhere counts as failed.
    let attempted = (setup.corpus.len() * passes.len()) as u64;
    let mut failed = 0u64;
    for (i, f) in checked.failures.iter().enumerate() {
        for p in &passes {
            if p.runs[i].is_err() || !f.is_empty() {
                failed += 1;
            }
        }
    }
    let correct = failed == 0 && run_failures.is_empty();

    let end_to_end = end_to_end(&setup, &passes, &checked, peak_rss_mb, (attempted, failed));
    let per_layer = per_layer(&setup, &passes, &probes, &checked);
    let rows = rows(&setup.corpus, &passes, &checked);

    eprintln!(
        "{:<28} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>10}",
        "circuit", "inputs", "g.in", "g.out", "d.in", "d.out", "iters", "ms"
    );
    for r in &rows {
        let failures = if r.failures.is_empty() {
            String::new()
        } else {
            format!("  FAILED: {}", r.failures.join("; "))
        };
        eprintln!(
            "{:<28} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>10.1}{failures}",
            r.name, r.inputs, r.gates_in, r.gates_out, r.delay_in, r.delay_out, r.iterations, r.ms
        );
    }
    for f in &run_failures {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "{} set-ups; {} passes ({} traced), pass walls {:?} s; checks {:.1} s",
        setup.seconds.len(),
        passes.len(),
        passes.iter().filter(|p| p.traced).count(),
        passes
            .iter()
            .map(|p| (p.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        checks_s
    );

    let recorded: Vec<Metric> = if args.trace {
        end_to_end.iter().chain(&per_layer).copied().collect()
    } else {
        end_to_end.clone()
    };
    match record::write_record(w.name(), args.seed, args.trace, &source, &recorded, &rows) {
        Ok(path) => eprintln!("run record: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write the run record: {e}"),
    }
    if args.trace {
        for (name, value, _) in &per_layer {
            tracer.counter(name, *value);
        }
        let path = record::out_dir().join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        match std::fs::write(&path, tracer.to_chrome_json()) {
            Ok(()) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write the trace: {e}"),
        }
    }
    let reported = if args.trace { &per_layer } else { &end_to_end };
    let body: Vec<String> = reported
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                record::json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
