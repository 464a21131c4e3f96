//! The run record: host, toolchain, code identity, seed, and one row per
//! circuit, written as JSON next to the trace; plus the store that checks
//! results repeat across runs with one seed.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where records, traces and determinism digests go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// A JSON number. Non-finite values (never expected) become 0, and so
/// does -0, the sum of an empty float iterator.
pub fn json_num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a 64.
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every Rust source and manifest of the program and the
/// benchmark, identifying the code when the checkout has no git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && name != "out" && !name.to_string_lossy().starts_with('.') {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    for sub in ["crates", "src", "kmsbench"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = FNV_SEED;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        h = fnv(rel.to_string_lossy().as_bytes(), h);
        h = fnv(&std::fs::read(f).unwrap_or_default(), h);
    }
    format!("{h:016x}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git commit when the checkout is a git work tree, else `None`.
fn commit() -> Option<String> {
    let root = repo_root();
    if !root.join(".git").exists() {
        return None;
    }
    let root = root.to_string_lossy().to_string();
    command_line("git", &["-C", &root, "rev-parse", "HEAD"])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// CPU time (user + system) of the whole process, all threads included,
/// in seconds. Resolution is one clock tick (10 ms on Linux).
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// One row of the run record.
pub struct Row {
    pub name: String,
    pub inputs: usize,
    pub gates_in: usize,
    pub gates_out: usize,
    pub delay_in: i64,
    pub delay_out: i64,
    pub iterations: u64,
    pub ms: f64,
    pub failures: Vec<String>,
}

/// Writes the run record and returns its path.
pub fn write_record(
    workload: &str,
    seed: u64,
    traced: bool,
    source: &str,
    metrics: &[(&str, f64, &str)],
    rows: &[Row],
) -> std::io::Result<PathBuf> {
    let mut s = String::from("{\n");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = commit().map_or("null".to_string(), |c| json_str(&c));
    let _ = writeln!(s, "  \"workload\": {},", json_str(workload));
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"trace\": {traced},");
    let _ = writeln!(s, "  \"nproc\": {nproc},");
    let _ = writeln!(s, "  \"cpu_model\": {},", json_str(&cpu_model()));
    let _ = writeln!(s, "  \"rustc\": {},", json_str(&rustc));
    let _ = writeln!(s, "  \"commit\": {commit},");
    let _ = writeln!(s, "  \"source_digest\": {},", json_str(source));
    s.push_str("  \"metrics\": {");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    s.push_str("\n  },\n  \"circuits\": [");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let failures: Vec<String> = r.failures.iter().map(|f| json_str(f)).collect();
        let _ = write!(
            s,
            "{sep}\n    {{\"name\": {}, \"inputs\": {}, \"gates_in\": {}, \"gates_out\": {}, \
             \"delay_in\": {}, \"delay_out\": {}, \"iterations\": {}, \"ms\": {}, \
             \"failures\": [{}]}}",
            json_str(&r.name),
            r.inputs,
            r.gates_in,
            r.gates_out,
            r.delay_in,
            r.delay_out,
            r.iterations,
            json_num(r.ms),
            failures.join(", ")
        );
    }
    s.push_str("\n  ]\n}\n");
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "run-{workload}-seed{seed}{}.json",
        if traced { "-trace" } else { "" }
    ));
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Compares `digests` (one `key value` line per result that must repeat)
/// with those of an earlier run of the same code, workload and seed, and
/// stores them when there is none. Returns the keys whose value differs.
pub fn cross_run_mismatches(
    workload: &str,
    seed: u64,
    source: &str,
    digests: &[(String, u64)],
) -> std::io::Result<Vec<String>> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("digests-{workload}-seed{seed}-{source}.txt"));
    let mut stored: Vec<(String, u64)> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            if let Some((k, v)) = line.rsplit_once(' ') {
                if let Ok(v) = u64::from_str_radix(v, 16) {
                    stored.push((k.to_string(), v));
                }
            }
        }
    }
    let mismatches: Vec<String> = digests
        .iter()
        .filter(|(k, v)| stored.iter().any(|(sk, sv)| sk == k && sv != v))
        .map(|(k, _)| k.clone())
        .collect();
    let mut text = String::new();
    for (k, v) in &stored {
        let _ = writeln!(text, "{k} {v:016x}");
    }
    for (k, v) in digests {
        if !stored.iter().any(|(sk, _)| sk == k) {
            let _ = writeln!(text, "{k} {v:016x}");
        }
    }
    std::fs::write(&path, text)?;
    Ok(mismatches)
}
