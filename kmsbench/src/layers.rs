//! The one adapter from a [`KmsReport`] to per-layer numbers.
//!
//! Phase timers and solver counters are read here and nowhere else, so
//! that replacing `KmsPhaseTimings` with an in-tree trace touches one
//! function.

use kms_core::KmsReport;

/// Per-layer numbers of one or more `kms()` calls, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct KmsLayers {
    pub iterations: u64,
    pub dup_gates: u64,
    pub capped: u64,
    pub dropped_paths: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub engine_ms: f64,
    pub path_enum_ms: f64,
    pub oracle_ms: f64,
    pub transform_ms: f64,
    pub removal_ms: f64,
    pub oracle_calls: u64,
    pub oracle_props: u64,
    pub oracle_conflicts: u64,
    pub atpg_calls: u64,
    pub atpg_props: u64,
    pub atpg_conflicts: u64,
    pub unknown: u64,
}

impl KmsLayers {
    pub fn from_report(r: &KmsReport) -> KmsLayers {
        let t = &r.timings;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        KmsLayers {
            iterations: r.iterations.len() as u64,
            dup_gates: r.duplicated_gates as u64,
            capped: u64::from(r.capped),
            dropped_paths: r.dropped_longest_paths,
            cache_hits: r.engine.cache_hits,
            cache_misses: r.engine.cache_misses,
            engine_ms: ms(t.engine),
            path_enum_ms: ms(t.path_enum),
            oracle_ms: ms(t.oracle),
            transform_ms: ms(t.transform),
            removal_ms: ms(t.atpg),
            oracle_calls: r.oracle_solver.sat_calls,
            oracle_props: r.oracle_solver.propagations,
            oracle_conflicts: r.oracle_solver.conflicts,
            atpg_calls: r.atpg_solver.sat_calls,
            atpg_props: r.atpg_solver.propagations,
            atpg_conflicts: r.atpg_solver.conflicts,
            unknown: r.unknown as u64,
        }
    }

    pub fn add(&mut self, o: &KmsLayers) {
        self.iterations += o.iterations;
        self.dup_gates += o.dup_gates;
        self.capped += o.capped;
        self.dropped_paths += o.dropped_paths;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.engine_ms += o.engine_ms;
        self.path_enum_ms += o.path_enum_ms;
        self.oracle_ms += o.oracle_ms;
        self.transform_ms += o.transform_ms;
        self.removal_ms += o.removal_ms;
        self.oracle_calls += o.oracle_calls;
        self.oracle_props += o.oracle_props;
        self.oracle_conflicts += o.oracle_conflicts;
        self.atpg_calls += o.atpg_calls;
        self.atpg_props += o.atpg_props;
        self.atpg_conflicts += o.atpg_conflicts;
        self.unknown += o.unknown;
    }
}
