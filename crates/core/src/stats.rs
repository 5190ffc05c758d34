//! Instrumentation counters for the experiments.
//!
//! The paper's primary metric is wall-clock time, plus the space
//! overhead of arrangement indexing (Figure 13(b)). [`Stats`] tracks
//! both, alongside work counters useful for the ablation benches.
//!
//! [`Stats::timings`] carries the per-phase wall-clock breakdown from
//! [`crate::obs`]. Like [`Stats::stolen_tasks`] and
//! [`Stats::dataset_epoch`], timings are hardware- and scheduling-
//! dependent and therefore **never** part of the deterministic JSON
//! wire format ([`crate::wire::stats_json`] does not serialize them).

/// Work and space counters accumulated during one UTK query.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Records retained by the filtering step (r-skyband or k-skyband
    /// / onion candidates).
    pub candidates: usize,
    /// Half-spaces inserted into arrangements.
    pub halfspaces_inserted: usize,
    /// Linear programs the arrangements solved: each one's root
    /// interior point plus every cell-versus-half-space interior test.
    pub lp_solves: usize,
    /// Constraint rows over all of [`Stats::lp_solves`] — the size
    /// of the LP work, not just its count.
    pub lp_rows: usize,
    /// Arrangement cells created (including split children).
    pub cells_created: usize,
    /// Local arrangements constructed (one per `Verify`/`Partition`
    /// call, §4.5).
    pub arrangements_built: usize,
    /// Drill operations executed (§4.3).
    pub drills: usize,
    /// Drills that verified the candidate directly.
    pub drill_hits: usize,
    /// r-dominance tests performed.
    pub rdom_tests: usize,
    /// R-tree entries (nodes + records) popped during BBS.
    pub bbs_pops: usize,
    /// Current bytes held by live arrangement indices.
    pub live_arrangement_bytes: usize,
    /// Peak of [`Stats::live_arrangement_bytes`] — the paper's space
    /// requirement metric.
    pub peak_arrangement_bytes: usize,
    /// kSPR invocations (baselines only).
    pub kspr_calls: usize,
    /// Queries whose filtering step (r-skyband + graph) was served
    /// from the [`crate::engine::UtkEngine`] cache instead of being
    /// recomputed.
    pub filter_cache_hits: usize,
    /// Queries whose filtering was rebuilt by re-screening a cached
    /// candidate set of a containing region (`R' ⊇ R`) instead of
    /// running BBS over the whole tree.
    pub superset_hits: usize,
    /// Bytes resident in the engine's filter cache after this query's
    /// filtering step (a gauge, not a counter; 0 when the cache is
    /// disabled or bypassed).
    pub filter_cache_bytes: usize,
    /// Cache entries evicted while inserting this query's filtering
    /// output (LRU, byte-budget driven).
    pub evictions: usize,
    /// Members the r-skyband screen skipped via the pivot-order
    /// prefix cut (members whose pivot score is provably too low to
    /// r-dominate the probe).
    pub screen_prefix_skips: usize,
    /// Member blocks swept by the blocked screen kernel (each block is
    /// `utk_geom::SCORE_LANES` members wide; 0 on the scalar oracle
    /// path).
    pub kernel_blocks: usize,
    /// Retired: the `f32` screen prefilter it counted is gone, so this
    /// is always 0 and is not on the wire. Kept only for readers that
    /// still name it; it will be removed.
    pub prefilter_rejects: usize,
    /// Worker threads of the pool that executed this query's parallel
    /// phase (0 for a fully sequential query). Parallel RSA and
    /// parallel JAA populate it; deterministic for a given engine.
    pub pool_threads: usize,
    /// Pool tasks of this query executed by a worker other than the
    /// one that queued them (work actually stolen). Scheduling-
    /// dependent, hence *not* part of the JSON wire format.
    pub stolen_tasks: usize,
    /// Number of distinct `(k, region, scoring)` groups in the
    /// [`crate::engine::UtkEngine::run_many`] batch this query was
    /// part of (0 for a standalone query).
    pub batch_group_count: usize,
    /// Epoch of the dataset snapshot this query ran against: 0 for a
    /// freshly built engine, bumped by every
    /// [`crate::engine::UtkEngine::apply_update`]. Engine-history
    /// dependent (a rebuilt engine restarts at 0), so — like
    /// [`Stats::stolen_tasks`] — it is *not* part of the JSON wire
    /// format.
    pub dataset_epoch: usize,
    /// Per-phase wall-clock breakdown recorded by the
    /// [`crate::obs`] tracer when the query ran under
    /// [`crate::engine::UtkEngine::run`]. Zeroed for untraced paths
    /// (the legacy free functions). Durations are non-deterministic,
    /// so — like [`Stats::stolen_tasks`] — they are *not* part of the
    /// JSON wire format.
    pub timings: crate::obs::PhaseTimings,
}

impl Stats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `bytes` of newly built arrangement index.
    pub fn arrangement_grew(&mut self, bytes: usize) {
        self.live_arrangement_bytes += bytes;
        if self.live_arrangement_bytes > self.peak_arrangement_bytes {
            self.peak_arrangement_bytes = self.live_arrangement_bytes;
        }
    }

    /// Adds the cells and LPs of a finished arrangement.
    pub fn count_arrangement(&mut self, arr: &utk_geom::Arrangement) {
        let lp = arr.lp_work();
        self.cells_created += arr.all_cells().len();
        self.lp_solves += lp.solves;
        self.lp_rows += lp.rows;
    }

    /// Registers `bytes` of discarded arrangement index.
    pub fn arrangement_dropped(&mut self, bytes: usize) {
        self.live_arrangement_bytes = self.live_arrangement_bytes.saturating_sub(bytes);
    }

    /// Merges counters from another run (used when averaging over the
    /// 50 query boxes of an experiment).
    pub fn absorb(&mut self, other: &Stats) {
        self.candidates += other.candidates;
        self.halfspaces_inserted += other.halfspaces_inserted;
        self.lp_solves += other.lp_solves;
        self.lp_rows += other.lp_rows;
        self.cells_created += other.cells_created;
        self.arrangements_built += other.arrangements_built;
        self.drills += other.drills;
        self.drill_hits += other.drill_hits;
        self.rdom_tests += other.rdom_tests;
        self.bbs_pops += other.bbs_pops;
        self.peak_arrangement_bytes = self
            .peak_arrangement_bytes
            .max(other.peak_arrangement_bytes);
        self.kspr_calls += other.kspr_calls;
        self.filter_cache_hits += other.filter_cache_hits;
        self.superset_hits += other.superset_hits;
        // A gauge: a merged run reports its high-water mark.
        self.filter_cache_bytes = self.filter_cache_bytes.max(other.filter_cache_bytes);
        self.evictions += other.evictions;
        self.screen_prefix_skips += other.screen_prefix_skips;
        self.kernel_blocks += other.kernel_blocks;
        // Configuration-like counters: a merge keeps the widest value
        // rather than a meaningless sum.
        self.pool_threads = self.pool_threads.max(other.pool_threads);
        self.stolen_tasks += other.stolen_tasks;
        self.batch_group_count = self.batch_group_count.max(other.batch_group_count);
        self.dataset_epoch = self.dataset_epoch.max(other.dataset_epoch);
        self.timings.absorb(&other.timings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut s = Stats::new();
        s.arrangement_grew(100);
        s.arrangement_grew(50);
        s.arrangement_dropped(120);
        s.arrangement_grew(10);
        assert_eq!(s.peak_arrangement_bytes, 150);
        assert_eq!(s.live_arrangement_bytes, 40);
    }

    #[test]
    fn absorb_takes_max_peak() {
        let mut a = Stats::new();
        a.arrangement_grew(10);
        let mut b = Stats::new();
        b.arrangement_grew(99);
        a.absorb(&b);
        assert_eq!(a.peak_arrangement_bytes, 99);
    }
}
