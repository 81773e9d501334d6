//! The solver microbenchmark behind `BENCH_solver.json`: three solver
//! generations over the twelve simulated paper sites.
//!
//! * **baseline** — the pre-overhaul algorithms, kept verbatim in the
//!   oracle crate: the whole-instance ladder ([`segment_whole`]) searching
//!   with the sequential uncached WSAT ([`solve_reference`]), and the
//!   per-cell log-space EM loop ([`segment_prob_log_space`]);
//! * **prev** — the previously optimized solvers: the cached-delta
//!   parallel WSAT on the whole instance ([`segment_whole`] with
//!   [`solve`]) and the arena-based unmemoized scaled EM
//!   ([`segment_prob_unmemoized`]);
//! * **optimized** — the production path: instance reduction with
//!   component decomposition and warm-started WSAT, plus the memoized
//!   CSR E-step.
//!
//! `solve_speedup` is optimized-vs-**prev** — the gain of the current
//! round over the already-optimized solvers, not over the ancient
//! baseline. All three paths solve the *same* observation tables, so the
//! comparison isolates the solver layer — front-end preparation is done
//! once, outside every timed region.

use std::time::Instant;

use tableseg_csp::wsat::solve;
use tableseg_csp::{encode, reduce_model, segment_csp, CspOptions, CspStatus, EncodeOptions};
use tableseg_extract::Observations;
use tableseg_oracle::em::{segment_prob_log_space, segment_prob_unmemoized};
use tableseg_oracle::relax::segment_whole;
use tableseg_oracle::wsat::solve_reference;
use tableseg_prob::{segment_prob, ProbOptions};

use crate::corpus::{paper_prepared, site_count, BenchJson};
use crate::prepare_page_cached;

/// One list page of the benchmark corpus, prepared for segmentation.
pub struct SolveFixture {
    /// Site name.
    pub site: String,
    /// List-page index within the site.
    pub page: usize,
    /// The page's observation table (the solver input).
    pub observations: Observations,
}

/// Builds the benchmark corpus: every list page of every simulated paper
/// site, front end run once per page (sites prepared via
/// [`crate::corpus::paper_prepared`]).
pub fn corpus() -> Vec<SolveFixture> {
    let mut fixtures = Vec::new();
    for ps in paper_prepared() {
        for page in 0..ps.site.pages.len() {
            let prepared = prepare_page_cached(&ps, page);
            fixtures.push(SolveFixture {
                site: ps.spec.name.clone(),
                page,
                observations: prepared.observations,
            });
        }
    }
    fixtures
}

/// Wall clock for one solver method across its three generations.
#[derive(Debug, Clone, Copy)]
pub struct MethodBench {
    /// Best (minimum) nanoseconds of one baseline corpus pass.
    pub baseline_ns: u128,
    /// Best (minimum) nanoseconds of one previously-optimized corpus pass.
    pub prev_ns: u128,
    /// Best (minimum) nanoseconds of one optimized corpus pass.
    pub optimized_ns: u128,
    /// Method-specific work units performed by one optimized pass
    /// (WSAT flips for the CSP, EM iterations for the probabilistic
    /// approach) — the throughput numerator.
    pub work_units: u64,
}

impl MethodBench {
    /// baseline / optimized wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.optimized_ns.max(1) as f64
    }

    /// prev / optimized wall-clock ratio: the current round's gain.
    pub fn speedup_over_prev(&self) -> f64 {
        self.prev_ns as f64 / self.optimized_ns.max(1) as f64
    }

    /// Work units per second of the optimized pass.
    pub fn units_per_sec(&self) -> f64 {
        self.work_units as f64 / (self.optimized_ns.max(1) as f64 / 1e9)
    }
}

/// Totals from the CSP instance-reduction layer over one corpus pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionStats {
    /// Connected components solved independently.
    pub components: u64,
    /// Variables eliminated before search (forced + free).
    pub pruned_vars: u64,
    /// Warm-started solves whose winning try was a warm seed.
    pub warm_start_hits: u64,
    /// Components whose exact pass ran out of its node budget.
    pub bnb_exhausted: u64,
    /// Wall clock spent inside the reduction passes.
    pub reduce_ns: u64,
}

/// The corpus-level result of the solver comparison.
#[derive(Debug, Clone, Copy)]
pub struct SolveBench {
    /// Number of sites in the corpus.
    pub sites: usize,
    /// Number of list pages solved per pass.
    pub pages: usize,
    /// Total extracts across the corpus.
    pub extracts: usize,
    /// The CSP approach.
    pub csp: MethodBench,
    /// The probabilistic approach.
    pub prob: MethodBench,
    /// Reduction-layer totals of one optimized CSP pass.
    pub reduction: ReductionStats,
    /// Corpus passes each path ran; the reported time is the fastest
    /// pass, which is robust to interference from other load.
    pub iters: usize,
}

impl SolveBench {
    /// Whole-solve-stage speedup over the **previously optimized**
    /// solvers: summed prev over summed optimized.
    pub fn solve_speedup(&self) -> f64 {
        (self.csp.prev_ns + self.prob.prev_ns) as f64
            / (self.csp.optimized_ns + self.prob.optimized_ns).max(1) as f64
    }

    /// Whole-solve-stage speedup over the pre-overhaul baselines.
    pub fn reference_speedup(&self) -> f64 {
        (self.csp.baseline_ns + self.prob.baseline_ns) as f64
            / (self.csp.optimized_ns + self.prob.optimized_ns).max(1) as f64
    }
}

/// Times all six solver paths over the full corpus, `iters` times each,
/// verifying up front that each optimized path reproduces its
/// predecessor's results on every page:
///
/// * the memoized scaled EM and the unmemoized one must decode the same
///   path as the log-space oracle;
/// * the reduced+decomposed CSP must report the same status as the
///   whole-instance solver, and the same segmentation wherever the
///   instance is exactly solvable (relaxed instances have non-unique
///   optima, so only the status is compared there).
pub fn run_solve_bench(iters: usize) -> SolveBench {
    let fixtures = corpus();
    let sites = site_count(fixtures.iter().map(|f| f.site.as_str()));
    let extracts = fixtures.iter().map(|f| f.observations.len()).sum();

    let csp_opts = CspOptions::default();
    let prob_opts = ProbOptions::default();

    // Verification pass (also collects the reduction stats).
    let mut reduction = ReductionStats::default();
    for f in &fixtures {
        let slow = segment_prob_log_space(&f.observations, &prob_opts);
        let prev = segment_prob_unmemoized(&f.observations, &prob_opts);
        let fast = segment_prob(&f.observations, &prob_opts);
        assert_eq!(
            slow.segmentation.assignments, prev.segmentation.assignments,
            "{} page {}: scaled EM diverged from log-space oracle",
            f.site, f.page
        );
        assert_eq!(
            prev.segmentation.assignments, fast.segmentation.assignments,
            "{} page {}: memoized E-step diverged from the unmemoized pass",
            f.site, f.page
        );
        let slow = segment_whole(&f.observations, &csp_opts, solve_reference);
        let whole = segment_whole(&f.observations, &csp_opts, solve);
        let reduced = segment_csp(&f.observations, &csp_opts);
        assert!(
            !(slow.status == CspStatus::Solved && whole.status != CspStatus::Solved),
            "{} page {}: cached-delta WSAT lost a solution the reference found",
            f.site,
            f.page
        );
        assert_eq!(
            whole.status, reduced.status,
            "{} page {}: reduced solve changed the outcome status",
            f.site, f.page
        );
        if whole.status == CspStatus::Solved {
            assert_eq!(
                whole.segmentation.assignments, reduced.segmentation.assignments,
                "{} page {}: reduced solve diverged from the whole-instance solver",
                f.site, f.page
            );
        }
        reduction.components += reduced.components as u64;
        reduction.pruned_vars += reduced.pruned_vars as u64;
        reduction.warm_start_hits += reduced.warm_start_hits;
        reduction.bnb_exhausted += reduced.bnb_exhausted as u64;
        reduction.reduce_ns += reduced.reduce_ns;
    }

    let blank = MethodBench {
        baseline_ns: u128::MAX,
        prev_ns: u128::MAX,
        optimized_ns: u128::MAX,
        work_units: 0,
    };
    let mut csp = blank;
    let mut prob = blank;
    for _ in 0..iters {
        let t = Instant::now();
        for f in &fixtures {
            std::hint::black_box(segment_whole(&f.observations, &csp_opts, solve_reference));
        }
        csp.baseline_ns = csp.baseline_ns.min(t.elapsed().as_nanos());

        let t = Instant::now();
        for f in &fixtures {
            std::hint::black_box(segment_whole(&f.observations, &csp_opts, solve));
        }
        csp.prev_ns = csp.prev_ns.min(t.elapsed().as_nanos());

        let t = Instant::now();
        let mut flips = 0u64;
        for f in &fixtures {
            flips += std::hint::black_box(segment_csp(&f.observations, &csp_opts)).flips;
        }
        csp.optimized_ns = csp.optimized_ns.min(t.elapsed().as_nanos());
        csp.work_units = flips;

        let t = Instant::now();
        for f in &fixtures {
            std::hint::black_box(segment_prob_log_space(&f.observations, &prob_opts));
        }
        prob.baseline_ns = prob.baseline_ns.min(t.elapsed().as_nanos());

        let t = Instant::now();
        for f in &fixtures {
            std::hint::black_box(segment_prob_unmemoized(&f.observations, &prob_opts));
        }
        prob.prev_ns = prob.prev_ns.min(t.elapsed().as_nanos());

        let t = Instant::now();
        let mut em_iters = 0u64;
        for f in &fixtures {
            em_iters +=
                std::hint::black_box(segment_prob(&f.observations, &prob_opts)).iterations as u64;
        }
        prob.optimized_ns = prob.optimized_ns.min(t.elapsed().as_nanos());
        prob.work_units = em_iters;
    }

    SolveBench {
        sites,
        pages: fixtures.len(),
        extracts,
        csp,
        prob,
        reduction,
        iters,
    }
}

/// Per-component size histograms over the corpus: how the reduction
/// splits the strict and relaxed encodings, as `(vars, components)`
/// pairs ascending by size. Written to the manifest under `--profile` so
/// a reduction regression (components merging back into one blob) is
/// diagnosable from artifacts alone.
#[derive(Debug, Clone, Default)]
pub struct ComponentProfile {
    /// Histogram over the strict (equality) encodings.
    pub strict: Vec<(usize, u64)>,
    /// Histogram over the relaxed (maximization) encodings.
    pub relaxed: Vec<(usize, u64)>,
}

/// Runs the reduction alone over every fixture and histograms the
/// component sizes of both encodings.
pub fn component_profile(fixtures: &[SolveFixture]) -> ComponentProfile {
    let mut hist = [
        std::collections::BTreeMap::new(),
        std::collections::BTreeMap::new(),
    ];
    for f in fixtures {
        for (slot, relaxed) in hist.iter_mut().zip([false, true]) {
            let enc = encode(
                &f.observations,
                &EncodeOptions {
                    relaxed,
                    ..EncodeOptions::default()
                },
            );
            let red = reduce_model(&enc.model);
            for comp in &red.components {
                *slot.entry(comp.vars.len()).or_insert(0u64) += 1;
            }
        }
    }
    let flatten = |m: &std::collections::BTreeMap<usize, u64>| {
        m.iter().map(|(&size, &n)| (size, n)).collect()
    };
    ComponentProfile {
        strict: flatten(&hist[0]),
        relaxed: flatten(&hist[1]),
    }
}

fn histogram_json(pairs: &[(usize, u64)]) -> String {
    let cells: Vec<String> = pairs
        .iter()
        .map(|(size, n)| format!("[{size}, {n}]"))
        .collect();
    format!("[{}]", cells.join(", "))
}

/// Renders the benchmark (plus per-stage totals of a batch run and an
/// optional component profile) as the `BENCH_solver.json` document.
pub fn render_json(
    bench: &SolveBench,
    stage_totals: &[(String, u128)],
    profile: Option<&ComponentProfile>,
) -> String {
    let mut j = BenchJson::new("solver");
    j.corpus(bench.sites, bench.pages, bench.extracts)
        .field("iters", bench.iters)
        .raw(
            "csp",
            format!(
                "{{ \"baseline_ns\": {}, \"prev_ns\": {}, \"optimized_ns\": {}, \
                 \"speedup\": {:.2}, \"speedup_over_prev\": {:.2}, \
                 \"flips\": {}, \"flips_per_sec\": {:.0} }}",
                bench.csp.baseline_ns,
                bench.csp.prev_ns,
                bench.csp.optimized_ns,
                bench.csp.speedup(),
                bench.csp.speedup_over_prev(),
                bench.csp.work_units,
                bench.csp.units_per_sec()
            ),
        )
        .raw(
            "prob",
            format!(
                "{{ \"baseline_ns\": {}, \"prev_ns\": {}, \"optimized_ns\": {}, \
                 \"speedup\": {:.2}, \"speedup_over_prev\": {:.2}, \
                 \"em_iters\": {}, \"em_iters_per_sec\": {:.0} }}",
                bench.prob.baseline_ns,
                bench.prob.prev_ns,
                bench.prob.optimized_ns,
                bench.prob.speedup(),
                bench.prob.speedup_over_prev(),
                bench.prob.work_units,
                bench.prob.units_per_sec()
            ),
        )
        .raw(
            "reduction",
            format!(
                "{{ \"components\": {}, \"pruned_vars\": {}, \"warm_start_hits\": {}, \
                 \"bnb_exhausted\": {}, \"reduce_ns\": {} }}",
                bench.reduction.components,
                bench.reduction.pruned_vars,
                bench.reduction.warm_start_hits,
                bench.reduction.bnb_exhausted,
                bench.reduction.reduce_ns
            ),
        )
        .raw("solve_speedup", format!("{:.2}", bench.solve_speedup()))
        .raw(
            "reference_speedup",
            format!("{:.2}", bench.reference_speedup()),
        );
    if let Some(p) = profile {
        j.raw(
            "component_profile",
            format!(
                "{{ \"strict\": {}, \"relaxed\": {} }}",
                histogram_json(&p.strict),
                histogram_json(&p.relaxed)
            ),
        );
    }
    j.stage_totals(stage_totals);
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_sitegen::paper_sites;

    #[test]
    fn corpus_covers_all_sites() {
        let fixtures = corpus();
        assert_eq!(
            fixtures.len(),
            paper_sites::all().len() * 2,
            "two list pages per site"
        );
        assert!(fixtures.iter().all(|f| !f.observations.items.is_empty()));
    }

    fn bench_fixture() -> SolveBench {
        SolveBench {
            sites: 12,
            pages: 24,
            extracts: 500,
            csp: MethodBench {
                baseline_ns: 9000,
                prev_ns: 6000,
                optimized_ns: 3000,
                work_units: 60,
            },
            prob: MethodBench {
                baseline_ns: 6000,
                prev_ns: 3000,
                optimized_ns: 2000,
                work_units: 40,
            },
            reduction: ReductionStats {
                components: 7,
                pruned_vars: 321,
                warm_start_hits: 5,
                bnb_exhausted: 2,
                reduce_ns: 1234,
            },
            iters: 2,
        }
    }

    #[test]
    fn speedups_compare_the_right_generations() {
        let bench = bench_fixture();
        // prev / optimized = 9000/5000; baseline / optimized = 15000/5000.
        assert!((bench.solve_speedup() - 1.8).abs() < 1e-9);
        assert!((bench.reference_speedup() - 3.0).abs() < 1e-9);
        assert!((bench.csp.speedup_over_prev() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn json_shape() {
        let bench = bench_fixture();
        let json = render_json(&bench, &[("solve.csp".into(), 42)], None);
        assert!(json.contains("\"schema\": \"tableseg.bench/v2\""));
        assert!(json.contains("\"solve_speedup\": 1.80"));
        assert!(json.contains("\"reference_speedup\": 3.00"));
        assert!(json.contains("\"prev_ns\": 6000"));
        assert!(json.contains("\"flips\": 60"));
        assert!(json.contains("\"em_iters\": 40"));
        assert!(json.contains("\"components\": 7"));
        assert!(json.contains("\"pruned_vars\": 321"));
        assert!(json.contains("\"warm_start_hits\": 5"));
        assert!(json.contains("\"bnb_exhausted\": 2"));
        assert!(json.contains("\"solve.csp\": 42"));
        assert!(!json.contains("component_profile"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn json_includes_profile_when_given() {
        let bench = bench_fixture();
        let profile = ComponentProfile {
            strict: vec![(3, 2)],
            relaxed: vec![(3, 2), (11, 1)],
        };
        let json = render_json(&bench, &[], Some(&profile));
        assert!(json.contains(
            "\"component_profile\": { \"strict\": [[3, 2]], \"relaxed\": [[3, 2], [11, 1]] }"
        ));
    }

    #[test]
    fn component_profile_histograms_the_corpus() {
        let fixtures = corpus();
        let profile = component_profile(&fixtures);
        // Clean strict instances are fully propagated (no components);
        // relaxed encodings decompose, so the relaxed histogram has mass.
        let relaxed_total: u64 = profile.relaxed.iter().map(|(_, n)| n).sum();
        assert!(relaxed_total > 0, "{profile:?}");
        for (size, n) in profile.strict.iter().chain(&profile.relaxed) {
            assert!(*size >= 1);
            assert!(*n >= 1);
        }
    }
}
