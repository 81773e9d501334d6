//! The batch workloads, `paper` and `universe`: one thread, a closed loop
//! of back-to-back corpus passes through the public pipeline calls.
//!
//! Per site: `SiteTemplate::try_build` over the list pages; per list
//! page: `prepare_outcome` (the daemon's wrapper around
//! `try_prepare_with_template`), then `CspSegmenter::try_segment` and
//! `ProbSegmenter::try_segment`. Results are kept and scored against the
//! generator's ground truth after the timed window.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::time::{Duration, Instant};

use tableseg::obs::{self, Counter, Recorder};
use tableseg::timing::Stage;
use tableseg::{
    prepare_outcome, CspSegmenter, PageOutcome, ProbSegmenter, Segmenter, SegmenterOutcome,
    SiteTemplate,
};
use tableseg_bench::{run_sites_robust, table4_report, PageRun};
use tableseg_eval::classify::{classify, truth_of_extracts, PageCounts};
use tableseg_sitegen::site::{generate, GeneratedSite, SiteSpec};
use tableseg_sitegen::{apply_chaos, paper_sites, ChaosConfig, Universe, UniverseConfig};

use crate::stats::{self, f_measure, Metric, Rng};
use crate::trace::{layer_totals, Tracer};
use crate::{Args, Outcome, Workload};

/// Sites in the `universe` workload. A 30 s window makes 1300 to 1600
/// site visits, so each run covers the whole universe once, which keeps
/// run-to-run spread across seeds small.
const UNIVERSE_SITES: usize = 1000;
/// The universe's per-(page, fault-kind) chaos probability.
const UNIVERSE_FAULT_RATE: f64 = 0.1;
/// Sites the `universe` warm-up runs before the timed window.
const UNIVERSE_WARMUP_SITES: usize = 8;
/// Corpus passes the `paper` warm-up runs. One pass took about 0.1 s and
/// its time swung by half between runs; three make `setup_s` steadier.
const PAPER_WARMUP_PASSES: usize = 3;
/// Sites per throughput slice of the `universe` window (the spread of
/// `pages_per_s` is taken over slices).
const UNIVERSE_SLICE_SITES: usize = 50;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The golden Table 4 report the `paper` workload must reproduce.
const GOLDEN_TABLE4: &str = "tests/golden/table4.txt";
/// Visited sites re-run after the window through the program's own
/// batch engine (`run_sites_robust`) and through the benchmark's path
/// again, to check its accounting and determinism; `paper` has fewer
/// sites and audits them all.
const AUDIT_SITES: usize = 40;
/// How far the traced visits' span total may drift from the untraced
/// visits' wall time before the traced run fails its consistency check:
/// the `pages_per_s` bound in `BENCHMARK.json`.
const TRACE_BOUND: f64 = 0.25;

/// The generated inputs of a batch workload.
pub struct Corpus {
    pub sites: Vec<GeneratedSite>,
    /// How each site was made: its spec and the faults injected into it
    /// (none for `paper`). The audit re-runs sites from these.
    pub recipes: Vec<(SiteSpec, ChaosConfig)>,
    /// Site visit order of one pass.
    pub order: Vec<usize>,
}

impl Corpus {
    pub fn build(workload: Workload, seed: u64) -> Corpus {
        match workload {
            Workload::Paper => {
                let recipes: Vec<(SiteSpec, ChaosConfig)> = paper_sites::all()
                    .into_iter()
                    .map(|spec| (spec, ChaosConfig::off(0)))
                    .collect();
                let sites = recipes.iter().map(|(spec, _)| generate(spec)).collect();
                // The paper corpus is fixed; the seed only orders the pass.
                let mut order: Vec<usize> = (0..recipes.len()).collect();
                Rng::new(seed).shuffle(&mut order);
                Corpus {
                    sites,
                    recipes,
                    order,
                }
            }
            Workload::Universe => {
                let config = UniverseConfig {
                    sites: UNIVERSE_SITES,
                    seed: Rng::new(seed).next_u64(),
                    fault_rate: UNIVERSE_FAULT_RATE,
                    ..UniverseConfig::default()
                };
                let universe = Universe::new(config.clone());
                let sites: Vec<GeneratedSite> = universe.sites().collect();
                let recipes = (0..sites.len())
                    .map(|i| (universe.spec(i), universe_chaos(&config, i)))
                    .collect();
                let order = (0..sites.len()).collect();
                Corpus {
                    sites,
                    recipes,
                    order,
                }
            }
            Workload::Serve => unreachable!("serve has its own corpus"),
        }
    }

    pub fn pages(&self) -> usize {
        self.sites.iter().map(|s| s.pages.len()).sum()
    }

    /// Total input bytes: list pages plus detail pages.
    pub fn bytes(&self) -> usize {
        self.sites.iter().map(site_bytes).sum()
    }

    pub fn detail_pages(&self) -> usize {
        self.sites
            .iter()
            .flat_map(|s| &s.pages)
            .map(|p| p.detail_html.len())
            .sum()
    }
}

/// The fault injection `Universe::site` applies to site `index`, so the
/// audit can hand the same site to `run_sites_robust`. The audit checks
/// that this reproduces the universe's bytes.
fn universe_chaos(config: &UniverseConfig, index: usize) -> ChaosConfig {
    // `Universe`'s SplitMix64 derivation of a site's chaos seed.
    let mut z = (config.seed ^ 0xFA17) ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ChaosConfig::uniform(config.fault_rate, z ^ (z >> 31))
}

pub fn site_bytes(site: &GeneratedSite) -> usize {
    site.pages
        .iter()
        .map(|p| p.list_html.len() + p.detail_html.iter().map(String::len).sum::<usize>())
        .sum()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    Ok,
    Degraded,
    Failed,
}

/// What one list page produced: everything scoring and the determinism
/// check need, and nothing timing-dependent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PageResult {
    pub status: Status,
    pub whole_page: bool,
    pub csp_relaxed: bool,
    pub offsets: Vec<usize>,
    pub csp: Vec<Vec<usize>>,
    pub prob: Vec<Vec<usize>>,
}

impl PageResult {
    pub fn failed() -> PageResult {
        PageResult {
            status: Status::Failed,
            whole_page: false,
            csp_relaxed: false,
            offsets: Vec::new(),
            csp: Vec::new(),
            prob: Vec::new(),
        }
    }

    /// Record counts of both segmentations against the page's truth; a
    /// failed page counts every true record as unsegmented.
    pub fn score(&self, site: &GeneratedSite, page: usize) -> (PageCounts, PageCounts) {
        let spans: Vec<Range<usize>> = site.pages[page]
            .truth
            .records
            .iter()
            .map(|r| r.start..r.end)
            .collect();
        let truth = truth_of_extracts(&self.offsets, &spans);
        let n = spans.len();
        (
            classify(&self.csp, &truth, n),
            classify(&self.prob, &truth, n),
        )
    }

    /// The page as the bench crate's batch engine reports it.
    pub fn page_run(&self, site: &GeneratedSite, page: usize) -> PageRun {
        let (csp, prob) = self.score(site, page);
        PageRun {
            site: site.spec.name.clone(),
            page,
            prob,
            csp,
            used_whole_page: self.whole_page,
            csp_relaxed: self.csp_relaxed,
        }
    }
}

/// Counts and per-page maxima gathered in the traced phase.
#[derive(Debug, Default)]
pub struct LayerCounts {
    recorder: Recorder,
    csp_page_max_ns: u64,
}

/// Runs one site through the pipeline. With a disabled tracer and no
/// counts this is the untraced path.
pub fn run_site(
    site: &GeneratedSite,
    tr: &mut Tracer,
    mut counts: Option<&mut LayerCounts>,
) -> Vec<PageResult> {
    let site_span = tr.open("site");
    let lists = site.list_htmls();
    let (built, build_span) = tr.span("template.build", || SiteTemplate::try_build(&lists));
    let template = match built {
        Ok(t) => t,
        Err(_) => {
            tr.close(site_span);
            return vec![PageResult::failed(); site.pages.len()];
        }
    };
    tr.child(
        build_span,
        "html.tokenize",
        template.timings.get(Stage::Tokenize),
    );
    tr.child(
        build_span,
        "template.induce",
        template.timings.get(Stage::TemplateInduction),
    );
    if let Some(c) = counts.as_deref_mut() {
        c.recorder.merge(&template.metrics);
    }
    let csp = CspSegmenter::default();
    let prob = ProbSegmenter::default();
    let mut results = Vec::with_capacity(site.pages.len());
    for (page, gp) in site.pages.iter().enumerate() {
        let page_span = tr.open("page");
        let details: Vec<&str> = gp.detail_html.iter().map(String::as_str).collect();
        let (outcome, prep_span) = tr.span("extract.prepare", || {
            prepare_outcome(&template, page, &details)
        });
        let (status, prepared) = match &outcome {
            PageOutcome::Ok(p) => (Status::Ok, p),
            PageOutcome::Degraded { page, .. } => (Status::Degraded, page),
            PageOutcome::Failed { .. } => {
                tr.close(page_span);
                results.push(PageResult::failed());
                continue;
            }
        };
        for (name, stage) in [
            ("html.tokenize", Stage::Tokenize),
            ("extract.extract", Stage::Extraction),
            ("extract.match", Stage::Matching),
        ] {
            tr.child(prep_span, name, prepared.timings.get(stage));
        }
        let (csp_out, csp_span) = tr.span("csp.solve", || csp.try_segment(&prepared.observations));
        if let Ok(o) = &csp_out {
            tr.child(
                csp_span,
                "csp.reduce",
                o.solver_times.get(Stage::SolveReduce),
            );
        }
        let (prob_out, prob_span) =
            tr.span("prob.solve", || prob.try_segment(&prepared.observations));
        if let Ok(o) = &prob_out {
            for (name, stage) in [
                ("prob.e_step", Stage::SolveEmEStep),
                ("prob.m_step", Stage::SolveEmMStep),
                ("prob.viterbi", Stage::SolveViterbi),
            ] {
                tr.child(prob_span, name, o.solver_times.get(stage));
            }
        }
        tr.close(page_span);
        if let Some(c) = counts.as_deref_mut() {
            c.recorder.merge(&prepared.metrics);
            c.csp_page_max_ns = c.csp_page_max_ns.max(tr.dur_ns(csp_span));
            for o in [&csp_out, &prob_out].into_iter().flatten() {
                c.recorder.merge(&o.metrics);
            }
        }
        results.push(match (csp_out, prob_out) {
            (Ok(c), Ok(p)) => page_result(status, prepared, &c, &p),
            _ => PageResult::failed(),
        });
    }
    tr.close(site_span);
    results
}

fn page_result(
    status: Status,
    prepared: &tableseg::PreparedPage,
    csp: &SegmenterOutcome,
    prob: &SegmenterOutcome,
) -> PageResult {
    PageResult {
        status,
        whole_page: prepared.used_whole_page,
        csp_relaxed: csp.relaxed,
        offsets: prepared.extract_offsets.clone(),
        csp: csp.segmentation.records(),
        prob: prob.segmentation.records(),
    }
}

/// One site visit of the timed window.
struct Visit {
    wall: Duration,
    pages: usize,
    ok: usize,
    degraded: usize,
    failed: usize,
}

/// The visits of a timed window. Only the first visit of each site keeps
/// its full results (later visits keep a digest to compare), so memory
/// does not grow with the number of visits.
#[derive(Default)]
struct Window {
    visits: Vec<Visit>,
    first: HashMap<usize, (u64, Vec<PageResult>)>,
    /// Sites whose output differed from their first visit.
    changed: Vec<usize>,
}

impl Window {
    fn record(&mut self, site: usize, wall: Duration, pages: Vec<PageResult>) {
        let count = |st: Status| pages.iter().filter(|p| p.status == st).count();
        self.visits.push(Visit {
            wall,
            pages: pages.len(),
            ok: count(Status::Ok),
            degraded: count(Status::Degraded),
            failed: count(Status::Failed),
        });
        let digest = digest(&pages);
        match self.first.get(&site) {
            Some((d, _)) if *d != digest => self.changed.push(site),
            Some(_) => {}
            None => {
                self.first.insert(site, (digest, pages));
            }
        }
    }
}

/// A digest of a site's results, to compare outputs without keeping them.
pub fn digest(pages: &[PageResult]) -> u64 {
    let mut h = DefaultHasher::new();
    pages.hash(&mut h);
    h.finish()
}

/// The closed loop: visits sites in pass order until `budget` has
/// elapsed (checked between sites).
fn closed_loop(corpus: &Corpus, budget: Duration) -> Window {
    let mut off = Tracer::new(false);
    let mut window = Window::default();
    let start = Instant::now();
    while start.elapsed() < budget {
        let site = corpus.order[window.visits.len() % corpus.order.len()];
        let t = Instant::now();
        let pages = run_site(&corpus.sites[site], &mut off, None);
        window.record(site, t.elapsed(), pages);
    }
    window
}

/// Set-up: input generation plus a short warm-up through the pipeline.
fn setup(workload: Workload, seed: u64) -> (Corpus, f64) {
    let start = Instant::now();
    let corpus = Corpus::build(workload, seed);
    let warm = match workload {
        Workload::Paper => PAPER_WARMUP_PASSES * corpus.order.len(),
        _ => UNIVERSE_WARMUP_SITES,
    };
    let mut off = Tracer::new(false);
    for &s in corpus.order.iter().cycle().take(warm) {
        run_site(&corpus.sites[s], &mut off, None);
    }
    (corpus, start.elapsed().as_secs_f64())
}

/// The window's scores, page counts and correctness failures.
struct Checked {
    f_csp: f64,
    f_prob: f64,
    ok: usize,
    degraded: usize,
    failed: usize,
    pages: usize,
    distinct_pages: usize,
    /// Extracts kept as observations over the distinct pages scored.
    extracts: usize,
    errors: Vec<String>,
}

/// Scores the distinct pages of the window against the ground truth and
/// runs the correctness checks: identical output on every visit of a
/// site, the audit, and for `paper` the golden Table 4.
fn check(workload: Workload, corpus: &Corpus, window: &Window) -> Checked {
    let mut errors: Vec<String> = window
        .changed
        .iter()
        .map(|s| format!("site {s} changed its output between visits"))
        .collect();
    let sum = |f: fn(&Visit) -> usize| window.visits.iter().map(f).sum::<usize>();
    let mut csp = PageCounts::default();
    let mut prob = PageCounts::default();
    let mut distinct_pages = 0;
    let mut extracts = 0;
    let mut runs = Vec::new();
    let mut sites: Vec<usize> = window.first.keys().copied().collect();
    sites.sort_unstable();
    for &s in &sites {
        let site = &corpus.sites[s];
        for (page, r) in window.first[&s].1.iter().enumerate() {
            let run = r.page_run(site, page);
            csp = csp.add(&run.csp);
            prob = prob.add(&run.prob);
            distinct_pages += 1;
            extracts += r.offsets.len();
            runs.push(run);
        }
    }
    errors.extend(audit(corpus, window, &sites));
    if workload == Workload::Paper {
        errors.extend(check_table4(corpus, &runs));
    }
    Checked {
        f_csp: f_measure(&csp),
        f_prob: f_measure(&prob),
        ok: sum(|v| v.ok),
        degraded: sum(|v| v.degraded),
        failed: sum(|v| v.failed),
        pages: sum(|v| v.pages),
        distinct_pages,
        extracts,
        errors,
    }
}

/// Re-runs up to [`AUDIT_SITES`] of the window's sites, spread evenly
/// over them, after the window:
///
/// - through the benchmark's own path again, which must reproduce the
///   site's first visit (so determinism is checked even for sites the
///   window visited once);
/// - through the bench crate's batch engine, `run_sites_robust`, whose
///   report must satisfy `pages == ok + degraded + failed`, must count
///   the site's pages as ok, degraded and failed exactly as the window
///   did, and must score every page it processed exactly as the window
///   did.
fn audit(corpus: &Corpus, window: &Window, visited: &[usize]) -> Vec<String> {
    let mut errors = Vec::new();
    let step = visited.len().div_ceil(AUDIT_SITES).max(1);
    for &s in visited.iter().step_by(step) {
        let site = &corpus.sites[s];
        let first = &window.first[&s].1;
        let again = run_site(site, &mut Tracer::new(false), None);
        if digest(&again) != digest(first) {
            errors.push(format!(
                "site {s}: a fresh run after the window differs from its first visit"
            ));
        }
        let (spec, chaos) = &corpus.recipes[s];
        if apply_chaos(&generate(spec), chaos).0 != *site {
            errors.push(format!(
                "site {s}: its spec and fault injection do not reproduce its pages"
            ));
            continue;
        }
        let engine = run_sites_robust(std::slice::from_ref(spec), chaos, 1);
        let r = &engine.report;
        let count = |st: Status| first.iter().filter(|p| p.status == st).count();
        let window_counts = (
            count(Status::Ok),
            count(Status::Degraded),
            count(Status::Failed),
        );
        if r.pages != r.ok + r.degraded + r.failed
            || r.pages != first.len()
            || (r.ok, r.degraded, r.failed) != window_counts
        {
            errors.push(format!(
                "site {s}: the batch engine reports pages {} = ok {} + degraded {} + failed {}, \
                 the window ok {} + degraded {} + failed {} of {} pages",
                r.pages,
                r.ok,
                r.degraded,
                r.failed,
                window_counts.0,
                window_counts.1,
                window_counts.2,
                first.len()
            ));
        }
        let ours: Vec<PageRun> = first
            .iter()
            .enumerate()
            .filter(|(_, p)| p.status != Status::Failed)
            .map(|(page, p)| p.page_run(site, page))
            .collect();
        if !same_runs(&ours, &engine.runs) {
            errors.push(format!(
                "site {s}: the batch engine scores its pages differently from the window"
            ));
        }
    }
    errors
}

fn same_runs(a: &[PageRun], b: &[PageRun]) -> bool {
    let key = |r: &PageRun| {
        (
            r.site.clone(),
            r.page,
            r.prob,
            r.csp,
            r.used_whole_page,
            r.csp_relaxed,
        )
    };
    a.iter().map(key).eq(b.iter().map(key))
}

/// The Table 4 report of the window's results must equal the golden file.
fn check_table4(corpus: &Corpus, runs: &[PageRun]) -> Option<String> {
    if runs.len() != corpus.pages() {
        return Some(format!(
            "the window covered {} of {} paper pages",
            runs.len(),
            corpus.pages()
        ));
    }
    let report = table4_report(runs, false);
    match std::fs::read_to_string(crate::repo_root().join(GOLDEN_TABLE4)) {
        Ok(golden) if golden == report => None,
        Ok(_) => Some(format!(
            "Table 4 report differs from {GOLDEN_TABLE4}:\n{report}"
        )),
        Err(e) => Some(format!("cannot read {GOLDEN_TABLE4}: {e}")),
    }
}

fn inputs_block(args: &Args, corpus: &Corpus, checked: &Checked) -> Vec<(&'static str, String)> {
    vec![
        ("seed", args.seed.to_string()),
        ("sites", corpus.sites.len().to_string()),
        ("pages", corpus.pages().to_string()),
        ("detail_pages", corpus.detail_pages().to_string()),
        ("extracts", checked.extracts.to_string()),
        ("bytes", corpus.bytes().to_string()),
        ("pages_processed", checked.pages.to_string()),
        ("distinct_pages_scored", checked.distinct_pages.to_string()),
        ("pages_ok", checked.ok.to_string()),
        ("pages_degraded", checked.degraded.to_string()),
        ("pages_failed", checked.failed.to_string()),
    ]
}

/// The untraced run: every end-to-end metric.
pub fn run(args: &Args) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut corpus = None;
    for _ in 0..SETUPS {
        // Drop the previous corpus first so set-ups do not overlap.
        drop(corpus.take());
        let (c, secs) = setup(args.workload, args.seed);
        setups.push(secs);
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one set-up");
    let steal0 = stats::steal_s();
    let window = closed_loop(&corpus, args.seconds);
    let steal = stats::steal_s() - steal0;

    let checked = check(args.workload, &corpus, &window);
    let visits = &window.visits;
    let site_ms: Vec<f64> = visits.iter().map(|v| v.wall.as_secs_f64() * 1e3).collect();
    let pages_per_s = throughput(args.workload, &corpus, visits);
    let wall: Duration = visits.iter().map(|v| v.wall).sum();
    let metrics = vec![
        Metric::median_of("setup_s", "s", &setups),
        pages_per_s,
        Metric::single("f_csp", "ratio", checked.f_csp),
        Metric::single("f_prob", "ratio", checked.f_prob),
        Metric::median_of("p50_ms", "ms", &site_ms),
        Metric {
            value: stats::quantile(&site_ms, 0.99),
            ..Metric::median_of("p99_ms", "ms", &site_ms)
        },
        Metric::single("peak_rss_mb", "MiB", stats::peak_rss_mb()),
    ];
    let mut inputs = inputs_block(args, &corpus, &checked);
    inputs.push(("window_s", stats::num(wall.as_secs_f64())));
    inputs.push(("site_visits", visits.len().to_string()));
    inputs.push(("steal_s", stats::num(steal)));
    Outcome {
        attempted: checked.pages,
        failed: checked.failed,
        errors: checked.errors,
        metrics,
        inputs,
    }
}

/// `pages_per_s`: the window's pages over the visits' own wall time,
/// with the spread taken over corpus passes (`paper`) or slices of
/// [`UNIVERSE_SLICE_SITES`] sites (`universe`). On a shared machine the
/// window's total was steadier between runs than the median pass.
fn throughput(workload: Workload, corpus: &Corpus, visits: &[Visit]) -> Metric {
    let chunk = match workload {
        Workload::Paper => corpus.order.len(),
        _ => UNIVERSE_SLICE_SITES,
    };
    let rate = |v: &[Visit]| {
        let secs: f64 = v.iter().map(|v| v.wall.as_secs_f64()).sum();
        v.iter().map(|v| v.pages).sum::<usize>() as f64 / secs
    };
    let rates: Vec<f64> = visits
        .chunks(chunk)
        .filter(|c| c.len() == chunk)
        .map(rate)
        .collect();
    Metric {
        value: rate(visits),
        ..Metric::median_of("pages_per_s", "pages/s", &rates)
    }
}

/// The traced run: every site visit runs twice back to back, untraced
/// and traced (spans and recorders on), in alternating order, so a
/// slowdown of the machine hits both alike. Per-layer metrics are per
/// list page of the traced visits.
pub fn run_traced(args: &Args) -> Outcome {
    let (corpus, _) = setup(args.workload, args.seed);
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut counts = LayerCounts::default();
    let mut window = Window::default();
    let (mut plain_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut traced_pages = 0usize;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let n = window.visits.len() / 2;
        let site = corpus.order[n % corpus.order.len()];
        for traced_turn in [n % 2 == 1, n % 2 == 0] {
            // Recorders take the switch when created, so only the traced
            // visit records counts.
            obs::set_enabled(traced_turn);
            let t = Instant::now();
            let pages = if traced_turn {
                run_site(&corpus.sites[site], &mut tr, Some(&mut counts))
            } else {
                run_site(&corpus.sites[site], &mut off, None)
            };
            let wall = t.elapsed();
            if traced_turn {
                traced_wall += wall;
                traced_pages += pages.len();
            } else {
                plain_wall += wall;
            }
            window.record(site, wall, pages);
        }
    }
    obs::set_enabled(false);

    let checked = check(args.workload, &corpus, &window);
    let mut errors = checked.errors.clone();
    let (layers, violations) = layer_totals(tr.spans());
    if !violations.is_empty() {
        errors.push(format!(
            "{} span(s) have children that sum to more than the span",
            violations.len()
        ));
    }
    let root_ms = traced_wall.as_secs_f64() * 1e3;
    let plain_ms = plain_wall.as_secs_f64() * 1e3;
    let overhead = root_ms / plain_ms - 1.0;
    let layer_names = [
        "template.build",
        "html.tokenize",
        "template.induce",
        "extract.prepare",
        "extract.extract",
        "extract.match",
        "csp.solve",
        "csp.reduce",
        "prob.solve",
        "prob.e_step",
        "prob.m_step",
        "prob.viterbi",
    ];
    let covered: f64 = layer_names.iter().map(|n| layers.self_ms(n)).sum();
    // The root's self time: time inside the site and page spans that no
    // layer span covers (harness glue between the calls).
    let other_ms = layers.self_ms("site") + layers.self_ms("page");
    let spanned_ms = covered + other_ms;
    if spanned_ms > root_ms {
        errors.push(format!(
            "layer spans plus core.other ({spanned_ms:.1} ms) exceed the traced visits' wall time ({root_ms:.1} ms)"
        ));
    }
    if (spanned_ms / plain_ms - 1.0).abs() > TRACE_BOUND {
        errors.push(format!(
            "layer spans plus core.other ({spanned_ms:.1} ms) do not cover the untraced wall time ({plain_ms:.1} ms) within {TRACE_BOUND}"
        ));
    }
    if let Err(e) = crate::write_trace(args, tr.spans()) {
        errors.push(format!("cannot write the trace: {e}"));
    }

    let traced_pages = traced_pages.max(1);
    let per_page = |ms: f64| ms / traced_pages as f64;
    let rec = &counts.recorder.counters;
    let per_page_count = |c: Counter| rec.get(c) as f64 / traced_pages as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let kept = rec.get(Counter::ExtractsKept);
    let skipped = rec.get(Counter::ExtractsSkipped);
    let mut metrics = Vec::new();
    for name in layer_names {
        metrics.push(Metric::single(
            ms_name(name),
            "ms/page",
            per_page(layers.self_ms(name)),
        ));
    }
    metrics.extend([
        Metric::single(
            "extract.matched_ratio",
            "ratio",
            ratio(kept, kept + skipped),
        ),
        Metric::single(
            "template.whole_page_ratio",
            "ratio",
            per_page_count(Counter::WholePageFallbacks),
        ),
        Metric::single("csp.page_max_ms", "ms", counts.csp_page_max_ns as f64 / 1e6),
        Metric::single(
            "csp.flips",
            "count/page",
            per_page_count(Counter::WsatFlips),
        ),
        Metric::single(
            "csp.tries",
            "count/page",
            per_page_count(Counter::WsatTries),
        ),
        Metric::single(
            "csp.components",
            "count/page",
            per_page_count(Counter::SolveComponents),
        ),
        Metric::single(
            "csp.pruned_vars",
            "count/page",
            per_page_count(Counter::SolvePrunedVars),
        ),
        Metric::single(
            "csp.relaxed_pages",
            "ratio",
            per_page_count(Counter::CspRelaxed),
        ),
        Metric::single(
            "csp.warm_start_ratio",
            "ratio",
            ratio(
                rec.get(Counter::SolveWarmStartHits),
                rec.get(Counter::SolveComponents),
            ),
        ),
        Metric::single(
            "prob.em_iterations",
            "count/page",
            per_page_count(Counter::EmIterations),
        ),
        Metric::single("core.other_ms", "ms/page", per_page(other_ms)),
        Metric::single("trace.overhead_pct", "%", overhead * 100.0),
    ]);
    let mut inputs = inputs_block(args, &corpus, &checked);
    inputs.push(("untraced_ms", stats::num(plain_ms)));
    inputs.push(("traced_ms", stats::num(root_ms)));
    inputs.push(("spanned_ms", stats::num(spanned_ms)));
    inputs.push(("traced_pages", traced_pages.to_string()));
    inputs.push(("spans", tr.spans().len().to_string()));
    Outcome {
        attempted: checked.pages,
        failed: checked.failed,
        errors,
        metrics,
        inputs,
    }
}

/// `csp.solve` → `csp.solve_ms`.
fn ms_name(layer: &str) -> &'static str {
    match layer {
        "template.build" => "template.build_ms",
        "html.tokenize" => "html.tokenize_ms",
        "template.induce" => "template.induce_ms",
        "extract.prepare" => "extract.prepare_ms",
        "extract.extract" => "extract.extract_ms",
        "extract.match" => "extract.match_ms",
        "csp.solve" => "csp.solve_ms",
        "csp.reduce" => "csp.reduce_ms",
        "prob.solve" => "prob.solve_ms",
        "prob.e_step" => "prob.e_step_ms",
        "prob.m_step" => "prob.m_step_ms",
        "prob.viterbi" => "prob.viterbi_ms",
        other => unreachable!("unknown layer {other}"),
    }
}
