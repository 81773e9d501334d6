//! The shared experiment harness: runs the full pipeline (template →
//! extraction → both segmenters → evaluation) over simulated sites and
//! produces Table-4-style rows.
//!
//! Batch runs go through [`tableseg::batch`], the work-stealing engine:
//! site preparation (generation + tokenization + template induction),
//! per-page front-end preparation, and `(site, page, segmenter)`
//! evaluation jobs each fan out across worker threads, with results
//! collected in job order so every report is byte-identical regardless of
//! thread count. Template induction runs **once per site** — pages share
//! the [`SiteTemplate`] built in the site-preparation phase — and every
//! stage's wall-clock time lands in a [`timing::Registry`] keyed by site
//! (the RT report).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod detectbench;
pub mod inducebench;
pub mod matchbench;
pub mod scalebench;
pub mod servebench;
pub mod solvebench;

use std::ops::Range;

use tableseg::obs::{Counter, Manifest, Recorder, SpanKind, SpanNode};
use tableseg::outcome::PageOutcome;
use tableseg::robustness::RobustnessReport;
use tableseg::timing::{self, Stage, StageTimes};
use tableseg::{
    batch, prepare_outcome, prepare_with_template, try_prepare_detected, CspSegmenter,
    DetectOptions, DetectedPage, PreparedPage, ProbSegmenter, SegError, Segmenter, SitePages,
    SiteTemplate,
};
use tableseg_eval::classify::{classify, truth_of_extracts, PageCounts};
use tableseg_eval::report::{render_aggregate, render_table4};
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig, ChaosLog, FaultKind};
use tableseg_sitegen::site::{generate, GeneratedSite, SiteSpec};

/// The outcome of running both approaches on one list page.
#[derive(Debug, Clone)]
pub struct PageRun {
    /// Site name.
    pub site: String,
    /// List-page index within the site (0 or 1).
    pub page: usize,
    /// Probabilistic-approach counts.
    pub prob: PageCounts,
    /// CSP-approach counts.
    pub csp: PageCounts,
    /// `true` when the page template was unusable and the whole page was
    /// used (the paper's notes `a`, `b`).
    pub used_whole_page: bool,
    /// `true` when the CSP had to relax its constraints (notes `c`, `d`).
    pub csp_relaxed: bool,
}

impl PageRun {
    /// The paper's note string for this page: `a` page-template problem,
    /// `b` entire page used, `c` no solution found, `d` relax constraints.
    pub fn notes(&self) -> String {
        let mut n = Vec::new();
        if self.used_whole_page {
            n.push("a");
            n.push("b");
        }
        if self.csp_relaxed {
            n.push("c");
            n.push("d");
        }
        n.join(", ")
    }
}

/// A generated site with its per-site front-end state (the cached
/// template): the unit of the batch engine's site-preparation phase.
#[derive(Debug)]
pub struct PreparedSite {
    /// The site specification.
    pub spec: SiteSpec,
    /// The generated pages and ground truth.
    pub site: GeneratedSite,
    /// Tokenized list pages + induced template, built exactly once.
    pub template: SiteTemplate,
}

/// Generates a site and builds its [`SiteTemplate`] (tokenization +
/// template induction — the once-per-site work).
pub fn prepare_site(spec: &SiteSpec) -> PreparedSite {
    let site = generate(spec);
    let list_htmls = site.list_htmls();
    let template = SiteTemplate::build(&list_htmls);
    PreparedSite {
        spec: spec.clone(),
        site,
        template,
    }
}

/// Prepares one page of a prepared site, reusing the cached template.
pub fn prepare_page_cached(ps: &PreparedSite, page: usize) -> PreparedPage {
    let details: Vec<&str> = ps.site.pages[page]
        .detail_html
        .iter()
        .map(String::as_str)
        .collect();
    let mut prepared = prepare_with_template(&ps.template, page, &details);
    // This page was served by the cached site template instead of a
    // fresh induction — the cache-hit counter of the obs layer.
    prepared.metrics.incr(Counter::TemplateCacheHits);
    prepared
}

/// Prepares one page of a generated site for segmentation (one-shot:
/// re-induces the template; batch callers use [`prepare_site`] +
/// [`prepare_page_cached`] instead).
pub fn prepare_page(site: &GeneratedSite, page: usize) -> PreparedPage {
    let list_htmls = site.list_htmls();
    let details: Vec<&str> = site.pages[page]
        .detail_html
        .iter()
        .map(String::as_str)
        .collect();
    tableseg::prepare(&SitePages {
        list_pages: list_htmls,
        target: page,
        detail_pages: details,
    })
}

/// Ground-truth record index per kept extract of a prepared page.
pub fn page_truth(
    site: &GeneratedSite,
    page: usize,
    prepared: &PreparedPage,
) -> Vec<Option<usize>> {
    let spans: Vec<Range<usize>> = site.pages[page]
        .truth
        .records
        .iter()
        .map(|r| r.start..r.end)
        .collect();
    truth_of_extracts(&prepared.extract_offsets, &spans)
}

/// Runs one segmenter on one page and classifies the result.
pub fn evaluate_segmenter(
    site: &GeneratedSite,
    page: usize,
    prepared: &PreparedPage,
    segmenter: &dyn Segmenter,
) -> (PageCounts, bool) {
    let (counts, relaxed, _, _) = evaluate_segmenter_timed(site, page, prepared, segmenter);
    (counts, relaxed)
}

/// Like [`evaluate_segmenter`], also returning the wall-clock time of the
/// solve (segmentation) and decode (truth alignment + classification)
/// stages plus the solver's observability metrics.
pub fn evaluate_segmenter_timed(
    site: &GeneratedSite,
    page: usize,
    prepared: &PreparedPage,
    segmenter: &dyn Segmenter,
) -> (PageCounts, bool, StageTimes, Recorder) {
    let mut times = StageTimes::new();
    let outcome = times.time(Stage::Solve, || segmenter.segment(&prepared.observations));
    times.merge(&outcome.solver_times);
    let counts = times.time(Stage::Decode, || {
        let truth = page_truth(site, page, prepared);
        let groups = outcome.segmentation.records();
        classify(&groups, &truth, site.pages[page].truth.len())
    });
    (counts, outcome.relaxed, times, outcome.metrics)
}

/// The result of a batch run: page runs in `(site, page)` order plus the
/// per-site per-stage timing registry (the RT report input).
#[derive(Debug)]
pub struct BatchOutcome {
    /// One entry per `(site, page)`, in input order.
    pub runs: Vec<PageRun>,
    /// Per-site wall-clock time per pipeline stage.
    pub timing: timing::Registry,
    /// Merged observability metrics (empty unless
    /// [`tableseg::obs::set_enabled`] is on), merged in `(site, page,
    /// segmenter)` order so totals are thread-count-invariant.
    pub metrics: Recorder,
    /// The `run > site > page > stage > substage` span tree, assembled
    /// in corpus order from the same [`StageTimes`] the registry holds.
    pub spans: SpanNode,
    /// Template inductions the run performed
    /// ([`SiteTemplate::inductions`] summed over sites), counted whether
    /// or not metrics are enabled.
    pub inductions: u64,
}

impl BatchOutcome {
    /// Bundles the run into a manifest for `tool`. The caller adds its
    /// config pairs and seeds before writing.
    pub fn manifest(&self, tool: &str, threads: usize) -> Manifest {
        let mut m = Manifest::new(tool);
        m.metrics = self.metrics.clone();
        m.root = self.spans.clone();
        m.root.name = tool.to_string();
        m.volatile.threads = threads;
        m
    }
}

/// Runs the default probabilistic and CSP segmenters over every list page
/// of every site on `threads` worker threads.
pub fn run_sites(specs: &[SiteSpec], threads: usize) -> BatchOutcome {
    run_sites_with(
        specs,
        threads,
        &ProbSegmenter::default(),
        &CspSegmenter::default(),
    )
}

/// Runs two arbitrary segmenters (labelled "prob" and "csp" in the output)
/// over every list page of every site, through the batch engine.
///
/// Three phases, each a fan-out over [`batch::execute`] with results in
/// job order:
///
/// 1. **site jobs** — generate the site, tokenize its list pages, induce
///    the template (once per site);
/// 2. **page jobs** — per-page front end against the cached template;
/// 3. **`(site, page, segmenter)` jobs** — solve and decode.
pub fn run_sites_with(
    specs: &[SiteSpec],
    threads: usize,
    prob: &dyn Segmenter,
    csp: &dyn Segmenter,
) -> BatchOutcome {
    // Phase 1: per-site preparation.
    let sites: Vec<PreparedSite> =
        batch::execute(threads, specs.to_vec(), |_, spec| prepare_site(&spec));

    // Phase 2: per-page front end. Jobs are (site, page); `offsets[si]`
    // locates a site's pages in the flat result vector.
    let mut page_jobs: Vec<(usize, usize)> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(sites.len());
    for (si, ps) in sites.iter().enumerate() {
        offsets.push(page_jobs.len());
        for page in 0..ps.site.pages.len() {
            page_jobs.push((si, page));
        }
    }
    let prepared: Vec<PreparedPage> =
        batch::execute(threads, page_jobs.clone(), |_, (si, page)| {
            prepare_page_cached(&sites[si], page)
        });

    // Phase 3: (site, page, segmenter) evaluation jobs.
    let segmenters: [&dyn Segmenter; 2] = [prob, csp];
    let eval_jobs: Vec<(usize, usize)> = (0..page_jobs.len())
        .flat_map(|pj| [(pj, 0), (pj, 1)])
        .collect();
    let evaluated: Vec<(PageCounts, bool, StageTimes, Recorder)> =
        batch::execute(threads, eval_jobs, |_, (pj, seg)| {
            let (si, page) = page_jobs[pj];
            evaluate_segmenter_timed(&sites[si].site, page, &prepared[pj], segmenters[seg])
        });

    // Assemble runs, the timing registry, the merged metrics and the
    // span tree in deterministic site order — per-job data merged here,
    // in job order, is what keeps every output thread-count-invariant.
    let registry = timing::Registry::new();
    let mut metrics = Recorder::new();
    let mut inductions = 0;
    let mut root = SpanNode::new(SpanKind::Run, "run", 0);
    let mut runs = Vec::with_capacity(page_jobs.len());
    for (si, ps) in sites.iter().enumerate() {
        let mut site_times = ps.template.timings;
        metrics.merge(&ps.template.metrics);
        inductions += ps.template.inductions;
        let mut site_span = SpanNode::new(
            SpanKind::Site,
            ps.spec.name.clone(),
            ps.template.timings.total().as_nanos(),
        );
        for span in timing::stage_spans(&ps.template.timings) {
            site_span.push(span);
        }
        for page in 0..ps.site.pages.len() {
            let pj = offsets[si] + page;
            site_times.merge(&prepared[pj].timings);
            metrics.merge(&prepared[pj].metrics);
            let (prob_counts, _, prob_times, prob_metrics) = &evaluated[2 * pj];
            let (csp_counts, csp_relaxed, csp_times, csp_metrics) = &evaluated[2 * pj + 1];
            site_times.merge(prob_times);
            site_times.merge(csp_times);
            metrics.merge(prob_metrics);
            metrics.merge(csp_metrics);
            let mut page_times = prepared[pj].timings;
            page_times.merge(prob_times);
            page_times.merge(csp_times);
            let mut page_span = SpanNode::new(
                SpanKind::Page,
                format!("page#{page}"),
                page_times.total().as_nanos(),
            );
            for span in timing::stage_spans(&page_times) {
                page_span.push(span);
            }
            site_span.nanos += page_span.nanos;
            site_span.push(page_span);
            runs.push(PageRun {
                site: ps.spec.name.clone(),
                page,
                prob: *prob_counts,
                csp: *csp_counts,
                used_whole_page: prepared[pj].used_whole_page,
                csp_relaxed: *csp_relaxed,
            });
        }
        registry.record(&ps.spec.name, &site_times);
        root.nanos += site_span.nanos;
        root.push(site_span);
    }
    BatchOutcome {
        runs,
        timing: registry,
        metrics,
        spans: root,
        inductions,
    }
}

/// Runs the detect-enabled front end on one page of a prepared site:
/// region detection, then the region-scoped front end per table region.
/// On single-table pages this passes through to the classic whole-page
/// preparation (see [`try_prepare_detected`]).
///
/// # Panics
///
/// Panics if the front end fails — the detect harness runs on clean
/// generated corpora, where a failure is a bug, not an input problem.
pub fn prepare_page_detected(ps: &PreparedSite, page: usize, opts: &DetectOptions) -> DetectedPage {
    let details: Vec<&str> = ps.site.pages[page]
        .detail_html
        .iter()
        .map(String::as_str)
        .collect();
    try_prepare_detected(&ps.template, page, &details, opts)
        .unwrap_or_else(|e| panic!("{} page {page}: detect front end failed: {e}", ps.spec.name))
}

/// Runs one segmenter over every detected table region of a page, merges
/// the per-region segmentations (group indices rebased onto the
/// concatenated extract list), and classifies the merged result against
/// the page's full ground truth.
///
/// On a pass-through page the single region *is* the classic whole-page
/// preparation, so the counts equal [`evaluate_segmenter_timed`]'s — this
/// is what lets the table4 golden run with detection enabled.
pub fn evaluate_detected_timed(
    site: &GeneratedSite,
    page: usize,
    detected: &DetectedPage,
    segmenter: &dyn Segmenter,
) -> (PageCounts, bool, StageTimes, Recorder) {
    let mut times = StageTimes::new();
    let mut metrics = Recorder::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut extract_offsets: Vec<usize> = Vec::new();
    let mut relaxed = false;
    for rp in &detected.regions {
        let outcome = times.time(Stage::Solve, || {
            segmenter.segment(&rp.prepared.observations)
        });
        times.merge(&outcome.solver_times);
        metrics.merge(&outcome.metrics);
        let base = extract_offsets.len();
        for group in outcome.segmentation.records() {
            groups.push(group.iter().map(|&i| i + base).collect());
        }
        extract_offsets.extend_from_slice(&rp.prepared.extract_offsets);
        relaxed |= outcome.relaxed;
    }
    let counts = times.time(Stage::Decode, || {
        let spans: Vec<Range<usize>> = site.pages[page]
            .truth
            .records
            .iter()
            .map(|r| r.start..r.end)
            .collect();
        let truth = truth_of_extracts(&extract_offsets, &spans);
        classify(&groups, &truth, site.pages[page].truth.len())
    });
    (counts, relaxed, times, metrics)
}

/// [`run_sites_with`], but the per-page front end goes through the
/// region-detection stage: each detected table region is prepared and
/// segmented independently and the per-region results are merged before
/// classification. Single-table pages pass through untouched, so on the
/// paper corpus this produces byte-identical reports to [`run_sites`] —
/// the invariance the detect golden test enforces at every thread count.
pub fn run_sites_detect(
    specs: &[SiteSpec],
    threads: usize,
    prob: &dyn Segmenter,
    csp: &dyn Segmenter,
    opts: &DetectOptions,
) -> BatchOutcome {
    // Phase 1: per-site preparation (unchanged).
    let sites: Vec<PreparedSite> =
        batch::execute(threads, specs.to_vec(), |_, spec| prepare_site(&spec));

    // Phase 2: the detect-enabled per-page front end.
    let mut page_jobs: Vec<(usize, usize)> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(sites.len());
    for (si, ps) in sites.iter().enumerate() {
        offsets.push(page_jobs.len());
        for page in 0..ps.site.pages.len() {
            page_jobs.push((si, page));
        }
    }
    let detected: Vec<DetectedPage> =
        batch::execute(threads, page_jobs.clone(), |_, (si, page)| {
            prepare_page_detected(&sites[si], page, opts)
        });

    // Phase 3: (site, page, segmenter) evaluation over merged regions.
    let segmenters: [&dyn Segmenter; 2] = [prob, csp];
    let eval_jobs: Vec<(usize, usize)> = (0..page_jobs.len())
        .flat_map(|pj| [(pj, 0), (pj, 1)])
        .collect();
    let evaluated: Vec<(PageCounts, bool, StageTimes, Recorder)> =
        batch::execute(threads, eval_jobs, |_, (pj, seg)| {
            let (si, page) = page_jobs[pj];
            evaluate_detected_timed(&sites[si].site, page, &detected[pj], segmenters[seg])
        });

    // Assembly mirrors run_sites_with, with the page front-end times now
    // the detection stage plus every region's preparation.
    let registry = timing::Registry::new();
    let mut metrics = Recorder::new();
    let mut inductions = 0;
    let mut root = SpanNode::new(SpanKind::Run, "run", 0);
    let mut runs = Vec::with_capacity(page_jobs.len());
    for (si, ps) in sites.iter().enumerate() {
        let mut site_times = ps.template.timings;
        metrics.merge(&ps.template.metrics);
        inductions += ps.template.inductions;
        let mut site_span = SpanNode::new(
            SpanKind::Site,
            ps.spec.name.clone(),
            ps.template.timings.total().as_nanos(),
        );
        for span in timing::stage_spans(&ps.template.timings) {
            site_span.push(span);
        }
        for page in 0..ps.site.pages.len() {
            let pj = offsets[si] + page;
            let dp = &detected[pj];
            let mut page_times = dp.timings;
            metrics.merge(&dp.metrics);
            let mut used_whole_page = false;
            for rp in &dp.regions {
                page_times.merge(&rp.prepared.timings);
                metrics.merge(&rp.prepared.metrics);
                used_whole_page |= rp.prepared.used_whole_page;
            }
            let (prob_counts, _, prob_times, prob_metrics) = &evaluated[2 * pj];
            let (csp_counts, csp_relaxed, csp_times, csp_metrics) = &evaluated[2 * pj + 1];
            page_times.merge(prob_times);
            page_times.merge(csp_times);
            metrics.merge(prob_metrics);
            metrics.merge(csp_metrics);
            site_times.merge(&page_times);
            let mut page_span = SpanNode::new(
                SpanKind::Page,
                format!("page#{page}"),
                page_times.total().as_nanos(),
            );
            for span in timing::stage_spans(&page_times) {
                page_span.push(span);
            }
            site_span.nanos += page_span.nanos;
            site_span.push(page_span);
            runs.push(PageRun {
                site: ps.spec.name.clone(),
                page,
                prob: *prob_counts,
                csp: *csp_counts,
                used_whole_page,
                csp_relaxed: *csp_relaxed,
            });
        }
        registry.record(&ps.spec.name, &site_times);
        root.nanos += site_span.nanos;
        root.push(site_span);
    }
    BatchOutcome {
        runs,
        timing: registry,
        metrics,
        spans: root,
        inductions,
    }
}

/// One site of a fault-injected batch run: the damaged site, the chaos
/// log, and the (possibly failed) site-level front end.
#[derive(Debug)]
pub struct RobustSite {
    /// The site specification.
    pub spec: SiteSpec,
    /// The generated site *after* fault injection.
    pub site: GeneratedSite,
    /// Every fault that fired on this site.
    pub log: ChaosLog,
    /// The cached template, or why the site-level front end failed.
    pub template: Result<SiteTemplate, SegError>,
}

/// The result of a fault-injected batch run.
#[derive(Debug)]
pub struct RobustBatchOutcome {
    /// One entry per page that was fully processed (front end + both
    /// segmenters), in `(site, page)` order. Failed pages have no run —
    /// accuracy is measured over the pages that produced output.
    pub runs: Vec<PageRun>,
    /// Per-page outcome accounting over *all* pages, including failed
    /// ones.
    pub report: RobustnessReport,
    /// Injected-fault counts by kind, aggregated over every site, in
    /// [`FaultKind::ALL`] order.
    pub fault_counts: Vec<(FaultKind, usize)>,
    /// Per-site wall-clock time per pipeline stage.
    pub timing: timing::Registry,
    /// Merged observability metrics, including the chaos and outcome
    /// counters (empty unless [`tableseg::obs::set_enabled`] is on).
    pub metrics: Recorder,
    /// The span tree (failed pages appear with zero stage times, so the
    /// tree shape depends only on corpus and chaos config).
    pub spans: SpanNode,
}

impl RobustBatchOutcome {
    /// Bundles the run into a manifest for `tool`, including the
    /// robustness rollup. The caller adds config pairs and seeds.
    pub fn manifest(&self, tool: &str, threads: usize) -> Manifest {
        let mut m = Manifest::new(tool);
        m.metrics = self.metrics.clone();
        m.robustness = Some(self.report.rollup());
        m.root = self.spans.clone();
        m.root.name = tool.to_string();
        m.volatile.threads = threads;
        m
    }

    /// Summed counts over all completed runs: `(prob, csp)`.
    pub fn totals(&self) -> (PageCounts, PageCounts) {
        let mut prob = PageCounts::default();
        let mut csp = PageCounts::default();
        for r in &self.runs {
            prob = prob.add(&r.prob);
            csp = csp.add(&r.csp);
        }
        (prob, csp)
    }
}

/// Runs both default segmenters over every list page of every site with
/// faults injected under `cfg` — and **never aborts**: a damaged page
/// (or a whole damaged site) becomes a failed or degraded entry in the
/// returned [`RobustnessReport`] while every other page proceeds.
///
/// Accuracy is measured against the ground truth of the *damaged* pages
/// (the chaos layer remaps record spans through every byte edit). With a
/// no-op config this is [`run_sites`] plus outcome accounting: same jobs,
/// same results, a clean report.
///
/// # Example
///
/// ```
/// use tableseg_bench::run_sites_robust;
/// use tableseg_sitegen::chaos::ChaosConfig;
/// use tableseg_sitegen::paper_sites;
///
/// let specs = &paper_sites::all()[..2];
/// let outcome = run_sites_robust(specs, &ChaosConfig::uniform(0.0, 7), 2);
/// assert_eq!(outcome.report.failed, 0, "clean input may not fail");
/// assert_eq!(outcome.report.pages, outcome.runs.len());
/// ```
pub fn run_sites_robust(
    specs: &[SiteSpec],
    cfg: &ChaosConfig,
    threads: usize,
) -> RobustBatchOutcome {
    // Phase 1: generate, damage, and prepare each site.
    let sites: Vec<RobustSite> = batch::execute(threads, specs.to_vec(), |_, spec| {
        let (site, log) = apply_chaos(&generate(&spec), cfg);
        let list_htmls = site.list_htmls();
        let template = SiteTemplate::try_build(&list_htmls);
        RobustSite {
            spec,
            site,
            log,
            template,
        }
    });

    // Phase 2: per-page front end, as outcomes. A site whose template
    // failed fails all of its pages with the same error.
    let mut page_jobs: Vec<(usize, usize)> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(sites.len());
    for (si, rs) in sites.iter().enumerate() {
        offsets.push(page_jobs.len());
        for page in 0..rs.site.pages.len() {
            page_jobs.push((si, page));
        }
    }
    let outcomes: Vec<PageOutcome> = batch::execute(threads, page_jobs.clone(), |_, (si, page)| {
        let rs = &sites[si];
        match &rs.template {
            Ok(template) => {
                let details: Vec<&str> = rs.site.pages[page]
                    .detail_html
                    .iter()
                    .map(String::as_str)
                    .collect();
                prepare_outcome(template, page, &details)
            }
            Err(error) => PageOutcome::Failed {
                error: error.clone(),
            },
        }
    });

    // Phase 3: (page, segmenter) evaluation through the fallible path.
    // Failed pages yield `None`; a solver failure is an `Err` that fails
    // just that page.
    type EvalResult = Option<(Result<(PageCounts, bool), SegError>, StageTimes, Recorder)>;
    let prob = ProbSegmenter::default();
    let csp = CspSegmenter::default();
    let segmenters: [&dyn Segmenter; 2] = [&prob, &csp];
    let eval_jobs: Vec<(usize, usize)> = (0..page_jobs.len())
        .flat_map(|pj| [(pj, 0), (pj, 1)])
        .collect();
    let evaluated: Vec<EvalResult> = batch::execute(threads, eval_jobs, |_, (pj, seg)| {
        let prepared = outcomes[pj].page()?;
        let (si, page) = page_jobs[pj];
        let mut times = StageTimes::new();
        let solved = times.time(Stage::Solve, || {
            segmenters[seg].try_segment(&prepared.observations)
        });
        let mut solve_metrics = Recorder::default();
        let result = solved.map(|outcome| {
            times.merge(&outcome.solver_times);
            solve_metrics.merge(&outcome.metrics);
            times.time(Stage::Decode, || {
                let truth = page_truth(&sites[si].site, page, prepared);
                let groups = outcome.segmentation.records();
                let counts = classify(&groups, &truth, sites[si].site.pages[page].truth.len());
                (counts, outcome.relaxed)
            })
        });
        Some((result, times, solve_metrics))
    });

    // Assemble: runs for fully processed pages, report rows for all,
    // metrics and spans in deterministic site order.
    let registry = timing::Registry::new();
    let mut report = RobustnessReport::new();
    let mut metrics = Recorder::new();
    let mut root = SpanNode::new(SpanKind::Run, "run", 0);
    let mut runs = Vec::new();
    let mut fault_counts: Vec<(FaultKind, usize)> =
        FaultKind::ALL.iter().map(|&k| (k, 0)).collect();
    for (si, rs) in sites.iter().enumerate() {
        for (slot, &(_, n)) in fault_counts.iter_mut().zip(&rs.log.counts()) {
            slot.1 += n;
            metrics.bump(Counter::ChaosFaults, n as u64);
        }
        let mut site_times = match &rs.template {
            Ok(t) => {
                metrics.merge(&t.metrics);
                t.timings
            }
            Err(_) => StageTimes::new(),
        };
        let mut site_span = SpanNode::new(
            SpanKind::Site,
            rs.spec.name.clone(),
            site_times.total().as_nanos(),
        );
        for span in timing::stage_spans(&site_times) {
            site_span.push(span);
        }
        for page in 0..rs.site.pages.len() {
            let pj = offsets[si] + page;
            let outcome = &outcomes[pj];
            let mut page_times = StageTimes::new();
            let processed = 'page: {
                let Some(prepared) = outcome.page() else {
                    report.record(outcome);
                    break 'page false;
                };
                site_times.merge(&prepared.timings);
                metrics.merge(&prepared.metrics);
                let (prob_result, prob_times, prob_metrics) = evaluated[2 * pj]
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("prepared page {pj} has an eval result"));
                let (csp_result, csp_times, csp_metrics) = evaluated[2 * pj + 1]
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("prepared page {pj} has an eval result"));
                site_times.merge(prob_times);
                site_times.merge(csp_times);
                metrics.merge(prob_metrics);
                metrics.merge(csp_metrics);
                page_times = prepared.timings;
                page_times.merge(prob_times);
                page_times.merge(csp_times);
                match (prob_result, csp_result) {
                    (Ok((prob_counts, _)), Ok((csp_counts, csp_relaxed))) => {
                        report.record(outcome);
                        runs.push(PageRun {
                            site: rs.spec.name.clone(),
                            page,
                            prob: *prob_counts,
                            csp: *csp_counts,
                            used_whole_page: prepared.used_whole_page,
                            csp_relaxed: *csp_relaxed,
                        });
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        metrics.incr(Counter::SolveFailures);
                        report.record_error(e);
                    }
                }
                true
            };
            let _ = processed;
            // Failed pages still get a (zero-time) span, so the tree
            // shape depends only on corpus and chaos config.
            let mut page_span = SpanNode::new(
                SpanKind::Page,
                format!("page#{page}"),
                page_times.total().as_nanos(),
            );
            for span in timing::stage_spans(&page_times) {
                page_span.push(span);
            }
            site_span.nanos += page_span.nanos;
            site_span.push(page_span);
        }
        registry.record(&rs.spec.name, &site_times);
        root.nanos += site_span.nanos;
        root.push(site_span);
    }
    metrics.bump(Counter::PagesOk, report.ok as u64);
    metrics.bump(Counter::PagesDegraded, report.degraded as u64);
    metrics.bump(Counter::PagesFailed, report.failed as u64);
    let warnings: usize = report.warnings.iter().map(|&(_, n)| n).sum();
    metrics.bump(Counter::PageWarnings, warnings as u64);
    RobustBatchOutcome {
        runs,
        report,
        fault_counts,
        timing: registry,
        metrics,
        spans: root,
    }
}

/// Runs both approaches over every list page of a site.
pub fn run_site(spec: &SiteSpec) -> Vec<PageRun> {
    run_sites(std::slice::from_ref(spec), 1).runs
}

/// Runs two arbitrary segmenters over every list page of a site — the
/// ablation binaries use this with variant configurations.
pub fn run_site_with(spec: &SiteSpec, prob: &dyn Segmenter, csp: &dyn Segmenter) -> Vec<PageRun> {
    run_sites_with(std::slice::from_ref(spec), 1, prob, csp).runs
}

/// Runs both approaches over many sites on the default number of threads.
/// Results come back in input order, so reports are deterministic
/// regardless of scheduling.
pub fn run_sites_parallel(specs: &[SiteSpec]) -> Vec<PageRun> {
    run_sites(specs, batch::default_threads()).runs
}

/// Converts page runs into report rows.
pub fn to_rows(runs: &[PageRun]) -> Vec<tableseg_eval::report::Row> {
    runs.iter()
        .map(|r| tableseg_eval::report::Row {
            site: r.site.clone(),
            prob: r.prob,
            csp: r.csp,
            notes: r.notes(),
        })
        .collect()
}

/// Renders the Table 4 report (or the `--clean-only` Section 6.3
/// aggregate) from a batch run's page runs. Shared by the `table4` binary
/// and the determinism tests; contains no timing data, so its output is
/// byte-identical across thread counts.
pub fn table4_report(runs: &[PageRun], clean_only: bool) -> String {
    if clean_only {
        let clean: Vec<_> = runs.iter().filter(|r| !r.csp_relaxed).cloned().collect();
        let mut prob = PageCounts::default();
        let mut csp = PageCounts::default();
        for r in &clean {
            prob = prob.add(&r.prob);
            csp = csp.add(&r.csp);
        }
        return format!(
            "{}\n",
            render_aggregate(
                &format!(
                    "Pages where the CSP found a solution ({} of {} pages) — cf. Section 6.3:",
                    clean.len(),
                    runs.len()
                ),
                &prob,
                &csp,
            )
        );
    }
    format!(
        "Table 4: results of automatic record segmentation (simulated sites)\n\n\
         {}\n\
         Paper (live 2004 sites):  probabilistic P=0.74 R=0.99 F=0.85 | CSP P=0.85 R=0.84 F=0.84\n",
        render_table4(&to_rows(runs))
    )
}

/// Renders the Tables 1–3 report — the Superpages running example (the
/// observation table `D_i`, the CSP assignment of extracts to records,
/// and the positions of extracts on detail pages). Fully in-process and
/// deterministic; shared by the `tables123` binary and the determinism
/// tests.
pub fn tables123_report() -> String {
    use tableseg_extract::build_observations;
    use tableseg_extract::positions::render_table;
    use tableseg_html::lexer::tokenize;
    use tableseg_html::Token;

    // The paper's Figure 1 / Table 1 example: two "John Smith" listings
    // sharing a phone number, plus a third record.
    let list = tokenize(
        "<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>\
         <tr><td>John Smith</td><td>221R Washington St</td><td>Wash CH</td><td>(740) 335-5555</td></tr>\
         <tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>",
    );
    let details = [
        tokenize("<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>"),
        tokenize("<h1>John Smith</h1><p>221R Washington St</p><p>Wash CH</p><p>(740) 335-5555</p>"),
        tokenize("<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>"),
    ];
    let detail_refs: Vec<&[Token]> = details.iter().map(Vec::as_slice).collect();
    let obs = build_observations(&list, &[], &detail_refs);

    let mut out = String::new();
    out.push_str("Table 1: observations of extracts on detail pages D_i\n\n");
    out.push_str(&obs.render_table());
    out.push('\n');

    let outcome = CspSegmenter::default().segment(&obs);
    out.push_str("Table 2: assignment of extracts to records (CSP solution)\n\n");
    out.push_str(&outcome.segmentation.render_table(&obs));
    out.push('\n');

    out.push_str("Table 3: positions of extracts on detail pages\n\n");
    out.push_str(&render_table(&obs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_sitegen::paper_sites;

    #[test]
    fn clean_site_runs_end_to_end() {
        let runs = run_site(&paper_sites::butler());
        assert_eq!(runs.len(), 2);
        for r in &runs {
            let total = r.csp.total_records();
            assert!(total > 0, "{r:?}");
            // A clean government site should be segmented essentially
            // perfectly by the CSP.
            assert!(r.csp.cor * 10 >= total * 9, "{r:?}");
            assert!(!r.csp_relaxed, "{r:?}");
        }
    }

    #[test]
    fn notes_format() {
        let run = PageRun {
            site: "X".into(),
            page: 0,
            prob: PageCounts::default(),
            csp: PageCounts::default(),
            used_whole_page: true,
            csp_relaxed: true,
        };
        assert_eq!(run.notes(), "a, b, c, d");
    }

    #[test]
    fn batch_timing_covers_every_site_and_stage() {
        let specs = vec![paper_sites::butler(), paper_sites::lee()];
        let outcome = run_sites(&specs, 2);
        assert_eq!(outcome.runs.len(), 4);
        let rows = outcome.timing.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "Butler County");
        assert_eq!(rows[1].0, "Lee County");
        for (site, times) in &rows {
            for stage in Stage::ALL {
                assert!(
                    times.get(stage) > std::time::Duration::ZERO,
                    "{site}: stage {} recorded no time",
                    stage.label()
                );
            }
        }
    }

    #[test]
    fn robust_run_with_noop_chaos_matches_plain_run() {
        let specs = vec![paper_sites::butler(), paper_sites::lee()];
        let plain = run_sites(&specs, 2);
        let robust = run_sites_robust(&specs, &ChaosConfig::off(1), 2);
        assert_eq!(robust.report.failed, 0);
        assert_eq!(robust.runs.len(), plain.runs.len());
        assert_eq!(
            table4_report(&robust.runs, false),
            table4_report(&plain.runs, false),
            "robust path must reproduce the plain report under a no-op config"
        );
        assert!(robust.fault_counts.iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn robust_run_survives_heavy_chaos() {
        let specs = vec![paper_sites::butler(), paper_sites::ohio()];
        for seed in [7, 8] {
            let outcome = run_sites_robust(&specs, &ChaosConfig::uniform(0.5, seed), 2);
            let r = &outcome.report;
            assert_eq!(r.pages, 4, "every page gets an outcome");
            assert_eq!(r.pages, r.ok + r.degraded + r.failed);
            // Failed pages have no run; every processed page has one.
            assert_eq!(outcome.runs.len(), r.ok + r.degraded);
            let injected: usize = outcome.fault_counts.iter().map(|&(_, n)| n).sum();
            assert!(injected > 0, "50% chaos must fire");
        }
    }

    #[test]
    fn cached_prepare_matches_one_shot() {
        let ps = prepare_site(&paper_sites::butler());
        for page in 0..ps.site.pages.len() {
            let cached = prepare_page_cached(&ps, page);
            let oneshot = prepare_page(&ps.site, page);
            assert_eq!(cached.used_whole_page, oneshot.used_whole_page);
            assert_eq!(cached.extract_offsets, oneshot.extract_offsets);
            assert_eq!(cached.observations.len(), oneshot.observations.len());
        }
    }
}
