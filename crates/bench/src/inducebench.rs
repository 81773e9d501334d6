//! The template-induction microbenchmark behind `BENCH_induce.json`:
//! Hirschberg pair-LCS vs. the histogram-LCS core on the candidate
//! streams of the simulated paper sites, plus the multi-page
//! quality-vs-cost curve of the rolling merge (2 → 10 sample pages per
//! site).
//!
//! Both LCS cores align the *same* candidate streams — exactly the
//! pairwise inputs induction folds — so the pair comparison isolates the
//! LCS layer. The multi-page curve scales each paper site with
//! [`SiteSpec::with_page_count`](tableseg_sitegen::site::SiteSpec::with_page_count)
//! and records, per page count, the
//! wall-clock of a full histogram induction over the corpus and the
//! aggregate template quality ([`assess`]); the 10-page point is expected
//! to be no worse than the 2-page baseline (the candidate filter only
//! tightens as pages are added).

use std::time::Instant;

use tableseg::html::lexer::tokenize;
use tableseg::html::Token;
use tableseg::template::{
    assess, candidate_streams, induce_with, lcs_indices_histogram, Interner, Symbol,
};
use tableseg_oracle::induce::induce_interned;

use crate::corpus::{paper_generated_scaled, BenchJson};

/// One site's interned front-end state, the induction benchmark input.
pub struct InduceFixture {
    /// Site name.
    pub site: String,
    /// Tokenized list pages.
    pub pages: Vec<Vec<Token>>,
    /// Interned symbol streams, aligned with `pages`.
    pub streams: Vec<Vec<Symbol>>,
    /// Interner size (the symbol-id upper bound).
    pub num_symbols: usize,
}

/// Tokenizes and interns every paper site at `page_count` sample pages
/// (sites generated via [`crate::corpus::paper_generated_scaled`]).
pub fn corpus(page_count: usize) -> Vec<InduceFixture> {
    paper_generated_scaled(page_count)
        .into_iter()
        .map(|(spec, site)| {
            let pages: Vec<Vec<Token>> =
                site.pages.iter().map(|p| tokenize(&p.list_html)).collect();
            let mut interner = Interner::new();
            let streams: Vec<Vec<Symbol>> =
                pages.iter().map(|p| interner.intern_tokens(p)).collect();
            InduceFixture {
                site: spec.name.clone(),
                pages,
                streams,
                num_symbols: interner.len(),
            }
        })
        .collect()
}

/// The pair-LCS comparison: both cores over every site's 2-page candidate
/// streams.
#[derive(Debug, Clone, Copy)]
pub struct PairLcsBench {
    /// Best (minimum) nanoseconds of one Hirschberg corpus pass.
    pub hirschberg_ns: u128,
    /// Best (minimum) nanoseconds of one histogram corpus pass.
    pub histogram_ns: u128,
    /// Site pairs aligned per pass.
    pub pairs: usize,
    /// Total anchors (LCS length) found by the histogram pass — identical
    /// to the Hirschberg total by the differential check.
    pub anchors: usize,
    /// Total candidate tokens aligned per pass (sum of window lengths).
    pub tokens: usize,
}

impl PairLcsBench {
    /// Hirschberg / histogram wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.hirschberg_ns as f64 / self.histogram_ns.max(1) as f64
    }
}

/// One point of the multi-page quality-vs-cost curve.
#[derive(Debug, Clone, Copy)]
pub struct MergePoint {
    /// Sample pages per site.
    pub pages: usize,
    /// Best (minimum) nanoseconds of one histogram-induction corpus pass.
    pub induce_ns: u128,
    /// Mean `largest_slot_fraction` over the corpus (the table-slot
    /// dominance measure of `quality.rs` — higher is better).
    pub mean_largest_slot_fraction: f64,
    /// Mean template length over the corpus.
    pub mean_template_len: f64,
    /// Sites whose template passed [`TemplateQuality::is_usable`].
    ///
    /// [`TemplateQuality::is_usable`]: tableseg::template::TemplateQuality::is_usable
    pub usable_sites: usize,
}

/// The full induction benchmark result.
#[derive(Debug, Clone)]
pub struct InduceBench {
    /// Number of sites in the corpus.
    pub sites: usize,
    /// The pair-LCS core comparison (2-page candidate streams).
    pub pair: PairLcsBench,
    /// The multi-page curve, ascending in page count (2 → 10).
    pub curve: Vec<MergePoint>,
    /// Corpus passes per timed path; the fastest pass is reported.
    pub iters: usize,
}

impl InduceBench {
    /// The 10-page (last) point of the curve.
    pub fn deep(&self) -> &MergePoint {
        self.curve.last().expect("curve is non-empty")
    }

    /// The 2-page (first) point of the curve.
    pub fn baseline(&self) -> &MergePoint {
        self.curve.first().expect("curve is non-empty")
    }

    /// `true` when the deepest induction's quality is no worse than the
    /// 2-page baseline, on both the table-slot dominance measure and the
    /// usable-site count.
    pub fn quality_non_degrading(&self) -> bool {
        let (base, deep) = (self.baseline(), self.deep());
        deep.mean_largest_slot_fraction + 1e-9 >= base.mean_largest_slot_fraction
            && deep.usable_sites >= base.usable_sites
    }
}

/// Extracts the bare symbol windows the fold aligns for a 2-page site.
fn pair_windows(f: &InduceFixture) -> (Vec<Symbol>, Vec<Symbol>) {
    let filtered = candidate_streams(&f.streams, f.num_symbols);
    let syms = |s: &[(Symbol, usize)]| s.iter().map(|&(sym, _)| sym).collect();
    (syms(&filtered[0]), syms(&filtered[1]))
}

/// Runs the induction benchmark: the differential check, the pair-LCS
/// timing, and the multi-page curve, with `iters` passes per timed path.
///
/// # Panics
///
/// Panics if the histogram core disagrees with the Hirschberg oracle on
/// any site pair (LCS length or subsequence validity), or if any
/// multi-page induction disagrees with the oracle's template length —
/// a speedup that changes results is not a speedup.
pub fn run_induce_bench(iters: usize, page_counts: &[usize]) -> InduceBench {
    let fixtures = corpus(2);
    let windows: Vec<(Vec<Symbol>, Vec<Symbol>)> = fixtures.iter().map(pair_windows).collect();

    // Differential gate, pair level: equal LCS length and a valid common
    // subsequence on every site's candidate windows.
    for (f, (a, b)) in fixtures.iter().zip(&windows) {
        let oracle = tableseg::template::lcs::lcs_indices(a, b);
        let fast = lcs_indices_histogram(a, b);
        assert_eq!(
            fast.len(),
            oracle.len(),
            "{}: histogram LCS length diverged from Hirschberg",
            f.site
        );
        for w in fast.windows(2) {
            assert!(
                w[0].0 < w[1].0 && w[0].1 < w[1].1,
                "{}: trace order",
                f.site
            );
        }
        for &(i, j) in &fast {
            assert_eq!(a[i], b[j], "{}: trace mismatch at ({i}, {j})", f.site);
        }
    }

    // Differential gate, induction level, at 2 pages — where the fold IS
    // a single pair LCS, so both backends must find the same
    // *pre-stability* template length (equal-length traces may pick
    // different symbol sets, so the run-stability pass can legitimately
    // drop different anchor counts afterwards) and the same usability
    // verdict. Beyond 2 pages a progressive fold is trace-dependent
    // (multi-sequence LCS is not canonical), so deeper merges are gated
    // by the permutation-invariance tests and the quality curve instead.
    for f in &fixtures {
        let (hist, hist_stats) = induce_with(&f.pages, &f.streams, f.num_symbols);
        let (oracle, oracle_stats) = induce_interned(&f.pages, &f.streams, f.num_symbols);
        assert_eq!(
            hist.template.len() + hist_stats.unstable_dropped,
            oracle.template.len() + oracle_stats.unstable_dropped,
            "{}: fold LCS length diverged from oracle",
            f.site
        );
        let hq = assess(&hist, &f.pages);
        let oq = assess(&oracle, &f.pages);
        assert_eq!(
            hq.is_usable(),
            oq.is_usable(),
            "{}: usability verdict diverged from oracle",
            f.site
        );
    }

    // Pair-LCS timing.
    let mut pair = PairLcsBench {
        hirschberg_ns: u128::MAX,
        histogram_ns: u128::MAX,
        pairs: windows.len(),
        anchors: 0,
        tokens: windows.iter().map(|(a, b)| a.len() + b.len()).sum(),
    };
    for _ in 0..iters {
        let t = Instant::now();
        for (a, b) in &windows {
            std::hint::black_box(tableseg::template::lcs::lcs_indices(a, b));
        }
        pair.hirschberg_ns = pair.hirschberg_ns.min(t.elapsed().as_nanos());

        let t = Instant::now();
        let mut anchors = 0usize;
        for (a, b) in &windows {
            anchors += std::hint::black_box(lcs_indices_histogram(a, b)).len();
        }
        pair.histogram_ns = pair.histogram_ns.min(t.elapsed().as_nanos());
        pair.anchors = anchors;
    }

    // Multi-page curve: histogram-induction cost and quality per depth.
    let mut curve = Vec::with_capacity(page_counts.len());
    for &n in page_counts {
        let fixtures = corpus(n);
        let mut induce_ns = u128::MAX;
        for _ in 0..iters {
            let t = Instant::now();
            for f in &fixtures {
                std::hint::black_box(induce_with(&f.pages, &f.streams, f.num_symbols));
            }
            induce_ns = induce_ns.min(t.elapsed().as_nanos());
        }
        let mut fraction_sum = 0.0;
        let mut len_sum = 0usize;
        let mut usable = 0usize;
        for f in &fixtures {
            let (ind, _) = induce_with(&f.pages, &f.streams, f.num_symbols);
            let q = assess(&ind, &f.pages);
            fraction_sum += q.largest_slot_fraction;
            len_sum += q.template_len;
            usable += usize::from(q.is_usable());
        }
        curve.push(MergePoint {
            pages: n,
            induce_ns,
            mean_largest_slot_fraction: fraction_sum / fixtures.len() as f64,
            mean_template_len: len_sum as f64 / fixtures.len() as f64,
            usable_sites: usable,
        });
    }

    InduceBench {
        sites: fixtures.len(),
        pair,
        curve,
        iters,
    }
}

/// Renders the benchmark as the `BENCH_induce.json` document.
pub fn render_json(bench: &InduceBench) -> String {
    let mut curve = String::from("[\n");
    for (i, p) in bench.curve.iter().enumerate() {
        curve.push_str(&format!(
            "    {{ \"pages\": {}, \"induce_ns\": {}, \"mean_largest_slot_fraction\": {:.4}, \
             \"mean_template_len\": {:.1}, \"usable_sites\": {} }}{}\n",
            p.pages,
            p.induce_ns,
            p.mean_largest_slot_fraction,
            p.mean_template_len,
            p.usable_sites,
            if i + 1 < bench.curve.len() { "," } else { "" }
        ));
    }
    curve.push_str("  ]");

    let mut j = BenchJson::new("induce");
    j.raw(
        "corpus",
        format!(
            "{{ \"sites\": {}, \"pairs\": {}, \"pair_tokens\": {} }}",
            bench.sites, bench.pair.pairs, bench.pair.tokens
        ),
    )
    .field("iters", bench.iters)
    .raw(
        "pair_lcs",
        format!(
            "{{ \"hirschberg_ns\": {}, \"histogram_ns\": {}, \"speedup\": {:.2}, \
             \"anchors\": {} }}",
            bench.pair.hirschberg_ns,
            bench.pair.histogram_ns,
            bench.pair.speedup(),
            bench.pair.anchors
        ),
    )
    .raw("multi_page", curve)
    .field("quality_non_degrading", bench.quality_non_degrading())
    .raw("differential", "{ \"histogram_equals_hirschberg\": true }");
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_sitegen::paper_sites;

    #[test]
    fn corpus_scales_page_counts() {
        let two = corpus(2);
        assert_eq!(two.len(), paper_sites::all().len());
        assert!(two.iter().all(|f| f.pages.len() == 2));
        let four = corpus(4);
        assert!(four.iter().all(|f| f.pages.len() == 4));
    }

    #[test]
    fn pair_windows_are_unique_per_side() {
        for f in corpus(2) {
            let (a, b) = pair_windows(&f);
            for w in [&a, &b] {
                let mut sorted = w.clone();
                sorted.sort_unstable();
                let len = sorted.len();
                sorted.dedup();
                assert_eq!(sorted.len(), len, "{}: candidate stream repeats", f.site);
            }
        }
    }

    #[test]
    fn json_shape() {
        let bench = InduceBench {
            sites: 12,
            pair: PairLcsBench {
                hirschberg_ns: 8000,
                histogram_ns: 2000,
                pairs: 12,
                anchors: 340,
                tokens: 900,
            },
            curve: vec![
                MergePoint {
                    pages: 2,
                    induce_ns: 5000,
                    mean_largest_slot_fraction: 0.81,
                    mean_template_len: 55.0,
                    usable_sites: 9,
                },
                MergePoint {
                    pages: 10,
                    induce_ns: 21000,
                    mean_largest_slot_fraction: 0.84,
                    mean_template_len: 54.0,
                    usable_sites: 10,
                },
            ],
            iters: 2,
        };
        assert!((bench.pair.speedup() - 4.0).abs() < 1e-9);
        assert!(bench.quality_non_degrading());
        let json = render_json(&bench);
        assert!(json.contains("\"schema\": \"tableseg.bench/v2\""));
        assert!(json.contains("\"speedup\": 4.00"));
        assert!(json.contains("\"pages\": 10"));
        assert!(json.contains("\"quality_non_degrading\": true"));
        assert!(json.contains("\"histogram_equals_hirschberg\": true"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn quality_gate_detects_degradation() {
        let point = |fraction, usable| MergePoint {
            pages: 2,
            induce_ns: 0,
            mean_largest_slot_fraction: fraction,
            mean_template_len: 0.0,
            usable_sites: usable,
        };
        let bench = InduceBench {
            sites: 12,
            pair: PairLcsBench {
                hirschberg_ns: 1,
                histogram_ns: 1,
                pairs: 0,
                anchors: 0,
                tokens: 0,
            },
            curve: vec![point(0.9, 10), point(0.7, 10)],
            iters: 1,
        };
        assert!(!bench.quality_non_degrading());
    }
}
