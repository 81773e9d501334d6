//! The induction chaos fuzz gate: both LCS cores and both induction
//! backends (production histogram merge, Hirschberg oracle) must survive
//! arbitrary chaos-mutated byte soup without panicking, agreeing on LCS
//! length with valid traces throughout. Seeds mix in `PROPTEST_SEED` when
//! set, so the CI seed matrix drives distinct corpora through the same
//! invariants.

use tableseg_html::lexer::tokenize_bytes;
use tableseg_html::{Interner, Symbol, Token};
use tableseg_oracle::induce::induce_interned;
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;
use tableseg_template::lcs::lcs_indices;
use tableseg_template::{candidate_streams, induce_with, lcs_indices_histogram, Induction};

/// The base fuzz seed: `PROPTEST_SEED` when set (decimal or `0x` hex),
/// a fixed default otherwise.
fn base_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(raw) => match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).expect("PROPTEST_SEED hex"),
            None => raw.parse().expect("PROPTEST_SEED u64"),
        },
        Err(_) => 0x7AB1E5E6,
    }
}

fn intern_pages(pages: &[Vec<Token>]) -> (Vec<Vec<Symbol>>, usize) {
    let mut interner = Interner::new();
    let streams = pages.iter().map(|p| interner.intern_tokens(p)).collect();
    (streams, interner.len())
}

/// Every anchor must point at a token whose text matches its template
/// token, with strictly increasing positions per page.
fn assert_valid_embedding(ind: &Induction, pages: &[Vec<Token>], ctx: &str) {
    assert_eq!(
        ind.anchors.len(),
        pages.len(),
        "{ctx}: one anchor row per page"
    );
    for (p, anchor) in ind.anchors.iter().enumerate() {
        assert_eq!(
            anchor.len(),
            ind.template.len(),
            "{ctx}: page {p} anchor width"
        );
        for w in anchor.windows(2) {
            assert!(w[0] < w[1], "{ctx}: page {p} anchors not increasing");
        }
        for (k, &pos) in anchor.iter().enumerate() {
            assert_eq!(
                pages[p][pos].text, ind.template.tokens[k].text,
                "{ctx}: page {p} anchor {k} text mismatch"
            );
        }
    }
}

/// Seeded fuzz: chaos-mutated pages through `tokenize_bytes`, then both
/// LCS cores and both induction backends. Nothing may panic; traces must
/// stay valid common subsequences; the cores must agree on LCS length on
/// every window shape the mutations produce.
#[test]
fn chaos_mutated_pages_drive_both_lcs_paths_safely() {
    let base = base_seed();
    let specs = [
        paper_sites::butler(),
        paper_sites::amazon(),
        paper_sites::ohio(),
    ];
    for round in 0..4u64 {
        for (si, spec) in specs.iter().enumerate() {
            let seed = base
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round * 31 + si as u64);
            let (site, _log) = apply_chaos(&generate(spec), &ChaosConfig::uniform(0.4, seed));
            let pages: Vec<Vec<Token>> = site
                .pages
                .iter()
                .map(|p| tokenize_bytes(p.list_html.as_bytes()))
                .collect();
            let (streams, num_symbols) = intern_pages(&pages);
            let ctx = format!("{} seed {seed:#x}", spec.name);

            // Full raw streams (truncated for the quadratic oracle):
            // repeat-heavy windows that drive the histogram core's filter,
            // fallback and split paths.
            let a: Vec<Symbol> = streams[0].iter().copied().take(500).collect();
            let b: Vec<Symbol> = streams[1].iter().copied().take(500).collect();
            check_cores_agree(&a, &b, &format!("{ctx} raw"));

            // Candidate streams: the unique-per-page fast path.
            let filtered = candidate_streams(&streams, num_symbols);
            let fa: Vec<Symbol> = filtered[0].iter().map(|&(s, _)| s).collect();
            let fb: Vec<Symbol> = filtered[1].iter().map(|&(s, _)| s).collect();
            check_cores_agree(&fa, &fb, &format!("{ctx} filtered"));

            // Both induction backends over the damaged site: valid
            // embeddings, no panics.
            let hist = induce_with(&pages, &streams, num_symbols).0;
            assert_valid_embedding(&hist, &pages, &format!("{ctx} histogram"));
            let oracle = induce_interned(&pages, &streams, num_symbols).0;
            assert_valid_embedding(&oracle, &pages, &format!("{ctx} hirschberg"));
        }
    }
}

/// Both cores on one window pair: equal LCS length, valid traces.
fn check_cores_agree(a: &[Symbol], b: &[Symbol], ctx: &str) {
    let oracle = lcs_indices(a, b);
    let fast = lcs_indices_histogram(a, b);
    assert_eq!(fast.len(), oracle.len(), "{ctx}: LCS length diverged");
    for pairs in [&oracle, &fast] {
        for w in pairs.windows(2) {
            assert!(
                w[0].0 < w[1].0 && w[0].1 < w[1].1,
                "{ctx}: trace not increasing"
            );
        }
        for &(i, j) in pairs.iter() {
            assert_eq!(a[i], b[j], "{ctx}: trace pair mismatch at ({i}, {j})");
        }
    }
}
