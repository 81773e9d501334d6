//! Multi-page induction invariants.
//!
//! The histogram rolling merge folds pages in a canonical order, so the
//! induced template must be invariant under permutations of the sample
//! pages; and adding pages must not degrade template quality (the
//! candidate filter only tightens). The chaos fuzz gate, which drives the
//! production induction against the Hirschberg oracle, lives in the
//! `tableseg-oracle` crate.

use tableseg::html::lexer::tokenize_bytes;
use tableseg::html::Token;
use tableseg::template::{assess, induce_with, Induction, Interner, Symbol};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn intern_pages(pages: &[Vec<Token>]) -> (Vec<Vec<Symbol>>, usize) {
    let mut interner = Interner::new();
    let streams = pages.iter().map(|p| interner.intern_tokens(p)).collect();
    (streams, interner.len())
}

fn template_texts(ind: &Induction) -> Vec<String> {
    ind.template.tokens.iter().map(|t| t.text.clone()).collect()
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

/// The canonical fold order makes the induced template independent of the
/// order the sample pages arrive in — the property that lets a crawler
/// feed pages into a site's template in any order.
#[test]
fn merge_order_permutations_yield_the_same_template() {
    let perms: [[usize; 4]; 6] = [
        [0, 1, 2, 3],
        [3, 2, 1, 0],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [1, 2, 3, 0],
        [3, 0, 2, 1],
    ];
    for spec in [
        paper_sites::butler(),
        paper_sites::lee(),
        paper_sites::ohio(),
    ] {
        let site = generate(&spec.with_page_count(4));
        let pages: Vec<Vec<Token>> = site
            .pages
            .iter()
            .map(|p| tokenize_bytes(p.list_html.as_bytes()))
            .collect();
        let mut baseline: Option<Vec<String>> = None;
        for perm in perms {
            let permuted: Vec<Vec<Token>> = perm.iter().map(|&i| pages[i].clone()).collect();
            let (streams, num_symbols) = intern_pages(&permuted);
            let ind = induce_with(&permuted, &streams, num_symbols).0;
            assert_valid_embedding(&ind, &permuted, &format!("{} {perm:?}", spec.name));
            let texts = template_texts(&ind);
            match &baseline {
                None => baseline = Some(texts),
                Some(base) => assert_eq!(
                    &texts, base,
                    "{}: permutation {perm:?} changed the template",
                    spec.name
                ),
            }
        }
    }
}

/// Folding more sample pages must tighten the template, not degrade it:
/// the usability verdict never flips off, and the table slot keeps (or
/// grows) its share of the varying text, from 2 up to 10 pages.
#[test]
fn quality_is_monotone_non_degrading_from_2_to_10_pages() {
    let mut fraction_2 = 0.0;
    let mut fraction_10 = 0.0;
    let mut usable_2 = 0usize;
    let mut usable_10 = 0usize;
    for spec in paper_sites::all() {
        let mut per_site = Vec::new();
        for n in [2usize, 6, 10] {
            let site = generate(&spec.with_page_count(n));
            let pages: Vec<Vec<Token>> = site
                .pages
                .iter()
                .map(|p| tokenize_bytes(p.list_html.as_bytes()))
                .collect();
            let (streams, num_symbols) = intern_pages(&pages);
            let ind = induce_with(&pages, &streams, num_symbols).0;
            assert_valid_embedding(&ind, &pages, &format!("{} at {n} pages", spec.name));
            let q = assess(&ind, &pages);
            per_site.push((n, q));
        }
        let (_, first) = per_site[0];
        let (_, last) = *per_site.last().unwrap();
        assert!(
            !first.is_usable() || last.is_usable(),
            "{}: usable at 2 pages but not at 10: {first:?} -> {last:?}",
            spec.name
        );
        // The per-site slot fraction may wobble slightly as chrome slots
        // shift; on usable sites it must never collapse. Degenerate sites
        // (numbered entries chopping the table) are noisy per-site and
        // only held to the corpus aggregate below.
        if first.is_usable() {
            assert!(
                last.largest_slot_fraction >= first.largest_slot_fraction - 0.05,
                "{}: slot fraction collapsed {:.4} -> {:.4}",
                spec.name,
                first.largest_slot_fraction,
                last.largest_slot_fraction
            );
        }
        fraction_2 += first.largest_slot_fraction;
        fraction_10 += last.largest_slot_fraction;
        usable_2 += usize::from(first.is_usable());
        usable_10 += usize::from(last.is_usable());
    }
    // Corpus-level: strictly non-degrading.
    assert!(
        fraction_10 + 1e-9 >= fraction_2,
        "corpus slot fraction degraded: {fraction_2:.4} -> {fraction_10:.4}"
    );
    assert!(
        usable_10 >= usable_2,
        "usable sites degraded: {usable_2} -> {usable_10}"
    );
}
