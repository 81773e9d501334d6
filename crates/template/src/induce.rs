//! The template-finding algorithm.
//!
//! The template is computed as the progressive LCS of the pages' token
//! streams: `T₁ = page₁`, `Tᵢ = LCS(Tᵢ₋₁, pageᵢ)`. Every token of the final
//! template appears on every page in template order, which is precisely the
//! paper's definition of the page template ("data that is shared by all
//! list pages and is invariant from page to page"). Everything between
//! consecutive template anchors is a slot.
//!
//! The fold runs on the histogram-LCS core ([`crate::histogram`]) and
//! visits pages in a *canonical* order (shortest candidate stream first,
//! content tie-break), so the induced template is invariant under
//! permutations of the sample pages — the property that makes multi-page
//! rolling merges (10–100 pages per site) well-defined.

use serde::{Deserialize, Serialize};
use tableseg_html::{Interner, Symbol, Token};

use crate::histogram::{lcs_indices_histogram_stats, LcsStats};
use crate::slot::{Slot, SlotSet};

/// What one induction did: fold counts, anchor attrition and LCS window
/// statistics. Flows into the observability counters
/// (`template.merge_folds`, `template.anchors_dropped`,
/// `template.lcs_fallbacks`) via the pipeline layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InduceStats {
    /// Number of sample pages the template was induced from.
    pub pages: usize,
    /// LCS folds performed (pages beyond the base page, when ≥ 2 pages).
    pub folds: usize,
    /// Candidate anchors dropped across all folds (tokens of the running
    /// template that some later page did not confirm).
    pub anchors_dropped: usize,
    /// Anchors removed by the run-stability pass (the linked-run rule
    /// that guards against coincidental anchors inside slots).
    pub unstable_dropped: usize,
    /// Histogram-LCS window statistics, merged over the folds.
    pub lcs: LcsStats,
}

/// The induced page template: a sequence of tokens common to all pages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    /// Representative template tokens (taken from the first page).
    pub tokens: Vec<Token>,
}

impl Template {
    /// Template length in tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Returns `true` if the template is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// The result of template induction over a set of pages.
#[derive(Debug, Clone)]
pub struct Induction {
    /// The induced template.
    pub template: Template,
    /// For each page, the position of each template token in that page.
    /// `anchors[p][k]` is the index in page `p` of template token `k`.
    pub anchors: Vec<Vec<usize>>,
}

impl Induction {
    /// Derives the slot set: slot `k` is the per-page gap before template
    /// token `k`; the final slot is the gap after the last template token.
    pub fn slots(&self, pages: &[Vec<Token>]) -> SlotSet {
        let t = self.template.len();
        let mut slots = Vec::with_capacity(t + 1);
        for k in 0..=t {
            let ranges = self
                .anchors
                .iter()
                .zip(pages)
                .map(|(anchor, page)| {
                    let start = if k == 0 { 0 } else { anchor[k - 1] + 1 };
                    let end = if k == t { page.len() } else { anchor[k] };
                    start..end
                })
                .collect();
            slots.push(Slot { index: k, ranges });
        }
        SlotSet { slots }
    }

    /// Per-slot width stability across the sample pages: for each of the
    /// `template_len + 1` slots, the minimum and maximum token width over
    /// all pages. Template chrome produces narrow, near-constant slots;
    /// the table slot is the wide, variable one. Multi-page merge tests
    /// use this to show that folding more pages tightens the template
    /// (chrome slots stay narrow) instead of degrading it.
    ///
    /// `page_lens[p]` must be the token length of page `p` (the slots
    /// beyond the last anchor need it).
    pub fn slot_stability(&self, page_lens: &[usize]) -> Vec<(usize, usize)> {
        let t = self.template.len();
        (0..=t)
            .map(|k| {
                let mut min = usize::MAX;
                let mut max = 0usize;
                for (anchor, &len) in self.anchors.iter().zip(page_lens) {
                    let start = if k == 0 { 0 } else { anchor[k - 1] + 1 };
                    let end = if k == t { len } else { anchor[k] };
                    let width = end.saturating_sub(start);
                    min = min.min(width);
                    max = max.max(width);
                }
                if min == usize::MAX {
                    (0, 0)
                } else {
                    (min, max)
                }
            })
            .collect()
    }
}

/// Induces the page template from example pages.
///
/// Template tokens must be *invariant from page to page*: they must appear
/// on every page, in the same relative order, **exactly once per page**.
/// The once-per-page requirement is what keeps repeating table structure
/// out of the template — "If any of the tables on the pages contain more
/// than two rows, the tags specifying the structure of the table will not
/// be part of the page template, because they will appear more than once on
/// that page" (Section 3.1). Candidates are therefore tokens unique within
/// every page; the template is their progressive LCS across pages.
///
/// With fewer than two pages no template can be derived; the result has an
/// empty template and a single slot covering each whole page, which makes
/// the downstream pipeline equivalent to the paper's whole-page fallback.
///
/// Convenience wrapper over [`induce_with`] with an internal interner.
/// Pipeline callers that already interned the site's pages call
/// [`induce_with`] directly.
pub fn induce(pages: &[Vec<Token>]) -> Induction {
    let mut interner = Interner::new();
    let streams: Vec<Vec<Symbol>> = pages.iter().map(|p| interner.intern_tokens(p)).collect();
    induce_with(pages, &streams, interner.len()).0
}

/// [`induce`](fn@induce) over pre-interned symbol streams, reporting what
/// the induction did.
///
/// `streams[p]` must be the symbol stream of `pages[p]` (same length, same
/// order) and `num_symbols` an upper bound on the symbol ids appearing in
/// the streams (typically `Interner::len`). The interner itself is not
/// needed: induction compares symbols and takes representative tokens from
/// the first page.
pub fn induce_with(
    pages: &[Vec<Token>],
    streams: &[Vec<Symbol>],
    num_symbols: usize,
) -> (Induction, InduceStats) {
    debug_assert_eq!(pages.len(), streams.len());
    let mut stats = InduceStats {
        pages: pages.len(),
        ..InduceStats::default()
    };
    if pages.len() < 2 {
        return (
            Induction {
                template: Template { tokens: Vec::new() },
                anchors: vec![Vec::new(); pages.len()],
            },
            stats,
        );
    }

    let filtered = candidate_streams(streams, num_symbols);
    let template = fold_histogram(pages, &filtered, &mut stats);
    let induction = finish(pages, &filtered, template, &mut stats);
    (induction, stats)
}

/// Computes the per-page candidate streams: tokens occurring **exactly
/// once on every page**, with their original positions. These are the
/// streams the fold aligns pairwise; exposed so benches can time the LCS
/// cores on exactly the inputs induction gives them.
pub fn candidate_streams(streams: &[Vec<Symbol>], num_symbols: usize) -> Vec<Vec<(Symbol, usize)>> {
    let mut counts = vec![0u32; num_symbols];
    let mut candidate = vec![true; num_symbols];
    for stream in streams {
        counts.iter_mut().for_each(|c| *c = 0);
        for &s in stream {
            // Symbols outside the declared range (e.g. UNKNOWN_SYMBOL from
            // a read-only projection) can never be template candidates;
            // ignore them instead of indexing out of bounds.
            if let Some(c) = counts.get_mut(s as usize) {
                *c += 1;
            }
        }
        for (sym, &n) in counts.iter().enumerate() {
            if n != 1 {
                candidate[sym] = false;
            }
        }
    }
    streams
        .iter()
        .map(|stream| {
            stream
                .iter()
                .enumerate()
                .filter(|&(_, &s)| candidate[s as usize])
                .map(|(i, &s)| (s, i))
                .collect()
        })
        .collect()
}

/// The fold: rolling histogram-LCS merge in canonical page order — shortest candidate stream first (the template is a subsequence
/// of every stream, so starting small bounds all later folds), token
/// texts as the deterministic tie-break. The canonical order makes the
/// induced template invariant under permutations of the sample pages,
/// which is what lets a site's template be maintained incrementally as
/// more pages are crawled.
fn fold_histogram(
    pages: &[Vec<Token>],
    filtered: &[Vec<(Symbol, usize)>],
    stats: &mut InduceStats,
) -> Vec<Symbol> {
    let mut order: Vec<usize> = (0..filtered.len()).collect();
    order.sort_by(|&p, &q| {
        filtered[p].len().cmp(&filtered[q].len()).then_with(|| {
            let texts = |page: usize| {
                filtered[page]
                    .iter()
                    .map(move |&(_, i)| pages[page][i].text.as_str())
            };
            texts(p).cmp(texts(q))
        })
    });
    let base = order[0];
    let mut template: Vec<Symbol> = filtered[base].iter().map(|&(s, _)| s).collect();
    for &p in &order[1..] {
        if template.is_empty() {
            break;
        }
        let s_syms: Vec<Symbol> = filtered[p].iter().map(|&(s, _)| s).collect();
        let (pairs, lcs_stats) = lcs_indices_histogram_stats(&template, &s_syms);
        stats.folds += 1;
        stats.anchors_dropped += template.len() - pairs.len();
        stats.lcs.merge(&lcs_stats);
        template = pairs.iter().map(|&(ti, _)| template[ti]).collect();
    }
    template
}

/// Embeds the folded template into every page, takes representative
/// tokens from the first page, and applies the anchor-stability pass.
fn finish(
    pages: &[Vec<Token>],
    filtered: &[Vec<(Symbol, usize)>],
    template: Vec<Symbol>,
    stats: &mut InduceStats,
) -> Induction {
    // Embed the template into every page. Every template symbol occurs
    // exactly once per page, so the embedding is unique: look the position
    // up in the filtered stream. If an embedding is ever missing (the
    // candidate invariant was broken by degenerate input), the offending
    // symbol is dropped from the template rather than panicking — a
    // smaller template degrades the slot decision, not the process.
    let embeddings: Vec<Vec<Option<usize>>> = filtered
        .iter()
        .map(|stream| {
            template
                .iter()
                .map(|&sym| stream.iter().find(|&&(s, _)| s == sym).map(|&(_, pos)| pos))
                .collect()
        })
        .collect();
    let kept: Vec<usize> = (0..template.len())
        .filter(|&col| embeddings.iter().all(|e| e[col].is_some()))
        .collect();
    let anchors: Vec<Vec<usize>> = embeddings
        .iter()
        .map(|e| kept.iter().map(|&col| e[col].unwrap_or_default()).collect())
        .collect();

    let template_tokens: Vec<Token> = kept
        .iter()
        .map(|&col| {
            let first_idx = embeddings[0][col].unwrap_or_default();
            pages[0][first_idx].clone()
        })
        .collect();

    // Anchor positions are increasing on every page because the template is
    // an LCS of every filtered stream and each symbol is unique per page.
    debug_assert!(anchors.iter().all(|a| a.windows(2).all(|w| w[0] < w[1])));

    let mut induction = Induction {
        template: Template {
            tokens: template_tokens,
        },
        anchors,
    };
    stats.unstable_dropped = drop_unstable_anchors(
        &mut induction,
        &pages.iter().map(Vec::len).collect::<Vec<_>>(),
    );
    induction
}

/// Re-runs the anchor-stability pass on an existing induction, returning
/// how many anchors were dropped.
///
/// This is the incremental-maintenance entry point: when a serving layer
/// re-anchors a cached template onto changed pages (instead of re-running
/// the full fold), the changed pages may stretch previously linked anchor
/// runs apart. Applying the same linked-run rule used by
/// [`induce_with`]'s finish step restores the stability invariant without
/// a re-induction; on an induction whose anchors are already stable it is
/// a no-op (the pass iterates to a fixpoint and the fixpoint is reached).
///
/// `page_lens[p]` must be the token length of page `p`, as for
/// [`Induction::slot_stability`].
pub fn restabilize(induction: &mut Induction, page_lens: &[usize]) -> usize {
    drop_unstable_anchors(induction, page_lens)
}

/// Two consecutive anchors are *linked* when they are at most this many
/// tokens apart **on every page**. Template regions (headers, footers,
/// label rows) form long linked runs; data tokens that happen to appear
/// once per page do not.
const LINK_GAP: usize = 4;

/// Minimum linked-run length for anchors to be trusted as template.
const MIN_RUN: usize = 3;

/// Removes anchors outside dense runs, returning how many were dropped.
/// A real page template is written out contiguously by the server, so its
/// tokens cluster; an anchor in a run shorter than [`MIN_RUN`] is almost
/// always record data that happens to appear exactly once per page (or a
/// chance pair, like a shared `City, ST`), and left in place it chops the
/// table slot apart.
///
/// The one deliberate exception is **enumeration chains**: ascending runs
/// `1, 2, 3, ...` from numbered entries. The paper's template finder keeps
/// those and consequently fails on numbered sites (Section 6.3: "the
/// entries were numbered. Thus, sequences such as `1.` will be found on
/// every page"); this reproduction preserves that failure mode. (The paper
/// suggests an enumeration heuristic as *future work*, i.e. the 2004
/// algorithm did not have one.)
fn drop_unstable_anchors(induction: &mut Induction, _page_lens: &[usize]) -> usize {
    let enumeration = enumeration_members(&induction.template.tokens);
    let mut dropped = 0;
    loop {
        let t = induction.template.len();
        if t == 0 {
            return dropped;
        }
        // linked[k]: anchors k and k+1 are close on every page.
        let linked: Vec<bool> = (0..t.saturating_sub(1))
            .map(|k| {
                induction
                    .anchors
                    .iter()
                    .all(|anchor| anchor[k + 1] - anchor[k] <= LINK_GAP)
            })
            .collect();
        let mut drop = vec![false; t];
        let mut run_start = 0;
        // `linked` has t-1 entries; the appended `false` ends the last run.
        for (k, &lk) in linked.iter().chain(std::iter::once(&false)).enumerate() {
            let run_ends = !lk;
            if run_ends {
                let run_len = k + 1 - run_start;
                if run_len < MIN_RUN {
                    for d in drop.iter_mut().take(k + 1).skip(run_start) {
                        *d = true;
                    }
                }
                run_start = k + 1;
            }
        }
        // Enumeration members are exempt.
        for (k, d) in drop.iter_mut().enumerate() {
            if *d
                && enumeration
                    .binary_search(&induction.template.tokens[k].text)
                    .is_ok()
            {
                *d = false;
            }
        }
        if !drop.iter().any(|&d| d) {
            return dropped;
        }
        let keep: Vec<usize> = (0..t).filter(|&k| !drop[k]).collect();
        dropped += t - keep.len();
        induction.template.tokens = keep
            .iter()
            .map(|&k| induction.template.tokens[k].clone())
            .collect();
        for anchor in &mut induction.anchors {
            *anchor = keep.iter().map(|&k| anchor[k]).collect();
        }
    }
}

/// Texts of template tokens that belong to an ascending `+1` integer chain
/// of length ≥ 3 starting at 1 or 2 (entry numbering), sorted for lookup.
fn enumeration_members(tokens: &[Token]) -> Vec<String> {
    let values: Vec<Option<u64>> = tokens.iter().map(|t| t.text.parse::<u64>().ok()).collect();
    let mut members = Vec::new();
    let mut chain: Vec<usize> = Vec::new();
    let flush = |chain: &mut Vec<usize>, members: &mut Vec<String>, values: &[Option<u64>]| {
        if chain.len() >= 3 {
            let first = values[chain[0]].expect("chain holds numerics");
            if first <= 2 {
                for &k in chain.iter() {
                    members.push(tokens[k].text.clone());
                }
            }
        }
        chain.clear();
    };
    for (k, v) in values.iter().enumerate() {
        let Some(n) = v else {
            // Non-numeric template tokens (tags between numbered entries
            // were already excluded by the uniqueness rule, but words may
            // intervene) do not break a chain.
            continue;
        };
        let extends = chain
            .last()
            .and_then(|&prev| values[prev])
            .is_some_and(|p| p + 1 == *n);
        if extends {
            chain.push(k);
        } else if *n <= 2 {
            // A plausible chain start: close out the previous chain.
            flush(&mut chain, &mut members, &values);
            chain.push(k);
        }
        // Any other numeric (a year, a price fragment that happens to
        // align once per page) is an interloper inside the enumeration
        // region; like words, it does not break the chain.
    }
    flush(&mut chain, &mut members, &values);
    members.sort_unstable();
    members.dedup();
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_html::lexer::tokenize;

    fn page(body: &str) -> Vec<Token> {
        tokenize(&format!(
            "<html><body><h1>Results</h1><table>{body}</table><p>Copyright 2004</p></body></html>"
        ))
    }

    #[test]
    fn template_is_shared_structure() {
        let pages = vec![
            page("<tr><td>John Smith</td></tr><tr><td>Jane Doe</td></tr>"),
            page("<tr><td>Bob Jones</td></tr>"),
        ];
        let ind = induce(&pages);
        let tpl: Vec<&str> = ind
            .template
            .tokens
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        // Header and footer must be in the template.
        assert!(tpl.contains(&"Results"));
        assert!(tpl.contains(&"Copyright"));
        // Data must not be.
        assert!(!tpl.contains(&"John"));
        assert!(!tpl.contains(&"Bob"));
    }

    #[test]
    fn anchors_are_valid_embeddings() {
        let pages = vec![
            page("<tr><td>A B</td></tr>"),
            page("<tr><td>C D E</td></tr>"),
        ];
        let ind = induce(&pages);
        for (p, anchor) in ind.anchors.iter().enumerate() {
            assert_eq!(anchor.len(), ind.template.len());
            for (k, &pos) in anchor.iter().enumerate() {
                assert_eq!(
                    pages[p][pos].text, ind.template.tokens[k].text,
                    "anchor {k} of page {p}"
                );
            }
            // Strictly increasing.
            for w in anchor.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn table_found_in_largest_text_slot() {
        let pages = vec![
            page("<tr><td>John Smith</td><td>New Holland</td></tr><tr><td>Mary Major</td><td>Springfield</td></tr>"),
            page("<tr><td>Bob Jones</td><td>Columbus</td></tr><tr><td>Ann Fuller</td><td>Dayton</td></tr><tr><td>Tom Tailor</td><td>Akron</td></tr>"),
        ];
        let ind = induce(&pages);
        let slots = ind.slots(&pages);
        let table = slots.table_slot(&pages).expect("a table slot");
        let slot = &slots.slots[table];
        // The table slot must contain the record data on both pages.
        for (p, r) in slot.ranges.iter().enumerate() {
            let texts: Vec<&str> = pages[p][r.clone()]
                .iter()
                .filter(|t| t.is_text())
                .map(|t| t.text.as_str())
                .collect();
            assert!(texts.len() >= 4, "page {p} table slot has data: {texts:?}");
        }
        let texts0: String = pages[0][slot.ranges[0].clone()]
            .iter()
            .map(|t| t.text.clone())
            .collect::<Vec<_>>()
            .join(" ");
        assert!(texts0.contains("John"));
        assert!(texts0.contains("Mary"));
        assert!(!texts0.contains("Results"));
    }

    #[test]
    fn fewer_than_two_pages_falls_back_to_whole_page() {
        let pages = vec![page("<tr><td>A</td></tr>")];
        let ind = induce(&pages);
        assert!(ind.template.is_empty());
        let slots = ind.slots(&pages);
        assert_eq!(slots.slots.len(), 1);
        assert_eq!(slots.slots[0].ranges[0], 0..pages[0].len());
    }

    #[test]
    fn identical_pages_yield_full_template() {
        let p = page("<tr><td>Same</td></tr>");
        let pages = vec![p.clone(), p.clone()];
        let ind = induce(&pages);
        assert_eq!(ind.template.len(), p.len());
        let slots = ind.slots(&pages);
        assert!(slots.slots.iter().all(Slot::is_empty));
        assert_eq!(slots.table_slot(&pages), None);
    }

    #[test]
    fn disjoint_pages_yield_empty_template() {
        let pages = vec![tokenize("alpha beta"), tokenize("gamma delta")];
        let ind = induce(&pages);
        assert!(ind.template.is_empty());
        let slots = ind.slots(&pages);
        assert_eq!(slots.slots.len(), 1);
        // The single slot covers both whole pages.
        assert_eq!(slots.slots[0].ranges[0], 0..2);
        assert_eq!(slots.slots[0].ranges[1], 0..2);
    }

    #[test]
    fn three_pages_progressive() {
        let pages = vec![
            page("<tr><td>A1 A2</td></tr>"),
            page("<tr><td>B1</td></tr>"),
            page("<tr><td>C1 C2 C3</td></tr>"),
        ];
        let ind = induce(&pages);
        let tpl: Vec<&str> = ind
            .template
            .tokens
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(tpl.contains(&"Results"));
        assert!(!tpl.contains(&"A1"));
        assert!(!tpl.contains(&"B1"));
        assert!(!tpl.contains(&"C1"));
        assert_eq!(ind.anchors.len(), 3);
    }

    #[test]
    fn slot_count_is_template_len_plus_one() {
        let pages = vec![page("<tr><td>X</td></tr>"), page("<tr><td>Y</td></tr>")];
        let ind = induce(&pages);
        let slots = ind.slots(&pages);
        assert_eq!(slots.slots.len(), ind.template.len() + 1);
    }

    #[test]
    fn induce_with_reports_stats() {
        let pages = vec![
            page("<tr><td>Alpha Beta</td></tr>"),
            page("<tr><td>Gamma Delta</td></tr>"),
            page("<tr><td>Epsilon Zeta</td></tr>"),
        ];
        let mut interner = Interner::new();
        let streams: Vec<Vec<Symbol>> = pages.iter().map(|p| interner.intern_tokens(p)).collect();
        let (ind, stats) = induce_with(&pages, &streams, interner.len());
        assert_eq!(stats.pages, 3);
        assert_eq!(stats.folds, 2, "{stats:?}");
        assert!(!ind.template.is_empty());
        // The candidate streams are unique per page by construction, so
        // the histogram core must never hit its quadratic fallback.
        assert_eq!(stats.lcs.fallback_windows, 0, "{stats:?}");
        assert_eq!(stats.lcs.split_windows, 0, "{stats:?}");
    }

    #[test]
    fn histogram_fold_is_page_order_invariant() {
        let pages = vec![
            page("<tr><td>Alpha One</td></tr><tr><td>Beta Two</td></tr>"),
            page("<tr><td>Gamma Three</td></tr>"),
            page("<tr><td>Delta Four</td></tr><tr><td>Epsilon Five</td></tr><tr><td>Zeta Six</td></tr>"),
        ];
        let texts = |i: &Induction| {
            i.template
                .tokens
                .iter()
                .map(|t| t.text.clone())
                .collect::<Vec<_>>()
        };
        let mut interner = Interner::new();
        let streams: Vec<Vec<Symbol>> = pages.iter().map(|p| interner.intern_tokens(p)).collect();
        let baseline = texts(&induce_with(&pages, &streams, interner.len()).0);
        for perm in [[1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1], [1, 2, 0]] {
            let p: Vec<Vec<Token>> = perm.iter().map(|&i| pages[i].clone()).collect();
            let mut interner = Interner::new();
            let s: Vec<Vec<Symbol>> = p.iter().map(|pg| interner.intern_tokens(pg)).collect();
            let ind = induce_with(&p, &s, interner.len()).0;
            assert_eq!(texts(&ind), baseline, "permutation {perm:?}");
        }
    }

    #[test]
    fn restabilize_is_a_noop_on_fresh_inductions() {
        // induce() already ran the stability pass to a fixpoint, so the
        // public re-entry must drop nothing and change nothing.
        let pages = vec![
            page("<tr><td>John Smith</td><td>New Holland</td></tr>"),
            page("<tr><td>Bob Jones</td><td>Columbus</td></tr><tr><td>Ann Fuller</td><td>Dayton</td></tr>"),
        ];
        let mut ind = induce(&pages);
        let before_tokens = ind.template.tokens.clone();
        let before_anchors = ind.anchors.clone();
        let lens: Vec<usize> = pages.iter().map(Vec::len).collect();
        assert_eq!(restabilize(&mut ind, &lens), 0);
        assert_eq!(ind.template.tokens, before_tokens);
        assert_eq!(ind.anchors, before_anchors);
    }

    #[test]
    fn restabilize_drops_stretched_singletons() {
        // A hand-built induction with one isolated anchor far from the
        // rest on one page: the linked-run rule must remove it.
        let pages = vec![
            page("<tr><td>Alpha Beta Gamma</td></tr>"),
            page("<tr><td>Delta Epsilon</td></tr>"),
        ];
        let mut ind = induce(&pages);
        let t = ind.template.len();
        assert!(t >= MIN_RUN, "fixture template too small: {t}");
        // Stretch the final anchor of page 0 to the page end, breaking
        // its link to the previous anchor.
        let last = ind.anchors[0][t - 1];
        let stretched = (pages[0].len() - 1).max(last + LINK_GAP + 1);
        ind.anchors[0][t - 1] = stretched.min(pages[0].len() - 1);
        if ind.anchors[0][t - 1] - ind.anchors[0][t - 2] <= LINK_GAP {
            return; // page too short to stretch; nothing to assert
        }
        let lens: Vec<usize> = pages.iter().map(Vec::len).collect();
        let dropped = restabilize(&mut ind, &lens);
        assert!(dropped >= 1, "stretched anchor must be dropped");
        assert_eq!(ind.template.len(), t - dropped);
    }

    #[test]
    fn slot_stability_widths() {
        let pages = vec![
            page("<tr><td>John Smith</td><td>New Holland</td></tr><tr><td>Mary Major</td><td>Springfield</td></tr>"),
            page("<tr><td>Bob Jones</td><td>Columbus</td></tr>"),
        ];
        let ind = induce(&pages);
        let lens: Vec<usize> = pages.iter().map(Vec::len).collect();
        let stability = ind.slot_stability(&lens);
        assert_eq!(stability.len(), ind.template.len() + 1);
        for &(min, max) in &stability {
            assert!(min <= max);
        }
        // The table slot (widest max) must vary: page 0 has two records,
        // page 1 has one.
        let widest = stability.iter().max_by_key(|&&(_, max)| max).unwrap();
        assert!(widest.1 > widest.0, "{stability:?}");
    }
}
