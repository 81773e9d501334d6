//! Property tests for extract matching: the naive string matcher is sound
//! and complete for planted needles, and the production indexed symbol
//! matcher is a drop-in replacement for it (differential oracle).

use proptest::prelude::*;

use tableseg_extract::extracts::derive_extracts;
use tableseg_extract::matcher::PageIndex;
use tableseg_extract::observations::match_extracts;
use tableseg_extract::separator::is_separator;
use tableseg_html::lexer::tokenize;
use tableseg_html::Interner;
use tableseg_oracle::matcher::MatchStream;
use tableseg_oracle::observations::match_extracts_naive;

/// Small HTML fragments mixing words, allowed punctuation, separators and
/// tags.
fn arb_html() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[A-Za-z0-9]{1,8}".prop_map(|w| format!("{w} ")),
            Just("( ".to_owned()),
            Just(") ".to_owned()),
            Just(", ".to_owned()),
            Just("- ".to_owned()),
            Just(". ".to_owned()),
            Just("~ ".to_owned()),
            Just("| ".to_owned()),
            Just("<td>".to_owned()),
            Just("</td>".to_owned()),
            Just("<br>".to_owned()),
        ],
        0..40,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    /// A needle cut from the page's own reduced stream is always found at
    /// the position it came from.
    #[test]
    fn planted_needles_are_found(
        html in arb_html(),
        start_frac in 0.0f64..1.0,
        len in 1usize..5,
    ) {
        let stream = MatchStream::new(&tokenize(&html));
        prop_assume!(stream.len() >= len);
        let start = ((stream.len() - len) as f64 * start_frac) as usize;
        let needle: Vec<&str> = stream.texts()[start..start + len]
            .iter()
            .map(String::as_str)
            .collect();
        let hits = stream.find_all(&needle);
        prop_assert!(hits.contains(&start), "{needle:?} not at {start}: {hits:?}");
        // Soundness: every reported hit matches.
        for h in hits {
            for (k, n) in needle.iter().enumerate() {
                prop_assert_eq!(&stream.texts()[h + k], n);
            }
        }
    }

    /// `contains` agrees with `find_all`.
    #[test]
    fn contains_consistent(html in arb_html(), word in "[A-Za-z0-9]{1,8}") {
        let stream = MatchStream::new(&tokenize(&html));
        let needle = [word.as_str()];
        prop_assert_eq!(stream.contains(&needle), !stream.find_all(&needle).is_empty());
    }

    /// The indexed symbol matcher reports exactly the positions the naive
    /// string matcher reports, for arbitrary needle/page pairs — including
    /// pages containing tokens the interner has never seen.
    #[test]
    fn page_index_equals_match_stream(
        needle_html in arb_html(),
        page_html in arb_html(),
    ) {
        let needle_tokens = tokenize(&needle_html);
        let page_tokens = tokenize(&page_html);

        let mut interner = Interner::new();
        let needle_syms = interner.intern_tokens(&needle_tokens);
        let reduced: Vec<_> = needle_tokens
            .iter()
            .zip(&needle_syms)
            .filter(|(t, _)| !is_separator(t))
            .collect();
        let needle_texts: Vec<&str> =
            reduced.iter().map(|(t, _)| t.text.as_str()).collect();
        let needle: Vec<u32> = reduced.iter().map(|(_, &s)| s).collect();

        let stream = MatchStream::new(&page_tokens);
        let index = PageIndex::build(&page_tokens, &interner);
        prop_assert_eq!(index.len(), stream.len());

        let naive: Vec<u32> =
            stream.find_all(&needle_texts).into_iter().map(|p| p as u32).collect();
        prop_assert_eq!(index.find_all(&needle), naive);
        prop_assert_eq!(index.contains(&needle), stream.contains(&needle_texts));
    }

    /// Empty needles and needles longer than the page match nowhere in
    /// either implementation.
    #[test]
    fn degenerate_needles_match_nowhere(page_html in arb_html()) {
        let page_tokens = tokenize(&page_html);
        let stream = MatchStream::new(&page_tokens);

        let mut interner = Interner::new();
        // A needle strictly longer than the page's reduced stream, built
        // from the page's own tokens plus one extra word.
        let mut long_texts: Vec<String> = stream.texts().to_vec();
        long_texts.push("overflow".to_owned());
        let long_syms: Vec<u32> =
            long_texts.iter().map(|t| interner.intern(t)).collect();
        let index = PageIndex::build(&page_tokens, &interner);

        let long_refs: Vec<&str> = long_texts.iter().map(String::as_str).collect();
        prop_assert!(stream.find_all(&long_refs).is_empty());
        prop_assert!(index.find_all(&long_syms).is_empty());
        prop_assert!(stream.find_all(&[]).is_empty());
        prop_assert!(index.find_all(&[]).is_empty());
        prop_assert!(!index.contains(&[]));
    }

    /// End-to-end differential: the production `match_extracts` (interned,
    /// indexed, memoized) builds the same observation table as the naive
    /// oracle for random list/detail/other-list page sets.
    #[test]
    fn indexed_observations_equal_naive(
        list_html in arb_html(),
        detail_htmls in proptest::collection::vec(arb_html(), 0..4),
        other_htmls in proptest::collection::vec(arb_html(), 0..3),
    ) {
        let list = tokenize(&list_html);
        let details: Vec<Vec<_>> = detail_htmls.iter().map(|h| tokenize(h)).collect();
        let others: Vec<Vec<_>> = other_htmls.iter().map(|h| tokenize(h)).collect();
        let detail_refs: Vec<&[_]> = details.iter().map(Vec::as_slice).collect();
        let other_refs: Vec<&[_]> = others.iter().map(Vec::as_slice).collect();

        let fast = match_extracts(derive_extracts(&list), &other_refs, &detail_refs);
        let naive = match_extracts_naive(derive_extracts(&list), &other_refs, &detail_refs);

        prop_assert_eq!(fast.num_records, naive.num_records);
        prop_assert_eq!(fast.items, naive.items);
        let fast_skipped: Vec<_> =
            fast.skipped.iter().map(|s| (s.extract.index, s.reason)).collect();
        let naive_skipped: Vec<_> =
            naive.skipped.iter().map(|s| (s.extract.index, s.reason)).collect();
        prop_assert_eq!(fast_skipped, naive_skipped);
    }
}
