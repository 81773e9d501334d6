//! Property tests for extraction: extracts partition the non-separator
//! tokens and maximality holds. The matcher properties, which check the
//! indexed symbol matcher against the naive string matcher, live with that
//! oracle in the `tableseg-oracle` crate.

use proptest::prelude::*;

use tableseg_extract::extracts::derive_extracts;
use tableseg_extract::separator::is_separator;
use tableseg_html::lexer::tokenize;

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
    /// Extracts cover exactly the non-separator tokens, in order, and are
    /// maximal runs.
    #[test]
    fn extracts_partition_non_separator_tokens(html in arb_html()) {
        let tokens = tokenize(&html);
        let extracts = derive_extracts(&tokens);

        // Flattened extract tokens = the non-separator subsequence.
        let flattened: Vec<&str> = extracts
            .iter()
            .flat_map(|e| e.tokens.iter().map(|t| t.text.as_str()))
            .collect();
        let expected: Vec<&str> = tokens
            .iter()
            .filter(|t| !is_separator(t))
            .map(|t| t.text.as_str())
            .collect();
        prop_assert_eq!(flattened, expected);

        for e in &extracts {
            prop_assert!(!e.is_empty());
            // Separator-free.
            prop_assert!(e.tokens.iter().all(|t| !is_separator(t)));
            // Maximal: the token before `start` (if any) is a separator.
            if e.start > 0 {
                prop_assert!(is_separator(&tokens[e.start - 1]));
            }
            let end = e.start + e.len();
            if end < tokens.len() {
                prop_assert!(is_separator(&tokens[end]));
            }
            // start indexes the first token.
            prop_assert_eq!(&tokens[e.start].text, &e.tokens[0].text);
        }

        // Indices are consecutive from zero.
        for (i, e) in extracts.iter().enumerate() {
            prop_assert_eq!(e.index, i);
        }
    }
}
