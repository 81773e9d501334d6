//! Property tests for the probabilistic model: the full segmenter is
//! total and deterministic on random evidence. Posterior normalization
//! and Viterbi validity of the log-space reference passes are checked
//! in the `tableseg-oracle` crate.

use proptest::prelude::*;

use tableseg_html::TypeSet;
use tableseg_prob::model::Evidence;
use tableseg_prob::ProbOptions;

fn arb_evidence(num_records: usize) -> impl Strategy<Value = Vec<Evidence>> {
    proptest::collection::vec(
        (
            0u8..=255,
            proptest::collection::btree_set(0..num_records as u32, 0..=num_records.min(3)),
        ),
        1..14,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(bits, pages)| Evidence {
                types: TypeSet::from_bits(bits),
                pages: pages.into_iter().collect(),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full segmenter is total, monotone, in-range and deterministic
    /// for arbitrary observation shapes.
    #[test]
    fn segment_prob_invariants(ev_spec in arb_evidence(4)) {
        use tableseg_extract::{ObsItem, Observations, Extract};
        use tableseg_html::Token;
        // Build a synthetic observation table carrying the evidence.
        let items: Vec<ObsItem> = ev_spec
            .iter()
            .enumerate()
            .map(|(i, ev)| ObsItem::new(
                Extract {
                    index: i,
                    tokens: vec![Token::text(format!("w{i}"), i)],
                    start: i,
                },
                ev.pages.clone(),
                vec![],
            ))
            .collect();
        let obs = Observations { num_records: 4, items, skipped: vec![] };
        let opts = ProbOptions::default();
        let a = tableseg_prob::segment_prob(&obs, &opts);
        prop_assert!(a.segmentation.is_total());
        prop_assert_eq!(a.columns.len(), obs.items.len());
        let b = tableseg_prob::segment_prob(&obs, &opts);
        prop_assert_eq!(a.segmentation, b.segmentation);
        prop_assert_eq!(a.columns, b.columns);
    }
}
