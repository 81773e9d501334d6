//! Differential property tests for the scaled linear-space inference
//! path: the per-edge `emissions_into` + `forward_backward_scaled` and the
//! production `viterbi_scaled` against the log-space originals, plus the
//! arena-reuse regression of the production workspace.

use proptest::prelude::*;

use tableseg_html::TypeSet;
use tableseg_oracle::forward_backward::{
    emissions_into, forward_backward, forward_backward_scaled, log_emissions, refresh_chain,
};
use tableseg_oracle::viterbi::viterbi;
use tableseg_prob::forward_backward::{build_chain, FbWorkspace};
use tableseg_prob::model::{Dims, Evidence};
use tableseg_prob::params::Params;
use tableseg_prob::viterbi::viterbi_scaled;
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

/// Relative 1e-9 closeness (absolute for values at most 1, like the
/// posteriors; relative for the log-likelihood).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One EM iteration's worth of parameter drift, so differential checks
/// also run on non-uniform parameters.
fn drifted_params(ev: &[Evidence], dims: Dims, opts: &ProbOptions) -> Params {
    let mut params = Params::uniform(dims.num_columns, vec![1.0; dims.num_columns]);
    let chain = build_chain(dims, &params, opts);
    let emits = log_emissions(ev, &params, dims, opts);
    let fb = forward_backward(&chain, &emits, ev);
    params.update(
        &fb.counts.types,
        &fb.counts.col,
        &fb.counts.trans,
        &fb.counts.end,
        &fb.counts.cont,
    );
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scaled linear-space forward–backward reproduces the log-space
    /// oracle within 1e-9: log-likelihood, posteriors and every expected
    /// count, on uniform and on EM-drifted parameters.
    #[test]
    fn scaled_fb_matches_log_space(ev in arb_evidence(4), drift in proptest::bool::ANY) {
        let dims = Dims { num_records: 4, num_columns: 3 };
        let opts = ProbOptions::default();
        let params = if drift {
            drifted_params(&ev, dims, &opts)
        } else {
            Params::uniform(3, vec![1.0; 3])
        };

        let chain = build_chain(dims, &params, &opts);
        let emits = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &emits, &ev);

        let mut ws = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut ws);
        let ll = forward_backward_scaled(&chain, &mut ws, &ev);

        prop_assert!(close(ll, fb.log_likelihood), "ll {} vs {}", ll, fb.log_likelihood);
        let ns = dims.num_states();
        for (i, row) in fb.gamma.iter().enumerate() {
            for (s, &g) in row.iter().enumerate() {
                let sg = ws.gamma[i * ns + s];
                prop_assert!(close(sg, g), "gamma[{i}][{s}]: {sg} vs {g}");
            }
        }
        for (a, b) in ws.counts.col.iter().zip(&fb.counts.col) {
            prop_assert!(close(*a, *b), "col count {a} vs {b}");
        }
        for (ar, br) in ws.counts.types.iter().zip(&fb.counts.types) {
            for (a, b) in ar.iter().zip(br) {
                prop_assert!(close(*a, *b), "types count {a} vs {b}");
            }
        }
        for (ar, br) in ws.counts.trans.iter().zip(&fb.counts.trans) {
            for (a, b) in ar.iter().zip(br) {
                prop_assert!(close(*a, *b), "trans count {a} vs {b}");
            }
        }
        for (a, b) in ws.counts.end.iter().zip(&fb.counts.end) {
            prop_assert!(close(*a, *b), "end count {a} vs {b}");
        }
        for (a, b) in ws.counts.cont.iter().zip(&fb.counts.cont) {
            prop_assert!(close(*a, *b), "cont count {a} vs {b}");
        }
    }

    /// The scaled Viterbi decodes a MAP path of the same score as the
    /// log-space one. (Per-row emission scaling shifts every path's score
    /// equally, so the argmax set is unchanged — but distinct paths can
    /// tie exactly, and the ~1e-16 rounding difference between linear
    /// products and log sums may break such ties differently. Scores are
    /// compared, not indices.)
    #[test]
    fn scaled_viterbi_matches_log_space(ev in arb_evidence(3), drift in any::<bool>()) {
        let dims = Dims { num_records: 3, num_columns: 3 };
        let opts = ProbOptions::default();
        let params = if drift {
            drifted_params(&ev, dims, &opts)
        } else {
            Params::uniform(3, vec![1.0; 3])
        };
        let chain = build_chain(dims, &params, &opts);
        let emits = log_emissions(&ev, &params, dims, &opts);
        let log_path = viterbi(&chain, &emits);

        let mut ws = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut ws);
        let scaled_path = viterbi_scaled(&chain, &ws);
        prop_assert_eq!(scaled_path.len(), log_path.len());
        let score = |path: &[usize]| -> f64 {
            let mut s = chain.init[path[0]] + emits[0][path[0]];
            for (i, w) in path.windows(2).enumerate() {
                let e = chain.edges[w[0]]
                    .iter()
                    .find(|e| e.to == w[1])
                    .expect("path follows chain edges");
                s += e.logp + emits[i + 1][w[1]];
            }
            s
        };
        let (a, b) = (score(&scaled_path), score(&log_path));
        prop_assert!(close(a, b), "scaled path scores {a}, log path {b}");
    }

    /// `refresh_chain` on a once-built chain reproduces `build_chain` on
    /// the same parameters: identical topology and edge probabilities.
    #[test]
    fn refresh_chain_matches_rebuild(ev in arb_evidence(4)) {
        let dims = Dims { num_records: 4, num_columns: 3 };
        let opts = ProbOptions::default();
        let uniform = Params::uniform(3, vec![1.0; 3]);
        let drifted = drifted_params(&ev, dims, &opts);

        let mut refreshed = build_chain(dims, &uniform, &opts);
        refresh_chain(&mut refreshed, &drifted, &opts);
        let rebuilt = build_chain(dims, &drifted, &opts);

        prop_assert_eq!(refreshed.init, rebuilt.init);
        for (a_out, b_out) in refreshed.edges.iter().zip(&rebuilt.edges) {
            prop_assert_eq!(a_out.len(), b_out.len());
            for (a, b) in a_out.iter().zip(b_out) {
                prop_assert_eq!(a.to, b.to);
                prop_assert!(close(a.p, b.p), "edge p {} vs {}", a.p, b.p);
                prop_assert!(
                    close(a.logp, b.logp) || (a.logp == f64::NEG_INFINITY && b.logp == f64::NEG_INFINITY),
                    "edge logp {} vs {}", a.logp, b.logp
                );
            }
        }
    }

    /// The workspace arenas stop growing after the first iteration: EM
    /// re-runs on the same instance never reallocate the tables
    /// (satellite regression for the per-iteration `Vec<Vec<f64>>` churn).
    #[test]
    fn workspace_arenas_do_not_grow_across_iterations(ev in arb_evidence(4)) {
        let dims = Dims { num_records: 4, num_columns: 3 };
        let opts = ProbOptions::default();
        let mut params = Params::uniform(3, vec![1.0; 3]);
        let mut chain = build_chain(dims, &params, &opts);
        let mut ws = FbWorkspace::new();

        emissions_into(&ev, &params, dims, &opts, &mut ws);
        forward_backward_scaled(&chain, &mut ws, &ev);
        let cap_after_first = ws.table_capacity();
        for _ in 0..5 {
            params.update(
                &ws.counts.types,
                &ws.counts.col,
                &ws.counts.trans,
                &ws.counts.end,
                &ws.counts.cont,
            );
            refresh_chain(&mut chain, &params, &opts);
            emissions_into(&ev, &params, dims, &opts, &mut ws);
            forward_backward_scaled(&chain, &mut ws, &ev);
            prop_assert_eq!(ws.table_capacity(), cap_after_first, "arena grew");
        }
    }
}

#[test]
fn empty_sequence_edge_case() {
    let dims = Dims {
        num_records: 2,
        num_columns: 2,
    };
    let opts = ProbOptions::default();
    let params = Params::uniform(2, vec![1.0, 1.0]);
    let chain = build_chain(dims, &params, &opts);
    let mut ws = FbWorkspace::new();
    emissions_into(&[], &params, dims, &opts, &mut ws);
    let ll = forward_backward_scaled(&chain, &mut ws, &[]);
    assert_eq!(ll, 0.0);
    assert!(viterbi_scaled(&chain, &ws).is_empty());
    let fb = forward_backward(&chain, &[], &[]);
    assert_eq!(fb.log_likelihood, 0.0);
}

#[test]
fn single_state_edge_case() {
    // One record, one column: a single chain state, held alive by the
    // fallback self-loop.
    let dims = Dims {
        num_records: 1,
        num_columns: 1,
    };
    let opts = ProbOptions::default();
    let params = Params::uniform(1, vec![1.0]);
    let ev = vec![
        Evidence {
            types: TypeSet::from_bits(0b1),
            pages: vec![0],
        },
        Evidence {
            types: TypeSet::from_bits(0b10),
            pages: vec![],
        },
    ];
    let chain = build_chain(dims, &params, &opts);
    let emits = log_emissions(&ev, &params, dims, &opts);
    let fb = forward_backward(&chain, &emits, &ev);

    let mut ws = FbWorkspace::new();
    emissions_into(&ev, &params, dims, &opts, &mut ws);
    let ll = forward_backward_scaled(&chain, &mut ws, &ev);
    assert!(
        close(ll, fb.log_likelihood),
        "{ll} vs {}",
        fb.log_likelihood
    );
    assert!(close(ws.gamma[0], 1.0));
    assert!(close(ws.gamma[1], 1.0));
    assert_eq!(viterbi_scaled(&chain, &ws), viterbi(&chain, &emits));
}
