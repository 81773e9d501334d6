//! Differential property tests for the production E-step: the memoized
//! block emissions plus the structured block kernel
//! (`emissions_into_memoized` + `forward_backward_struct`) against the
//! per-edge reference (`emissions_into` + `forward_backward_scaled` over a
//! materialized chain).
//!
//! Sequences run up to 64 extracts in long same-record runs with some empty
//! `D_i`, so whole record blocks of α̂ underflow to exact zero and the
//! kernel's zero-block path runs (in about a fifth of the cases).

use proptest::prelude::*;

use tableseg_html::TypeSet;
use tableseg_oracle::forward_backward::{emissions_into, forward_backward_scaled};
use tableseg_prob::forward_backward::{
    build_chain, emissions_into_memoized, forward_backward_struct, FbWorkspace,
};
use tableseg_prob::model::{Dims, Evidence};
use tableseg_prob::params::Params;
use tableseg_prob::ProbOptions;

/// Longest generated sequence.
const MAX_EXTRACTS: usize = 64;

/// Below this, α̂/β̂ cells are compared no further: products that reach
/// the subnormal range lose relative precision.
const NORMAL_FLOOR: f64 = 1e-280;

/// Relative 1e-9 closeness (absolute for values at most 1, like the
/// posteriors; relative for the log-likelihood and the counts).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One evidence run: type bits, first record, `D_i` width (0 = empty,
/// 1 = that record, 2 = it and the next) and length.
type Run = (u8, usize, usize, usize);

/// Expands runs into a sequence of at most [`MAX_EXTRACTS`] extracts.
fn expand(runs: &[Run], nk: usize) -> Vec<Evidence> {
    let mut ev = Vec::new();
    for &(bits, r, width, len) in runs {
        let pages: Vec<u32> = (r..(r + width).min(nk)).map(|p| p as u32).collect();
        for j in 0..len {
            ev.push(Evidence {
                // Vary the low type bit inside a run so the emission memo
                // sees more than one key per run.
                types: TypeSet::from_bits(bits ^ (j as u8 & 1)),
                pages: pages.clone(),
            });
        }
    }
    ev.truncate(MAX_EXTRACTS);
    ev
}

/// A random page: dimensions and its evidence sequence.
fn arb_case() -> impl Strategy<Value = (Dims, Vec<Evidence>)> {
    (1usize..=6, 1usize..=5).prop_flat_map(|(nk, k)| {
        let run = (0u8..=255, 0..nk, 0usize..=2, 1..=MAX_EXTRACTS);
        proptest::collection::vec(run, 1..=10).prop_map(move |runs| {
            let dims = Dims {
                num_records: nk,
                num_columns: k,
            };
            (dims, expand(&runs, nk))
        })
    })
}

/// One EM iteration's worth of parameter drift (through the reference
/// pass), so the comparison also runs on non-uniform parameters.
fn drifted_params(ev: &[Evidence], dims: Dims, opts: &ProbOptions) -> Params {
    let k = dims.num_columns;
    let mut params = Params::uniform(k, vec![1.0; k]);
    let chain = build_chain(dims, &params, opts);
    let mut ws = FbWorkspace::new();
    emissions_into(ev, &params, dims, opts, &mut ws);
    forward_backward_scaled(&chain, &mut ws, ev);
    params.update(
        &ws.counts.types,
        &ws.counts.col,
        &ws.counts.trans,
        &ws.counts.end,
        &ws.counts.cont,
    );
    params
}

/// Runs the production E-step and the reference on one page and returns
/// the production workspace, or the first disagreement: emissions must
/// match bit for bit, everything else to [`close`].
fn compare(
    ev: &[Evidence],
    dims: Dims,
    params: &Params,
    opts: &ProbOptions,
) -> Result<FbWorkspace, String> {
    let chain = build_chain(dims, params, opts);
    let mut reference = FbWorkspace::new();
    emissions_into(ev, params, dims, opts, &mut reference);
    let ll_ref = forward_backward_scaled(&chain, &mut reference, ev);

    let mut ws = FbWorkspace::new();
    emissions_into_memoized(ev, params, dims, opts, &mut ws);
    for (name, a, b) in [
        ("emits", &ws.emits, &reference.emits),
        ("emit_scale", &ws.emit_scale, &reference.emit_scale),
    ] {
        if let Some(j) = a
            .iter()
            .zip(b)
            .position(|(x, y)| x.to_bits() != y.to_bits())
        {
            return Err(format!("{name}[{j}]: {} vs {}", a[j], b[j]));
        }
    }
    let ll = forward_backward_struct(dims, params, opts, &mut ws, ev);

    if !close(ll, ll_ref) {
        return Err(format!("ll {ll} vs {ll_ref}"));
    }
    let c = (&ws.counts, &reference.counts);
    let flat = [
        ("gamma", &ws.gamma, &reference.gamma),
        ("col", &c.0.col, &c.1.col),
        ("end", &c.0.end, &c.1.end),
        ("cont", &c.0.cont, &c.1.cont),
    ];
    let nested = [
        ("trans", &c.0.trans, &c.1.trans),
        ("types", &c.0.types, &c.1.types),
    ];
    let rows = flat
        .into_iter()
        .map(|(n, a, b)| (n, 0, a, b))
        .chain(nested.into_iter().flat_map(|(n, a, b)| {
            a.iter()
                .zip(b)
                .enumerate()
                .map(move |(r, (x, y))| (n, r, x, y))
        }));
    for (name, row, a, b) in rows {
        if a.len() != b.len() {
            return Err(format!("{name}: length {} vs {}", a.len(), b.len()));
        }
        if let Some(j) = a.iter().zip(b).position(|(x, y)| !close(*x, *y)) {
            return Err(format!("{name}[{row}][{j}]: {} vs {}", a[j], b[j]));
        }
    }
    // α̂ and β̂ are sums of non-negative products, so the two passes agree
    // relatively wherever both stay clear of the subnormal range, however
    // small the values (a posterior-scale absolute check cannot see them).
    for (name, a, b) in [
        ("alpha", &ws.alpha, &reference.alpha),
        ("beta", &ws.beta, &reference.beta),
    ] {
        let far = |x: f64, y: f64| x.min(y) > NORMAL_FLOOR && (x - y).abs() > 1e-9 * x.max(y);
        if let Some(j) = a.iter().zip(b).position(|(x, y)| far(*x, *y)) {
            return Err(format!("{name}[{j}]: {} vs {}", a[j], b[j]));
        }
    }
    Ok(ws)
}

/// `true` if some row of `table` in `rows` has a record block of exact
/// zeros.
fn has_zero_block(table: &[f64], dims: Dims, rows: std::ops::Range<usize>) -> bool {
    let (ns, k) = (dims.num_states(), dims.num_columns);
    rows.flat_map(|i| table[i * ns..(i + 1) * ns].chunks_exact(k))
        .any(|blk| blk.iter().all(|&x| x == 0.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production E-step reproduces the per-edge reference within
    /// 1e-9 (emissions bit for bit), on uniform and on EM-drifted
    /// parameters.
    #[test]
    fn struct_e_step_matches_per_edge_reference(
        case in arb_case(),
        drift in any::<bool>(),
    ) {
        let (dims, ev) = case;
        let opts = ProbOptions::default();
        let params = if drift {
            drifted_params(&ev, dims, &opts)
        } else {
            Params::uniform(dims.num_columns, vec![1.0; dims.num_columns])
        };
        let res = compare(&ev, dims, &params, &opts);
        prop_assert!(res.is_ok(), "{:?} (dims {:?})", res.err(), dims);
    }
}

/// A fixed page on which whole record blocks of α̂ underflow to exact
/// zero, so the kernel's zero-block path demonstrably runs and still
/// matches the reference: with every extract on the last record's page,
/// the earlier records' blocks decay by ε per step until they vanish.
#[test]
fn zero_alpha_blocks_are_reached_and_match() {
    let dims = Dims {
        num_records: 3,
        num_columns: 2,
    };
    let opts = ProbOptions::default();
    let n = MAX_EXTRACTS;
    let ev: Vec<Evidence> = (0..n)
        .map(|i| Evidence {
            types: TypeSet::from_bits(1 << (i % 3)),
            pages: vec![2],
        })
        .collect();
    for params in [
        Params::uniform(2, vec![1.0; 2]),
        drifted_params(&ev, dims, &opts),
    ] {
        let ws = compare(&ev, dims, &params, &opts).unwrap_or_else(|e| panic!("{e}"));
        // The forward step reads rows 0..n-1 as its previous row.
        assert!(
            has_zero_block(&ws.alpha, dims, 0..n - 1),
            "no zero α̂ block reached"
        );
    }
}
