//! The EM loops the production E-step replaced, kept verbatim behind
//! [`tableseg_prob::segment_prob`]'s bootstrap and decode:
//!
//! * [`segment_prob_log_space`] — the pre-overhaul loop: fresh chain and
//!   log emission tables every iteration, per-cell `ln`/`exp` inference
//!   ([`crate::forward_backward::forward_backward`], [`crate::viterbi::viterbi`]);
//!   the `solvebench` baseline;
//! * [`segment_prob_unmemoized`] — the scaled loop before the block
//!   kernel: per-cell emissions and the per-edge scaled pass over a chain
//!   built once and refreshed in place each iteration; the `solvebench`
//!   prev leg. It matches production bit for bit on pages of at most two
//!   records and to rounding beyond (the kernel sums the geometric
//!   record-boundary fan-out by recurrence).

use std::time::Instant;

use tableseg_extract::{Observations, Segmentation};
use tableseg_prob::bootstrap;
use tableseg_prob::forward_backward::{build_chain, FbWorkspace};
use tableseg_prob::model::{evidence, Dims, Evidence};
use tableseg_prob::params::Params;
use tableseg_prob::viterbi::viterbi_scaled;
use tableseg_prob::{EmTiming, ProbOptions, ProbOutcome};

use crate::forward_backward::{
    emissions_into, forward_backward, forward_backward_scaled, log_emissions, refresh_chain,
};
use crate::viterbi::viterbi;

/// One EM loop: runs EM from the bootstrapped parameters and returns
/// `(log-likelihood, iterations, MAP path)`.
type EmLoop =
    fn(&[Evidence], Dims, &mut Params, &ProbOptions, &mut EmTiming) -> (f64, usize, Vec<usize>);

/// [`tableseg_prob::segment_prob`] with the log-space EM loop.
pub fn segment_prob_log_space(obs: &Observations, opts: &ProbOptions) -> ProbOutcome {
    run(obs, opts, run_log_space)
}

/// [`tableseg_prob::segment_prob`] with the unmemoized per-edge scaled EM
/// loop.
pub fn segment_prob_unmemoized(obs: &Observations, opts: &ProbOptions) -> ProbOutcome {
    run(obs, opts, run_unmemoized)
}

/// Bootstrapped EM plus MAP decode, as in production, around `em_loop`.
fn run(obs: &Observations, opts: &ProbOptions, em_loop: EmLoop) -> ProbOutcome {
    let ev = evidence(obs);
    if ev.is_empty() {
        return ProbOutcome {
            segmentation: Segmentation::unassigned(obs.num_records, 0),
            columns: Vec::new(),
            log_likelihood: 0.0,
            iterations: 0,
            period: Vec::new(),
            timing: EmTiming::default(),
        };
    }

    // Bootstrap (Section 5.2.1): k from the definite segments, π from
    // their lengths.
    let k = bootstrap::num_columns(&ev);
    let dims = Dims {
        num_records: obs.num_records.max(1),
        num_columns: k,
    };
    let pi0 = bootstrap::initial_period(&ev, k);
    let mut params = Params::uniform(k, pi0);

    let mut timing = EmTiming::default();
    let (log_likelihood, iterations, path) = em_loop(&ev, dims, &mut params, opts, &mut timing);

    let mut assignments = Vec::with_capacity(ev.len());
    let mut columns = Vec::with_capacity(ev.len());
    for &s in &path {
        let (r, c) = dims.unpack(s);
        assignments.push(Some(r as u32));
        columns.push(c as u32);
    }

    ProbOutcome {
        segmentation: Segmentation {
            num_records: obs.num_records,
            assignments,
        },
        columns,
        log_likelihood,
        iterations,
        period: params.pi.clone(),
        timing,
    }
}

/// The unmemoized scaled EM loop: the chain is built once and only its
/// edge probabilities refresh each iteration, emissions/posteriors live in
/// flat arenas reused across iterations, and inference runs per edge in
/// scaled linear space.
fn run_unmemoized(
    ev: &[Evidence],
    dims: Dims,
    params: &mut Params,
    opts: &ProbOptions,
    timing: &mut EmTiming,
) -> (f64, usize, Vec<usize>) {
    let mut ws = FbWorkspace::new();
    let mut chain = build_chain(dims, params, opts);
    let mut prev_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    // `true` while `ws.emits` matches the current `params`, so a converged
    // loop can feed Viterbi without another emission pass.
    let mut emits_fresh = false;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let t = Instant::now();
        emissions_into(ev, params, dims, opts, &mut ws);
        let ll = forward_backward_scaled(&chain, &mut ws, ev);
        emits_fresh = true;
        timing.e_step_ns += t.elapsed().as_nanos() as u64;

        // Log-likelihood-delta early exit *before* the M-step: once the
        // likelihood has stopped moving, the extra parameter update buys
        // nothing and would force an emission refresh for the decode.
        if (ll - prev_ll).abs() < opts.tolerance {
            prev_ll = ll;
            break;
        }
        prev_ll = ll;

        let t = Instant::now();
        params.update(
            &ws.counts.types,
            &ws.counts.col,
            &ws.counts.trans,
            &ws.counts.end,
            &ws.counts.cont,
        );
        refresh_chain(&mut chain, params, opts);
        emits_fresh = false;
        timing.m_step_ns += t.elapsed().as_nanos() as u64;
    }

    // MAP decode with the final parameters (the emission arena is
    // refreshed only when the loop exhausted its iteration budget with the
    // M-step as the last word).
    let t = Instant::now();
    if !emits_fresh {
        emissions_into(ev, params, dims, opts, &mut ws);
    }
    let path = viterbi_scaled(&chain, &ws);
    timing.viterbi_ns += t.elapsed().as_nanos() as u64;
    (prev_ll, iterations, path)
}

/// The pre-overhaul log-space EM loop, kept verbatim (fresh chain and
/// emission tables every iteration, per-cell `ln`/`exp` inference) as the
/// differential oracle and `solvebench` baseline.
fn run_log_space(
    ev: &[Evidence],
    dims: Dims,
    params: &mut Params,
    opts: &ProbOptions,
    timing: &mut EmTiming,
) -> (f64, usize, Vec<usize>) {
    let mut prev_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    // Chain and emission tables from a converged iteration, still valid
    // for decoding because the early exit skipped the M-step.
    let mut converged = None;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let t = Instant::now();
        let chain = build_chain(dims, params, opts);
        let emits = log_emissions(ev, params, dims, opts);
        let fb = forward_backward(&chain, &emits, ev);
        timing.e_step_ns += t.elapsed().as_nanos() as u64;

        // Early exit before the M-step, mirroring the production loop.
        if (fb.log_likelihood - prev_ll).abs() < opts.tolerance {
            prev_ll = fb.log_likelihood;
            converged = Some((chain, emits));
            break;
        }
        prev_ll = fb.log_likelihood;

        let t = Instant::now();
        params.update(
            &fb.counts.types,
            &fb.counts.col,
            &fb.counts.trans,
            &fb.counts.end,
            &fb.counts.cont,
        );
        timing.m_step_ns += t.elapsed().as_nanos() as u64;
    }

    let t = Instant::now();
    let (chain, emits) = converged.unwrap_or_else(|| {
        let chain = build_chain(dims, params, opts);
        let emits = log_emissions(ev, params, dims, opts);
        (chain, emits)
    });
    let path = viterbi(&chain, &emits);
    timing.viterbi_ns += t.elapsed().as_nanos() as u64;
    (prev_ll, iterations, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};
    use tableseg_prob::segment_prob;

    #[test]
    fn memoized_e_step_matches_unmemoized_bit_for_bit() {
        let fixtures: [(&str, Vec<&str>); 2] = [
            (
                "<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td>",
                vec![
                    "<p>Alpha One</p><p>100 Main</p>",
                    "<p>Beta Two</p><p>200 Oak</p>",
                ],
            ),
            (
                "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>",
                vec![
                    "<p>Alpha One</p><p>Parole</p>",
                    "<p>Beta Two</p><p>Parolee</p>",
                ],
            ),
        ];
        for (list, details) in fixtures {
            let list_toks = tokenize(list);
            let detail_toks: Vec<Vec<tableseg_html::Token>> =
                details.iter().map(|d| tokenize(d)).collect();
            let refs: Vec<&[Token]> = detail_toks.iter().map(Vec::as_slice).collect();
            let obs = build_observations(&list_toks, &[], &refs);
            let memo = segment_prob(&obs, &ProbOptions::default());
            let plain = segment_prob_unmemoized(&obs, &ProbOptions::default());
            assert_eq!(memo.segmentation, plain.segmentation);
            assert_eq!(memo.columns, plain.columns);
            assert_eq!(memo.iterations, plain.iterations);
            assert_eq!(
                memo.log_likelihood.to_bits(),
                plain.log_likelihood.to_bits()
            );
            for (a, b) in memo.period.iter().zip(&plain.period) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn converged_run_skips_the_last_m_step() {
        // With a huge tolerance, iteration 2 converges immediately (the
        // first delta is infinite): the decode must then use the
        // parameters of the single M-step that ran, matching the
        // log-space oracle's early exit.
        let list_toks =
            tokenize("<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td>");
        let d: Vec<Vec<tableseg_html::Token>> = [
            "<p>Alpha One</p><p>100 Main</p>",
            "<p>Beta Two</p><p>200 Oak</p>",
        ]
        .iter()
        .map(|s| tokenize(s))
        .collect();
        let refs: Vec<&[Token]> = d.iter().map(Vec::as_slice).collect();
        let obs = build_observations(&list_toks, &[], &refs);
        let opts = ProbOptions {
            tolerance: 1e300,
            ..ProbOptions::default()
        };
        let fast = segment_prob(&obs, &opts);
        assert_eq!(fast.iterations, 2);
        let oracle = segment_prob_log_space(&obs, &opts);
        assert_eq!(oracle.iterations, 2);
        assert_eq!(fast.segmentation, oracle.segmentation);
        assert_eq!(fast.columns, oracle.columns);
        for (a, b) in fast.period.iter().zip(&oracle.period) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
