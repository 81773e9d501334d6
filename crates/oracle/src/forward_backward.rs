//! The reference forward–backward passes the production block kernel
//! ([`tableseg_prob::forward_backward::forward_backward_struct`])
//! replaced, kept verbatim: the log-space pass over a materialized chain
//! ([`forward_backward`], per-cell `ln`/`exp`) and the per-edge scaled
//! linear-space pass ([`forward_backward_scaled`]), with their emission
//! fills and the in-place chain refresh of the unmemoized EM loop.

use tableseg_prob::forward_backward::{Chain, Counts, EdgeKind, FbWorkspace};
use tableseg_prob::model::{Dims, Evidence};
use tableseg_prob::params::Params;
use tableseg_prob::ProbOptions;

/// Log emission table: `emit[i][s] = ln P(T_i | c) + ln P(D_i | r)`.
pub fn log_emissions(
    evidence: &[Evidence],
    params: &Params,
    dims: Dims,
    opts: &ProbOptions,
) -> Vec<Vec<f64>> {
    let log_eps = opts.epsilon.ln();
    evidence
        .iter()
        .map(|ev| {
            let feats = ev.features();
            let per_col: Vec<f64> = (0..dims.num_columns)
                .map(|c| params.emission(c, &feats).max(1e-300).ln())
                .collect();
            (0..dims.num_states())
                .map(|s| {
                    let (r, c) = dims.unpack(s);
                    let d = if ev.on_page(r) {
                        -(ev.pages.len() as f64).ln()
                    } else {
                        log_eps
                    };
                    per_col[c] + d
                })
                .collect()
        })
        .collect()
}

/// The result of a forward–backward pass.
#[derive(Debug, Clone)]
pub struct FbResult {
    /// Log-likelihood of the evidence.
    pub log_likelihood: f64,
    /// State posteriors `gamma[i][s]` (linear scale, each row sums to 1).
    pub gamma: Vec<Vec<f64>>,
    /// Expected counts for the M-step.
    pub counts: Counts,
}

/// Runs forward–backward, returning posteriors and expected counts.
pub fn forward_backward(chain: &Chain, emits: &[Vec<f64>], evidence: &[Evidence]) -> FbResult {
    let n = emits.len();
    let ns = chain.dims.num_states();
    let k = chain.dims.num_columns;
    assert_eq!(n, evidence.len());
    if n == 0 {
        return FbResult {
            log_likelihood: 0.0,
            gamma: Vec::new(),
            counts: zero_counts(k),
        };
    }

    // Forward.
    let mut alpha = vec![vec![f64::NEG_INFINITY; ns]; n];
    for s in 0..ns {
        alpha[0][s] = chain.init[s] + emits[0][s];
    }
    for i in 1..n {
        let (prev, cur) = {
            let (a, b) = alpha.split_at_mut(i);
            (&a[i - 1], &mut b[0])
        };
        for (s, out) in chain.edges.iter().enumerate() {
            let a = prev[s];
            if a == f64::NEG_INFINITY {
                continue;
            }
            for e in out {
                let v = a + e.logp + emits[i][e.to];
                cur[e.to] = log_add(cur[e.to], v);
            }
        }
    }
    let log_likelihood = log_sum(&alpha[n - 1]);

    // Backward.
    let mut beta = vec![vec![f64::NEG_INFINITY; ns]; n];
    beta[n - 1].fill(0.0);
    for i in (0..n - 1).rev() {
        let (cur, next) = {
            let (a, b) = beta.split_at_mut(i + 1);
            (&mut a[i], &b[0])
        };
        for (s, out) in chain.edges.iter().enumerate() {
            let mut acc = f64::NEG_INFINITY;
            for e in out {
                acc = log_add(acc, e.logp + emits[i + 1][e.to] + next[e.to]);
            }
            cur[s] = acc;
        }
    }

    // Posteriors and counts.
    let mut gamma = vec![vec![0.0; ns]; n];
    let mut counts = zero_counts(k);
    for i in 0..n {
        let feats = evidence[i].features();
        for s in 0..ns {
            let lg = alpha[i][s] + beta[i][s] - log_likelihood;
            let g = lg.exp();
            gamma[i][s] = g;
            if g > 0.0 {
                let (_, c) = chain.dims.unpack(s);
                counts.col[c] += g;
                for (t, &on) in feats.iter().enumerate() {
                    if on {
                        counts.types[c][t] += g;
                    }
                }
            }
        }
    }
    // Edge posteriors.
    for i in 0..n - 1 {
        for (s, out) in chain.edges.iter().enumerate() {
            let a = alpha[i][s];
            if a == f64::NEG_INFINITY {
                continue;
            }
            for e in out {
                let lxi = a + e.logp + emits[i + 1][e.to] + beta[i + 1][e.to] - log_likelihood;
                let xi = lxi.exp();
                if xi <= 0.0 {
                    continue;
                }
                match e.kind {
                    EdgeKind::Continue { from_c, to_c } => {
                        counts.trans[from_c][to_c] += xi;
                        counts.cont[from_c] += xi;
                    }
                    EdgeKind::NewRecord { from_c } => {
                        counts.end[from_c] += xi;
                    }
                    EdgeKind::Fallback => {}
                }
            }
        }
    }
    // The last extract ends its record at its column.
    for (s, &g) in gamma[n - 1].iter().enumerate() {
        let (_, c) = chain.dims.unpack(s);
        counts.end[c] += g;
    }

    FbResult {
        log_likelihood,
        gamma,
        counts,
    }
}

/// Fills the workspace's emission arena with *linear* emissions
/// `P(T_i | c) · P(D_i | r)`, each row scaled by its maximum (recorded as
/// `emit_scale[i] = ln max`) so the scaled pass works near 1.0.
pub fn emissions_into(
    evidence: &[Evidence],
    params: &Params,
    dims: Dims,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
) {
    let ns = dims.num_states();
    let k = dims.num_columns;
    ws.prepare(evidence.len(), ns, k);
    let mut per_col = vec![0.0; k];
    for (i, ev) in evidence.iter().enumerate() {
        let feats = ev.features();
        for (c, slot) in per_col.iter_mut().enumerate() {
            *slot = params.emission(c, &feats);
        }
        let inv_pages = 1.0 / ev.pages.len().max(1) as f64;
        let row = &mut ws.emits[i * ns..(i + 1) * ns];
        let mut max = 0.0f64;
        for (s, slot) in row.iter_mut().enumerate() {
            let (r, c) = dims.unpack(s);
            let d = if ev.on_page(r) {
                inv_pages
            } else {
                opts.epsilon
            };
            let v = per_col[c] * d;
            *slot = v;
            if v > max {
                max = v;
            }
        }
        if max > 0.0 {
            for slot in row.iter_mut() {
                *slot /= max;
            }
            ws.emit_scale[i] = max.ln();
        } else {
            ws.emit_scale[i] = 0.0;
        }
    }
}

/// The scaled linear-space forward–backward pass (Rabiner scaling): the
/// same posteriors and expected counts as [`forward_backward`] without a
/// single `ln`/`exp` per cell; the log-likelihood is recovered from the
/// per-step normalizers and the emission row scales,
/// `ll = Σᵢ ln cᵢ + Σᵢ emit_scale[i]`.
///
/// Expects [`emissions_into`] to have filled `ws` for this evidence.
/// Posteriors land in `ws.gamma`, expected counts in `ws.counts`; returns
/// the log-likelihood.
pub fn forward_backward_scaled(chain: &Chain, ws: &mut FbWorkspace, evidence: &[Evidence]) -> f64 {
    let n = evidence.len();
    let ns = chain.dims.num_states();
    let k = chain.dims.num_columns;
    debug_assert_eq!(ws.emits.len(), n * ns, "emissions_into must run first");
    if n == 0 {
        reset_counts(&mut ws.counts, k);
        return 0.0;
    }

    // Forward.
    for s in 0..ns {
        ws.alpha[s] = chain.init_linear[s] * ws.emits[s];
    }
    normalize_step(&mut ws.alpha[..ns], &mut ws.scale[0]);
    for i in 1..n {
        let (prev_rows, cur_rows) = ws.alpha.split_at_mut(i * ns);
        let prev = &prev_rows[(i - 1) * ns..];
        let cur = &mut cur_rows[..ns];
        cur.fill(0.0);
        for (s, out) in chain.edges.iter().enumerate() {
            let a = prev[s];
            if a == 0.0 {
                continue;
            }
            for e in out {
                cur[e.to] += a * e.p;
            }
        }
        let emit_row = &ws.emits[i * ns..(i + 1) * ns];
        for (slot, &em) in cur.iter_mut().zip(emit_row) {
            *slot *= em;
        }
        normalize_step(cur, &mut ws.scale[i]);
    }
    let log_likelihood: f64 =
        ws.scale.iter().map(|c| c.ln()).sum::<f64>() + ws.emit_scale.iter().sum::<f64>();

    // Backward sweep with edge-posterior accumulation: at step i we have
    // tmp[t] = b_{i+1}(t) · β̂_{i+1}(t) / c_{i+1}, giving both
    // β̂_i(s) = Σ_e p_e · tmp[e.to] and ξ_i(s, e.to) = α̂_i(s) · p_e · tmp[e.to].
    reset_counts(&mut ws.counts, k);
    let mut tmp = vec![0.0; ns];
    ws.beta[(n - 1) * ns..].fill(1.0);
    for i in (0..n - 1).rev() {
        let inv_c = 1.0 / ws.scale[i + 1];
        for (t, slot) in tmp.iter_mut().enumerate() {
            *slot = ws.emits[(i + 1) * ns + t] * ws.beta[(i + 1) * ns + t] * inv_c;
        }
        for (s, out) in chain.edges.iter().enumerate() {
            let mut b = 0.0;
            for e in out {
                b += e.p * tmp[e.to];
            }
            ws.beta[i * ns + s] = b;
            let a = ws.alpha[i * ns + s];
            if a == 0.0 {
                continue;
            }
            for e in out {
                let xi = a * e.p * tmp[e.to];
                if xi <= 0.0 {
                    continue;
                }
                match e.kind {
                    EdgeKind::Continue { from_c, to_c } => {
                        ws.counts.trans[from_c][to_c] += xi;
                        ws.counts.cont[from_c] += xi;
                    }
                    EdgeKind::NewRecord { from_c } => {
                        ws.counts.end[from_c] += xi;
                    }
                    EdgeKind::Fallback => {}
                }
            }
        }
    }

    // Posteriors and node counts: γ_i(s) = α̂_i(s) · β̂_i(s) already sums
    // to 1 per row under this scaling.
    for (i, ev) in evidence.iter().enumerate() {
        let feats = ev.features();
        for s in 0..ns {
            let g = ws.alpha[i * ns + s] * ws.beta[i * ns + s];
            ws.gamma[i * ns + s] = g;
            if g > 0.0 {
                let (_, c) = chain.dims.unpack(s);
                ws.counts.col[c] += g;
                for (t, &on) in feats.iter().enumerate() {
                    if on {
                        ws.counts.types[c][t] += g;
                    }
                }
            }
        }
    }
    // The last extract ends its record at its column.
    for s in 0..ns {
        let (_, c) = chain.dims.unpack(s);
        ws.counts.end[c] += ws.gamma[(n - 1) * ns + s];
    }

    log_likelihood
}

/// Recomputes edge probabilities in place for updated parameters, keeping
/// the topology built by [`tableseg_prob::forward_backward::build_chain`]. The initial distribution depends
/// only on the options, so it is untouched.
pub fn refresh_chain(chain: &mut Chain, params: &Params, opts: &ProbOptions) {
    let nk = chain.dims.num_records;
    // Geometric skip weights 1, q, q², … normalized over the remaining
    // records; precompute the normalizer for every source record.
    let mut skip_total = vec![0.0f64; nk];
    for (r, slot) in skip_total.iter_mut().enumerate() {
        let mut g = 1.0;
        for _ in r + 1..nk {
            *slot += g;
            g *= opts.skip_penalty;
        }
    }
    for s in 0..chain.edges.len() {
        let (r, c) = chain.dims.unpack(s);
        let hz = params.hazard_for(c, opts.period_model);
        for e in &mut chain.edges[s] {
            let p = match e.kind {
                EdgeKind::Continue { from_c, to_c } => (1.0 - hz) * params.trans[from_c][to_c],
                EdgeKind::NewRecord { .. } => {
                    let (rp, _) = chain.dims.unpack(e.to);
                    hz * opts.skip_penalty.powi((rp - r - 1) as i32) / skip_total[r]
                }
                EdgeKind::Fallback => continue,
            };
            e.p = p;
            e.logp = p.ln();
        }
    }
}

/// `ln(e^a + e^b)` with care for negative infinity.
#[inline]
pub fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// `ln Σ e^xᵢ`.
pub fn log_sum(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, log_add)
}

/// Zeroed count tables for `k` columns.
fn zero_counts(k: usize) -> Counts {
    Counts {
        col: vec![0.0; k],
        types: vec![vec![0.0; 8]; k],
        trans: vec![vec![0.0; k]; k],
        end: vec![0.0; k],
        cont: vec![0.0; k],
    }
}

/// Re-zeros (and, on a column-count change, re-shapes) `counts`.
fn reset_counts(counts: &mut Counts, k: usize) {
    if counts.col.len() != k {
        *counts = zero_counts(k);
        return;
    }
    counts.col.fill(0.0);
    counts.end.fill(0.0);
    counts.cont.fill(0.0);
    for row in &mut counts.types {
        row.fill(0.0);
    }
    for row in &mut counts.trans {
        row.fill(0.0);
    }
}

/// Divides one α row by its sum, recording the sum as that step's
/// normalizer. A zero row (impossible while the fallback edge exists)
/// normalizes by 1 to keep the pass finite.
#[inline]
fn normalize_step(row: &mut [f64], scale: &mut f64) {
    let c: f64 = row.iter().sum();
    let c = if c > 0.0 { c } else { 1.0 };
    for x in row.iter_mut() {
        *x /= c;
    }
    *scale = c;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};
    use tableseg_prob::forward_backward::{
        build_chain, emissions_into_memoized, forward_backward_struct,
    };
    use tableseg_prob::model::evidence;

    fn small_setup() -> (Vec<Evidence>, Dims, Params, ProbOptions) {
        let list = tokenize("<td>Alpha One</td><td>100</td><td>Beta Two</td><td>200</td>");
        let d1 = tokenize("<p>Alpha One</p><p>100</p>");
        let d2 = tokenize("<p>Beta Two</p><p>200</p>");
        let d3 = tokenize("<p>x</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2, &d3];
        let obs = build_observations(&list, &[], &details);
        let ev = evidence(&obs);
        let dims = Dims {
            num_records: 3,
            num_columns: 2,
        };
        let params = Params::uniform(2, vec![1.0, 1.0]);
        (ev, dims, params, ProbOptions::default())
    }

    #[test]
    fn gamma_rows_sum_to_one() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let emits = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &emits, &ev);
        assert!(fb.log_likelihood.is_finite());
        for row in &fb.gamma {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{s}");
        }
    }

    #[test]
    fn detail_evidence_dominates_record_posterior() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let emits = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &emits, &ev);
        // Extract 0 ("Alpha One") is on detail page 0 only.
        let mut p_r0 = 0.0;
        for c in 0..dims.num_columns {
            p_r0 += fb.gamma[0][dims.state(0, c)];
        }
        assert!(p_r0 > 0.99, "{p_r0}");
        // Extract 2 ("Beta Two") is on detail page 1 only.
        let mut p_r1 = 0.0;
        for c in 0..dims.num_columns {
            p_r1 += fb.gamma[2][dims.state(1, c)];
        }
        assert!(p_r1 > 0.99, "{p_r1}");
    }

    #[test]
    fn counts_are_consistent() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let emits = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &emits, &ev);
        // Total column mass equals the number of extracts.
        let total: f64 = fb.counts.col.iter().sum();
        assert!((total - ev.len() as f64).abs() < 1e-6, "{total}");
        // Ends + continues ≈ n (every extract either continues or ends,
        // modulo fallback edges).
        let flow: f64 = fb.counts.end.iter().sum::<f64>() + fb.counts.cont.iter().sum::<f64>();
        assert!((flow - ev.len() as f64).abs() < 0.05, "{flow}");
    }

    #[test]
    fn empty_sequence() {
        let (_, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let fb = forward_backward(&chain, &[], &[]);
        assert_eq!(fb.log_likelihood, 0.0);
        assert!(fb.gamma.is_empty());
    }

    #[test]
    fn memoized_emissions_are_bit_identical() {
        let (ev, dims, params, opts) = small_setup();
        let mut plain = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut plain);
        let mut memo = FbWorkspace::new();
        emissions_into_memoized(&ev, &params, dims, &opts, &mut memo);
        assert_eq!(plain.emits.len(), memo.emits.len());
        for (a, b) in plain.emits.iter().zip(&memo.emits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in plain.emit_scale.iter().zip(&memo.emit_scale) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn struct_pass_matches_scaled_within_rounding() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);

        let mut scaled = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut scaled);
        let ll_scaled = forward_backward_scaled(&chain, &mut scaled, &ev);

        let mut st = FbWorkspace::new();
        emissions_into_memoized(&ev, &params, dims, &opts, &mut st);
        let ll_struct = forward_backward_struct(dims, &params, &opts, &mut st, &ev);

        // The structured pass reassociates the geometric boundary sums,
        // so agreement is to rounding, not to the bit.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        assert!(close(ll_scaled, ll_struct), "{ll_scaled} vs {ll_struct}");
        for (a, b) in scaled.gamma.iter().zip(&st.gamma) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
        let pairs = [
            (&scaled.counts.col, &st.counts.col),
            (&scaled.counts.end, &st.counts.end),
            (&scaled.counts.cont, &st.counts.cont),
        ];
        for (a, b) in pairs {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(close(*x, *y), "{x} vs {y}");
            }
        }
        for (ra, rb) in scaled.counts.trans.iter().zip(&st.counts.trans) {
            for (x, y) in ra.iter().zip(rb) {
                assert!(close(*x, *y), "{x} vs {y}");
            }
        }
        for (ra, rb) in scaled.counts.types.iter().zip(&st.counts.types) {
            for (x, y) in ra.iter().zip(rb) {
                assert!(close(*x, *y), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn log_helpers() {
        assert!((log_add(0.0, 0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(log_add(f64::NEG_INFINITY, -1.0), -1.0);
        assert_eq!(log_add(-1.0, f64::NEG_INFINITY), -1.0);
        let v = [0.0, 0.0, 0.0, 0.0];
        assert!((log_sum(&v) - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(log_sum(&[]), f64::NEG_INFINITY);
    }
}
