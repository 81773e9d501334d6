//! The chain over `(R, C)` states and the forward–backward passes over it.
//!
//! EM runs [`forward_backward_struct`], a scaled linear-space block kernel
//! that reads the transitions straight from the parameters. The
//! materialized [`Chain`] serves the final Viterbi decode (and the
//! per-edge and log-space reference passes of the `tableseg-oracle`
//! crate, which the differential tests compare the kernel against).
//!
//! This is the "variant of the forward-backward algorithm that exploits the
//! hierarchical nature of the record segmentation problem" (Section 5.2.3):
//! the period model enters as the duration *hazard* on the
//! record-boundary transitions, which constrains the structure of the chain
//! and keeps inference linear in the number of extracts.

use crate::model::{Dims, Evidence};
use crate::params::Params;
use crate::ProbOptions;

/// Log-probability floor used for fallback transitions (and impossible
/// record evidence). Keeps every observation sequence explainable, which is
/// precisely the dirty-data tolerance of the probabilistic approach.
pub(crate) const LOG_FALLBACK: f64 = -18.0; // ≈ ln(1.5e-8)

/// The kind of a chain edge, used to route expected counts in the M-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Within-record column advance `c → c'`.
    Continue {
        /// Source column.
        from_c: usize,
        /// Target column (`> from_c`).
        to_c: usize,
    },
    /// Record boundary out of column `c` (target column is 0).
    NewRecord {
        /// Column at which the previous record ended.
        from_c: usize,
    },
    /// Low-probability escape hatch (state self-loop) that keeps the chain
    /// live when no legal move exists.
    Fallback,
}

/// One outgoing edge: target state, transition probability (both linear
/// and log scale), kind.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Target state index.
    pub to: usize,
    /// Linear transition probability.
    pub p: f64,
    /// Log transition probability (used by Viterbi).
    pub logp: f64,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// The transition structure for one parameter setting.
#[derive(Debug, Clone)]
pub struct Chain {
    /// State-space dimensions.
    pub dims: Dims,
    /// Initial log-distribution over states (record starts).
    pub init: Vec<f64>,
    /// Initial linear distribution (exp of `init`).
    pub init_linear: Vec<f64>,
    /// Outgoing edges per state.
    pub edges: Vec<Vec<Edge>>,
}

/// Builds the chain for the current parameters.
pub fn build_chain(dims: Dims, params: &Params, opts: &ProbOptions) -> Chain {
    let nk = dims.num_records;
    let k = dims.num_columns;
    let mut init = vec![f64::NEG_INFINITY; dims.num_states()];
    // The first extract starts a record: state (r, 0), geometric over
    // skipped leading records.
    let mut w = 1.0;
    let mut total = 0.0;
    for _ in 0..nk {
        total += w;
        w *= opts.skip_penalty;
    }
    let mut w = 1.0;
    for r in 0..nk {
        init[dims.state(r, 0)] = (w / total).ln();
        w *= opts.skip_penalty;
    }

    let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(dims.num_states());
    for s in 0..dims.num_states() {
        let (r, c) = dims.unpack(s);
        let hz = params.hazard_for(c, opts.period_model);
        let mut out = Vec::new();
        // Continue within the record.
        for cp in c + 1..k {
            let p = (1.0 - hz) * params.trans[c][cp];
            if p > 0.0 {
                out.push(Edge {
                    to: dims.state(r, cp),
                    p,
                    logp: p.ln(),
                    kind: EdgeKind::Continue {
                        from_c: c,
                        to_c: cp,
                    },
                });
            }
        }
        // Start a new record.
        if r + 1 < nk {
            let mut g = 1.0;
            let mut total = 0.0;
            for _ in r + 1..nk {
                total += g;
                g *= opts.skip_penalty;
            }
            let mut g = 1.0;
            for rp in r + 1..nk {
                let p = hz * g / total;
                g *= opts.skip_penalty;
                if p > 0.0 {
                    out.push(Edge {
                        to: dims.state(rp, 0),
                        p,
                        logp: p.ln(),
                        kind: EdgeKind::NewRecord { from_c: c },
                    });
                }
            }
        }
        // Escape hatch.
        out.push(Edge {
            to: s,
            p: LOG_FALLBACK.exp(),
            logp: LOG_FALLBACK,
            kind: EdgeKind::Fallback,
        });
        edges.push(out);
    }

    let init_linear = init.iter().map(|&l| l.exp()).collect();
    Chain {
        dims,
        init,
        init_linear,
        edges,
    }
}

impl Params {
    /// The record-end probability at column `c`: the π-derived duration
    /// hazard under the period model, or the independently learned
    /// per-column end probability without it.
    pub fn hazard_for(&self, c: usize, period_model: bool) -> f64 {
        if period_model {
            self.hazard(c)
        } else {
            self.end_prob[c]
        }
    }
}

/// Expected sufficient statistics from one E-step.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Expected extracts per column.
    pub col: Vec<f64>,
    /// Expected feature activations per column: `[c][t]`.
    pub types: Vec<Vec<f64>>,
    /// Expected within-record transitions `[c][c']`.
    pub trans: Vec<Vec<f64>>,
    /// Expected record ends at column `c` (boundary edges + final state).
    pub end: Vec<f64>,
    /// Expected continues out of column `c`.
    pub cont: Vec<f64>,
}

impl Counts {
    fn zeros(k: usize) -> Counts {
        Counts {
            col: vec![0.0; k],
            types: vec![vec![0.0; 8]; k],
            trans: vec![vec![0.0; k]; k],
            end: vec![0.0; k],
            cont: vec![0.0; k],
        }
    }

    /// Re-zeros (and, on a column-count change, re-shapes) the tables in
    /// place, reusing their allocations across EM iterations.
    fn reset(&mut self, k: usize) {
        if self.col.len() != k {
            *self = Counts::zeros(k);
            return;
        }
        self.col.fill(0.0);
        self.end.fill(0.0);
        self.cont.fill(0.0);
        for row in &mut self.types {
            row.fill(0.0);
        }
        for row in &mut self.trans {
            row.fill(0.0);
        }
    }
}

/// Reusable flat arenas for the scaled forward–backward pass.
///
/// Every table is a contiguous row-major `Vec<f64>` with stride
/// `num_states` (`table[i * ns + s]`), sized once per instance and reused
/// across EM iterations — after the first iteration no table grows (see
/// the arena regression test in the `tableseg-oracle` crate's
/// `tests/scaled_fb_props.rs`).
#[derive(Debug, Clone, Default)]
pub struct FbWorkspace {
    /// Linear emissions, each row scaled so its maximum is 1.
    pub emits: Vec<f64>,
    /// `ln` of each row's scale factor (the pre-scaling row maximum).
    pub emit_scale: Vec<f64>,
    /// Scaled forward variables α̂.
    pub alpha: Vec<f64>,
    /// Scaled backward variables β̂.
    pub beta: Vec<f64>,
    /// State posteriors γ (linear, each row sums to 1).
    pub gamma: Vec<f64>,
    /// Per-step normalizers `c_i` (the forward row sums before scaling).
    pub scale: Vec<f64>,
    /// Expected counts for the M-step.
    pub counts: Counts,
    /// Scratch: `b_{i+1}(s) · β̂_{i+1}(s) / c_{i+1}` during the backward
    /// sweep.
    tmp: Vec<f64>,
    /// Memo: per-[`TypeSet`](tableseg_html::TypeSet) bit pattern, the `k`
    /// per-column emission probabilities (`memo_col[key * k + c]`). Many
    /// extracts share a type vector, so `params.emission` runs once per
    /// distinct pattern per iteration instead of once per extract.
    memo_col: Vec<f64>,
    /// Memo occupancy: `memo_seen[key]` is `true` once `memo_col`'s row for
    /// `key` holds the current iteration's parameters.
    memo_seen: Vec<bool>,
    /// Scratch: one extract's scaled emission blocks, `k` cells for a
    /// record in `D_i` followed by `k` for a record outside it.
    emit_blocks: Vec<f64>,
    /// Scratch: `rec_on[r]` is `true` when record `r` is in `D_i`.
    rec_on: Vec<bool>,
    /// Scratch for the structured pass: per-column hazard `hz(c)`.
    hz: Vec<f64>,
    /// Scratch: continue weights `(1 − hz(c)) · trans[c][c']`, row-major
    /// `k × k`.
    cont: Vec<f64>,
    /// Scratch: `cont` transposed (`cont_t[c' · k + c]`), so the forward
    /// step reads each target column's weights contiguously.
    cont_t: Vec<f64>,
    /// Scratch: expected within-record transitions, row-major `k × k`,
    /// copied into [`Counts::trans`] once per pass.
    xi_trans: Vec<f64>,
    /// Scratch: expected continues out of each column.
    xi_cont: Vec<f64>,
    /// Scratch: expected record-boundary ends at each column.
    xi_end: Vec<f64>,
    /// Scratch: `1 / Σ_{j<nk−r−1} q^j` per source record (0 for the last
    /// record, which has no record-boundary edges).
    skip_inv: Vec<f64>,
    /// Scratch: the geometric record-boundary recurrence (`S` forward,
    /// `T` backward), one slot per record.
    rec_flow: Vec<f64>,
    /// Scratch: per-record boundary mass `m(r)` feeding the recurrence.
    rec_mass: Vec<f64>,
    /// Scratch: per-column posterior sums for one extract.
    col_gamma: Vec<f64>,
}

/// Number of distinct [`TypeSet`](tableseg_html::TypeSet) bit patterns
/// (8 type bits).
const MEMO_KEYS: usize = 256;

impl FbWorkspace {
    /// An empty workspace; tables are sized on first use.
    pub fn new() -> FbWorkspace {
        FbWorkspace::default()
    }

    /// Sizes every table for `n` extracts, `ns` states and `k` columns,
    /// reusing existing capacity.
    pub fn prepare(&mut self, n: usize, ns: usize, k: usize) {
        let cells = n * ns;
        self.emits.clear();
        self.emits.resize(cells, 0.0);
        self.alpha.clear();
        self.alpha.resize(cells, 0.0);
        self.beta.clear();
        self.beta.resize(cells, 0.0);
        self.gamma.clear();
        self.gamma.resize(cells, 0.0);
        self.emit_scale.clear();
        self.emit_scale.resize(n, 0.0);
        self.scale.clear();
        self.scale.resize(n, 1.0);
        self.tmp.clear();
        self.tmp.resize(ns, 0.0);
        self.memo_col.clear();
        self.memo_col.resize(MEMO_KEYS * k, 0.0);
        self.memo_seen.clear();
        self.memo_seen.resize(MEMO_KEYS, false);
        self.counts.reset(k);
    }

    /// Total reserved capacity of the per-extract tables, in `f64` cells —
    /// the regression-test observable for "the arena stops growing".
    pub fn table_capacity(&self) -> usize {
        self.emits.capacity()
            + self.alpha.capacity()
            + self.beta.capacity()
            + self.gamma.capacity()
            + self.emit_scale.capacity()
            + self.scale.capacity()
    }
}

/// Fills the workspace's emission arena with *linear* emissions
/// `P(T_i | c) · P(D_i | r)`, each row scaled by its maximum (recorded as
/// `emit_scale[i] = ln max`) so the scaled pass works near 1.0.
///
/// The row is built from two blocks per extract. A row takes only
/// two distinct `k`-blocks: `P(T_i | c) / |D_i|` for records in `D_i` and
/// `P(T_i | c) · ε` for the rest. Each block is built and divided by the
/// row maximum once, then copied per record. The per-column products
/// are memoized by [`TypeSet`](tableseg_html::TypeSet) bit pattern, so
/// extracts sharing a type vector (the common case: sites reuse a handful
/// of token shapes) pay for `params.emission` once per iteration.
/// Bit-identical to filling every cell separately: each cell is the same
/// product divided by the same maximum.
pub fn emissions_into_memoized(
    evidence: &[Evidence],
    params: &Params,
    dims: Dims,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
) {
    let ns = dims.num_states();
    let k = dims.num_columns;
    ws.prepare(evidence.len(), ns, k);
    let FbWorkspace {
        emits,
        emit_scale,
        memo_col,
        memo_seen,
        emit_blocks,
        rec_on,
        ..
    } = ws;
    emit_blocks.clear();
    emit_blocks.resize(2 * k, 0.0);
    rec_on.clear();
    rec_on.resize(dims.num_records, false);
    for ((ev, row), scale) in evidence
        .iter()
        .zip(emits.chunks_exact_mut(ns))
        .zip(emit_scale.iter_mut())
    {
        let key = ev.types.bits() as usize;
        let per_col = &mut memo_col[key * k..(key + 1) * k];
        if !memo_seen[key] {
            let feats = ev.features();
            for (c, slot) in per_col.iter_mut().enumerate() {
                *slot = params.emission(c, &feats);
            }
            memo_seen[key] = true;
        }
        // `D_i` is sorted: one merge walk marks its records.
        let mut pages = ev.pages.iter().map(|&p| p as usize).peekable();
        let (mut any_on, mut any_off) = (false, false);
        for (r, on) in rec_on.iter_mut().enumerate() {
            while pages.next_if(|&p| p < r).is_some() {}
            *on = pages.peek() == Some(&r);
            any_on |= *on;
            any_off |= !*on;
        }
        let inv_pages = 1.0 / ev.pages.len().max(1) as f64;
        let (on_blk, off_blk) = emit_blocks.split_at_mut(k);
        let mut max = 0.0f64;
        for ((on, off), &pc) in on_blk.iter_mut().zip(off_blk.iter_mut()).zip(&*per_col) {
            *on = pc * inv_pages;
            *off = pc * opts.epsilon;
            if any_on && *on > max {
                max = *on;
            }
            if any_off && *off > max {
                max = *off;
            }
        }
        if max > 0.0 {
            for v in emit_blocks.iter_mut() {
                *v /= max;
            }
            *scale = max.ln();
        } else {
            *scale = 0.0;
        }
        let (on_blk, off_blk) = emit_blocks.split_at(k);
        for (blk, &on) in row.chunks_exact_mut(k).zip(rec_on.iter()) {
            blk.copy_from_slice(if on { on_blk } else { off_blk });
        }
    }
}

/// The scaled forward–backward pass computed from the transition
/// *structure* instead of materialized edges, as a per-record block
/// kernel.
///
/// The chain's record-boundary edges are a geometric fan-out: state
/// `(r, c)` reaches every `(r', 0)` with `r' > r` at probability
/// `hz(c) · q^{r'−r−1} / Σ_j q^j`. Materialized, that is `O(k · nk²)`
/// edges — 3/4 of the whole chain on real pages — but the mass entering
/// `(r', 0)` obeys a first-order recurrence in `r'`:
///
/// ```text
/// m(r)  = Σ_c α(r, c) · hz(c) / skip_total(r)
/// S(0)  = 0,   S(r') = q · S(r'−1) + m(r'−1)
/// ```
///
/// so the forward step costs `O(ns + nk)` for all boundary edges
/// together, plus the `O(nk · k²)` within-record continue edges and the
/// `O(ns)` fallback self-loops. The backward sweep uses the mirrored
/// suffix recurrence `T(r) = tmp(r+1, 0) + q · T(r+1)`, which also
/// collapses the per-state boundary ξ sum (all targets share `from_c`,
/// so only the total ever reaches the M-step counts). Node counts
/// accumulate per-extract column sums first and fan out to the type
/// counts once per column.
///
/// Every row is walked as `nk` contiguous `k`-blocks, one per record:
///
/// * forward: cell `(r, c')` starts at `α̂(r, c') · fb` and adds
///   `α̂(r, c) · cont[c][c']` for `c` ascending, read from a transposed
///   copy of `cont`; a record block of α̂ that is exactly zero (common
///   once the detail-page evidence rules a record out) yields a zero
///   block and no boundary mass without being walked;
/// * backward: β̂ stays dense; ξ accumulates into flat `k × k` / `k`
///   scratch with the per-cell products `(α̂ · cont) · tmp` and
///   `(α̂ · hz) · boundary`, fused with the β̂ dot product, and lands in
///   [`Counts`] once per pass.
///
/// Skipped terms are exact zeros added to non-negative sums, and every
/// kept sum adds the same products in the same order as a per-state walk
/// of the chain would, so the bits of every result are fixed by that
/// order; `tests/golden/em_bits.txt` pins them. Against the per-edge
/// scaled pass over the chain built from the same `(dims, params, opts)`
/// it is algebraically identical and agrees to rounding (the geometric
/// boundary sums reassociate); the differential tests in the
/// `tableseg-oracle` crate pin that agreement. Expects the emission arena
/// ([`emissions_into_memoized`]) to be filled first.
pub fn forward_backward_struct(
    dims: Dims,
    params: &Params,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
    evidence: &[Evidence],
) -> f64 {
    let n = evidence.len();
    let ns = dims.num_states();
    let k = dims.num_columns;
    let nk = dims.num_records;
    let q = opts.skip_penalty;
    let fb = LOG_FALLBACK.exp();
    debug_assert_eq!(ws.emits.len(), n * ns, "emissions must be filled first");
    ws.counts.reset(k);
    if n == 0 {
        return 0.0;
    }
    let FbWorkspace {
        emits,
        emit_scale,
        alpha,
        beta,
        gamma,
        scale,
        counts,
        tmp,
        hz,
        cont,
        cont_t,
        xi_trans,
        xi_cont,
        xi_end,
        skip_inv,
        rec_flow,
        rec_mass,
        col_gamma,
        ..
    } = ws;

    // Per-iteration structure tables: hazards, continue weights (and
    // their transpose), inverse skip normalizers.
    hz.clear();
    hz.extend((0..k).map(|c| params.hazard_for(c, opts.period_model)));
    cont.clear();
    cont.resize(k * k, 0.0);
    cont_t.clear();
    cont_t.resize(k * k, 0.0);
    for c in 0..k {
        for cp in c + 1..k {
            let w = (1.0 - hz[c]) * params.trans[c][cp];
            cont[c * k + cp] = w;
            cont_t[cp * k + c] = w;
        }
    }
    skip_inv.clear();
    skip_inv.resize(nk, 0.0);
    // skip_total(r) = Σ_{j=0}^{nk−r−2} q^j by suffix recurrence.
    let mut total = 0.0f64;
    for r in (0..nk.saturating_sub(1)).rev() {
        total = 1.0 + q * total;
        skip_inv[r] = 1.0 / total;
    }
    rec_flow.clear();
    rec_flow.resize(nk, 0.0);
    rec_mass.clear();
    rec_mass.resize(nk, 0.0);
    col_gamma.clear();
    col_gamma.resize(k, 0.0);
    xi_trans.clear();
    xi_trans.resize(k * k, 0.0);
    xi_cont.clear();
    xi_cont.resize(k, 0.0);
    xi_end.clear();
    xi_end.resize(k, 0.0);

    // Forward. The initial distribution is the geometric over skipped
    // leading records, mass only at the `(r, 0)` states.
    let mut init_total = 0.0;
    let mut w = 1.0;
    for _ in 0..nk {
        init_total += w;
        w *= q;
    }
    alpha[..ns].fill(0.0);
    let mut w = 1.0;
    for r in 0..nk {
        alpha[r * k] = w / init_total * emits[r * k];
        w *= q;
    }
    normalize_step(&mut alpha[..ns], &mut scale[0]);
    for i in 1..n {
        let (prev_rows, cur_rows) = alpha.split_at_mut(i * ns);
        let prev = &prev_rows[(i - 1) * ns..];
        let cur = &mut cur_rows[..ns];
        for (((a_blk, cur_blk), mass), &inv) in prev
            .chunks_exact(k)
            .zip(cur.chunks_exact_mut(k))
            .zip(rec_mass.iter_mut())
            .zip(skip_inv.iter())
        {
            if a_blk.iter().all(|&a| a == 0.0) {
                cur_blk.fill(0.0);
                *mass = 0.0;
                continue;
            }
            let mut boundary = 0.0;
            for (&a, &h) in a_blk.iter().zip(hz.iter()) {
                boundary += a * h;
            }
            *mass = boundary * inv;
            // Fallback self-loop first, then continues from c < c'.
            let cols = cur_blk.iter_mut().zip(cont_t.chunks_exact(k));
            for (cp, (slot, w_col)) in cols.enumerate() {
                let mut v = a_blk[cp] * fb;
                for (&a, &w) in a_blk[..cp].iter().zip(w_col) {
                    v += a * w;
                }
                *slot = v;
            }
        }
        let mut s = 0.0;
        for (cur_blk, &m) in cur.chunks_exact_mut(k).skip(1).zip(rec_mass.iter()) {
            s = q * s + m;
            cur_blk[0] += s;
        }
        for (slot, &em) in cur.iter_mut().zip(&emits[i * ns..(i + 1) * ns]) {
            *slot *= em;
        }
        normalize_step(cur, &mut scale[i]);
    }
    let log_likelihood: f64 =
        scale.iter().map(|c| c.ln()).sum::<f64>() + emit_scale.iter().sum::<f64>();

    // Backward sweep with edge-posterior accumulation: at step i,
    // tmp[t] = b_{i+1}(t) · β̂_{i+1}(t) / c_{i+1}, giving both
    // β̂_i(s) = Σ_e p_e · tmp[e.to] and ξ_i(s, e.to) = α̂_i(s) · p_e · tmp[e.to];
    // boundary edges go through the suffix flow.
    beta[(n - 1) * ns..].fill(1.0);
    for i in (0..n - 1).rev() {
        let inv_c = 1.0 / scale[i + 1];
        let (beta_rows, next_rows) = beta.split_at_mut((i + 1) * ns);
        let next = &next_rows[..ns];
        for ((t, &em), &b) in tmp.iter_mut().zip(&emits[(i + 1) * ns..]).zip(next) {
            *t = em * b * inv_c;
        }
        // T(r) = Σ_{r' > r} q^{r'−r−1} · tmp(r', 0).
        let mut t_flow = 0.0;
        for (flow, t_blk) in rec_flow.iter_mut().zip(tmp.chunks_exact(k)).rev() {
            *flow = t_flow;
            t_flow = t_blk[0] + q * t_flow;
        }
        let blocks = tmp
            .chunks_exact(k)
            .zip(beta_rows[i * ns..].chunks_exact_mut(k))
            .zip(alpha[i * ns..(i + 1) * ns].chunks_exact(k))
            .zip(rec_flow.iter().zip(skip_inv.iter()));
        for (((t_blk, b_blk), a_blk), (&flow, &inv)) in blocks {
            let boundary = inv * flow;
            for c in 0..k {
                let w_row = &cont[c * k + c + 1..(c + 1) * k];
                let t_row = &t_blk[c + 1..];
                let a = a_blk[c];
                let mut b = 0.0;
                if a == 0.0 {
                    for (&w, &t) in w_row.iter().zip(t_row) {
                        b += w * t;
                    }
                } else {
                    let mut cont_sum = xi_cont[c];
                    for ((x, &w), &t) in xi_trans[c * k + c + 1..(c + 1) * k]
                        .iter_mut()
                        .zip(w_row)
                        .zip(t_row)
                    {
                        b += w * t;
                        let xi = a * w * t;
                        *x += xi;
                        cont_sum += xi;
                    }
                    xi_cont[c] = cont_sum;
                    xi_end[c] += a * hz[c] * boundary;
                }
                b += hz[c] * boundary;
                b += fb * t_blk[c];
                b_blk[c] = b;
            }
        }
    }
    for (row, xi_row) in counts.trans.iter_mut().zip(xi_trans.chunks_exact(k)) {
        row.copy_from_slice(xi_row);
    }
    counts.cont.copy_from_slice(xi_cont);
    counts.end.copy_from_slice(xi_end);

    // Posteriors γ = α̂ · β̂ (each row already sums to 1 under this
    // scaling), then node counts via per-extract column sums: the type
    // fan-out runs once per column instead of once per state.
    let rows = gamma
        .chunks_exact_mut(ns)
        .zip(alpha.chunks_exact(ns))
        .zip(beta.chunks_exact(ns));
    for (((g_row, a_row), b_row), ev) in rows.zip(evidence) {
        for ((g, &a), &b) in g_row.iter_mut().zip(a_row).zip(b_row) {
            *g = a * b;
        }
        col_gamma.fill(0.0);
        for g_blk in g_row.chunks_exact(k) {
            for (sum, &g) in col_gamma.iter_mut().zip(g_blk) {
                *sum += g;
            }
        }
        let feats = ev.features();
        for ((&g, col), types) in col_gamma
            .iter()
            .zip(counts.col.iter_mut())
            .zip(counts.types.iter_mut())
        {
            if g > 0.0 {
                *col += g;
                for (slot, &on) in types.iter_mut().zip(&feats) {
                    if on {
                        *slot += g;
                    }
                }
            }
        }
    }
    // The last extract ends its record at its column.
    for g_blk in gamma[(n - 1) * ns..].chunks_exact(k) {
        for (end, &g) in counts.end.iter_mut().zip(g_blk) {
            *end += g;
        }
    }

    log_likelihood
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
    use crate::model::evidence;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

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

    /// What one production E-step leaves behind.
    struct EStep {
        log_likelihood: f64,
        gamma: Vec<f64>,
        counts: Counts,
    }

    fn e_step(ev: &[Evidence], dims: Dims, params: &Params, opts: &ProbOptions) -> EStep {
        let mut ws = FbWorkspace::new();
        emissions_into_memoized(ev, params, dims, opts, &mut ws);
        let log_likelihood = forward_backward_struct(dims, params, opts, &mut ws, ev);
        EStep {
            log_likelihood,
            gamma: ws.gamma,
            counts: ws.counts,
        }
    }

    #[test]
    fn chain_init_prefers_first_record() {
        let (_, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let s00 = dims.state(0, 0);
        let s10 = dims.state(1, 0);
        assert!(chain.init[s00] > chain.init[s10]);
        // Non-first-column states are unreachable initially.
        assert_eq!(chain.init[dims.state(0, 1)], f64::NEG_INFINITY);
    }

    #[test]
    fn edges_are_forward_only() {
        let (_, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        for (s, out) in chain.edges.iter().enumerate() {
            let (r, c) = dims.unpack(s);
            for e in out {
                let (rp, cp) = dims.unpack(e.to);
                match e.kind {
                    EdgeKind::Continue { .. } => {
                        assert_eq!(rp, r);
                        assert!(cp > c);
                    }
                    EdgeKind::NewRecord { .. } => {
                        assert!(rp > r);
                        assert_eq!(cp, 0);
                    }
                    EdgeKind::Fallback => {
                        assert_eq!(e.to, s);
                        assert_eq!(e.logp, LOG_FALLBACK);
                    }
                }
            }
        }
    }

    #[test]
    fn gamma_rows_sum_to_one() {
        let (ev, dims, params, opts) = small_setup();
        let fb = e_step(&ev, dims, &params, &opts);
        assert!(fb.log_likelihood.is_finite());
        for row in fb.gamma.chunks_exact(dims.num_states()) {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{s}");
        }
    }

    #[test]
    fn detail_evidence_dominates_record_posterior() {
        let (ev, dims, params, opts) = small_setup();
        let fb = e_step(&ev, dims, &params, &opts);
        // Extract 0 ("Alpha One") is on detail page 0 only.
        let mut p_r0 = 0.0;
        for c in 0..dims.num_columns {
            p_r0 += fb.gamma[dims.state(0, c)];
        }
        assert!(p_r0 > 0.99, "{p_r0}");
        // Extract 2 ("Beta Two") is on detail page 1 only.
        let mut p_r1 = 0.0;
        for c in 0..dims.num_columns {
            p_r1 += fb.gamma[2 * dims.num_states() + dims.state(1, c)];
        }
        assert!(p_r1 > 0.99, "{p_r1}");
    }

    #[test]
    fn counts_are_consistent() {
        let (ev, dims, params, opts) = small_setup();
        let fb = e_step(&ev, dims, &params, &opts);
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
        let fb = e_step(&[], dims, &params, &opts);
        assert_eq!(fb.log_likelihood, 0.0);
        assert!(fb.gamma.is_empty());
    }
}
