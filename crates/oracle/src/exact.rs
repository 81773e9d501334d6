//! The branch-and-bound that the clique-cover bound replaced, kept
//! verbatim: per-constraint `lhs`/`min_rest`/`max_rest` vectors, nested
//! occurrence lists, and an objective bound that counts the positive
//! mass of every unassigned variable.
//!
//! It visits a superset of the production search's nodes in the same
//! depth-first order, so `tests/bnb_props.rs` can pin the production
//! guarantees against it: the same outcome wherever this search finishes
//! within its budget, and an incumbent at least as good where it does
//! not.

use tableseg_csp::exact::BnbOutcome;
use tableseg_csp::model::{Model, Relation};

/// Branch-and-bound over a pseudo-boolean model, exploring at most
/// `node_budget` nodes. Returns the outcome labelled the way this
/// generation labelled it — `Optimal` for any incumbent, proven or not,
/// never `Incumbent` — and whether the node budget ran out.
pub fn solve_bnb_reference(model: &Model, node_budget: u64) -> (BnbOutcome, bool) {
    let n = model.num_vars;
    // Per-constraint state: current lhs of assigned vars, and the min/max
    // contribution still possible from unassigned vars.
    let mut lhs = vec![0i32; model.constraints.len()];
    let mut min_rest = vec![0i32; model.constraints.len()];
    let mut max_rest = vec![0i32; model.constraints.len()];
    for (ci, c) in model.constraints.iter().enumerate() {
        for t in &c.terms {
            if t.coef > 0 {
                max_rest[ci] += t.coef;
            } else {
                min_rest[ci] += t.coef;
            }
        }
    }
    let mut obj_coef = vec![0i64; n];
    for t in &model.objective {
        obj_coef[t.var] += i64::from(t.coef);
    }
    // Occurrence lists.
    let mut occurs: Vec<Vec<(usize, i32)>> = vec![Vec::new(); n];
    for (ci, c) in model.constraints.iter().enumerate() {
        for t in &c.terms {
            occurs[t.var].push((ci, t.coef));
        }
    }

    struct Search<'a> {
        model: &'a Model,
        occurs: &'a [Vec<(usize, i32)>],
        obj_coef: &'a [i64],
        /// `pos_suffix[d]` = Σ over vars `v ≥ d` of `max(obj_coef[v], 0)`.
        pos_suffix: Vec<i64>,
        /// Objective contribution of the variables assigned so far.
        fixed_obj: i64,
        lhs: Vec<i32>,
        min_rest: Vec<i32>,
        max_rest: Vec<i32>,
        assign: Vec<bool>,
        best: Option<(Vec<bool>, i64)>,
        nodes: u64,
        budget: u64,
        exhausted: bool,
    }

    impl Search<'_> {
        /// Can constraint `ci` still be satisfied under the current bounds?
        #[inline]
        fn constraint_bad(&self, ci: usize) -> bool {
            let c = &self.model.constraints[ci];
            let lo = self.lhs[ci] + self.min_rest[ci];
            let hi = self.lhs[ci] + self.max_rest[ci];
            match c.rel {
                Relation::Le => lo > c.rhs,
                Relation::Ge => hi < c.rhs,
                Relation::Eq => lo > c.rhs || hi < c.rhs,
            }
        }

        /// Full bound check; used once at the root. Deeper nodes only check
        /// the constraints touched by the variable just assigned.
        fn pruned_full(&self) -> bool {
            (0..self.model.constraints.len()).any(|ci| self.constraint_bad(ci))
        }

        /// Incremental bound check: only the constraints of `var`.
        fn pruned_after(&self, var: usize) -> bool {
            self.occurs[var]
                .iter()
                .any(|&(ci, _)| self.constraint_bad(ci))
        }

        /// Upper bound on the objective: fixed part (maintained
        /// incrementally in `fixed_obj`) plus the positive mass of the
        /// unassigned suffix.
        fn optimistic_objective(&self, depth: usize) -> i64 {
            self.fixed_obj + self.pos_suffix[depth]
        }

        fn recurse(&mut self, depth: usize) {
            self.nodes += 1;
            if self.nodes > self.budget {
                self.exhausted = true;
                return;
            }
            if let Some((_, best_obj)) = &self.best {
                if self.optimistic_objective(depth) <= *best_obj {
                    return;
                }
            }
            if depth == self.assign.len() {
                debug_assert!(self.model.feasible(&self.assign));
                let obj = self.fixed_obj;
                let improves = self
                    .best
                    .as_ref()
                    .is_none_or(|(_, best_obj)| obj > *best_obj);
                if improves {
                    self.best = Some((self.assign.clone(), obj));
                }
                return;
            }
            // Branch: try value order that favors the objective.
            let first = self.obj_coef[depth] >= 0;
            for value in [first, !first] {
                self.set(depth, value);
                if !self.pruned_after(depth) {
                    self.recurse(depth + 1);
                }
                self.unset(depth, value);
                if self.exhausted {
                    return;
                }
            }
        }

        fn set(&mut self, var: usize, value: bool) {
            self.assign[var] = value;
            if value {
                self.fixed_obj += self.obj_coef[var];
            }
            for &(ci, coef) in &self.occurs[var] {
                if value {
                    self.lhs[ci] += coef;
                }
                if coef > 0 {
                    self.max_rest[ci] -= coef;
                } else {
                    self.min_rest[ci] -= coef;
                }
            }
        }

        fn unset(&mut self, var: usize, value: bool) {
            if value {
                self.fixed_obj -= self.obj_coef[var];
            }
            for &(ci, coef) in &self.occurs[var] {
                if value {
                    self.lhs[ci] -= coef;
                }
                if coef > 0 {
                    self.max_rest[ci] += coef;
                } else {
                    self.min_rest[ci] += coef;
                }
            }
            self.assign[var] = false;
        }
    }

    let mut pos_suffix = vec![0i64; n + 1];
    for v in (0..n).rev() {
        pos_suffix[v] = pos_suffix[v + 1] + obj_coef[v].max(0);
    }

    let mut search = Search {
        model,
        occurs: &occurs,
        obj_coef: &obj_coef,
        pos_suffix,
        fixed_obj: 0,
        lhs: std::mem::take(&mut lhs),
        min_rest: std::mem::take(&mut min_rest),
        max_rest: std::mem::take(&mut max_rest),
        assign: vec![false; n],
        best: None,
        nodes: 0,
        budget: node_budget,
        exhausted: false,
    };
    if !search.pruned_full() {
        search.recurse(0);
    }

    let outcome = match (search.best, search.exhausted) {
        (Some((assignment, objective)), _) => BnbOutcome::Optimal {
            assignment,
            objective,
        },
        (None, false) => BnbOutcome::Infeasible,
        (None, true) => BnbOutcome::Unknown,
    };
    (outcome, search.exhausted)
}
