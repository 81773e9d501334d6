//! Exact solvers.
//!
//! Two complementary tools:
//!
//! * [`solve_bnb`] — a depth-first branch-and-bound over any
//!   [`Model`], with constraint-bound pruning and an optimistic objective
//!   bound. It proves hard encodings infeasible (which drives the
//!   relaxation ladder), gives the relaxed rung's stochastic search its
//!   objective target, and cross-checks WSAT in tests. Worst-case
//!   exponential, so it takes a node budget; a search that runs out of
//!   budget says so ([`BnbOutcome::Incumbent`] / [`BnbOutcome::Unknown`])
//!   rather than passing its best-so-far off as proven. The objective
//!   bound is a clique cover: each variable belongs to at most one
//!   at-most-one row (`Σ x ≤ 1` or `Σ x = 1` over unit coefficients —
//!   the encoder's uniqueness rows, which come first), and a clique with
//!   no true member yet can still add only its best coefficient, not the
//!   sum of them. On the relaxed segmentation encodings that is the
//!   number of still-open extracts instead of the number of open
//!   variables, which is what lets most components finish well inside
//!   the relaxed rung's budget.
//!
//! * [`solve_ordered`] — a polynomial dynamic program specialized to the
//!   segmentation structure. It relies on the paper's horizontal-layout
//!   observation (Section 3.2: "the order in which records appear in the
//!   text stream of the page is the same as the order in which they appear
//!   in the table"), i.e. record labels are non-decreasing along the
//!   stream. It maximizes the number of assigned extracts subject to
//!   occurrence (`R_i ∈ D_i`), uniqueness and consecutiveness; a full
//!   assignment exists iff the maximum equals the number of extracts.

use crate::model::{Constraint, Model, Relation};

/// Result of branch-and-bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BnbOutcome {
    /// The search finished: a feasible assignment of maximal objective —
    /// the first such leaf in depth-first order.
    Optimal {
        /// The assignment.
        assignment: Vec<bool>,
        /// Its objective value.
        objective: i64,
    },
    /// The node budget ran out after a feasible assignment was found:
    /// the best one so far, *not* proven optimal.
    Incumbent {
        /// The assignment.
        assignment: Vec<bool>,
        /// Its objective value.
        objective: i64,
    },
    /// The model was proven infeasible.
    Infeasible,
    /// The node budget was exhausted before any feasible assignment was
    /// found.
    Unknown,
}

impl BnbOutcome {
    /// `true` when the search ran out of its node budget
    /// ([`BnbOutcome::Incumbent`] or [`BnbOutcome::Unknown`]).
    pub fn exhausted(&self) -> bool {
        matches!(self, BnbOutcome::Incumbent { .. } | BnbOutcome::Unknown)
    }
}

/// Sentinel in `clique_of`: the variable is in no at-most-one row.
const NO_CLIQUE: u32 = u32::MAX;

/// Per-constraint search state: the range `[lo, hi]` the left-hand side
/// can still reach under the current partial assignment, and the range
/// `[lb, ub]` its relation admits.
#[derive(Debug, Clone, Copy)]
struct Row {
    lo: i32,
    hi: i32,
    lb: i32,
    ub: i32,
}

impl Row {
    /// No completion can satisfy the constraint any more.
    #[inline]
    fn bad(self) -> bool {
        self.lo > self.ub || self.hi < self.lb
    }
}

/// One occurrence of a variable in a constraint (CSR payload).
#[derive(Debug, Clone, Copy)]
struct Occ {
    row: u32,
    coef: i32,
}

/// Incremental state of one at-most-one row of the clique cover.
#[derive(Debug, Clone, Copy, Default)]
struct Clique {
    /// Members assigned true.
    trues: u32,
    /// Members not yet assigned.
    open: u32,
    /// Largest positive objective coefficient among the members.
    best: i64,
}

impl Clique {
    /// What the clique's unassigned members can still add to the
    /// objective: one member at most, and none once a member is true.
    #[inline]
    fn mass(self) -> i64 {
        if self.trues == 0 && self.open > 0 {
            self.best
        } else {
            0
        }
    }
}

/// `true` for `Σ x ≤ 1` / `Σ x = 1` over unit coefficients: at most one
/// of its variables can be true in any feasible assignment.
fn at_most_one(c: &Constraint) -> bool {
    matches!(c.rel, Relation::Le | Relation::Eq)
        && c.rhs == 1
        && c.terms.iter().all(|t| t.coef == 1)
}

struct Search<'a> {
    model: &'a Model,
    rows: Vec<Row>,
    /// CSR occurrence lists: variable `v`'s occurrences are
    /// `occ[occ_start[v]..occ_start[v + 1]]`.
    occ_start: Vec<usize>,
    occ: Vec<Occ>,
    obj_coef: Vec<i64>,
    /// `pos_suffix[d]` = Σ over vars `v ≥ d` of `max(obj_coef[v], 0)`.
    pos_suffix: Vec<i64>,
    /// `free_suffix[d]`: the same sum over vars `v ≥ d` in no clique.
    free_suffix: Vec<i64>,
    clique_of: Vec<u32>,
    cliques: Vec<Clique>,
    /// Σ [`Clique::mass`] over all cliques.
    clique_mass: i64,
    /// Objective contribution of the variables assigned so far.
    fixed_obj: i64,
    assign: Vec<bool>,
    best: Option<(Vec<bool>, i64)>,
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl Search<'_> {
    fn new(model: &Model, budget: u64) -> Search<'_> {
        let n = model.num_vars;
        let rows = model
            .constraints
            .iter()
            .map(|c| {
                let (mut lo, mut hi) = (0, 0);
                for t in &c.terms {
                    if t.coef > 0 {
                        hi += t.coef;
                    } else {
                        lo += t.coef;
                    }
                }
                let (lb, ub) = match c.rel {
                    Relation::Le => (i32::MIN, c.rhs),
                    Relation::Ge => (c.rhs, i32::MAX),
                    Relation::Eq => (c.rhs, c.rhs),
                };
                Row { lo, hi, lb, ub }
            })
            .collect();
        let mut occ_start = vec![0usize; n + 1];
        for t in model.constraints.iter().flat_map(|c| &c.terms) {
            occ_start[t.var + 1] += 1;
        }
        for v in 0..n {
            occ_start[v + 1] += occ_start[v];
        }
        let mut fill = occ_start.clone();
        let mut occ = vec![Occ { row: 0, coef: 0 }; occ_start[n]];
        for (ci, c) in model.constraints.iter().enumerate() {
            for t in &c.terms {
                occ[fill[t.var]] = Occ {
                    row: ci as u32,
                    coef: t.coef,
                };
                fill[t.var] += 1;
            }
        }
        let mut obj_coef = vec![0i64; n];
        for t in &model.objective {
            obj_coef[t.var] += i64::from(t.coef);
        }
        // Clique cover: each variable joins the first at-most-one row
        // that contains it.
        let mut clique_of = vec![NO_CLIQUE; n];
        let mut cliques: Vec<Clique> = Vec::new();
        for c in model.constraints.iter().filter(|c| at_most_one(c)) {
            let id = cliques.len() as u32;
            let mut clique = Clique::default();
            for t in &c.terms {
                if clique_of[t.var] == NO_CLIQUE {
                    clique_of[t.var] = id;
                    clique.open += 1;
                    clique.best = clique.best.max(obj_coef[t.var]);
                }
            }
            if clique.open > 0 {
                cliques.push(clique);
            }
        }
        let clique_mass = cliques.iter().map(|c| c.mass()).sum();
        let mut pos_suffix = vec![0i64; n + 1];
        let mut free_suffix = vec![0i64; n + 1];
        for v in (0..n).rev() {
            let gain = obj_coef[v].max(0);
            pos_suffix[v] = pos_suffix[v + 1] + gain;
            free_suffix[v] = free_suffix[v + 1];
            if clique_of[v] == NO_CLIQUE {
                free_suffix[v] += gain;
            }
        }
        Search {
            model,
            rows,
            occ_start,
            occ,
            obj_coef,
            pos_suffix,
            free_suffix,
            clique_of,
            cliques,
            clique_mass,
            fixed_obj: 0,
            assign: vec![false; n],
            best: None,
            nodes: 0,
            budget,
            exhausted: false,
        }
    }

    /// Full bound check; used once at the root. Deeper nodes only check
    /// the constraints touched by the variable just assigned.
    fn pruned_full(&self) -> bool {
        self.rows.iter().any(|r| r.bad())
    }

    /// Incremental bound check: only the constraints of `var`. A separate
    /// pass after all of `var`'s updates, since `var` may occur twice in
    /// one constraint.
    #[inline]
    fn pruned_after(&self, var: usize) -> bool {
        self.occ[self.occ_start[var]..self.occ_start[var + 1]]
            .iter()
            .any(|o| self.rows[o.row as usize].bad())
    }

    /// Upper bound on the objective of any completion: the fixed part
    /// plus the smaller of two bounds on the unassigned rest — its whole
    /// positive mass, and the clique cover's.
    #[inline]
    fn optimistic_objective(&self, depth: usize) -> i64 {
        self.fixed_obj + self.pos_suffix[depth].min(self.clique_mass + self.free_suffix[depth])
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

    /// Assigns `var := value` (`sign = 1`) or undoes it (`sign = -1`).
    #[inline]
    fn apply(&mut self, var: usize, value: bool, sign: i32) {
        for o in &self.occ[self.occ_start[var]..self.occ_start[var + 1]] {
            let row = &mut self.rows[o.row as usize];
            let delta = sign * o.coef;
            // True moves the low end up by a positive coefficient and the
            // high end down by a negative one; false removes the term's
            // slack from the other end.
            match (value, o.coef > 0) {
                (true, true) => row.lo += delta,
                (true, false) => row.hi += delta,
                (false, true) => row.hi -= delta,
                (false, false) => row.lo -= delta,
            }
        }
        if value {
            self.fixed_obj += i64::from(sign) * self.obj_coef[var];
        }
        let c = self.clique_of[var];
        if c != NO_CLIQUE {
            let clique = &mut self.cliques[c as usize];
            let before = clique.mass();
            if sign > 0 {
                clique.open -= 1;
                clique.trues += u32::from(value);
            } else {
                clique.open += 1;
                clique.trues -= u32::from(value);
            }
            self.clique_mass += clique.mass() - before;
        }
    }

    fn set(&mut self, var: usize, value: bool) {
        self.assign[var] = value;
        self.apply(var, value, 1);
    }

    fn unset(&mut self, var: usize, value: bool) {
        self.apply(var, value, -1);
        self.assign[var] = false;
    }
}

/// Branch-and-bound over a pseudo-boolean model, exploring at most
/// `node_budget` nodes.
pub fn solve_bnb(model: &Model, node_budget: u64) -> BnbOutcome {
    let mut search = Search::new(model, node_budget);
    if !search.pruned_full() {
        search.recurse(0);
    }
    match (search.best, search.exhausted) {
        (Some((assignment, objective)), false) => BnbOutcome::Optimal {
            assignment,
            objective,
        },
        (Some((assignment, objective)), true) => BnbOutcome::Incumbent {
            assignment,
            objective,
        },
        (None, false) => BnbOutcome::Infeasible,
        (None, true) => BnbOutcome::Unknown,
    }
}

/// An ordered-DP solution: per-extract record assignment and the number of
/// assigned extracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedSolution {
    /// Record assignment for each extract (`None` = unassigned).
    pub assignments: Vec<Option<u32>>,
    /// Number of assigned extracts (maximal).
    pub assigned: usize,
}

impl OrderedSolution {
    /// `true` if every extract is assigned — i.e. the strict (hard) problem
    /// is satisfiable under the horizontal-layout ordering.
    pub fn is_total(&self) -> bool {
        self.assigned == self.assignments.len()
    }
}

/// Maximizes the number of extracts assigned to records, subject to:
/// `R_i ∈ candidates[i]` (occurrence), each record's extracts contiguous
/// (consecutiveness), each extract in at most one record (uniqueness by
/// construction), and record labels non-decreasing in stream order
/// (horizontal layout).
///
/// `candidates[i]` lists, in ascending order, the records extract `i` may
/// belong to (the observation sets `D_i`).
pub fn solve_ordered(candidates: &[&[u32]], num_records: usize) -> OrderedSolution {
    let n = candidates.len();
    let k = num_records;
    if n == 0 {
        return OrderedSolution {
            assignments: Vec::new(),
            assigned: 0,
        };
    }

    // DP over states (j, open): j ∈ 0..=k where 0 = "no record started yet"
    // and j >= 1 means record j-1 is the most recent; `open` means the most
    // recent record can still be extended (no gap since its last extract).
    const NEG: i32 = i32::MIN / 2;
    let states = (k + 1) * 2;
    let idx = |j: usize, open: bool| j * 2 + usize::from(open);

    let mut dp = vec![NEG; states];
    dp[idx(0, false)] = 0;
    // parent[i][state] = (prev_state, action): action = record assigned + 1,
    // or 0 for unassigned.
    let mut parent = vec![vec![(usize::MAX, 0u32); states]; n];

    for i in 0..n {
        let mut next = vec![NEG; states];
        for j in 0..=k {
            for open in [false, true] {
                let cur = dp[idx(j, open)];
                if cur == NEG {
                    continue;
                }
                // Option 1: leave extract i unassigned → record closes.
                let st = idx(j, false);
                if cur > next[st] {
                    next[st] = cur;
                    parent[i][st] = (idx(j, open), 0);
                }
                // Option 2: extend the open record with extract i.
                if open && j >= 1 && candidates[i].binary_search(&((j - 1) as u32)).is_ok() {
                    let st = idx(j, true);
                    if cur + 1 > next[st] {
                        next[st] = cur + 1;
                        parent[i][st] = (idx(j, open), j as u32);
                    }
                }
                // Option 3: start a new record r strictly after the most
                // recent one (r > j-1, i.e. state index jp = r+1 > j).
                for &r in candidates[i] {
                    let jp = r as usize + 1;
                    if jp <= j {
                        continue;
                    }
                    let st = idx(jp, true);
                    if cur + 1 > next[st] {
                        next[st] = cur + 1;
                        parent[i][st] = (idx(j, open), jp as u32);
                    }
                }
            }
        }
        dp = next;
    }

    // Best final state; prefer larger count, then lower record index for
    // determinism.
    let mut best_state = 0;
    let mut best = NEG;
    for (st, &score) in dp.iter().enumerate() {
        if score > best {
            best = score;
            best_state = st;
        }
    }

    // Backtrack.
    let mut assignments = vec![None; n];
    let mut st = best_state;
    for i in (0..n).rev() {
        let (prev, action) = parent[i][st];
        debug_assert_ne!(prev, usize::MAX, "state must have a parent");
        if action > 0 {
            assignments[i] = Some(action - 1);
        }
        st = prev;
    }

    OrderedSolution {
        assignments,
        assigned: best.max(0) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, Model, Relation};

    // ---- branch and bound ----

    #[test]
    fn bnb_finds_unique_solution() {
        let mut m = Model::new(3);
        m.add(Constraint::sum([0, 1], Relation::Eq, 1));
        m.add(Constraint::sum([1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([0, 2], Relation::Eq, 2));
        match solve_bnb(&m, 10_000) {
            BnbOutcome::Optimal { assignment, .. } => {
                assert_eq!(assignment, vec![true, false, true]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bnb_proves_infeasible() {
        let mut m = Model::new(2);
        m.add(Constraint::sum([0, 1], Relation::Ge, 3));
        assert_eq!(solve_bnb(&m, 10_000), BnbOutcome::Infeasible);
    }

    #[test]
    fn bnb_maximizes_objective() {
        let mut m = Model::new(4);
        m.add(Constraint::sum([0, 1], Relation::Le, 1));
        m.add(Constraint::sum([2, 3], Relation::Le, 1));
        m.maximize_sum([0, 1, 2, 3]);
        match solve_bnb(&m, 100_000) {
            BnbOutcome::Optimal { objective, .. } => assert_eq!(objective, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bnb_budget_exhaustion_reports_unknown() {
        // An odd cycle of exactly-one constraints is infeasible, but the
        // root bounds cannot see it — proving it needs search, which a
        // 2-node budget does not allow.
        let mut m = Model::new(3);
        m.add(Constraint::sum([0, 1], Relation::Eq, 1));
        m.add(Constraint::sum([1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([2, 0], Relation::Eq, 1));
        assert_eq!(solve_bnb(&m, 2), BnbOutcome::Unknown);
        // With enough budget it is proven infeasible.
        assert_eq!(solve_bnb(&m, 1_000), BnbOutcome::Infeasible);
    }

    /// `x0` shuts out both `x1` and `x2`, so the first leaf the search
    /// reaches (`x0` alone) is worse than the optimum (`x1`, `x2`).
    fn greedy_trap() -> Model {
        let mut m = Model::new(3);
        m.add(Constraint::sum([0, 1], Relation::Le, 1));
        m.add(Constraint::sum([0, 2], Relation::Le, 1));
        m.maximize_sum([0, 1, 2]);
        m
    }

    #[test]
    fn bnb_budget_exhaustion_with_a_solution_reports_incumbent() {
        // Root, x0, x1, then the leaf: the fourth node finds the first
        // solution, and the budget stops the search before it can
        // improve on it — an incumbent, not an optimum.
        assert_eq!(
            solve_bnb(&greedy_trap(), 4),
            BnbOutcome::Incumbent {
                assignment: vec![true, false, false],
                objective: 1,
            }
        );
        assert!(solve_bnb(&greedy_trap(), 4).exhausted());
    }

    #[test]
    fn bnb_finished_search_reports_optimal() {
        let outcome = solve_bnb(&greedy_trap(), 1_000);
        assert_eq!(
            outcome,
            BnbOutcome::Optimal {
                assignment: vec![false, true, true],
                objective: 2,
            }
        );
        assert!(!outcome.exhausted());
    }

    #[test]
    fn bnb_optimum_reached_before_exhaustion_is_still_incumbent() {
        // Unconstrained: the first leaf (all true) is optimal, but one
        // more node is needed to finish the search, and the budget
        // forbids it. Unproven stays unproven.
        let mut m = Model::new(3);
        m.maximize_sum([0, 1, 2]);
        let incumbent = BnbOutcome::Incumbent {
            assignment: vec![true; 3],
            objective: 3,
        };
        assert_eq!(solve_bnb(&m, 4), incumbent);
        assert!(matches!(
            solve_bnb(&m, 1_000),
            BnbOutcome::Optimal { objective: 3, .. }
        ));
    }

    #[test]
    fn clique_cover_bound_closes_uniqueness_shaped_search() {
        // Ten at-most-one rows of four variables, maximizing the number
        // of true variables: the first leaf is already optimal (10), but
        // a positive-mass bound still sees up to 40 and keeps searching.
        // The clique cover sees one per open row and proves the optimum
        // at once.
        let mut m = Model::new(40);
        for row in 0..10 {
            m.add(Constraint::sum(row * 4..row * 4 + 4, Relation::Le, 1));
        }
        m.maximize_sum(0..40);
        match solve_bnb(&m, 200) {
            BnbOutcome::Optimal {
                assignment,
                objective,
            } => {
                assert_eq!(objective, 10);
                assert!((0..40).all(|v| assignment[v] == (v % 4 == 0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repeated_variable_in_one_constraint_is_counted_twice() {
        // x0 + x0 + x1 ≤ 1 forbids x0 outright; the bound kernel must
        // apply both occurrences before checking the row.
        let mut m = Model::new(2);
        m.add(Constraint::sum([0, 0, 1], Relation::Le, 1));
        m.maximize_sum([0, 1]);
        assert_eq!(
            solve_bnb(&m, 1_000),
            BnbOutcome::Optimal {
                assignment: vec![false, true],
                objective: 1,
            }
        );
    }

    // ---- ordered DP ----

    fn cands<'a>(spec: &[&'a [u32]]) -> Vec<&'a [u32]> {
        spec.to_vec()
    }

    #[test]
    fn ordered_paper_example() {
        // The Superpages example, Table 1: D_i sets for E1..E11.
        let d: Vec<&[u32]> = cands(&[
            &[0, 1], // E1 John Smith
            &[0],    // E2
            &[0],    // E3
            &[0, 1], // E4 phone
            &[0, 1], // E5 John Smith
            &[1],    // E6
            &[1],    // E7
            &[0, 1], // E8 phone
            &[2],    // E9
            &[2],    // E10
            &[2],    // E11
        ]);
        let sol = solve_ordered(&d, 3);
        // The structural constraints alone admit a total assignment; the
        // exact split between r1 and r2 additionally needs the Section 4.2
        // position constraints (E1/E5 compete for one occurrence), which
        // the DP deliberately does not model — so assert validity, not the
        // specific tie-break.
        assert!(sol.is_total(), "{sol:?}");
        for (i, a) in sol.assignments.iter().enumerate() {
            let r = a.expect("total");
            assert!(d[i].contains(&r), "E{} assigned outside D_i", i + 1);
        }
        // Monotone record labels.
        let labels: Vec<u32> = sol.assignments.iter().map(|a| a.unwrap()).collect();
        assert!(labels.windows(2).all(|w| w[0] <= w[1]));
        // Record 3 is exactly E9..E11.
        assert_eq!(&labels[8..], &[2, 2, 2]);
    }

    #[test]
    fn ordered_detects_infeasibility() {
        // E2 can only be in r1 but E1 and E3 must both be r2: E1,E3 block
        // is non-contiguous around E2 → not totally assignable.
        let d: Vec<&[u32]> = cands(&[&[1], &[0], &[1]]);
        let sol = solve_ordered(&d, 2);
        assert!(!sol.is_total());
        assert_eq!(sol.assigned, 2);
    }

    #[test]
    fn ordered_respects_candidates() {
        let d: Vec<&[u32]> = cands(&[&[0], &[1], &[2]]);
        let sol = solve_ordered(&d, 3);
        assert!(sol.is_total());
        assert_eq!(sol.assignments, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn ordered_empty_input() {
        let sol = solve_ordered(&[], 3);
        assert_eq!(sol.assigned, 0);
        assert!(sol.assignments.is_empty());
    }

    #[test]
    fn ordered_extract_with_empty_candidates_stays_unassigned() {
        let empty: &[u32] = &[];
        let d: Vec<&[u32]> = cands(&[&[0], empty, &[1]]);
        let sol = solve_ordered(&d, 2);
        assert_eq!(sol.assigned, 2);
        assert_eq!(sol.assignments, vec![Some(0), None, Some(1)]);
    }

    #[test]
    fn ordered_monotonicity_enforced() {
        // Record labels may not decrease: E1 only r2, E2 only r1.
        let d: Vec<&[u32]> = cands(&[&[1], &[0]]);
        let sol = solve_ordered(&d, 2);
        assert_eq!(sol.assigned, 1, "{sol:?}");
    }

    #[test]
    fn ordered_contiguity_enforced() {
        // E1 r1, E2 unassignable, E3 r1 again: r1 would be split.
        let empty: &[u32] = &[];
        let d: Vec<&[u32]> = cands(&[&[0], empty, &[0]]);
        let sol = solve_ordered(&d, 1);
        assert_eq!(sol.assigned, 1);
    }

    #[test]
    fn ordered_allows_skipped_records() {
        // Record r2 has no extract on the list page.
        let d: Vec<&[u32]> = cands(&[&[0], &[2]]);
        let sol = solve_ordered(&d, 3);
        assert!(sol.is_total());
        assert_eq!(sol.assignments, vec![Some(0), Some(2)]);
    }
}
