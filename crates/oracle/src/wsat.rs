//! The pre-overhaul sequential solver, kept verbatim as the `solvebench`
//! baseline and as an independent implementation for differential tests.
//!
//! Differences from [`tableseg_csp::wsat::solve`]: per-candidate `violation_delta` re-scans
//! the occurrence lists (no cache), one RNG is threaded through the
//! restarts sequentially, the aspiration/stall bookkeeping is global
//! across tries, and there is no objective-target early exit and no
//! parallelism. `violation_weight` is honoured so the scoring rule stays
//! comparable; `threads` and `objective_target` are ignored.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tableseg_csp::model::{violation_of, Model, Term};
use tableseg_csp::wsat::{WsatConfig, WsatResult};

/// SplitMix64 finalizer: decorrelates per-try seeds derived from
/// consecutive try numbers (the production solver's seed derivation).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Immutable per-solve tables shared by every try.
struct Problem {
    /// Occurrence lists: constraints (and coefficients) touching each var.
    occurs: Vec<Vec<(usize, i32)>>,
    /// Objective coefficient of each variable.
    obj_coef: Vec<i64>,
}

impl Problem {
    fn new(model: &Model) -> Problem {
        let mut occurs: Vec<Vec<(usize, i32)>> = vec![Vec::new(); model.num_vars];
        for (ci, c) in model.constraints.iter().enumerate() {
            for t in &c.terms {
                occurs[t.var].push((ci, t.coef));
            }
        }
        let mut obj_coef = vec![0i64; model.num_vars];
        for &Term { var, coef } in &model.objective {
            obj_coef[var] += i64::from(coef);
        }
        Problem { occurs, obj_coef }
    }
}

struct RefState<'a> {
    model: &'a Model,
    assign: Vec<bool>,
    lhs: Vec<i32>,
    violated: Vec<usize>,
    violated_pos: Vec<usize>,
    occurs: &'a [Vec<(usize, i32)>],
    obj_coef: &'a [i64],
    last_flip: Vec<u64>,
    total_violation: i64,
    objective: i64,
}

impl<'a> RefState<'a> {
    fn new(model: &'a Model, problem: &'a Problem, assign: Vec<bool>) -> RefState<'a> {
        let mut state = RefState {
            model,
            lhs: vec![0; model.constraints.len()],
            violated: Vec::new(),
            violated_pos: vec![usize::MAX; model.constraints.len()],
            occurs: &problem.occurs,
            obj_coef: &problem.obj_coef,
            last_flip: vec![0; model.num_vars],
            total_violation: 0,
            objective: 0,
            assign,
        };
        for (ci, c) in model.constraints.iter().enumerate() {
            let lhs = c.lhs(&state.assign);
            state.lhs[ci] = lhs;
            let v = violation_of(c.rel, lhs, c.rhs);
            state.total_violation += i64::from(v);
            if v > 0 {
                state.violated_pos[ci] = state.violated.len();
                state.violated.push(ci);
            }
        }
        state.objective = model.objective_value(&state.assign);
        state
    }

    /// The uncached per-candidate scan the production solver replaced.
    fn violation_delta(&self, var: usize) -> i64 {
        let dir: i32 = if self.assign[var] { -1 } else { 1 };
        let mut delta = 0i64;
        for &(ci, coef) in &self.occurs[var] {
            let c = &self.model.constraints[ci];
            let old = violation_of(c.rel, self.lhs[ci], c.rhs);
            let new = violation_of(c.rel, self.lhs[ci] + dir * coef, c.rhs);
            delta += i64::from(new - old);
        }
        delta
    }

    fn objective_delta(&self, var: usize) -> i64 {
        if self.assign[var] {
            -self.obj_coef[var]
        } else {
            self.obj_coef[var]
        }
    }

    fn flip(&mut self, var: usize, flip_no: u64) {
        let dir: i32 = if self.assign[var] { -1 } else { 1 };
        self.objective += self.objective_delta(var);
        self.assign[var] = !self.assign[var];
        for &(ci, coef) in &self.occurs[var] {
            let c = &self.model.constraints[ci];
            let old_v = violation_of(c.rel, self.lhs[ci], c.rhs);
            self.lhs[ci] += dir * coef;
            let new_v = violation_of(c.rel, self.lhs[ci], c.rhs);
            self.total_violation += i64::from(new_v - old_v);
            if old_v == 0 && new_v > 0 {
                self.violated_pos[ci] = self.violated.len();
                self.violated.push(ci);
            } else if old_v > 0 && new_v == 0 {
                let pos = self.violated_pos[ci];
                let last = *self.violated.last().expect("non-empty");
                self.violated.swap_remove(pos);
                if pos < self.violated.len() {
                    self.violated_pos[last] = pos;
                }
                self.violated_pos[ci] = usize::MAX;
            }
        }
        self.last_flip[var] = flip_no;
    }
}

/// Sequential restarts, global best, uncached deltas — the pre-PR
/// `solve`. (The only change: the first-try RNG seed matches the new
/// per-try derivation so the two solvers explore comparable spaces.)
pub fn solve_reference(model: &Model, cfg: &WsatConfig) -> WsatResult {
    let problem = Problem::new(model);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ mix64(0));
    let mut best_assign = vec![false; model.num_vars];
    let mut best_violation = Model::total_violation(model, &best_assign);
    let mut best_objective = model.objective_value(&best_assign);
    let mut total_flips = 0u64;
    let mut tries_ran = 0u64;

    'tries: for try_no in 0..cfg.max_tries.max(1) {
        tries_ran += 1;
        let init: Vec<bool> = if try_no == 0 {
            vec![false; model.num_vars]
        } else {
            (0..model.num_vars).map(|_| rng.random_bool(0.5)).collect()
        };
        let mut state = RefState::new(model, &problem, init);
        consider_best(
            &state,
            &mut best_assign,
            &mut best_violation,
            &mut best_objective,
        );

        let mut last_best_flip = total_flips;
        for _ in 0..cfg.max_flips {
            total_flips += 1;
            if cfg.stall > 0 && total_flips - last_best_flip > cfg.stall as u64 {
                break; // stagnated: restart
            }
            let var = if state.violated.is_empty() {
                if model.objective.is_empty() {
                    break 'tries;
                }
                match pick_objective_move(&state, model, &mut rng) {
                    Some(v) => v,
                    None => break 'tries,
                }
            } else {
                let ci = state.violated[rng.random_range(0..state.violated.len())];
                match pick_constraint_move(&state, ci, cfg, total_flips, best_violation, &mut rng) {
                    Some(v) => v,
                    None => continue,
                }
            };
            state.flip(var, total_flips);
            let improved = consider_best(
                &state,
                &mut best_assign,
                &mut best_violation,
                &mut best_objective,
            );
            if improved {
                last_best_flip = total_flips;
            }
        }
    }

    WsatResult {
        feasible: best_violation == 0,
        violation: best_violation,
        objective: best_objective,
        assignment: best_assign,
        flips: total_flips,
        tries: tries_ran,
        warm_start_hit: false,
    }
}

fn consider_best(
    state: &RefState<'_>,
    best_assign: &mut Vec<bool>,
    best_violation: &mut i64,
    best_objective: &mut i64,
) -> bool {
    let better = state.total_violation < *best_violation
        || (state.total_violation == *best_violation && state.objective > *best_objective);
    if better {
        *best_violation = state.total_violation;
        *best_objective = state.objective;
        best_assign.clone_from(&state.assign);
    }
    better
}

fn pick_constraint_move(
    state: &RefState<'_>,
    ci: usize,
    cfg: &WsatConfig,
    flip_no: u64,
    best_violation: i64,
    rng: &mut StdRng,
) -> Option<usize> {
    let terms = &state.model.constraints[ci].terms;
    if terms.is_empty() {
        return None;
    }
    if rng.random_bool(cfg.noise) {
        return Some(terms[rng.random_range(0..terms.len())].var);
    }
    let mut best_var = None;
    let mut best_score = i64::MAX;
    for t in terms {
        let var = t.var;
        let dv = state.violation_delta(var);
        let reaches_new_best = state.total_violation + dv < best_violation;
        let tabu_active = cfg.tabu > 0
            && state.last_flip[var] != 0
            && flip_no.saturating_sub(state.last_flip[var]) <= cfg.tabu as u64;
        if tabu_active && !reaches_new_best {
            continue;
        }
        let score = dv * cfg.violation_weight - state.objective_delta(var);
        if score < best_score {
            best_score = score;
            best_var = Some(var);
        }
    }
    best_var.or_else(|| Some(terms[rng.random_range(0..terms.len())].var))
}

fn pick_objective_move(state: &RefState<'_>, model: &Model, rng: &mut StdRng) -> Option<usize> {
    let improving: Vec<usize> = model
        .objective
        .iter()
        .map(|t| t.var)
        .filter(|&v| state.objective_delta(v) > 0)
        .collect();
    if improving.is_empty() {
        return None;
    }
    let harmless: Vec<usize> = improving
        .iter()
        .copied()
        .filter(|&v| state.violation_delta(v) == 0)
        .collect();
    let pool = if harmless.is_empty() {
        &improving
    } else {
        &harmless
    };
    Some(pool[rng.random_range(0..pool.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_csp::model::{Constraint, Relation};
    use tableseg_csp::wsat::solve;

    fn cfg() -> WsatConfig {
        WsatConfig::default()
    }

    #[test]
    fn reference_solver_agrees_on_feasibility() {
        let mut m = Model::new(6);
        m.add(Constraint::sum([0, 1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([3, 4, 5], Relation::Eq, 2));
        m.add(Constraint::sum([0, 3], Relation::Le, 1));
        m.maximize_sum([0, 1, 2, 3, 4, 5]);
        let new = solve(&m, &cfg());
        let old = solve_reference(&m, &cfg());
        assert_eq!(new.feasible, old.feasible);
        assert_eq!(new.violation, old.violation);
        assert_eq!(new.objective, old.objective);
    }
}
