//! Pseudo-boolean models: 0-1 variables, linear constraints, optional
//! linear objective.
//!
//! "In a pseudo-boolean representation, variables are 0-1, and the
//! constraints can be inequalities. ... When constraints are inequalities,
//! the resulting problem is an optimization problem." (Section 4)

use serde::{Deserialize, Serialize};

/// Index of a 0-1 variable.
pub type Var = usize;

/// The relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// One term `a·x` of a linear expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Term {
    /// The variable.
    pub var: Var,
    /// Its coefficient.
    pub coef: i32,
}

/// A linear pseudo-boolean constraint `Σ aᵢxᵢ ⋈ b`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Constraint {
    /// The left-hand-side terms.
    pub terms: Vec<Term>,
    /// The relation.
    pub rel: Relation,
    /// The right-hand side.
    pub rhs: i32,
    /// A short label for diagnostics (e.g. `uniq(E3)`).
    pub label: String,
}

impl Constraint {
    /// Builds a constraint `Σ xᵢ ⋈ b` over unit-coefficient variables.
    pub fn sum(vars: impl IntoIterator<Item = Var>, rel: Relation, rhs: i32) -> Constraint {
        Constraint {
            terms: vars.into_iter().map(|var| Term { var, coef: 1 }).collect(),
            rel,
            rhs,
            label: String::new(),
        }
    }

    /// Attaches a diagnostic label.
    pub fn labeled(mut self, label: impl Into<String>) -> Constraint {
        self.label = label.into();
        self
    }

    /// The left-hand-side value under `assignment`.
    pub fn lhs(&self, assignment: &[bool]) -> i32 {
        self.terms
            .iter()
            .map(|t| if assignment[t.var] { t.coef } else { 0 })
            .sum()
    }

    /// The violation amount of the constraint under `assignment`:
    /// 0 when satisfied, otherwise the (positive) distance to feasibility.
    pub fn violation(&self, assignment: &[bool]) -> i32 {
        violation_of(self.rel, self.lhs(assignment), self.rhs)
    }

    /// Returns `true` if satisfied under `assignment`.
    pub fn satisfied(&self, assignment: &[bool]) -> bool {
        self.violation(assignment) == 0
    }
}

/// Violation of `lhs ⋈ rhs`.
#[inline]
pub fn violation_of(rel: Relation, lhs: i32, rhs: i32) -> i32 {
    match rel {
        Relation::Le => (lhs - rhs).max(0),
        Relation::Ge => (rhs - lhs).max(0),
        Relation::Eq => (lhs - rhs).abs(),
    }
}

/// A pseudo-boolean model: hard constraints plus an optional objective to
/// maximize.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Model {
    /// Number of 0-1 variables.
    pub num_vars: usize,
    /// The hard constraints.
    pub constraints: Vec<Constraint>,
    /// Objective terms, maximized subject to the constraints. Empty means
    /// pure satisfaction.
    pub objective: Vec<Term>,
}

impl Model {
    /// Creates a model with `num_vars` variables and no constraints.
    pub fn new(num_vars: usize) -> Model {
        Model {
            num_vars,
            constraints: Vec::new(),
            objective: Vec::new(),
        }
    }

    /// Adds a constraint.
    pub fn add(&mut self, c: Constraint) {
        debug_assert!(c.terms.iter().all(|t| t.var < self.num_vars));
        self.constraints.push(c);
    }

    /// Sets the objective to maximize the sum of the given variables.
    pub fn maximize_sum(&mut self, vars: impl IntoIterator<Item = Var>) {
        self.objective = vars.into_iter().map(|var| Term { var, coef: 1 }).collect();
    }

    /// Total violation of all constraints under `assignment`.
    pub fn total_violation(&self, assignment: &[bool]) -> i64 {
        self.constraints
            .iter()
            .map(|c| i64::from(c.violation(assignment)))
            .sum()
    }

    /// Number of violated constraints under `assignment`.
    pub fn violated_count(&self, assignment: &[bool]) -> usize {
        self.constraints
            .iter()
            .filter(|c| !c.satisfied(assignment))
            .count()
    }

    /// Objective value under `assignment`.
    pub fn objective_value(&self, assignment: &[bool]) -> i64 {
        self.objective
            .iter()
            .map(|t| {
                if assignment[t.var] {
                    i64::from(t.coef)
                } else {
                    0
                }
            })
            .sum()
    }

    /// Returns `true` if all constraints are satisfied.
    pub fn feasible(&self, assignment: &[bool]) -> bool {
        self.constraints.iter().all(|c| c.satisfied(assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(vars: &[Var], rel: Relation, rhs: i32) -> Constraint {
        Constraint::sum(vars.iter().copied(), rel, rhs)
    }

    #[test]
    fn lhs_and_violation() {
        let con = c(&[0, 1, 2], Relation::Eq, 1);
        assert_eq!(con.lhs(&[true, false, false]), 1);
        assert_eq!(con.violation(&[true, false, false]), 0);
        assert!(con.satisfied(&[true, false, false]));
        assert_eq!(con.violation(&[true, true, false]), 1);
        assert_eq!(con.violation(&[false, false, false]), 1);
        assert_eq!(con.violation(&[true, true, true]), 2);
    }

    #[test]
    fn relations() {
        let a = [true, true, false];
        assert_eq!(c(&[0, 1], Relation::Le, 1).violation(&a), 1);
        assert_eq!(c(&[0, 1], Relation::Le, 2).violation(&a), 0);
        assert_eq!(c(&[0, 1, 2], Relation::Ge, 3).violation(&a), 1);
        assert_eq!(c(&[0, 1], Relation::Ge, 1).violation(&a), 0);
    }

    #[test]
    fn negative_coefficients() {
        // x0 + x1 - x2 <= 1 (the consecutiveness triple constraint).
        let con = Constraint {
            terms: vec![
                Term { var: 0, coef: 1 },
                Term { var: 1, coef: 1 },
                Term { var: 2, coef: -1 },
            ],
            rel: Relation::Le,
            rhs: 1,
            label: String::new(),
        };
        assert!(con.satisfied(&[true, true, true]));
        assert!(!con.satisfied(&[true, true, false]));
        assert!(con.satisfied(&[true, false, false]));
    }

    #[test]
    fn model_accounting() {
        let mut m = Model::new(3);
        m.add(c(&[0, 1], Relation::Eq, 1));
        m.add(c(&[1, 2], Relation::Le, 1));
        m.maximize_sum([0, 1, 2]);

        let a = [true, false, true];
        assert!(m.feasible(&a));
        assert_eq!(m.total_violation(&a), 0);
        assert_eq!(m.violated_count(&a), 0);
        assert_eq!(m.objective_value(&a), 2);

        let b = [true, true, true];
        assert!(!m.feasible(&b));
        assert_eq!(m.violated_count(&b), 2);
        assert_eq!(m.total_violation(&b), 2);
    }

    #[test]
    fn labels() {
        let con = c(&[0], Relation::Eq, 1).labeled("uniq(E1)");
        assert_eq!(con.label, "uniq(E1)");
    }
}
