//! Encoding the record-segmentation problem as a pseudo-boolean model
//! (Sections 4.1–4.2 of the paper).
//!
//! Let `x_ij` be the assignment variable: `x_ij = 1` when extract `E_i` is
//! assigned to record `r_j`. Variables exist only for `r_j ∈ D_i`
//! (occurrence); all other `x_ij` are fixed 0 and never materialize.
//!
//! * **Uniqueness** — "Every extract `E_i` belongs to exactly one record
//!   `r_j`": `Σ_j x_ij = 1`, relaxable to `Σ_j x_ij ≤ 1`.
//! * **Consecutiveness** — "only contiguous blocks of extracts can be
//!   assigned to the same record": `x_ij + x_kj ≤ 1` when some extract
//!   between `k` and `i` cannot be in `r_j` at all, and
//!   `x_kj + x_ij − x_nj ≤ 1` for every in-between candidate `n`.
//! * **Position** — extracts observed at the same position of detail page
//!   `j` compete for one field occurrence: exactly one of them may be
//!   assigned to `r_j` (`Σ x_ij = 1`, relaxable to `≤ 1`).

use std::collections::{HashMap, HashSet};

use tableseg_extract::positions::position_groups;
use tableseg_extract::Observations;

use crate::model::{Constraint, Model, Relation, Term};

/// Options controlling the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOptions {
    /// Relax equalities to `≤` inequalities and maximize the number of
    /// assigned extracts (the paper's response to unsatisfiable data).
    pub relaxed: bool,
    /// Include the Section 4.2 position constraints.
    pub position_constraints: bool,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            relaxed: false,
            position_constraints: true,
        }
    }
}

/// A pseudo-boolean encoding of a segmentation problem, with the mapping
/// between model variables and `(extract, record)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoding {
    /// The model to solve.
    pub model: Model,
    /// `vars[v] = (i, j)`: model variable `v` is the paper's `x_ij`.
    pub vars: Vec<(usize, u32)>,
    /// Reverse lookup from `(i, j)` to the variable index.
    pub var_of: HashMap<(usize, u32), usize>,
}

impl Encoding {
    /// The variable for `x_ij`, if `r_j ∈ D_i`.
    pub fn var(&self, extract: usize, record: u32) -> Option<usize> {
        self.var_of.get(&(extract, record)).copied()
    }

    /// Upper bound on the objective, derived from the relaxation itself:
    /// the objective counts assigned extracts and uniqueness caps each
    /// extract at one record, so no assignment can exceed the number of
    /// distinct extracts with at least one candidate record. `None` when
    /// the encoding has no objective (the strict, pure-satisfaction case).
    pub fn objective_upper_bound(&self) -> Option<i64> {
        if self.model.objective.is_empty() {
            return None;
        }
        let extracts: HashSet<usize> = self.vars.iter().map(|&(i, _)| i).collect();
        Some(extracts.len() as i64)
    }

    /// Turns a strict encoding into the relaxed one in place: every
    /// equality becomes `≤` and the objective maximizes the number of
    /// assigned extracts. The variables, labels and constraint order stay
    /// as they are, so the result equals what [`encode`] builds with
    /// `relaxed: true` — without matching the observation table again.
    pub fn relax(&mut self) {
        for c in &mut self.model.constraints {
            if c.rel == Relation::Eq {
                c.rel = Relation::Le;
            }
        }
        self.model.maximize_sum(0..self.vars.len());
    }
}

/// Builds the encoding of an observation table.
pub fn encode(obs: &Observations, opts: &EncodeOptions) -> Encoding {
    let mut vars = Vec::new();
    let mut var_of = HashMap::new();
    for (i, item) in obs.items.iter().enumerate() {
        for &j in &item.pages {
            var_of.insert((i, j), vars.len());
            vars.push((i, j));
        }
    }
    let mut model = Model::new(vars.len());
    let uniq_rel = if opts.relaxed {
        Relation::Le
    } else {
        Relation::Eq
    };

    // Uniqueness.
    for (i, item) in obs.items.iter().enumerate() {
        let vs: Vec<usize> = item.pages.iter().map(|&j| var_of[&(i, j)]).collect();
        model.add(Constraint::sum(vs, uniq_rel, 1).labeled(format!("uniq(E{})", i + 1)));
    }

    // Consecutiveness, per record.
    let mut seen_pairs: HashSet<(usize, usize, u32)> = HashSet::new();
    for j in 0..obs.num_records as u32 {
        let members: Vec<usize> = (0..obs.items.len())
            .filter(|&i| obs.items[i].on_page(j))
            .collect();
        for (a_idx, &k) in members.iter().enumerate() {
            for &i in &members[a_idx + 1..] {
                // Any in-between extract that cannot be in r_j makes the
                // pair mutually exclusive.
                let blocked = (k + 1..i).any(|n| !obs.items[n].on_page(j));
                if blocked {
                    if seen_pairs.insert((k, i, j)) {
                        let vs = [var_of[&(k, j)], var_of[&(i, j)]];
                        model.add(Constraint::sum(vs, Relation::Le, 1).labeled(format!(
                            "consec(E{},E{}|r{})",
                            k + 1,
                            i + 1,
                            j + 1
                        )));
                    }
                } else {
                    // Every in-between extract is a candidate: the pair may
                    // co-exist only if each middle is also assigned to r_j.
                    for n in k + 1..i {
                        model.add(Constraint {
                            terms: vec![
                                Term {
                                    var: var_of[&(k, j)],
                                    coef: 1,
                                },
                                Term {
                                    var: var_of[&(i, j)],
                                    coef: 1,
                                },
                                Term {
                                    var: var_of[&(n, j)],
                                    coef: -1,
                                },
                            ],
                            rel: Relation::Le,
                            rhs: 1,
                            label: format!("consec(E{},E{}-E{}|r{})", k + 1, i + 1, n + 1, j + 1),
                        });
                    }
                }
            }
        }
    }

    // Position constraints (Section 4.2).
    if opts.position_constraints {
        let pos_rel = if opts.relaxed {
            Relation::Le
        } else {
            Relation::Eq
        };
        for group in position_groups(obs) {
            let vs: Vec<usize> = group
                .extracts
                .iter()
                .map(|&i| var_of[&(i, group.page)])
                .collect();
            model.add(Constraint::sum(vs, pos_rel, 1).labeled(format!(
                "pos(r{}@{})",
                group.page + 1,
                group.pos
            )));
        }
    }

    if opts.relaxed {
        model.maximize_sum(0..vars.len());
    }

    Encoding {
        model,
        vars,
        var_of,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

    /// The paper's Superpages example (Tables 1-3).
    pub(crate) fn superpages_obs() -> Observations {
        let list = tokenize(
            "<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>\
             <tr><td>John Smith</td><td>221R Washington St</td><td>Wash CH</td><td>(740) 335-5555</td></tr>\
             <tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>",
        );
        let d1 = tokenize(
            "<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>",
        );
        let d2 = tokenize(
            "<h1>John Smith</h1><p>221R Washington St</p><p>Wash CH</p><p>(740) 335-5555</p>",
        );
        let d3 = tokenize("<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2, &d3];
        build_observations(&list, &[], &details)
    }

    #[test]
    fn variables_follow_occurrence() {
        let obs = superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        // E1 "John Smith" on r1, r2 → two variables; none for r3.
        assert!(enc.var(0, 0).is_some());
        assert!(enc.var(0, 1).is_some());
        assert!(enc.var(0, 2).is_none());
        // E2 "221 Washington" only on r1.
        assert!(enc.var(1, 0).is_some());
        assert!(enc.var(1, 1).is_none());
        // Total variables = Σ |D_i|.
        let expected: usize = obs.items.iter().map(|it| it.pages.len()).sum();
        assert_eq!(enc.vars.len(), expected);
    }

    #[test]
    fn uniqueness_constraints_present() {
        let obs = superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        let uniq: Vec<&Constraint> = enc
            .model
            .constraints
            .iter()
            .filter(|c| c.label.starts_with("uniq"))
            .collect();
        assert_eq!(uniq.len(), obs.items.len());
        assert!(uniq.iter().all(|c| c.rel == Relation::Eq && c.rhs == 1));
    }

    #[test]
    fn relaxed_encoding_uses_inequalities_and_objective() {
        let obs = superpages_obs();
        let enc = encode(
            &obs,
            &EncodeOptions {
                relaxed: true,
                position_constraints: true,
            },
        );
        assert!(enc.model.constraints.iter().all(|c| c.rel == Relation::Le));
        assert_eq!(enc.model.objective.len(), enc.vars.len());
    }

    #[test]
    fn relaxing_in_place_equals_the_relaxed_encoding() {
        let obs = superpages_obs();
        for position_constraints in [true, false] {
            let mut enc = encode(
                &obs,
                &EncodeOptions {
                    relaxed: false,
                    position_constraints,
                },
            );
            enc.relax();
            let relaxed = encode(
                &obs,
                &EncodeOptions {
                    relaxed: true,
                    position_constraints,
                },
            );
            assert_eq!(enc, relaxed);
        }
    }

    #[test]
    fn position_constraints_toggle() {
        let obs = superpages_obs();
        let with = encode(&obs, &EncodeOptions::default());
        let without = encode(
            &obs,
            &EncodeOptions {
                relaxed: false,
                position_constraints: false,
            },
        );
        let count = |e: &Encoding| {
            e.model
                .constraints
                .iter()
                .filter(|c| c.label.starts_with("pos"))
                .count()
        };
        assert!(count(&with) > 0);
        assert_eq!(count(&without), 0);
    }

    #[test]
    fn consecutiveness_blocks_non_contiguous_pairs() {
        let obs = superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        // E1 (John Smith, candidate r2) and E8 (phone, candidate r2):
        // between them sit E2/E3 which cannot be in r2... in this fixture
        // E1..E4 are row 1, E5..E8 row 2. E1 and E8 are both candidates of
        // r1 and r2, with blocked middles for r1 (E6, E7 not on r1).
        let has_pair = enc
            .model
            .constraints
            .iter()
            .any(|c| c.label.starts_with("consec") && c.terms.len() == 2);
        assert!(has_pair);
        let has_triple = enc
            .model
            .constraints
            .iter()
            .any(|c| c.label.starts_with("consec") && c.terms.len() == 3);
        assert!(has_triple);
    }

    #[test]
    fn empty_observations_empty_model() {
        let obs = build_observations(&[], &[], &[]);
        let enc = encode(&obs, &EncodeOptions::default());
        assert_eq!(enc.model.num_vars, 0);
        assert!(enc.model.constraints.is_empty());
    }

    /// The paper lists the Superpages constraints explicitly in Sections
    /// 4.1–4.2; this pins the encoder to that list.
    #[test]
    fn paper_constraint_list() {
        let obs = superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        let m = &enc.model;

        // A helper: the uniqueness constraint for extract i must contain
        // exactly the variables x_ij for j in D_i, with "=1".
        let uniq = |i: usize| {
            m.constraints
                .iter()
                .find(|c| c.label == format!("uniq(E{})", i + 1))
                .expect("uniqueness constraint")
        };
        // x11 + x12 = 1 (the paper's first listed constraint).
        let c = uniq(0);
        assert_eq!(c.rel, Relation::Eq);
        assert_eq!(c.rhs, 1);
        let vars: Vec<usize> = c.terms.iter().map(|t| t.var).collect();
        assert_eq!(vars, vec![enc.var(0, 0).unwrap(), enc.var(0, 1).unwrap()]);
        // x21 = 1 (E2 can only be in r1).
        let c = uniq(1);
        assert_eq!(c.terms.len(), 1);
        assert_eq!(c.terms[0].var, enc.var(1, 0).unwrap());
        // x62 = 1 (E6 can only be in r2).
        let c = uniq(5);
        assert_eq!(c.terms.len(), 1);
        assert_eq!(c.terms[0].var, enc.var(5, 1).unwrap());

        // The paper's consecutiveness example: x11 + x81 <= 1 — E1 and E8
        // cannot both be in r1... actually the paper lists pairs with
        // blocked middles for r1/r2 crossing rows; verify the r2 version:
        // E1 (row 1) and E8 (row 2 phone) for record r1 are blocked by the
        // middles E6, E7 which cannot be in r1.
        let blocked = m.constraints.iter().any(|c| {
            c.label == "consec(E1,E8|r1)"
                && c.rel == Relation::Le
                && c.rhs == 1
                && c.terms.len() == 2
        });
        assert!(blocked, "expected pairwise consecutiveness for E1/E8 on r1");

        // The paper's position constraints: x11 + x51 = 1 and x41 + x81 = 1
        // (shared name at position 0 of r1, shared phone at its tail).
        let has_pos = |a: usize, b: usize, j: u32| {
            m.constraints.iter().any(|c| {
                c.label.starts_with("pos")
                    && c.rel == Relation::Eq
                    && c.rhs == 1
                    && c.terms.len() == 2
                    && c.terms.iter().any(|t| t.var == enc.var(a, j).unwrap())
                    && c.terms.iter().any(|t| t.var == enc.var(b, j).unwrap())
            })
        };
        assert!(has_pos(0, 4, 0), "x11 + x51 = 1");
        assert!(has_pos(0, 4, 1), "x12 + x52 = 1");
        assert!(has_pos(3, 7, 0), "x41 + x81 = 1");
        assert!(has_pos(3, 7, 1), "x42 + x82 = 1");
    }
}
