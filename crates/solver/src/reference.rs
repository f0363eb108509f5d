#![cfg(test)]
//! The reference decision procedure the kernel in [`crate::solve`] must agree
//! with verdict for verdict: the formula is negated by building a new
//! [`Formula`], rewritten into negation normal form and then disjunctive
//! normal form, and every disjunct is refuted by Fourier–Motzkin elimination
//! over string-keyed [`LinExpr`]s. It is slow — it clones expressions at every
//! step — but each step is the textbook one, which is what an oracle needs.

use crate::formula::{Atom, CmpOp, Formula, LinExpr};
use crate::solve::{SolverResult, EPS, MAX_CONSTRAINTS, MAX_DISJUNCTS};

/// A normalized linear constraint `expr ≤ 0` (or `< 0` when `strict`).
#[derive(Debug, Clone)]
struct Constraint {
    expr: LinExpr,
    strict: bool,
}

/// Negation normal form with negations pushed into atoms.
fn to_nnf(f: &Formula, negated: bool) -> Formula {
    match f {
        Formula::True => {
            if negated {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if negated {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::Atom(a) => {
            if negated {
                Formula::Atom(Atom {
                    lhs: a.lhs.clone(),
                    op: a.op.negate(),
                    rhs: a.rhs.clone(),
                })
            } else {
                Formula::Atom(a.clone())
            }
        }
        Formula::And(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|x| to_nnf(x, negated)).collect();
            if negated {
                Formula::or_all(parts)
            } else {
                Formula::and_all(parts)
            }
        }
        Formula::Or(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|x| to_nnf(x, negated)).collect();
            if negated {
                Formula::and_all(parts)
            } else {
                Formula::or_all(parts)
            }
        }
        Formula::Not(x) => to_nnf(x, !negated),
        Formula::Implies(a, b) => {
            // a -> b  ==  ¬a ∨ b
            let rewritten = Formula::or_all(vec![Formula::not((**a).clone()), (**b).clone()]);
            to_nnf(&rewritten, negated)
        }
    }
}

/// Convert an NNF formula to DNF: a list of conjunctions of atoms.
/// Returns `None` when the size budget is exceeded.
fn to_dnf(f: &Formula) -> Option<Vec<Vec<Atom>>> {
    match f {
        Formula::True => Some(vec![vec![]]),
        Formula::False => Some(vec![]),
        Formula::Atom(a) => {
            // Split ≠ into two strict disjuncts so downstream reasoning only
            // sees convex constraints.
            if a.op == CmpOp::Ne {
                Some(vec![
                    vec![Atom {
                        lhs: a.lhs.clone(),
                        op: CmpOp::Lt,
                        rhs: a.rhs.clone(),
                    }],
                    vec![Atom {
                        lhs: a.lhs.clone(),
                        op: CmpOp::Gt,
                        rhs: a.rhs.clone(),
                    }],
                ])
            } else {
                Some(vec![vec![a.clone()]])
            }
        }
        Formula::Or(fs) => {
            let mut out = Vec::new();
            for x in fs {
                out.extend(to_dnf(x)?);
                if out.len() > MAX_DISJUNCTS {
                    return None;
                }
            }
            Some(out)
        }
        Formula::And(fs) => {
            let mut acc: Vec<Vec<Atom>> = vec![vec![]];
            for x in fs {
                let d = to_dnf(x)?;
                let mut next = Vec::with_capacity(acc.len() * d.len().max(1));
                for a in &acc {
                    for b in &d {
                        let mut merged = a.clone();
                        merged.extend(b.iter().cloned());
                        next.push(merged);
                        if next.len() > MAX_DISJUNCTS {
                            return None;
                        }
                    }
                }
                acc = next;
                if acc.is_empty() {
                    // One conjunct was `False`.
                    return Some(vec![]);
                }
            }
            Some(acc)
        }
        // NNF should have removed these.
        Formula::Not(_) | Formula::Implies(_, _) => None,
    }
}

/// Turn an atom into one or two normalized `expr (< | ≤) 0` constraints.
fn atom_constraints(a: &Atom) -> Vec<Constraint> {
    let diff = a.lhs.sub(&a.rhs);
    match a.op {
        CmpOp::Le => vec![Constraint {
            expr: diff,
            strict: false,
        }],
        CmpOp::Lt => vec![Constraint {
            expr: diff,
            strict: true,
        }],
        CmpOp::Ge => vec![Constraint {
            expr: diff.scale(-1.0),
            strict: false,
        }],
        CmpOp::Gt => vec![Constraint {
            expr: diff.scale(-1.0),
            strict: true,
        }],
        CmpOp::Eq => vec![
            Constraint {
                expr: diff.clone(),
                strict: false,
            },
            Constraint {
                expr: diff.scale(-1.0),
                strict: false,
            },
        ],
        // Ne is split during DNF conversion.
        CmpOp::Ne => vec![],
    }
}

/// Fourier–Motzkin feasibility test for a conjunction of constraints over the
/// reals. Returns true when the conjunction is satisfiable.
fn conjunction_feasible(atoms: &[Atom]) -> Option<bool> {
    let mut constraints: Vec<Constraint> = atoms.iter().flat_map(atom_constraints).collect();

    loop {
        if constraints.len() > MAX_CONSTRAINTS {
            return None;
        }
        // Find a variable to eliminate.
        let var = constraints
            .iter()
            .flat_map(|c| c.expr.variables())
            .next()
            .map(|s| s.to_string());
        let var = match var {
            Some(v) => v,
            None => break,
        };

        let mut uppers: Vec<(LinExpr, bool)> = Vec::new(); // x ≤ expr (coeff>0)
        let mut lowers: Vec<(LinExpr, bool)> = Vec::new(); // expr ≤ x (coeff<0)
        let mut rest: Vec<Constraint> = Vec::new();
        for c in constraints.into_iter() {
            let coeff = c.expr.coeff(&var);
            if coeff.abs() < 1e-12 {
                rest.push(c);
            } else {
                // c: coeff·x + r (< | ≤) 0  ⇒  x (< | ≤) -r/coeff (coeff>0)
                //                             or -r/coeff (< | ≤) x (coeff<0)
                let mut r = c.expr.clone();
                // Remove the variable term.
                r = r.sub(&LinExpr::var(&var).scale(coeff));
                let bound = r.scale(-1.0 / coeff);
                if coeff > 0.0 {
                    uppers.push((bound, c.strict));
                } else {
                    lowers.push((bound, c.strict));
                }
            }
        }
        // Combine lower and upper bounds: lower (< | ≤) upper.
        for (lo, lo_strict) in &lowers {
            for (hi, hi_strict) in &uppers {
                rest.push(Constraint {
                    expr: lo.sub(hi),
                    strict: *lo_strict || *hi_strict,
                });
                if rest.len() > MAX_CONSTRAINTS {
                    return None;
                }
            }
        }
        constraints = rest;
    }

    // Only constant constraints remain.
    for c in &constraints {
        let v = c.expr.constant_part();
        // Strict: below zero, or inside the rounding band but not exactly 0.
        let ok = if c.strict {
            v <= EPS && v != 0.0
        } else {
            v <= EPS
        };
        if !ok {
            return Some(false);
        }
    }
    Some(true)
}

/// Is the formula satisfiable (free variables existentially quantified)?
pub(crate) fn is_satisfiable(f: &Formula) -> SolverResult {
    let nnf = to_nnf(f, false);
    let dnf = match to_dnf(&nnf) {
        Some(d) => d,
        None => return SolverResult::Unknown,
    };
    let mut unknown = false;
    for conj in &dnf {
        match conjunction_feasible(conj) {
            Some(true) => return SolverResult::Satisfiable,
            Some(false) => {}
            None => unknown = true,
        }
    }
    if unknown {
        SolverResult::Unknown
    } else {
        SolverResult::Unsatisfiable
    }
}
