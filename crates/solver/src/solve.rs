//! Deciding satisfiability and validity of linear-arithmetic formulas.
//!
//! The pipeline mirrors what the paper delegates to an SMT solver (Sec. 5):
//! to prove a universally quantified formula valid we refute its negation —
//! bring it into disjunctive normal form and show every disjunct infeasible
//! with Fourier–Motzkin elimination over the rationals. The kernel does this
//! without building a single intermediate [`Formula`] or [`LinExpr`](crate::LinExpr):
//!
//! 1. **Interning.** The variables of the call are collected once and sorted
//!    by their bytes, so variable ids follow the key order of `LinExpr`'s
//!    `BTreeMap`. Every atom becomes one dense `f64` row `lhs − rhs`, its
//!    constant last.
//! 2. **DNF over borrowed atoms.** A polarity flag stands in for the negation
//!    and for a negation-normal-form copy. Constants fold exactly as
//!    [`Formula::and_all`] / [`Formula::or_all`] fold them, `≠` splits into
//!    `<` / `>`, and `MAX_DISJUNCTS` bounds every product and union. A
//!    disjunct is a run of (atom, operator) literals in one shared buffer.
//! 3. **Fourier–Motzkin over dense rows.** Each step eliminates the smallest
//!    variable id of the first row that still has one, splits the rows into
//!    lower and upper bounds on it, and appends every lower − upper
//!    combination, within `MAX_CONSTRAINTS` rows. Coefficients of magnitude
//!    at most `1e-12` are dropped after every operation.
//!
//! The textbook procedure — negate, rewrite to NNF, multiply out the DNF,
//! eliminate over string-keyed expressions — survives as the test oracle,
//! and the kernel returns the same [`SolverResult`] on every formula: its
//! disjuncts hold the same literals in the same order, and each elimination
//! performs the same floating-point operations in the same order with the
//! same cut-offs, so every value agrees up to the sign of a zero, which no
//! comparison sees.
//!
//! The procedure is *sound* but deliberately bounded: if normalization would
//! blow up past a size budget it answers [`SolverResult::Unknown`], which the
//! safety and reuse checks treat as "cannot prove safe" — exactly the
//! conservative behaviour the paper's sound-but-incomplete algorithm needs.

use crate::formula::{Atom, CmpOp, Formula};

/// Result of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverResult {
    /// The formula is satisfiable.
    Satisfiable,
    /// The formula is unsatisfiable.
    Unsatisfiable,
    /// The solver gave up (size budget exceeded).
    Unknown,
}

/// Maximum number of DNF disjuncts / constraints before giving up.
pub(crate) const MAX_DISJUNCTS: usize = 4096;
pub(crate) const MAX_CONSTRAINTS: usize = 2048;
pub(crate) const EPS: f64 = 1e-9;

/// `LinExpr`'s normalization: coefficients of magnitude at most `1e-12`
/// (and NaN) are dropped.
fn cut(c: f64) -> f64 {
    if c.abs() > 1e-12 {
        c
    } else {
        0.0
    }
}

/// One literal of a disjunct: an atom's row under the operator it must
/// satisfy there (never `Ne`, which splits into two disjuncts).
#[derive(Debug, Clone, Copy)]
struct Lit {
    atom: u32,
    op: CmpOp,
}

/// What a subformula contributes to the DNF. `True` / `False` are the
/// constants `and_all` / `or_all` fold it into; `Disjuncts` means its
/// disjuncts are the tail of [`Kernel::spans`] from where it started;
/// `Blown` means it passed [`MAX_DISJUNCTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dnf {
    True,
    False,
    Disjuncts,
    Blown,
}

/// Constraint rows `Σ coeff·var + constant (< | ≤) 0` in one flat buffer.
#[derive(Debug, Default)]
struct Rows {
    vals: Vec<f64>,
    strict: Vec<bool>,
}

impl Rows {
    fn len(&self) -> usize {
        self.strict.len()
    }

    fn clear(&mut self) {
        self.vals.clear();
        self.strict.clear();
    }

    fn push(&mut self, row: impl IntoIterator<Item = f64>, strict: bool) {
        self.vals.extend(row);
        self.strict.push(strict);
    }

    /// [`Rows::push`], then drop the row's negligible coefficients (its
    /// first `n` values) as `LinExpr` arithmetic does.
    fn push_cut(&mut self, row: impl IntoIterator<Item = f64>, strict: bool, n: usize) {
        let at = self.vals.len();
        self.push(row, strict);
        self.vals[at..at + n].iter_mut().for_each(|c| *c = cut(*c));
    }

    fn iter(&self, width: usize) -> impl Iterator<Item = (&[f64], bool)> {
        self.vals
            .chunks_exact(width)
            .zip(self.strict.iter().copied())
    }
}

/// Scratch space of one solver call.
struct Kernel<'f> {
    /// Interned variables, sorted by bytes.
    vars: Vec<&'f str>,
    /// `vars.len()` coefficients plus the constant.
    width: usize,
    /// `lhs − rhs` of every atom met, `width` floats each.
    atom_rows: Vec<f64>,
    lits: Vec<Lit>,
    /// Disjuncts as `lits` ranges.
    spans: Vec<(u32, u32)>,
    cur: Rows,
    next: Rows,
    lowers: Rows,
    uppers: Rows,
}

impl<'f> Kernel<'f> {
    fn new(roots: &[(&'f Formula, bool)]) -> Self {
        let mut vars = Vec::new();
        for (f, _) in roots {
            collect_vars(f, &mut vars);
        }
        vars.sort_unstable();
        vars.dedup();
        Kernel {
            width: vars.len() + 1,
            vars,
            atom_rows: Vec::new(),
            lits: Vec::new(),
            spans: Vec::new(),
            cur: Rows::default(),
            next: Rows::default(),
            lowers: Rows::default(),
            uppers: Rows::default(),
        }
    }

    /// Satisfiability of the conjunction of `roots`, each negated when its
    /// flag is set.
    fn decide(roots: &[(&'f Formula, bool)]) -> SolverResult {
        let mut k = Kernel::new(roots);
        match k.conjunction(roots.iter().copied()) {
            Dnf::True => SolverResult::Satisfiable,
            Dnf::False => SolverResult::Unsatisfiable,
            Dnf::Blown => SolverResult::Unknown,
            Dnf::Disjuncts => {
                let mut unknown = false;
                for d in 0..k.spans.len() {
                    match k.feasible(d) {
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
        }
    }

    /// The DNF of `f`, or of `¬f` when `negated`.
    fn dnf(&mut self, f: &'f Formula, negated: bool) -> Dnf {
        match f {
            Formula::True if negated => Dnf::False,
            Formula::True => Dnf::True,
            Formula::False if negated => Dnf::True,
            Formula::False => Dnf::False,
            Formula::Atom(a) => {
                let atom = self.intern(a);
                let op = if negated { a.op.negate() } else { a.op };
                let ops: &[CmpOp] = if op == CmpOp::Ne {
                    &[CmpOp::Lt, CmpOp::Gt]
                } else {
                    &[op]
                };
                for &op in ops {
                    let at = self.lits.len() as u32;
                    self.lits.push(Lit { atom, op });
                    self.spans.push((at, at + 1));
                }
                Dnf::Disjuncts
            }
            Formula::Not(x) => self.dnf(x, !negated),
            Formula::And(fs) if negated => self.disjunction(fs.iter().map(|x| (x, true))),
            Formula::And(fs) => self.conjunction(fs.iter().map(|x| (x, false))),
            Formula::Or(fs) if negated => self.conjunction(fs.iter().map(|x| (x, true))),
            Formula::Or(fs) => self.disjunction(fs.iter().map(|x| (x, false))),
            // a → b  ==  ¬a ∨ b
            Formula::Implies(a, b) if negated => {
                self.conjunction([(&**a, false), (&**b, true)].into_iter())
            }
            Formula::Implies(a, b) => self.disjunction([(&**a, true), (&**b, false)].into_iter()),
        }
    }

    /// Union of the parts' disjuncts. A `True` part absorbs the rest, even
    /// a part past the budget, as `or_all` folds it before any expansion.
    fn disjunction(&mut self, parts: impl Iterator<Item = (&'f Formula, bool)>) -> Dnf {
        let base = self.spans.len();
        let (mut any, mut blown) = (false, false);
        for (f, negated) in parts {
            match self.dnf(f, negated) {
                Dnf::True => {
                    self.spans.truncate(base);
                    return Dnf::True;
                }
                Dnf::False => {}
                Dnf::Blown => blown = true,
                Dnf::Disjuncts => any = true,
            }
            // Each part's disjuncts land right after the previous part's.
            if blown || self.spans.len() - base > MAX_DISJUNCTS {
                blown = true;
                self.spans.truncate(base);
            }
        }
        match (blown, any) {
            (true, _) => Dnf::Blown,
            (false, true) => Dnf::Disjuncts,
            (false, false) => Dnf::False,
        }
    }

    /// Product of the parts' disjuncts, each one's literals after the
    /// previous parts'. A `False` part absorbs the rest.
    fn conjunction(&mut self, parts: impl Iterator<Item = (&'f Formula, bool)>) -> Dnf {
        let base = self.spans.len();
        let (mut any, mut blown) = (false, false);
        for (f, negated) in parts {
            let mid = self.spans.len();
            match self.dnf(f, negated) {
                Dnf::False => {
                    self.spans.truncate(base);
                    return Dnf::False;
                }
                Dnf::True => {}
                Dnf::Blown => blown = true,
                Dnf::Disjuncts if blown => {}
                Dnf::Disjuncts if !any => any = true,
                Dnf::Disjuncts => {
                    let end = self.spans.len();
                    if (mid - base) * (end - mid) > MAX_DISJUNCTS {
                        blown = true;
                    } else {
                        for a in base..mid {
                            for b in mid..end {
                                let at = self.lits.len() as u32;
                                for (lo, hi) in [self.spans[a], self.spans[b]] {
                                    self.lits.extend_from_within(lo as usize..hi as usize);
                                }
                                self.spans.push((at, self.lits.len() as u32));
                            }
                        }
                        self.spans.copy_within(end.., base);
                        self.spans.truncate(base + (mid - base) * (end - mid));
                    }
                }
            }
            if blown {
                self.spans.truncate(base);
            }
        }
        match (blown, any) {
            (true, _) => Dnf::Blown,
            (false, true) => Dnf::Disjuncts,
            (false, false) => Dnf::True,
        }
    }

    /// Store `lhs − rhs` of `a` as a dense row; returns its index.
    fn intern(&mut self, a: &Atom) -> u32 {
        let at = self.atom_rows.len();
        self.atom_rows.resize(at + self.width, 0.0);
        let row = &mut self.atom_rows[at..];
        let id = |v: &String| self.vars.binary_search(&v.as_str()).expect("interned");
        for (v, c) in a.lhs.terms() {
            row[id(v)] = *c;
        }
        for (v, c) in a.rhs.terms() {
            row[id(v)] -= c;
        }
        let (coeffs, constant) = row.split_at_mut(self.width - 1);
        coeffs.iter_mut().for_each(|c| *c = cut(*c));
        constant[0] = a.lhs.constant_part() - a.rhs.constant_part();
        (at / self.width) as u32
    }

    /// Fourier–Motzkin feasibility of disjunct `d` over the reals; `None`
    /// when it passes [`MAX_CONSTRAINTS`].
    fn feasible(&mut self, d: usize) -> Option<bool> {
        let (w, n) = (self.width, self.width - 1);
        let (lo, hi) = self.spans[d];
        self.cur.clear();
        for lit in &self.lits[lo as usize..hi as usize] {
            let row = &self.atom_rows[lit.atom as usize * w..][..w];
            let neg = row.iter().map(|x| -x);
            match lit.op {
                CmpOp::Le => self.cur.push(row.iter().copied(), false),
                CmpOp::Lt => self.cur.push(row.iter().copied(), true),
                CmpOp::Ge => self.cur.push(neg, false),
                CmpOp::Gt => self.cur.push(neg, true),
                CmpOp::Eq => {
                    self.cur.push(row.iter().copied(), false);
                    self.cur.push(neg, false);
                }
                CmpOp::Ne => unreachable!("≠ splits into two disjuncts"),
            }
        }
        loop {
            if self.cur.len() > MAX_CONSTRAINTS {
                return None;
            }
            let Some(var) = self
                .cur
                .iter(w)
                .find_map(|(row, _)| row[..n].iter().position(|&c| c != 0.0))
            else {
                break;
            };
            let Kernel {
                cur,
                next,
                lowers,
                uppers,
                ..
            } = self;
            next.clear();
            lowers.clear();
            uppers.clear();
            for (row, strict) in cur.iter(w) {
                let coeff = row[var];
                if coeff == 0.0 {
                    next.push(row.iter().copied(), strict);
                    continue;
                }
                // coeff·x + r (< | ≤) 0  ⇒  x (< | ≤) −r/coeff when coeff > 0,
                // or −r/coeff (< | ≤) x when coeff < 0.
                let k = -1.0 / coeff;
                let bound = row
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| if i == var { 0.0 } else { c * k });
                let side = if coeff > 0.0 {
                    &mut *uppers
                } else {
                    &mut *lowers
                };
                side.push_cut(bound, strict, n);
            }
            // lower (< | ≤) upper, for every pair.
            for (l, l_strict) in lowers.iter(w) {
                for (u, u_strict) in uppers.iter(w) {
                    let diff = l.iter().zip(u).map(|(a, b)| a - b);
                    next.push_cut(diff, l_strict || u_strict, n);
                    if next.len() > MAX_CONSTRAINTS {
                        return None;
                    }
                }
            }
            std::mem::swap(cur, next);
        }
        // Only constant constraints remain.
        Some(self.cur.iter(w).all(|(row, strict)| holds(row[n], strict)))
    }
}

/// Does the constant constraint `v ≤ 0` (`v < 0` when `strict`) hold?
/// Rounding may leave a true zero a hair off it, so inside `±EPS` the
/// answer leans to "holds", which proves nothing. Only an exact zero fails
/// a strict constraint there: `x ≥ 10 ∧ x < 10` must stay refutable, while
/// `x > 0 ∧ x ≤ 1e-10`, whose leftover is `−1e-10 < 0`, must not be refuted.
fn holds(v: f64, strict: bool) -> bool {
    v <= EPS && !(strict && v == 0.0)
}

fn collect_vars<'f>(f: &'f Formula, out: &mut Vec<&'f str>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Atom(a) => {
            out.extend(a.lhs.terms().keys().map(String::as_str));
            out.extend(a.rhs.terms().keys().map(String::as_str));
        }
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|x| collect_vars(x, out)),
        Formula::Not(x) => collect_vars(x, out),
        Formula::Implies(a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
    }
}

/// Is the formula satisfiable (free variables existentially quantified)?
pub fn is_satisfiable(f: &Formula) -> SolverResult {
    Kernel::decide(&[(f, false)])
}

/// Is the formula valid (free variables universally quantified)?
///
/// Returns `true` only when validity is *proven*; `Unknown` results map to
/// `false`, keeping every downstream use sound.
pub fn is_valid(f: &Formula) -> bool {
    Kernel::decide(&[(f, true)]) == SolverResult::Unsatisfiable
}

/// Does `premise` imply `conclusion` for all variable assignments?
pub fn implies(premise: &Formula, conclusion: &Formula) -> bool {
    Kernel::decide(&[(premise, false), (conclusion, true)]) == SolverResult::Unsatisfiable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{CmpOp, Formula, LinExpr};
    use crate::reference;

    fn v(name: &str) -> LinExpr {
        LinExpr::var(name)
    }
    fn c(x: f64) -> LinExpr {
        LinExpr::constant(x)
    }

    #[test]
    fn trivial_formulas() {
        assert_eq!(is_satisfiable(&Formula::True), SolverResult::Satisfiable);
        assert_eq!(is_satisfiable(&Formula::False), SolverResult::Unsatisfiable);
        assert!(is_valid(&Formula::True));
        assert!(!is_valid(&Formula::False));
    }

    #[test]
    fn simple_contradiction_is_unsat() {
        // x < 5 AND x > 10
        let f = Formula::and_all(vec![
            Formula::cmp(v("x"), CmpOp::Lt, c(5.0)),
            Formula::cmp(v("x"), CmpOp::Gt, c(10.0)),
        ]);
        assert_eq!(is_satisfiable(&f), SolverResult::Unsatisfiable);
    }

    #[test]
    fn strict_boundary_contradiction() {
        // x >= 10 AND x < 10
        let f = Formula::and_all(vec![
            Formula::cmp(v("x"), CmpOp::Ge, c(10.0)),
            Formula::cmp(v("x"), CmpOp::Lt, c(10.0)),
        ]);
        assert_eq!(is_satisfiable(&f), SolverResult::Unsatisfiable);
        // x >= 10 AND x <= 10 is satisfiable (x = 10).
        let g = Formula::and_all(vec![
            Formula::cmp(v("x"), CmpOp::Ge, c(10.0)),
            Formula::cmp(v("x"), CmpOp::Le, c(10.0)),
        ]);
        assert_eq!(is_satisfiable(&g), SolverResult::Satisfiable);
    }

    #[test]
    fn strict_bounds_a_hair_apart_are_not_refuted() {
        // x > 0 ∧ x ≤ 1e-10 holds at x = 1e-10: elimination leaves the
        // strict 0 − 1e-10 < 0, which lies inside ±EPS but is not zero.
        let f = Formula::and_all(vec![
            Formula::var_cmp_const("x", CmpOp::Gt, 0.0),
            Formula::var_cmp_const("x", CmpOp::Le, 1e-10),
        ]);
        assert_eq!(is_satisfiable(&f), SolverResult::Satisfiable);
        assert_eq!(reference::is_satisfiable(&f), SolverResult::Satisfiable);
        assert!(!is_valid(&Formula::implies(
            Formula::var_cmp_const("x", CmpOp::Gt, 0.0),
            Formula::var_cmp_const("x", CmpOp::Gt, 1e-10),
        )));
        // An exact zero is still infeasible for a strict constraint.
        let g = Formula::and_all(vec![
            Formula::var_cmp_const("x", CmpOp::Ge, 1e-10),
            Formula::var_cmp_const("x", CmpOp::Lt, 1e-10),
        ]);
        assert_eq!(is_satisfiable(&g), SolverResult::Unsatisfiable);
        assert_eq!(reference::is_satisfiable(&g), SolverResult::Unsatisfiable);
    }

    #[test]
    fn transitivity_is_valid() {
        // (a <= b AND b <= c) -> a <= c
        let f = Formula::implies(
            Formula::and_all(vec![
                Formula::var_cmp_var("a", CmpOp::Le, "b"),
                Formula::var_cmp_var("b", CmpOp::Le, "c"),
            ]),
            Formula::var_cmp_var("a", CmpOp::Le, "c"),
        );
        assert!(is_valid(&f));
    }

    #[test]
    fn paper_example_6_totden_implication_fails() {
        // totden <= totden' AND totden < 7000  does NOT imply  totden' < 7000
        // (Ex. 6, Sec. 5.2: popden is unsafe for the HAVING query).
        let premise = Formula::and_all(vec![
            Formula::var_cmp_var("totden", CmpOp::Le, "totden_p"),
            Formula::var_cmp_const("totden", CmpOp::Lt, 7000.0),
        ]);
        let conclusion = Formula::var_cmp_const("totden_p", CmpOp::Lt, 7000.0);
        assert!(!implies(&premise, &conclusion));
    }

    #[test]
    fn paper_example_7_uconds_holds() {
        // Ex. 7 (Sec. 6): p = p' ∧ cnt = cnt' ∧ p' > 100 ∧ cnt' > 15
        //   ->  p > 100 ∧ cnt > 10
        let premise = Formula::and_all(vec![
            Formula::var_cmp_var("p", CmpOp::Eq, "p_p"),
            Formula::var_cmp_var("cnt", CmpOp::Eq, "cnt_p"),
            Formula::var_cmp_const("p_p", CmpOp::Gt, 100.0),
            Formula::var_cmp_const("cnt_p", CmpOp::Gt, 15.0),
        ]);
        let conclusion = Formula::and_all(vec![
            Formula::var_cmp_const("p", CmpOp::Gt, 100.0),
            Formula::var_cmp_const("cnt", CmpOp::Gt, 10.0),
        ]);
        assert!(implies(&premise, &conclusion));
        // The reverse binding (cnt' > 10 -> cnt > 15) must fail.
        let premise_rev = Formula::and_all(vec![
            Formula::var_cmp_var("cnt", CmpOp::Eq, "cnt_p"),
            Formula::var_cmp_const("cnt_p", CmpOp::Gt, 10.0),
        ]);
        let conclusion_rev = Formula::var_cmp_const("cnt", CmpOp::Gt, 15.0);
        assert!(!implies(&premise_rev, &conclusion_rev));
    }

    #[test]
    fn selection_containment_with_chained_conditions() {
        // Sec. 6 example: Q = σ_{a=20}(σ_{a>30}) vs Q' = σ_{a=20}(σ_{a>10}).
        // pred(Q') = (a' = 20 AND a' > 10); with a = a' it implies
        // pred(Q) = (a = 20 AND a > 30)? No — a=20 contradicts a>30, but the
        // premise a'=20 makes the whole premise satisfied while conclusion
        // fails... the paper's point is testing the conjunction jointly:
        // a = a' ∧ a' = 20 ∧ a' > 10 -> a = 20 ∧ a > 30 is NOT valid,
        // whereas both queries are equivalent (empty). Our solver just has to
        // agree with first-order semantics here.
        let premise = Formula::and_all(vec![
            Formula::var_cmp_var("a", CmpOp::Eq, "a_p"),
            Formula::var_cmp_const("a_p", CmpOp::Eq, 20.0),
            Formula::var_cmp_const("a_p", CmpOp::Gt, 10.0),
        ]);
        let conclusion = Formula::and_all(vec![
            Formula::var_cmp_const("a", CmpOp::Eq, 20.0),
            Formula::var_cmp_const("a", CmpOp::Gt, 30.0),
        ]);
        assert!(!implies(&premise, &conclusion));
    }

    #[test]
    fn equality_and_inequality_interplay() {
        // x = y AND x <> y is unsatisfiable.
        let f = Formula::and_all(vec![
            Formula::var_cmp_var("x", CmpOp::Eq, "y"),
            Formula::var_cmp_var("x", CmpOp::Ne, "y"),
        ]);
        assert_eq!(is_satisfiable(&f), SolverResult::Unsatisfiable);
    }

    #[test]
    fn disjunctive_premises() {
        // (x > 5 OR x < -5) AND x = 0 is unsatisfiable.
        let f = Formula::and_all(vec![
            Formula::or_all(vec![
                Formula::var_cmp_const("x", CmpOp::Gt, 5.0),
                Formula::var_cmp_const("x", CmpOp::Lt, -5.0),
            ]),
            Formula::var_cmp_const("x", CmpOp::Eq, 0.0),
        ]);
        assert_eq!(is_satisfiable(&f), SolverResult::Unsatisfiable);
    }

    #[test]
    fn linear_combinations() {
        // x + y <= 10 AND x >= 8 AND y >= 3 is unsatisfiable.
        let f = Formula::and_all(vec![
            Formula::cmp(v("x").add(&v("y")), CmpOp::Le, c(10.0)),
            Formula::cmp(v("x"), CmpOp::Ge, c(8.0)),
            Formula::cmp(v("y"), CmpOp::Ge, c(3.0)),
        ]);
        assert_eq!(is_satisfiable(&f), SolverResult::Unsatisfiable);
        // Relaxing y's bound makes it satisfiable.
        let g = Formula::and_all(vec![
            Formula::cmp(v("x").add(&v("y")), CmpOp::Le, c(10.0)),
            Formula::cmp(v("x"), CmpOp::Ge, c(8.0)),
            Formula::cmp(v("y"), CmpOp::Ge, c(1.0)),
        ]);
        assert_eq!(is_satisfiable(&g), SolverResult::Satisfiable);
    }

    #[test]
    fn validity_of_monotone_aggregate_reasoning() {
        // The aggregation safety case: b <= b' AND b > 100 -> b' > 100... is
        // actually valid because b' >= b > 100. (Note the contrast with the
        // upper-bound case in Ex. 6.)
        let f = Formula::implies(
            Formula::and_all(vec![
                Formula::var_cmp_var("b", CmpOp::Le, "b_p"),
                Formula::var_cmp_const("b", CmpOp::Gt, 100.0),
            ]),
            Formula::var_cmp_const("b_p", CmpOp::Gt, 100.0),
        );
        assert!(is_valid(&f));
    }

    #[test]
    fn unknown_on_blowup_is_conservative() {
        // Build a formula with many disjunctions that exceeds the DNF budget;
        // the solver must answer Unknown (not a wrong Unsatisfiable).
        let mut parts = Vec::new();
        for i in 0..24 {
            parts.push(Formula::or_all(vec![
                Formula::var_cmp_const(&format!("x{i}"), CmpOp::Gt, 0.0),
                Formula::var_cmp_const(&format!("x{i}"), CmpOp::Lt, -1.0),
            ]));
        }
        let f = Formula::and_all(parts);
        let r = is_satisfiable(&f);
        assert!(matches!(
            r,
            SolverResult::Unknown | SolverResult::Satisfiable
        ));
        // And validity of its negation must not be claimed.
        assert!(!is_valid(&Formula::not(f)));
    }

    /// SplitMix64: a seeded generator, so a failing case replays exactly.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// Variable names listed in an order other than their byte order
    /// (`B` < `__param_1` < `a` < `a_p` < `x10` < `x2`).
    const NAMES: [&str; 6] = ["x2", "a_p", "x10", "B", "a", "__param_1"];
    const COEFFS: [f64; 5] = [-2.0, -1.0, 1.0, 2.0, 3.0];
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// An integer, a quarter or a third (the last rounds in binary).
    fn gen_const(g: &mut Gen) -> f64 {
        match g.below(3) {
            0 => g.below(11) as f64 - 5.0,
            1 => (g.below(21) as f64 - 10.0) / 4.0,
            _ => (g.below(19) as f64 - 9.0) / 3.0,
        }
    }

    fn gen_expr(g: &mut Gen, vars: &[&str]) -> LinExpr {
        let mut e = LinExpr::constant(gen_const(g));
        for _ in 0..g.below(3) {
            e = e.add(&LinExpr::var(g.pick(vars)).scale(g.pick(&COEFFS)));
        }
        e
    }

    fn gen_atom(g: &mut Gen, vars: &[&str]) -> Formula {
        Formula::cmp(gen_expr(g, vars), g.pick(&OPS), gen_expr(g, vars))
    }

    /// A formula of nesting depth at most `depth`, built from the raw
    /// constructors so that unflattened, empty and one-child `And` / `Or`
    /// nodes occur as well.
    fn gen_formula(g: &mut Gen, vars: &[&str], depth: usize) -> Formula {
        if depth == 0 || g.below(4) == 0 {
            return match g.below(12) {
                0 => Formula::True,
                1 => Formula::False,
                _ => gen_atom(g, vars),
            };
        }
        let children = |g: &mut Gen| -> Vec<Formula> {
            (0..g.below(4))
                .map(|_| gen_formula(g, vars, depth - 1))
                .collect()
        };
        match g.below(6) {
            0 | 1 => Formula::And(children(g)),
            2 | 3 => Formula::Or(children(g)),
            4 => Formula::not(gen_formula(g, vars, depth - 1)),
            _ => Formula::implies(
                gen_formula(g, vars, depth - 1),
                gen_formula(g, vars, depth - 1),
            ),
        }
    }

    /// A conjunction of `n` two-way disjunctions (exactly `2^n` DNF
    /// disjuncts), or of `n` negated equalities, which split into the same
    /// number.
    fn gen_wide(g: &mut Gen, vars: &[&str], n: usize) -> Formula {
        // `≠` would split into two disjuncts of its own.
        let convex = |g: &mut Gen| {
            let op = g.pick(&[CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]);
            Formula::cmp(gen_expr(g, vars), op, gen_expr(g, vars))
        };
        Formula::And(
            (0..n)
                .map(|_| {
                    if g.below(2) == 0 {
                        Formula::Or(vec![convex(g), convex(g)])
                    } else {
                        let eq = Formula::cmp(gen_expr(g, vars), CmpOp::Eq, gen_expr(g, vars));
                        Formula::not(eq)
                    }
                })
                .collect(),
        )
    }

    /// `n` lower and `n` upper bounds on one variable: `n²` constraints
    /// after eliminating it.
    fn many_bounds(n: usize) -> Formula {
        Formula::and_all(
            (0..n)
                .flat_map(|i| {
                    let i = i as f64;
                    [
                        Formula::cmp(v("x10"), CmpOp::Ge, v("a").add(&c(i))),
                        Formula::cmp(v("x10"), CmpOp::Le, v("a").scale(2.0).add(&c(-i))),
                    ]
                })
                .collect(),
        )
    }

    /// `n` bounds `B ≥ x2 + i` and `n` bounds `B ≤ 100 − i`. Eliminating `B`
    /// first (byte order) passes the constraint budget once `n² > 2048`;
    /// eliminating `x2` first (first-seen order) would leave a few rows.
    fn skewed_bounds(n: usize) -> Formula {
        Formula::and_all(
            (0..n)
                .flat_map(|i| {
                    let i = i as f64;
                    [
                        Formula::cmp(v("x2").add(&c(i)), CmpOp::Le, v("B")),
                        Formula::cmp(v("B"), CmpOp::Le, c(100.0 - i)),
                    ]
                })
                .collect(),
        )
    }

    fn assert_agrees(f: &Formula) -> SolverResult {
        let got = is_satisfiable(f);
        assert_eq!(got, reference::is_satisfiable(f), "is_satisfiable({f})");
        let negated = Formula::not(f.clone());
        let refuted = reference::is_satisfiable(&negated);
        assert_eq!(
            is_satisfiable(&negated),
            refuted,
            "is_satisfiable({negated})"
        );
        assert_eq!(
            is_valid(f),
            refuted == SolverResult::Unsatisfiable,
            "is_valid({f})"
        );
        got
    }

    #[test]
    fn verdicts_equal_the_reference_on_generated_formulas() {
        let mut g = Gen(0x5eed_f04d);
        let mut seen = [0usize; 3];
        let mut count = |r: SolverResult| {
            seen[match r {
                SolverResult::Satisfiable => 0,
                SolverResult::Unsatisfiable => 1,
                SolverResult::Unknown => 2,
            }] += 1
        };
        for case in 0..400 {
            let mut names = NAMES;
            for i in (1..names.len()).rev() {
                names.swap(i, g.below(i + 1));
            }
            let vars = &names[..1 + g.below(names.len())];
            let f = match case % 50 {
                // Around the DNF budget: 2^11, 2^12 (exactly at it), 2^13.
                0 => gen_wide(&mut g, vars, 11),
                1 => gen_wide(&mut g, vars, 12),
                2 => gen_wide(&mut g, vars, 13),
                // Over the budget, but absorbed by a constant sibling.
                3 => Formula::And(vec![gen_wide(&mut g, vars, 13), Formula::False]),
                4 => Formula::Or(vec![gen_wide(&mut g, vars, 13), Formula::True]),
                // A union exactly at the DNF budget, and one past it.
                5 => Formula::Or(vec![gen_wide(&mut g, vars, 11), gen_wide(&mut g, vars, 11)]),
                6 => Formula::Or(vec![
                    gen_wide(&mut g, vars, 11),
                    gen_wide(&mut g, vars, 11),
                    gen_atom(&mut g, vars),
                ]),
                // Over the constraint budget after one elimination, and
                // over it only in byte order.
                7 => many_bounds(40 + g.below(12)),
                8 => skewed_bounds(40 + g.below(12)),
                _ => gen_formula(&mut g, vars, 3),
            };
            count(assert_agrees(&f));
            // `implies` refutes premise ∧ ¬conclusion without building the
            // implication; it must agree with the reference on it.
            let conclusion = gen_formula(&mut g, vars, 2);
            let refuted = reference::is_satisfiable(&Formula::not(Formula::implies(
                f.clone(),
                conclusion.clone(),
            )));
            assert_eq!(
                implies(&f, &conclusion),
                refuted == SolverResult::Unsatisfiable,
                "implies({f}, {conclusion})"
            );
        }
        // Every verdict, `Unknown` included, must have been compared.
        assert!(seen.iter().all(|&n| n > 0), "verdicts seen: {seen:?}");
    }
}
