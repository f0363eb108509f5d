//! The symbolic encoding the safety (Sec. 5) and reuse (Sec. 6) checks share.
//!
//! Both checks translate a plan bottom-up into linear-arithmetic formulas
//! over attribute variables, per operator and over two copies of every
//! attribute: an unprimed `a` and a primed `a'` ([`PRIME_SUFFIX`]).
//!
//! * **Safety** (Fig. 3): `a` is the query over the sketch instance and `a'`
//!   the query over the full database. Both copies leave the parameters
//!   symbolic: `$i` is the variable `__param_i`, shared by the copies.
//! * **Reuse** (Fig. 4): `a` is the captured instance `Q` and `a'` the new
//!   instance `Q'`. Each copy reads its parameters from its own binding.
//!
//! [`Encoder::walk`] is the one plan walk. Per operator it builds a [`Node`]:
//! `pred` and `expr` on both copies ([`Side`]), Ψ (what relates the copies),
//! whether every obligation so far holds, and whether a partition attribute
//! lies below. It also discharges the obligations Fig. 3 and Fig. 4 share —
//! group-by, distinct-column and join-key equality — once a partition
//! attribute lies below. What differs between the checks is a [`Rules`]
//! implementation: `safety` adds column-bound premises, the selection and
//! top-k obligations and Fig. 3b's aggregate Ψ; `reuse` adds Fig. 4b's
//! aggregate Ψ and checks `uconds` on the walk's result.
//!
//! String constants are mapped to numeric codes that preserve their order,
//! which keeps comparisons over string attributes (e.g. `state >= 'AL'`)
//! within linear arithmetic.

use pbds_algebra::{AggExpr, BinOp, Expr, LogicalPlan, SortKey};
use pbds_solver::{implies, CmpOp, Formula, LinExpr};
use pbds_storage::{Database, Value};
use std::collections::BTreeSet;

/// Suffix used to form the primed copy of an attribute variable.
pub const PRIME_SUFFIX: &str = "__p";

/// Bindings that leave every parameter symbolic on both copies.
pub(crate) const SYMBOLIC: [&[Value]; 2] = [&[], &[]];

/// Encodes the expressions of one plan on both copies: string constants as
/// order-preserving codes, parameters from each copy's binding.
#[derive(Debug)]
pub(crate) struct Encoder<'a> {
    /// Every string the formulas may contain, sorted; a code is a position.
    strings: Vec<String>,
    /// The parameter binding of the unprimed and of the primed copy. A
    /// parameter a binding does not cover stays symbolic.
    bindings: [&'a [Value]; 2],
}

impl<'a> Encoder<'a> {
    /// An encoder for `plan` whose copies take `bindings`. It codes every
    /// string literal of the plan and every string a binding gives one of
    /// its parameters, so codes are stable across the premise and the
    /// conclusion of one check.
    pub(crate) fn new(plan: &LogicalPlan, bindings: [&'a [Value]; 2]) -> Self {
        let mut set = BTreeSet::new();
        plan.visit_exprs(&mut |e| collect_strings(e, &bindings, &mut set));
        Encoder {
            strings: set.into_iter().collect(),
            bindings,
        }
    }

    /// Register an additional string (e.g. from table statistics).
    pub(crate) fn register(&mut self, s: &str) {
        if let Err(pos) = self.strings.binary_search_by(|x| x.as_str().cmp(s)) {
            self.strings.insert(pos, s.to_string());
        }
    }

    /// Order-preserving code of a string (strings between two registered
    /// constants get interleaved codes, which is sound for the comparisons
    /// the formulas contain because only registered constants appear in them).
    fn encode(&self, s: &str) -> f64 {
        match self.strings.binary_search_by(|x| x.as_str().cmp(s)) {
            Ok(pos) => pos as f64 * 10.0,
            Err(pos) => pos as f64 * 10.0 - 5.0,
        }
    }

    /// Encode any value as a solver constant.
    pub(crate) fn constant(&self, v: &Value) -> Option<f64> {
        match v {
            Value::Str(s) => Some(self.encode(s)),
            Value::Null => None,
            other => other.as_f64(),
        }
    }

    /// Translate a scalar expression on one copy to a linear expression
    /// over attribute variables, if possible.
    pub(crate) fn lin(&self, e: &Expr, primed: bool) -> Option<LinExpr> {
        match e {
            Expr::Column(c) => Some(LinExpr::var(attr_var(c, primed))),
            Expr::Literal(v) => self.constant(v).map(LinExpr::constant),
            // A bound parameter is its copy's constant; an unbound one is a
            // variable both copies share, so it is never primed.
            Expr::Param(i) => match self.bindings[primed as usize].get(*i) {
                Some(v) => self.constant(v).map(LinExpr::constant),
                None => Some(LinExpr::var(format!("__param_{i}"))),
            },
            Expr::Binary { op, left, right } => {
                let l = self.lin(left, primed)?;
                let r = self.lin(right, primed)?;
                match op {
                    BinOp::Add => Some(l.add(&r)),
                    BinOp::Sub => Some(l.sub(&r)),
                    BinOp::Mul => {
                        // Only linear products (one side constant) are encodable.
                        if l.is_constant() {
                            Some(r.scale(l.constant_part()))
                        } else if r.is_constant() {
                            Some(l.scale(r.constant_part()))
                        } else {
                            None
                        }
                    }
                    BinOp::Div => {
                        if r.is_constant() && r.constant_part() != 0.0 {
                            Some(l.scale(1.0 / r.constant_part()))
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Translate a boolean predicate on one copy to a formula. Atoms that
    /// cannot be encoded are replaced by `True` and flagged.
    pub(crate) fn formula(&self, e: &Expr, primed: bool) -> EncodedPred {
        let unencodable = EncodedPred {
            formula: Formula::True,
            complete: false,
        };
        match e {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                match (self.lin(left, primed), self.lin(right, primed)) {
                    (Some(l), Some(r)) => {
                        let cmp = match op {
                            BinOp::Eq => CmpOp::Eq,
                            BinOp::Ne => CmpOp::Ne,
                            BinOp::Lt => CmpOp::Lt,
                            BinOp::Le => CmpOp::Le,
                            BinOp::Gt => CmpOp::Gt,
                            BinOp::Ge => CmpOp::Ge,
                            _ => unreachable!(),
                        };
                        EncodedPred {
                            formula: Formula::cmp(l, cmp, r),
                            complete: true,
                        }
                    }
                    _ => unencodable,
                }
            }
            Expr::And(es) => es
                .iter()
                .map(|x| self.formula(x, primed))
                .fold(EncodedPred::truth(), EncodedPred::and),
            Expr::Or(es) => {
                let parts: Vec<EncodedPred> = es.iter().map(|x| self.formula(x, primed)).collect();
                // A disjunction with a dropped disjunct cannot be weakened
                // soundly (weakening a disjunct strengthens nothing); treat
                // the whole disjunction as unencodable.
                if !parts.iter().all(|p| p.complete) {
                    return unencodable;
                }
                EncodedPred {
                    formula: Formula::or_all(parts.into_iter().map(|p| p.formula).collect()),
                    complete: true,
                }
            }
            Expr::Not(x) => {
                let inner = self.formula(x, primed);
                if !inner.complete {
                    return unencodable;
                }
                EncodedPred {
                    formula: Formula::not(inner.formula),
                    complete: true,
                }
            }
            _ => unencodable,
        }
    }

    /// Encode `plan` bottom-up, with `rules` adding what its check alone
    /// needs. Every obligation's verdict is noted in `trace`.
    pub(crate) fn walk<R: Rules>(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        rules: &R,
        trace: &mut Vec<String>,
    ) -> Node {
        let mut walk = |input: &LogicalPlan| self.walk(db, input, rules, trace);
        match plan {
            LogicalPlan::TableScan { table } => {
                let names: Vec<String> = db
                    .table(table)
                    .map(|t| t.schema().names().iter().map(|s| s.to_string()).collect())
                    .unwrap_or_default();
                // Ψ_R: equality on all attributes of R.
                let psi = Formula::and_all(names.iter().map(|n| eq_primed(n)).collect());
                let mut sides = [Side::new(), Side::new()];
                let sketched = rules.scan(self, table, &mut sides);
                Node {
                    names,
                    sides,
                    psi,
                    ok: true,
                    sketched,
                }
            }
            LogicalPlan::Selection { predicate, input } => {
                let mut node = walk(input);
                let theta = [
                    self.formula(predicate, false),
                    self.formula(predicate, true),
                ];
                node.require(|node| rules.selection(node, predicate, &theta, trace));
                for (side, theta) in node.sides.iter_mut().zip(theta) {
                    side.complete &= theta.complete;
                    side.pred.push(theta.formula);
                }
                node
            }
            LogicalPlan::Projection { exprs, input } => {
                let mut node = walk(input);
                // expr(Q): b = e for every encodable projection expression.
                for (primed, side) in [false, true].into_iter().zip(&mut node.sides) {
                    let mut parts = vec![std::mem::replace(&mut side.expr, Formula::True)];
                    parts.extend(exprs.iter().filter_map(|(e, name)| {
                        let var = LinExpr::var(attr_var(name, primed));
                        Some(Formula::cmp(self.lin(e, primed)?, CmpOp::Eq, var))
                    }));
                    side.expr = Formula::and_all(parts);
                }
                node.names = exprs.iter().map(|(_, name)| name.clone()).collect();
                node
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => {
                let mut node = walk(input);
                node.require(|node| node.agree("aggregate group-by", group_by, trace));
                node.names = group_by
                    .iter()
                    .chain(aggregates.iter().map(|a| &a.alias))
                    .cloned()
                    .collect();
                node.psi = rules.aggregate_psi(self, &node, input, group_by, aggregates, trace);
                node
            }
            LogicalPlan::Distinct { input } => {
                let mut node = walk(input);
                node.require(|node| node.agree("distinct", &node.names, trace));
                node
            }
            LogicalPlan::TopK {
                order_by, input, ..
            } => {
                let mut node = walk(input);
                node.require(|node| rules.top_k(node, order_by, trace));
                node
            }
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                let (l, r) = (walk(left), walk(right));
                let ok = l.ok
                    && r.ok
                    && (!(l.sketched || r.sketched)
                        || l.agree("join key", [left_col], trace)
                            && r.agree("join key", [right_col], trace));
                let mut node = Node::product(l, r, ok);
                if R::JOIN_KEYS_IN_PRED {
                    for (primed, side) in [false, true].into_iter().zip(&mut node.sides) {
                        side.pred.push(Formula::var_cmp_var(
                            &attr_var(left_col, primed),
                            CmpOp::Eq,
                            &attr_var(right_col, primed),
                        ));
                    }
                }
                node
            }
            LogicalPlan::CrossProduct { left, right } => {
                let (l, r) = (walk(left), walk(right));
                let ok = l.ok && r.ok;
                Node::product(l, r, ok)
            }
            LogicalPlan::Union { left, right } => {
                let (l, r) = (walk(left), walk(right));
                // Ψ keeps only what both inputs share: all of it when they
                // agree, nothing otherwise.
                let psi = if l.psi == r.psi { l.psi } else { Formula::True };
                let [lq, lqp] = l.sides;
                let [rq, rqp] = r.sides;
                let or = |l: Side, r: Side| Side {
                    pred: vec![Formula::or_all(vec![
                        Formula::and_all(l.pred),
                        Formula::and_all(r.pred),
                    ])],
                    complete: l.complete && r.complete,
                    expr: Formula::or_all(vec![l.expr, r.expr]),
                };
                Node {
                    names: l.names,
                    sides: [or(lq, rq), or(lqp, rqp)],
                    psi,
                    ok: l.ok && r.ok,
                    sketched: l.sketched || r.sketched,
                }
            }
        }
    }
}

fn collect_strings(e: &Expr, bindings: &[&[Value]; 2], out: &mut BTreeSet<String>) {
    match e {
        Expr::Literal(Value::Str(s)) => {
            out.insert(s.clone());
        }
        Expr::Param(i) => {
            for binding in bindings {
                if let Some(Value::Str(s)) = binding.get(*i) {
                    out.insert(s.clone());
                }
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_strings(left, bindings, out);
            collect_strings(right, bindings, out);
        }
        Expr::And(es) | Expr::Or(es) => {
            for x in es {
                collect_strings(x, bindings, out);
            }
        }
        Expr::Not(x) | Expr::IsNull(x) => collect_strings(x, bindings, out),
        Expr::Case {
            branches,
            otherwise,
        } => {
            for (c, r) in branches {
                collect_strings(c, bindings, out);
                collect_strings(r, bindings, out);
            }
            collect_strings(otherwise, bindings, out);
        }
        _ => {}
    }
}

/// Variable name of an attribute, optionally primed.
pub(crate) fn attr_var(name: &str, primed: bool) -> String {
    if primed {
        format!("{name}{PRIME_SUFFIX}")
    } else {
        name.to_string()
    }
}

/// Equality of an attribute with its primed copy: `a = a'`.
pub(crate) fn eq_primed(attr: &str) -> Formula {
    Formula::var_cmp_var(&attr_var(attr, false), CmpOp::Eq, &attr_var(attr, true))
}

/// How an obligation's verdict reads in a trace.
pub(crate) fn verdict(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "FAILS"
    }
}

/// Result of encoding a predicate: the formula plus a flag recording whether
/// every atom could be encoded. Callers that place the predicate in the
/// *conclusion* of an implication must refuse to proceed when `complete` is
/// false (dropping conclusion atoms would be unsound); premises may always be
/// weakened.
#[derive(Debug)]
pub(crate) struct EncodedPred {
    /// The (possibly weakened) formula.
    pub(crate) formula: Formula,
    /// True when no atom was dropped.
    pub(crate) complete: bool,
}

impl EncodedPred {
    /// A trivially true, complete predicate.
    fn truth() -> Self {
        EncodedPred {
            formula: Formula::True,
            complete: true,
        }
    }

    /// Conjoin two encoded predicates.
    fn and(self, other: EncodedPred) -> EncodedPred {
        EncodedPred {
            formula: Formula::and_all(vec![self.formula, other.formula]),
            complete: self.complete && other.complete,
        }
    }
}

/// One copy of a subquery's encoding.
#[derive(Debug)]
pub(crate) struct Side {
    /// `pred(Q)` as its conjuncts: one per selection predicate θ, plus what
    /// a rule set adds (column bounds, join keys).
    pub(crate) pred: Vec<Formula>,
    /// False once a conjunct of `pred` lost an atom it could not encode.
    pub(crate) complete: bool,
    /// `expr(Q)`: `b = e` for every encodable projection expression.
    pub(crate) expr: Formula,
}

impl Side {
    fn new() -> Self {
        Side {
            pred: Vec::new(),
            complete: true,
            expr: Formula::True,
        }
    }

    /// `conds(Q) = pred(Q) ∧ expr(Q)`.
    pub(crate) fn conds(&self) -> Formula {
        let parts = self.pred.iter().chain([&self.expr]).cloned().collect();
        Formula::and_all(parts)
    }
}

/// The encoding of one subquery (`pred`, `expr` and Ψ of Fig. 3 / Fig. 4).
#[derive(Debug)]
pub(crate) struct Node {
    /// Output attribute names.
    pub(crate) names: Vec<String>,
    /// The unprimed copy, then the primed one.
    pub(crate) sides: [Side; 2],
    /// Ψ: what is known to relate the two copies.
    pub(crate) psi: Formula,
    /// Whether every obligation so far was proven (`gc` / `ge`).
    pub(crate) ok: bool,
    /// Whether a partition attribute lies in a relation below.
    pub(crate) sketched: bool,
}

impl Node {
    /// `Ψ ∧ conds(Q') ∧ conds(Q)`, the premise of the rules' obligations.
    pub(crate) fn premise(&self) -> Formula {
        let [q, qp] = &self.sides;
        let mut parts = Vec::with_capacity(q.pred.len() + qp.pred.len() + 3);
        parts.push(self.psi.clone());
        for side in [qp, q] {
            parts.extend(side.pred.iter().cloned());
            parts.push(side.expr.clone());
        }
        Formula::and_all(parts)
    }

    /// Discharge `obligation` when a partition attribute lies below and
    /// every obligation so far holds.
    fn require(&mut self, obligation: impl FnOnce(&Node) -> bool) {
        if self.ok && self.sketched {
            self.ok = obligation(self);
        }
    }

    /// Prove `c = c'` under the premise for each of `cols` in turn, noting
    /// every verdict as `{what} [c]: equality holds|FAILS`; stops at the
    /// first that fails.
    pub(crate) fn agree<S: AsRef<str>>(
        &self,
        what: &str,
        cols: impl IntoIterator<Item = S>,
        trace: &mut Vec<String>,
    ) -> bool {
        let mut premise = None;
        cols.into_iter().all(|c| {
            let c = c.as_ref();
            let premise = premise.get_or_insert_with(|| self.premise());
            let holds = implies(premise, &eq_primed(c));
            trace.push(format!("{what} [{c}]: equality {}", verdict(holds)));
            holds
        })
    }

    /// The join or cross product of `l` and `r`.
    fn product(l: Node, r: Node, ok: bool) -> Node {
        let [lq, lqp] = l.sides;
        let [rq, rqp] = r.sides;
        let join = |mut l: Side, r: Side| {
            l.pred.extend(r.pred);
            Side {
                pred: l.pred,
                complete: l.complete && r.complete,
                expr: Formula::and_all(vec![l.expr, r.expr]),
            }
        };
        let mut names = l.names;
        names.extend(r.names);
        Node {
            names,
            sides: [join(lq, rq), join(lqp, rqp)],
            psi: Formula::and_all(vec![l.psi, r.psi]),
            ok,
            sketched: l.sketched || r.sketched,
        }
    }
}

/// What one check adds to the shared walk. The defaults are Fig. 4's: no
/// premises at scans, a partition attribute below every operator, and no
/// selection or top-k obligation.
pub(crate) trait Rules {
    /// Whether a join's key equality joins `pred` on both copies.
    const JOIN_KEYS_IN_PRED: bool = false;

    /// Add the premises a scan of `table` contributes to `sides`; returns
    /// whether a partition attribute lies in `table`.
    fn scan(&self, _enc: &Encoder, _table: &str, _sides: &mut [Side; 2]) -> bool {
        true
    }

    /// The obligation of a selection `predicate` (encoded on both copies as
    /// `theta`) over `node`, when a partition attribute lies below and every
    /// obligation so far holds.
    fn selection(
        &self,
        _node: &Node,
        _predicate: &Expr,
        _theta: &[EncodedPred; 2],
        _trace: &mut Vec<String>,
    ) -> bool {
        true
    }

    /// The obligation of a top-k over `node`, under the same conditions.
    fn top_k(&self, _node: &Node, _order_by: &[SortKey], _trace: &mut Vec<String>) -> bool {
        true
    }

    /// Ψ above an aggregate. `node` is the encoding of its `input`, already
    /// named with the aggregate's output attributes.
    fn aggregate_psi(
        &self,
        enc: &Encoder,
        node: &Node,
        input: &LogicalPlan,
        group_by: &[String],
        aggregates: &[AggExpr],
        trace: &mut Vec<String>,
    ) -> Formula;
}

/// `node`'s Ψ and `b op b'` for every aggregate output `b` that `relation`
/// relates, each noted in `trace` — the Ψ both Fig. 3b and Fig. 4b build.
pub(crate) fn relate_outputs(
    node: &Node,
    aggregates: &[AggExpr],
    trace: &mut Vec<String>,
    mut relation: impl FnMut(&AggExpr) -> Option<CmpOp>,
) -> Formula {
    let mut parts = vec![node.psi.clone()];
    for agg in aggregates {
        let (func, arg, b) = (agg.func, &agg.input, &agg.alias);
        match relation(agg) {
            Some(op) => {
                trace.push(format!(
                    "aggregate {func}({arg}) AS {b}: Ψ gets {b} {op} {b}'"
                ));
                parts.push(Formula::var_cmp_var(
                    &attr_var(b, false),
                    op,
                    &attr_var(b, true),
                ));
            }
            None => trace.push(format!(
                "aggregate {func}({arg}) AS {b}: relationship between {b} and {b}' unknown"
            )),
        }
    }
    Formula::and_all(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, lit, param};
    use pbds_solver::is_valid;

    fn symbolic() -> Encoder<'static> {
        Encoder::new(&LogicalPlan::scan("t"), SYMBOLIC)
    }

    #[test]
    fn string_codes_preserve_order() {
        let mut enc = symbolic();
        enc.register("AL");
        enc.register("DE");
        enc.register("NY");
        assert!(enc.encode("AL") < enc.encode("DE"));
        assert!(enc.encode("DE") < enc.encode("NY"));
        // Unregistered strings interleave without colliding.
        assert!(enc.encode("CA") > enc.encode("AL"));
        assert!(enc.encode("CA") < enc.encode("DE"));
    }

    #[test]
    fn simple_comparison_encodes_completely() {
        let enc = symbolic();
        let p = enc.formula(&col("popden").gt(lit(100)), false);
        assert!(p.complete);
        assert_eq!(p.formula.to_string(), "popden > 100");
        let primed = enc.formula(&col("popden").gt(lit(100)), true);
        assert!(primed.formula.to_string().contains("popden__p"));
    }

    #[test]
    fn params_are_shared_between_primed_copies() {
        let enc = symbolic();
        let plain = enc.formula(&col("a").gt(param(0)), false);
        let primed = enc.formula(&col("a").gt(param(0)), true);
        // a = a' and a > $0 implies a' > $0 because the parameter variable is
        // the same on both sides.
        let f = Formula::implies(
            Formula::and_all(vec![eq_primed("a"), plain.formula]),
            primed.formula,
        );
        assert!(is_valid(&f));
    }

    #[test]
    fn bound_params_take_each_copys_binding() {
        let plan = LogicalPlan::scan("t").filter(col("s").ge(param(1)));
        let (q, qp) = (
            [Value::Int(5), Value::from("b")],
            [Value::Int(7), Value::from("a")],
        );
        let enc = Encoder::new(&plan, [&q, &qp]);
        assert_eq!(enc.lin(&param(0), false), Some(LinExpr::constant(5.0)));
        assert_eq!(enc.lin(&param(0), true), Some(LinExpr::constant(7.0)));
        // Both bindings' strings are coded, in order.
        assert!(enc.encode("a") < enc.encode("b"));
        assert_eq!(enc.lin(&param(1), true), Some(LinExpr::constant(0.0)));
        // A parameter past the binding stays symbolic.
        assert_eq!(enc.lin(&param(2), false), Some(LinExpr::var("__param_2")));
    }

    #[test]
    fn arithmetic_projection_expressions_encode() {
        let enc = symbolic();
        let e = col("a").add(col("b")).mul(lit(2));
        let lin = enc.lin(&e, false).unwrap();
        assert_eq!(lin.coeff("a"), 2.0);
        assert_eq!(lin.coeff("b"), 2.0);
        // Products of two attributes are not linear.
        assert!(enc.lin(&col("a").mul(col("b")), false).is_none());
    }

    #[test]
    fn unencodable_atoms_are_flagged() {
        let enc = symbolic();
        let p = enc.formula(&col("a").mul(col("b")).gt(lit(0)), false);
        assert!(!p.complete);
        assert_eq!(p.formula, Formula::True);
    }

    #[test]
    fn string_comparison_reasoning_works_end_to_end() {
        let plan = LogicalPlan::scan("cities")
            .filter(col("state").ge(lit("AL")).and(col("state").le(lit("DE"))));
        let enc = Encoder::new(&plan, SYMBOLIC);
        // state >= 'AL' AND state <= 'DE' implies state <= 'DE'.
        let pred = enc.formula(
            &col("state").ge(lit("AL")).and(col("state").le(lit("DE"))),
            false,
        );
        let conclusion = enc.formula(&col("state").le(lit("DE")), false);
        assert!(is_valid(&Formula::implies(
            pred.formula,
            conclusion.formula
        )));
    }
}
