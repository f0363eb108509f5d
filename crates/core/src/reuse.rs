//! Reusing provenance sketches across instances of a parameterized query
//! (Sec. 6 of the paper).
//!
//! Given a template `T`, an instance `Q` (for which a safe sketch was
//! captured) and a new instance `Q'`, the checker decides whether the sketch
//! of `Q` can answer `Q'`. It builds the condition `ge(Q', Q)` of Fig. 4 and
//! the condition `uconds(Q', Q)`, both discharged through the
//! linear-arithmetic solver; when both hold, `P(Q', D) ⊆ P(Q, D)` on every
//! database, so the (safe) sketch of `Q` is safe for `Q'` (Theorem 3).

use crate::encode::{
    attr_var, eq_primed, to_formula, to_linexpr, EncodedPred, StringEncoder, PRIME_SUFFIX,
};
use pbds_algebra::{AggFunc, LogicalPlan, QueryTemplate};
use pbds_solver::{is_valid, CmpOp, Formula, LinExpr};
use pbds_storage::{Database, Value};

/// Outcome of a reuse check.
#[derive(Debug, Clone)]
pub struct ReuseResult {
    /// True when the captured sketch can answer the new instance.
    pub reusable: bool,
    /// Human-readable trace of the obligations checked.
    pub details: Vec<String>,
}

/// Per-node state for the reuse analysis. Unprimed variables refer to the
/// captured instance `Q`, primed variables to the new instance `Q'`.
struct NodeInfo {
    schema_names: Vec<String>,
    /// Conjuncts of `pred(Q)` (unprimed).
    pred_q: Vec<Formula>,
    /// Conjuncts of `pred(Q')` (primed).
    pred_qp: Vec<Formula>,
    /// Whether every conjunct of `pred(Q)` could be encoded.
    pred_q_complete: bool,
    expr_q: EncodedPred,
    expr_qp: EncodedPred,
    psi: Formula,
    ge: bool,
}

impl NodeInfo {
    fn conds_q(&self) -> Formula {
        Formula::and_all(
            self.pred_q
                .iter()
                .cloned()
                .chain(std::iter::once(self.expr_q.formula.clone()))
                .collect(),
        )
    }
    fn conds_qp(&self) -> Formula {
        Formula::and_all(
            self.pred_qp
                .iter()
                .cloned()
                .chain(std::iter::once(self.expr_qp.formula.clone()))
                .collect(),
        )
    }
    fn premise(&self) -> Formula {
        Formula::and_all(vec![self.psi.clone(), self.conds_q(), self.conds_qp()])
    }
}

/// The sketch-reuse checker.
#[derive(Debug, Clone)]
pub struct ReuseChecker<'a> {
    db: &'a Database,
}

impl<'a> ReuseChecker<'a> {
    /// Create a checker over a database (only statistics are consulted).
    pub fn new(db: &'a Database) -> Self {
        ReuseChecker { db }
    }

    /// Can a sketch captured for `template(captured)` be used to answer
    /// `template(new_binding)`?
    pub fn can_reuse(
        &self,
        template: &QueryTemplate,
        captured: &[Value],
        new_binding: &[Value],
    ) -> ReuseResult {
        if captured == new_binding {
            return ReuseResult {
                reusable: true,
                details: vec!["identical parameter bindings".to_string()],
            };
        }
        // No solver obligation can make up for a top-k whose input differs,
        // so this plan walk runs before any of them.
        if !topk_inputs_agree(template.plan(), captured, new_binding) {
            return ReuseResult {
                reusable: false,
                details: vec![
                    "reuse top-k: parameters below the top-k differ; not reusable".to_string(),
                ],
            };
        }
        let q = template.instantiate(captured);
        let qp = template.instantiate(new_binding);
        let strings = StringEncoder::from_plans(&[&q, &qp]);
        let mut details = Vec::new();
        let info = self.analyze(
            template.plan(),
            captured,
            new_binding,
            &strings,
            &mut details,
        );

        if !info.ge {
            return ReuseResult {
                reusable: false,
                details,
            };
        }
        // uconds(Q', Q): Ψ ∧ pred(Q') ∧ expr(Q') ∧ expr(Q) → pred(Q)
        if !info.pred_q_complete {
            details.push("pred(Q) contains unencodable atoms; cannot prove containment".into());
            return ReuseResult {
                reusable: false,
                details,
            };
        }
        let premise = Formula::and_all(vec![
            info.psi.clone(),
            Formula::and_all(info.pred_qp.clone()),
            info.expr_qp.formula.clone(),
            info.expr_q.formula.clone(),
        ]);
        let conclusion = Formula::and_all(info.pred_q.clone());
        let ok = is_valid(&Formula::implies(premise, conclusion));
        details.push(format!(
            "uconds(Q', Q): {}",
            if ok { "holds" } else { "FAILS" }
        ));
        ReuseResult {
            reusable: ok,
            details,
        }
    }

    fn analyze(
        &self,
        plan: &LogicalPlan,
        captured: &[Value],
        new_binding: &[Value],
        strings: &StringEncoder,
        details: &mut Vec<String>,
    ) -> NodeInfo {
        match plan {
            LogicalPlan::TableScan { table } => {
                let names = self
                    .db
                    .table(table)
                    .map(|t| {
                        t.schema()
                            .names()
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default();
                let psi = Formula::and_all(names.iter().map(|n| eq_primed(n)).collect());
                NodeInfo {
                    schema_names: names,
                    pred_q: Vec::new(),
                    pred_qp: Vec::new(),
                    pred_q_complete: true,
                    expr_q: EncodedPred::truth(),
                    expr_qp: EncodedPred::truth(),
                    psi,
                    ge: true,
                }
            }
            LogicalPlan::Selection { predicate, input } => {
                let mut child = self.analyze(input, captured, new_binding, strings, details);
                let theta_q = to_formula(&predicate.bind_params(captured), false, strings);
                let theta_qp = to_formula(&predicate.bind_params(new_binding), true, strings);
                child.pred_q_complete &= theta_q.complete;
                child.pred_q.push(theta_q.formula);
                child.pred_qp.push(theta_qp.formula);
                child
            }
            LogicalPlan::Projection { exprs, input } => {
                let mut child = self.analyze(input, captured, new_binding, strings, details);
                let mut q_parts = vec![child.expr_q.formula.clone()];
                let mut qp_parts = vec![child.expr_qp.formula.clone()];
                for (e, name) in exprs {
                    if let Some(lin) = to_linexpr(&e.bind_params(captured), false, strings) {
                        q_parts.push(Formula::cmp(
                            lin,
                            CmpOp::Eq,
                            LinExpr::var(attr_var(name, false)),
                        ));
                    }
                    if let Some(lin) = to_linexpr(&e.bind_params(new_binding), true, strings) {
                        qp_parts.push(Formula::cmp(
                            lin,
                            CmpOp::Eq,
                            LinExpr::var(attr_var(name, true)),
                        ));
                    }
                }
                child.expr_q = EncodedPred {
                    formula: Formula::and_all(q_parts),
                    complete: child.expr_q.complete,
                };
                child.expr_qp = EncodedPred {
                    formula: Formula::and_all(qp_parts),
                    complete: child.expr_qp.complete,
                };
                child.schema_names = exprs.iter().map(|(_, n)| n.clone()).collect();
                child
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => {
                let child = self.analyze(input, captured, new_binding, strings, details);
                // ge obligation: group-by attributes agree.
                let mut ge = child.ge;
                if ge {
                    for g in group_by {
                        let ob = Formula::implies(child.premise(), eq_primed(g));
                        let valid = is_valid(&ob);
                        details.push(format!(
                            "reuse aggregate group-by [{g}]: equality {}",
                            if valid { "holds" } else { "FAILS" }
                        ));
                        if !valid {
                            ge = false;
                            break;
                        }
                    }
                }
                // Ψ for aggregate outputs (Fig. 4b).
                // non-grp-pred(Q): drop the conjuncts that only restrict
                // group-by attributes (Sec. 6).
                let non_grp = |conjuncts: &[Formula]| -> Formula {
                    Formula::and_all(
                        conjuncts
                            .iter()
                            .filter(|f| {
                                !f.variables().iter().all(|v| {
                                    let base = v.strip_suffix(PRIME_SUFFIX).unwrap_or(v);
                                    group_by.iter().any(|g| g == base) || v.starts_with("__param_")
                                }) || f.variables().is_empty()
                            })
                            .cloned()
                            .collect(),
                    )
                };
                let ngp_q = non_grp(&child.pred_q);
                let ngp_qp = non_grp(&child.pred_qp);
                let cond1 = is_valid(&Formula::implies(
                    Formula::and_all(vec![
                        child.psi.clone(),
                        ngp_q.clone(),
                        child.expr_q.formula.clone(),
                        child.expr_qp.formula.clone(),
                    ]),
                    ngp_qp.clone(),
                ));
                let cond2 = is_valid(&Formula::implies(
                    Formula::and_all(vec![
                        child.psi.clone(),
                        ngp_qp.clone(),
                        child.expr_qp.formula.clone(),
                        child.expr_q.formula.clone(),
                    ]),
                    ngp_q.clone(),
                ));
                let mut psi_parts = vec![child.psi.clone()];
                for agg in aggregates {
                    let b = &agg.alias;
                    let relation = if cond1 && cond2 {
                        Some(CmpOp::Eq)
                    } else if cond2 {
                        // The new query's groups contain subsets of the
                        // captured query's groups.
                        let arg = to_linexpr(&agg.input.bind_params(captured), false, strings);
                        let sign = |op: CmpOp| {
                            arg.clone()
                                .map(|lin| {
                                    is_valid(&Formula::implies(
                                        child.conds_q(),
                                        Formula::cmp(lin, op, LinExpr::constant(0.0)),
                                    ))
                                })
                                .unwrap_or(false)
                        };
                        match agg.func {
                            AggFunc::Count => Some(CmpOp::Ge),
                            AggFunc::Sum | AggFunc::Max if sign(CmpOp::Gt) => Some(CmpOp::Ge),
                            AggFunc::Sum | AggFunc::Min if sign(CmpOp::Lt) => Some(CmpOp::Le),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    if let Some(op) = relation {
                        psi_parts.push(Formula::var_cmp_var(
                            &attr_var(b, false),
                            op,
                            &attr_var(b, true),
                        ));
                    }
                    details.push(format!(
                        "reuse aggregate {}({}) AS {b}: ① {} ② {}",
                        agg.func,
                        agg.input,
                        if cond1 { "holds" } else { "fails" },
                        if cond2 { "holds" } else { "fails" },
                    ));
                }
                let mut names = group_by.clone();
                names.extend(aggregates.iter().map(|a| a.alias.clone()));
                NodeInfo {
                    schema_names: names,
                    pred_q: child.pred_q,
                    pred_qp: child.pred_qp,
                    pred_q_complete: child.pred_q_complete,
                    expr_q: child.expr_q,
                    expr_qp: child.expr_qp,
                    psi: Formula::and_all(psi_parts),
                    ge,
                }
            }
            LogicalPlan::Distinct { input } => {
                let child = self.analyze(input, captured, new_binding, strings, details);
                let mut ge = child.ge;
                if ge {
                    for col in &child.schema_names {
                        if !is_valid(&Formula::implies(child.premise(), eq_primed(col))) {
                            details.push(format!("reuse distinct: column {col} may differ"));
                            ge = false;
                            break;
                        }
                    }
                }
                NodeInfo { ge, ..child }
            }
            // `can_reuse` has checked that the input is bound identically.
            LogicalPlan::TopK { input, .. } => {
                self.analyze(input, captured, new_binding, strings, details)
            }
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                let l = self.analyze(left, captured, new_binding, strings, details);
                let r = self.analyze(right, captured, new_binding, strings, details);
                let mut ge = l.ge && r.ge;
                if ge {
                    let ob_l = Formula::implies(l.premise(), eq_primed(left_col));
                    let ob_r = Formula::implies(r.premise(), eq_primed(right_col));
                    ge = is_valid(&ob_l) && is_valid(&ob_r);
                    if !ge {
                        details.push(format!(
                            "reuse join [{left_col} = {right_col}]: key equality FAILS"
                        ));
                    }
                }
                let mut schema_names = l.schema_names.clone();
                schema_names.extend(r.schema_names.clone());
                NodeInfo {
                    schema_names,
                    pred_q: l.pred_q.into_iter().chain(r.pred_q).collect(),
                    pred_qp: l.pred_qp.into_iter().chain(r.pred_qp).collect(),
                    pred_q_complete: l.pred_q_complete && r.pred_q_complete,
                    expr_q: l.expr_q.and(r.expr_q),
                    expr_qp: l.expr_qp.and(r.expr_qp),
                    psi: Formula::and_all(vec![l.psi, r.psi]),
                    ge,
                }
            }
            LogicalPlan::CrossProduct { left, right } => {
                let l = self.analyze(left, captured, new_binding, strings, details);
                let r = self.analyze(right, captured, new_binding, strings, details);
                let mut schema_names = l.schema_names.clone();
                schema_names.extend(r.schema_names.clone());
                NodeInfo {
                    schema_names,
                    pred_q: l.pred_q.into_iter().chain(r.pred_q).collect(),
                    pred_qp: l.pred_qp.into_iter().chain(r.pred_qp).collect(),
                    pred_q_complete: l.pred_q_complete && r.pred_q_complete,
                    expr_q: l.expr_q.and(r.expr_q),
                    expr_qp: l.expr_qp.and(r.expr_qp),
                    psi: Formula::and_all(vec![l.psi, r.psi]),
                    ge: l.ge && r.ge,
                }
            }
            LogicalPlan::Union { left, right } => {
                let l = self.analyze(left, captured, new_binding, strings, details);
                let r = self.analyze(right, captured, new_binding, strings, details);
                let psi = if l.psi == r.psi {
                    l.psi.clone()
                } else {
                    Formula::True
                };
                NodeInfo {
                    schema_names: l.schema_names.clone(),
                    pred_q: vec![Formula::or_all(vec![
                        Formula::and_all(l.pred_q.clone()),
                        Formula::and_all(r.pred_q.clone()),
                    ])],
                    pred_qp: vec![Formula::or_all(vec![
                        Formula::and_all(l.pred_qp.clone()),
                        Formula::and_all(r.pred_qp.clone()),
                    ])],
                    pred_q_complete: l.pred_q_complete && r.pred_q_complete,
                    expr_q: EncodedPred {
                        formula: Formula::or_all(vec![
                            l.expr_q.formula.clone(),
                            r.expr_q.formula.clone(),
                        ]),
                        complete: l.expr_q.complete && r.expr_q.complete,
                    },
                    expr_qp: EncodedPred {
                        formula: Formula::or_all(vec![
                            l.expr_qp.formula.clone(),
                            r.expr_qp.formula.clone(),
                        ]),
                        complete: l.expr_qp.complete && r.expr_qp.complete,
                    },
                    psi,
                    ge: l.ge && r.ge,
                }
            }
        }
    }
}

/// Are the parameters below every top-k of `plan` bound identically in `a`
/// and `b`? Fig. 4 defines no rule for top-k: a sketch captured for one
/// instance is only reused when the two top-k inputs are syntactically
/// equal.
fn topk_inputs_agree(plan: &LogicalPlan, a: &[Value], b: &[Value]) -> bool {
    match plan {
        LogicalPlan::TopK { input, .. } => input.params().iter().all(|&i| a.get(i) == b.get(i)),
        _ => plan
            .children()
            .into_iter()
            .all(|child| topk_inputs_agree(child, a, b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, param, AggExpr, SortKey};
    use pbds_storage::{DataType, Schema, TableBuilder};

    fn cities_db() -> Database {
        let schema = Schema::from_pairs(&[
            ("popden", DataType::Int),
            ("city", DataType::Str),
            ("state", DataType::Str),
        ]);
        let mut b = TableBuilder::new("cities", schema);
        for (popden, city, state) in [
            (4200, "Anchorage", "AK"),
            (6000, "San Diego", "CA"),
            (5000, "Sacramento", "CA"),
            (7000, "New York", "NY"),
            (2000, "Buffalo", "NY"),
        ] {
            b.push(vec![
                Value::Int(popden),
                Value::from(city),
                Value::from(state),
            ]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        db
    }

    /// The parameterized query of Fig. 5: states with more than $2 cities of
    /// at least $1 inhabitants.
    fn fig5_template() -> QueryTemplate {
        let plan = LogicalPlan::scan("cities")
            .filter(col("popden").gt(param(0)))
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Count, col("city"), "cntcity")],
            )
            .filter(col("cntcity").gt(param(1)));
        QueryTemplate::new("fig5", plan)
    }

    #[test]
    fn fig5_example7_reuse_holds() {
        // Q: ($1=100, $2=10); Q': ($1=100, $2=15). The paper shows PS can be
        // reused for Q' (Ex. 7).
        let db = cities_db();
        let checker = ReuseChecker::new(&db);
        let res = checker.can_reuse(
            &fig5_template(),
            &[Value::Int(100), Value::Int(10)],
            &[Value::Int(100), Value::Int(15)],
        );
        assert!(res.reusable, "{:?}", res.details);
    }

    #[test]
    fn fig5_reverse_direction_not_reusable() {
        // A sketch for the MORE selective instance cannot answer the less
        // selective one.
        let db = cities_db();
        let checker = ReuseChecker::new(&db);
        let res = checker.can_reuse(
            &fig5_template(),
            &[Value::Int(100), Value::Int(15)],
            &[Value::Int(100), Value::Int(10)],
        );
        assert!(!res.reusable, "{:?}", res.details);
    }

    #[test]
    fn changing_the_popden_filter_blocks_reuse_when_weaker() {
        let db = cities_db();
        let checker = ReuseChecker::new(&db);
        // Captured with popden > 100; new instance wants popden > 50: the new
        // provenance may include rows the sketch never saw.
        let res = checker.can_reuse(
            &fig5_template(),
            &[Value::Int(100), Value::Int(10)],
            &[Value::Int(50), Value::Int(10)],
        );
        assert!(!res.reusable, "{:?}", res.details);
        // Tightening it is fine... but note the tighter popden filter changes
        // the groups feeding the count, so condition ① fails and reuse falls
        // back on b >= b' which is what the HAVING lower bound needs.
        let res2 = checker.can_reuse(
            &fig5_template(),
            &[Value::Int(100), Value::Int(10)],
            &[Value::Int(200), Value::Int(10)],
        );
        assert!(res2.reusable, "{:?}", res2.details);
    }

    #[test]
    fn identical_bindings_are_trivially_reusable() {
        let db = cities_db();
        let checker = ReuseChecker::new(&db);
        let res = checker.can_reuse(
            &fig5_template(),
            &[Value::Int(100), Value::Int(10)],
            &[Value::Int(100), Value::Int(10)],
        );
        assert!(res.reusable);
    }

    #[test]
    fn topk_templates_require_identical_upstream_parameters() {
        let db = cities_db();
        let template = QueryTemplate::new(
            "topk",
            LogicalPlan::scan("cities")
                .filter(col("popden").gt(param(0)))
                .aggregate(
                    vec!["state"],
                    vec![AggExpr::new(AggFunc::Avg, col("popden"), "avgden")],
                )
                .top_k(vec![SortKey::desc("avgden")], 1),
        );
        let checker = ReuseChecker::new(&db);
        let same = checker.can_reuse(&template, &[Value::Int(100)], &[Value::Int(100)]);
        assert!(same.reusable);
        let diff = checker.can_reuse(&template, &[Value::Int(100)], &[Value::Int(200)]);
        assert!(!diff.reusable, "{:?}", diff.details);
        // The rejection comes from the plan walk alone, before any solver
        // obligation of the aggregate or join below the top-k.
        assert!(
            diff.details
                .iter()
                .all(|d| !d.starts_with("reuse aggregate") && !d.starts_with("reuse join")),
            "{:?}",
            diff.details
        );
    }

    #[test]
    fn having_upper_bound_reuse_direction() {
        // Template: HAVING cnt < $0 — reuse works when the new bound is
        // LOWER (more selective), not when it is higher.
        let db = cities_db();
        let template = QueryTemplate::new(
            "upper",
            LogicalPlan::scan("cities")
                .aggregate(
                    vec!["state"],
                    vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
                )
                .filter(col("cnt").lt(param(0))),
        );
        let checker = ReuseChecker::new(&db);
        let tighter = checker.can_reuse(&template, &[Value::Int(10)], &[Value::Int(5)]);
        assert!(tighter.reusable, "{:?}", tighter.details);
        let looser = checker.can_reuse(&template, &[Value::Int(5)], &[Value::Int(10)]);
        assert!(!looser.reusable, "{:?}", looser.details);
    }
}
