//! Reusing provenance sketches across instances of a parameterized query
//! (Sec. 6 of the paper).
//!
//! Given a template `T`, an instance `Q` (for which a safe sketch was
//! captured) and a new instance `Q'`, the checker decides whether the sketch
//! of `Q` can answer `Q'`. It builds the condition `ge(Q', Q)` of Fig. 4 and
//! the condition `uconds(Q', Q)`, both discharged through the
//! linear-arithmetic solver; when both hold, `P(Q', D) ⊆ P(Q, D)` on every
//! database, so the (safe) sketch of `Q` is safe for `Q'` (Theorem 3).
//!
//! The plan walk is the one in the private `encode` module, with the
//! unprimed copy the captured instance `Q` and the primed copy the new
//! instance `Q'`. This module is Fig. 4's rule set over it: every operator
//! counts as sketched, a top-k passes through (`topk_inputs_agree` has
//! already required its input to be bound identically), Fig. 4b's aggregate
//! Ψ, and the final `uconds` check.

use crate::encode::{relate_outputs, verdict, Encoder, Node, Rules, Side, PRIME_SUFFIX};
use pbds_algebra::{AggExpr, AggFunc, LogicalPlan, QueryTemplate};
use pbds_solver::{implies, CmpOp, Formula, LinExpr};
use pbds_storage::{Database, Value};
use std::cell::OnceCell;

/// Outcome of a reuse check.
#[derive(Debug, Clone)]
pub struct ReuseResult {
    /// True when the captured sketch can answer the new instance.
    pub reusable: bool,
    /// Human-readable trace of the obligations checked.
    pub details: Vec<String>,
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
    ///
    /// # Panics
    /// Panics if either binding has fewer values than `template` has
    /// parameters (unless the two are identical).
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
        // Every parameter is bound on both copies, so no `__param_i`
        // variable reaches a formula.
        for binding in [captured, new_binding] {
            assert!(
                binding.len() >= template.num_params(),
                "template {} expects {} parameters, got {}",
                template.name(),
                template.num_params(),
                binding.len()
            );
        }
        let enc = Encoder::new(template.plan(), [captured, new_binding]);
        let mut details = Vec::new();
        let node = enc.walk(self.db, template.plan(), &Fig4, &mut details);
        let reusable = node.ok && uconds(node, &mut details);
        ReuseResult { reusable, details }
    }
}

/// `uconds(Q', Q)`: Ψ ∧ pred(Q') ∧ expr(Q') ∧ expr(Q) → pred(Q). A
/// conclusion that lost an atom proves nothing, so it is refused.
fn uconds(node: Node, details: &mut Vec<String>) -> bool {
    let [q, qp] = node.sides;
    if !q.complete {
        details.push("pred(Q) contains unencodable atoms; cannot prove containment".into());
        return false;
    }
    let premise = Formula::and_all(vec![node.psi, Formula::and_all(qp.pred), qp.expr, q.expr]);
    let holds = implies(&premise, &Formula::and_all(q.pred));
    details.push(format!("uconds(Q', Q): {}", verdict(holds)));
    holds
}

/// Fig. 4's rules; the [`Rules`] defaults are its scan, selection and top-k.
struct Fig4;

impl Rules for Fig4 {
    /// Fig. 4b.
    fn aggregate_psi(
        &self,
        enc: &Encoder,
        node: &Node,
        _input: &LogicalPlan,
        group_by: &[String],
        aggregates: &[AggExpr],
        trace: &mut Vec<String>,
    ) -> Formula {
        // non-grp-pred(Q): drop the conjuncts that only restrict group-by
        // attributes (Sec. 6).
        let non_grp = |side: &Side| {
            let keep = |f: &&Formula| {
                let vars = f.variables();
                vars.is_empty()
                    || !vars.iter().all(|v| {
                        let base = v.strip_suffix(PRIME_SUFFIX).unwrap_or(v);
                        group_by.iter().any(|g| g == base)
                    })
            };
            Formula::and_all(side.pred.iter().filter(keep).cloned().collect())
        };
        let [q, qp] = &node.sides;
        let (ngp_q, ngp_qp) = (non_grp(q), non_grp(qp));
        // ① Q's groups are Q''s; ② Q''s groups are subsets of Q's.
        let cond1 = implies(
            &Formula::and_all(vec![
                node.psi.clone(),
                ngp_q.clone(),
                q.expr.clone(),
                qp.expr.clone(),
            ]),
            &ngp_qp,
        );
        let cond2 = implies(
            &Formula::and_all(vec![
                node.psi.clone(),
                ngp_qp,
                qp.expr.clone(),
                q.expr.clone(),
            ]),
            &ngp_q,
        );
        trace.push(format!(
            "aggregate non-group predicates: ① {} ② {}",
            verdict(cond1),
            verdict(cond2)
        ));
        let conds = OnceCell::new();
        let sign = |agg: &AggExpr, op| {
            let zero = LinExpr::constant(0.0);
            enc.lin(&agg.input, false).is_some_and(|lin| {
                implies(
                    conds.get_or_init(|| q.conds()),
                    &Formula::cmp(lin, op, zero),
                )
            })
        };
        relate_outputs(node, aggregates, trace, |agg| {
            if cond1 && cond2 {
                Some(CmpOp::Eq)
            } else if cond2 {
                // The new query's groups contain subsets of the captured
                // query's groups.
                match agg.func {
                    AggFunc::Count => Some(CmpOp::Ge),
                    AggFunc::Sum | AggFunc::Max if sign(agg, CmpOp::Gt) => Some(CmpOp::Ge),
                    AggFunc::Sum | AggFunc::Min if sign(agg, CmpOp::Lt) => Some(CmpOp::Le),
                    _ => None,
                }
            } else {
                None
            }
        })
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
                .all(|d| !d.starts_with("aggregate") && !d.starts_with("join")),
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
