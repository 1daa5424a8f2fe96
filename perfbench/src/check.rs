//! Output checks and plan quality: every emitted plan is validated against
//! its query and the cluster grid, then each join is run in the Hive
//! simulator at the resources the plan chose.

use raqo_catalog::{QuerySpec, TableId};
use raqo_core::{Degradation, DegradationRung, DegradationTrigger, RaqoPlan, RaqoStats};
use raqo_cost::CostVector;
use raqo_planner::{JoinDecision, JoinIo, PlanTree, PlannedJoin, PlannedQuery};
use raqo_resource::{ClusterConditions, ResourceConfig};
use raqo_sim::{monetary_cost_tb_sec, Engine, JoinImpl};
use serde::Value;

/// What one valid plan does when simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    /// Σ simulated join times, seconds.
    pub time_s: f64,
    /// Σ simulated join money, TB·s.
    pub money_tbs: f64,
    /// Per join: max(estimated/simulated, simulated/estimated) time.
    pub qerrors: Vec<f64>,
}

/// Check `plan` against `query` and `cluster`, then simulate it. The error
/// names the first broken rule.
pub fn validate(
    plan: &RaqoPlan,
    query: &QuerySpec,
    cluster: &ClusterConditions,
    engine: &Engine,
) -> Result<Simulated, String> {
    let planned = &plan.query;
    if !planned.cost.is_finite() || planned.cost < 0.0 {
        return Err(format!(
            "plan cost {} is not a finite non-negative number",
            planned.cost
        ));
    }
    let mut leaves = planned.tree.relations();
    leaves.sort_unstable();
    let mut expected: Vec<TableId> = query.relations.clone();
    expected.sort_unstable();
    expected.dedup();
    if leaves != expected {
        return Err(format!(
            "plan covers relations {:?}, query has {:?}",
            ids(&leaves),
            ids(&expected)
        ));
    }
    if planned.joins.len() + 1 != expected.len() {
        return Err(format!(
            "{} joins for {} relations",
            planned.joins.len(),
            expected.len()
        ));
    }
    let mut sim = Simulated {
        time_s: 0.0,
        money_tbs: 0.0,
        qerrors: Vec::new(),
    };
    for (i, join) in planned.joins.iter().enumerate() {
        let d = &join.decision;
        if !d.cost.is_finite() {
            return Err(format!("join {i}: cost {} is not finite", d.cost));
        }
        let Some((nc, cs)) = d.resources else {
            return Err(format!("join {i}: no resources chosen"));
        };
        if !on_grid(cluster, nc, cs) {
            return Err(format!(
                "join {i}: resources ({nc} containers, {cs} GB) are off the grid"
            ));
        }
        let io = &join.io;
        let time = match d.cores {
            Some(cores) => {
                engine.join_time_with_cores(d.join, io.build_gb, io.probe_gb, nc, cs, cores)
            }
            None => engine.join_time(d.join, io.build_gb, io.probe_gb, nc, cs),
        };
        let time = time.map_err(|oom| {
            format!(
                "join {i}: {} runs out of memory: build {:.3} GB over capacity {:.3} GB",
                d.join.abbrev(),
                oom.build_gb,
                oom.capacity_gb
            )
        })?;
        sim.time_s += time;
        sim.money_tbs += monetary_cost_tb_sec(time, nc, cs);
        let est = d.objectives.time_sec;
        sim.qerrors.push(if est > 0.0 && time > 0.0 {
            (est / time).max(time / est)
        } else {
            f64::NAN
        });
    }
    if !(sim.time_s.is_finite() && sim.time_s > 0.0) {
        return Err(format!("simulated time {} is not positive", sim.time_s));
    }
    Ok(sim)
}

/// Is ⟨nc, cs⟩ a point of the cluster's resource grid?
fn on_grid(cluster: &ClusterConditions, nc: f64, cs: f64) -> bool {
    let r = ResourceConfig::containers_and_size(nc, cs);
    if cluster.dims() != 2 || !cluster.contains(&r) {
        return false;
    }
    let step = cluster.discrete_steps();
    (0..2).all(|i| {
        let k = (r.get(i) - cluster.min.get(i)) / step.get(i);
        (k - k.round()).abs() < 1e-9
    })
}

fn ids(rels: &[TableId]) -> Vec<u32> {
    rels.iter().map(|t| t.0).collect()
}

/// The per-layer metric counting each degradation ladder rung.
pub const RUNG_METRICS: [&str; 4] = [
    "optimizer.degraded.memo_cut",
    "optimizer.degraded.idp_bridge",
    "optimizer.degraded.randomized",
    "optimizer.degraded.rule_based",
];

/// The rung metric of a degraded plan; `None` for a full-strength plan.
pub fn rung_metric(plan: &RaqoPlan) -> Option<&'static str> {
    plan.degradation.map(|d| match d.rung {
        DegradationRung::MemoCut => RUNG_METRICS[0],
        DegradationRung::IdpBridge => RUNG_METRICS[1],
        DegradationRung::Randomized => RUNG_METRICS[2],
        DegradationRung::RuleBased => RUNG_METRICS[3],
    })
}

// ---- wire replies ------------------------------------------------------

/// Decode the `plan_json` of a wire reply (the serialized
/// `Option<RaqoPlan>`) back into a [`RaqoPlan`]. `Ok(None)` is a server
/// that found no plan; `Err` is a reply that does not parse.
pub fn decode_plan(json: &str) -> Result<Option<RaqoPlan>, String> {
    let value = serde_json::from_str(json).map_err(|e| format!("reply plan is not JSON: {e:?}"))?;
    if value == Value::Null {
        return Ok(None);
    }
    plan_of(&value)
        .map(Some)
        .ok_or_else(|| "reply plan does not have the RaqoPlan shape".into())
}

fn field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

fn f(v: &Value, name: &str) -> Option<f64> {
    num(field(v, name)?)
}

fn u(v: &Value, name: &str) -> Option<u64> {
    let n = f(v, name)?;
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

fn unit_variant(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn table_ids(v: &Value) -> Option<Vec<TableId>> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|t| Some(TableId(num(t)? as u32)))
            .collect(),
        _ => None,
    }
}

fn tree_of(v: &Value) -> Option<PlanTree> {
    if let Some(leaf) = field(v, "Leaf") {
        return Some(PlanTree::Leaf(TableId(num(leaf)? as u32)));
    }
    match field(v, "Join")? {
        Value::Array(sides) if sides.len() == 2 => {
            Some(PlanTree::join(tree_of(&sides[0])?, tree_of(&sides[1])?))
        }
        _ => None,
    }
}

fn objectives_of(v: &Value) -> Option<CostVector> {
    Some(CostVector {
        time_sec: f(v, "time_sec")?,
        money_tb_sec: f(v, "money_tb_sec")?,
    })
}

fn optional<T>(v: Option<&Value>, of: impl Fn(&Value) -> Option<T>) -> Option<Option<T>> {
    match v {
        None | Some(Value::Null) => Some(None),
        Some(v) => of(v).map(Some),
    }
}

fn decision_of(v: &Value) -> Option<JoinDecision> {
    let join = match unit_variant(field(v, "join")?)? {
        "SortMerge" => JoinImpl::SortMerge,
        "BroadcastHash" => JoinImpl::BroadcastHash,
        _ => return None,
    };
    let resources = optional(field(v, "resources"), |r| match r {
        Value::Array(p) if p.len() == 2 => Some((num(&p[0])?, num(&p[1])?)),
        _ => None,
    })?;
    Some(JoinDecision {
        join,
        cost: f(v, "cost")?,
        objectives: objectives_of(field(v, "objectives")?)?,
        resources,
        cores: optional(field(v, "cores"), num)?,
    })
}

fn join_of(v: &Value) -> Option<PlannedJoin> {
    let io = field(v, "io")?;
    Some(PlannedJoin {
        left: table_ids(field(v, "left")?)?,
        right: table_ids(field(v, "right")?)?,
        io: JoinIo {
            build_gb: f(io, "build_gb")?,
            probe_gb: f(io, "probe_gb")?,
            out_gb: f(io, "out_gb")?,
            out_rows: f(io, "out_rows")?,
        },
        decision: decision_of(field(v, "decision")?)?,
    })
}

fn degradation_of(v: &Value) -> Option<Degradation> {
    let rung = match unit_variant(field(v, "rung")?)? {
        "IdpBridge" => DegradationRung::IdpBridge,
        "Randomized" => DegradationRung::Randomized,
        "RuleBased" => DegradationRung::RuleBased,
        "MemoCut" => DegradationRung::MemoCut,
        _ => return None,
    };
    let trigger = match unit_variant(field(v, "trigger")?)? {
        "Deadline" => DegradationTrigger::Deadline,
        "EvalBudget" => DegradationTrigger::EvalBudget,
        "TooManyRelations" => DegradationTrigger::TooManyRelations,
        "RelationBoundBridged" => DegradationTrigger::RelationBoundBridged,
        "Infeasible" => DegradationTrigger::Infeasible,
        _ => return None,
    };
    Some(Degradation {
        rung,
        trigger,
        evals_used: u(v, "evals_used")?,
        elapsed_ms: u(v, "elapsed_ms")?,
    })
}

fn plan_of(v: &Value) -> Option<RaqoPlan> {
    let q = field(v, "query")?;
    let joins = match field(q, "joins")? {
        Value::Array(items) => items.iter().map(join_of).collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let s = field(v, "stats")?;
    Some(RaqoPlan {
        query: PlannedQuery {
            tree: tree_of(field(q, "tree")?)?,
            joins,
            cost: f(q, "cost")?,
            objectives: objectives_of(field(q, "objectives")?)?,
        },
        stats: RaqoStats {
            resource_iterations: u(s, "resource_iterations")?,
            plan_cost_calls: u(s, "plan_cost_calls")?,
            cache_hits: u(s, "cache_hits")?,
            memo_hits: u(s, "memo_hits")?,
        },
        degradation: optional(field(v, "degradation"), degradation_of)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqo_catalog::tpch::TpchSchema;
    use raqo_core::{PlannerKind, RaqoOptimizer, ResourceStrategy};
    use raqo_cost::JoinCostModel;
    use raqo_resource::CacheLookup;

    fn q5_plan() -> (RaqoPlan, QuerySpec, ClusterConditions) {
        let schema = TpchSchema::new(1.0);
        let model = JoinCostModel::trained_hive();
        let cluster = ClusterConditions::paper_default();
        let query = QuerySpec::tpch_full_suite()
            .into_iter()
            .find(|q| q.name == "Q5")
            .unwrap();
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            cluster,
            PlannerKind::Selinger,
            ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 }),
        );
        (opt.optimize(&query).expect("Q5 plans"), query, cluster)
    }

    #[test]
    fn a_real_plan_validates_and_simulates() {
        let (plan, query, cluster) = q5_plan();
        let sim = validate(&plan, &query, &cluster, &Engine::hive()).expect("valid");
        assert!(sim.time_s > 0.0 && sim.money_tbs > 0.0);
        assert_eq!(sim.qerrors.len(), query.relations.len() - 1);
        assert!(sim.qerrors.iter().all(|q| *q >= 1.0));
    }

    #[test]
    fn hand_broken_plans_are_rejected() {
        let (plan, query, cluster) = q5_plan();
        let engine = Engine::hive();

        // A relation joined twice: the duplicated leaf replaces another.
        let mut dup = plan.clone();
        let first = dup.query.tree.relations()[0];
        let PlanTree::Join(_, right) = &mut dup.query.tree else {
            panic!("Q5 has joins")
        };
        **right = PlanTree::Leaf(first);
        let err = validate(&dup, &query, &cluster, &engine).unwrap_err();
        assert!(err.contains("covers relations"), "{err}");

        // A broadcast hash join whose build side cannot fit its containers.
        let mut oom = plan.clone();
        let j = &mut oom.query.joins[0];
        j.decision.join = JoinImpl::BroadcastHash;
        j.decision.resources = Some((1.0, 1.0));
        j.io.build_gb = 100.0;
        let err = validate(&oom, &query, &cluster, &engine).unwrap_err();
        assert!(err.contains("out of memory"), "{err}");

        let mut off = plan.clone();
        off.query.joins[0].decision.resources = Some((2.5, 1.0));
        let err = validate(&off, &query, &cluster, &engine).unwrap_err();
        assert!(err.contains("off the grid"), "{err}");

        let mut nan = plan;
        nan.query.cost = f64::NAN;
        assert!(validate(&nan, &query, &cluster, &engine).is_err());
    }

    #[test]
    fn wire_plan_json_decodes_to_the_same_plan() {
        let (plan, _, _) = q5_plan();
        let json = serde_json::to_string(&Some(plan.clone())).unwrap();
        let back = decode_plan(&json).unwrap().expect("a plan");
        assert_eq!(serde_json::to_string(&Some(back.clone())).unwrap(), json);
        assert_eq!(back.query.cost.to_bits(), plan.query.cost.to_bits());
        assert_eq!(decode_plan("null").unwrap().map(|p| p.query.cost), None);
        assert!(decode_plan("{\"query\": 1}").is_err());
        assert!(decode_plan("not json").is_err());
    }
}
