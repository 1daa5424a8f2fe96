//! Golden plans for the exhaustive-grid workload: Selinger join ordering
//! with brute-force resource planning over a 10,000-point grid (1–1000
//! containers × 1–10 GB, unit steps), the trained Hive model, and TPC-H
//! at SF100. The 20 multi-relation TPC-H join cores plus the all-tables
//! query are planned under three objectives: `optimize` (time),
//! `optimize_under_budget(2.0)` and `optimize_under_budget(40.0)`.
//!
//! Each row pins the plan's total cost, time and money as bit patterns,
//! its resource-iteration count, and an FNV-1a digest of every join's
//! implementation and chosen ⟨containers, size⟩. The grid scan may be
//! rewritten for speed, but it must keep choosing exactly these plans.

use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{PlannerKind, RaqoOptimizer, RaqoPlan, ResourceStrategy};
use raqo_cost::JoinCostModel;
use raqo_resource::{ClusterConditions, Parallelism};

/// `(query, objective, cost bits, time bits, money bits, resource
/// iterations, join digest)`; objective 0 = time, otherwise the money
/// budget in TB·s.
type Row = (&'static str, f64, u64, u64, u64, u64, u64);

fn digest(plan: &RaqoPlan) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for j in &plan.query.joins {
        mix(j.decision.join as u64);
        let (nc, cs) = j.decision.resources.expect("RAQO plans carry resources");
        mix(nc.to_bits());
        mix(cs.to_bits());
        mix(j.decision.cost.to_bits());
    }
    h
}

fn plan_all(parallelism: Parallelism) -> Vec<(String, f64, RaqoPlan)> {
    let schema = TpchSchema::sf100();
    let model = JoinCostModel::trained_hive();
    let mut specs: Vec<QuerySpec> =
        QuerySpec::tpch_full_suite().into_iter().filter(|q| q.relations.len() > 1).collect();
    specs.push(QuerySpec::tpch_all(&schema));
    let mut opt = RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        &model,
        ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0),
        PlannerKind::Selinger,
        ResourceStrategy::BruteForce,
    )
    .with_parallelism(parallelism);
    let mut out = Vec::new();
    for spec in &specs {
        for objective in [0.0, 2.0, 40.0] {
            let plan = if objective == 0.0 {
                opt.optimize(spec)
            } else {
                opt.optimize_under_budget(spec, objective)
            };
            if let Some(plan) = plan {
                out.push((spec.name.clone(), objective, plan));
            }
        }
    }
    out
}

/// Captured from the scan before the axis-table rewrite.
const GOLDEN: [Row; 63] = [
    ("Q2full", 0.0, 0x4010000000000000, 0x4010000000000000, 0x3fd6200000000000, 480000, 0x58351a13a1defd74),
    ("Q2full", 2.0, 0x4010000000000000, 0x4010000000000000, 0x3fd6200000000000, 480000, 0x58351a13a1defd74),
    ("Q2full", 40.0, 0x4010000000000000, 0x4010000000000000, 0x3fd6200000000000, 480000, 0x58351a13a1defd74),
    ("Q3", 0.0, 0x4000000000000000, 0x4000000000000000, 0x3fd3700000000000, 160000, 0x5c32fc3b15741ec2),
    ("Q3", 2.0, 0x4000000000000000, 0x4000000000000000, 0x3fd3700000000000, 160000, 0x5c32fc3b15741ec2),
    ("Q3", 40.0, 0x4000000000000000, 0x4000000000000000, 0x3fd3700000000000, 160000, 0x5c32fc3b15741ec2),
    ("Q4", 0.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f50000000000000, 60000, 0xbd9c08a2ec3c0678),
    ("Q4", 2.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f50000000000000, 60000, 0xbd9c08a2ec3c0678),
    ("Q4", 40.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f50000000000000, 60000, 0xbd9c08a2ec3c0678),
    ("Q5", 0.0, 0x4014000000000000, 0x4014000000000000, 0x3fd5900000000000, 1360000, 0x54f4dc7aa216b7ca),
    ("Q5", 2.0, 0x4014000000000000, 0x4014000000000000, 0x3fd5900000000000, 1360000, 0x54f4dc7aa216b7ca),
    ("Q5", 40.0, 0x4014000000000000, 0x4014000000000000, 0x3fd5900000000000, 1360000, 0x54f4dc7aa216b7ca),
    ("Q7", 0.0, 0x4010000000000000, 0x4010000000000000, 0x3fd4e00000000000, 780000, 0x7c5eb5a0a54e4e5c),
    ("Q7", 2.0, 0x4010000000000000, 0x4010000000000000, 0x3fd4e00000000000, 780000, 0x7c5eb5a0a54e4e5c),
    ("Q7", 40.0, 0x4010000000000000, 0x4010000000000000, 0x3fd4e00000000000, 780000, 0x7c5eb5a0a54e4e5c),
    ("Q8", 0.0, 0x4018000000000000, 0x4018000000000000, 0x3fe4c80000000000, 2240000, 0x243c70dd97390493),
    ("Q8", 2.0, 0x4018000000000000, 0x4018000000000000, 0x3fe4c80000000000, 2240000, 0x243c70dd97390493),
    ("Q8", 40.0, 0x4018000000000000, 0x4018000000000000, 0x3fe4c80000000000, 2240000, 0x243c70dd97390493),
    ("Q9", 0.0, 0x4014000000000000, 0x4014000000000000, 0x3fd5f00000000000, 1580000, 0x4ef3bb41cb4cc7c1),
    ("Q9", 2.0, 0x4014000000000000, 0x4014000000000000, 0x3fd5f00000000000, 1580000, 0x4ef3bb41cb4cc7c1),
    ("Q9", 40.0, 0x4014000000000000, 0x4014000000000000, 0x3fd5f00000000000, 1580000, 0x4ef3bb41cb4cc7c1),
    ("Q10", 0.0, 0x4008000000000000, 0x4008000000000000, 0x3fd4200000000000, 300000, 0xaae26eedb78fb2f4),
    ("Q10", 2.0, 0x4008000000000000, 0x4008000000000000, 0x3fd4200000000000, 300000, 0xaae26eedb78fb2f4),
    ("Q10", 40.0, 0x4008000000000000, 0x4008000000000000, 0x3fd4200000000000, 300000, 0xaae26eedb78fb2f4),
    ("Q11", 0.0, 0x4000000000000000, 0x4000000000000000, 0x3f97000000000000, 160000, 0x0c4787675165b10b),
    ("Q11", 2.0, 0x4000000000000000, 0x4000000000000000, 0x3f97000000000000, 160000, 0x0c4787675165b10b),
    ("Q11", 40.0, 0x4000000000000000, 0x4000000000000000, 0x3f97000000000000, 160000, 0x0c4787675165b10b),
    ("Q12", 0.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f50000000000000, 60000, 0xbd9c08a2ec3c0678),
    ("Q12", 2.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f50000000000000, 60000, 0xbd9c08a2ec3c0678),
    ("Q12", 40.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f50000000000000, 60000, 0xbd9c08a2ec3c0678),
    ("Q13", 0.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd3600000000000, 60000, 0x43bfb070bf6e85e7),
    ("Q13", 2.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd3600000000000, 60000, 0x43bfb070bf6e85e7),
    ("Q13", 40.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd3600000000000, 60000, 0x43bfb070bf6e85e7),
    ("Q14", 0.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q14", 2.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q14", 40.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q15", 0.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f88000000000000, 60000, 0x776b6767358609bd),
    ("Q15", 2.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f88000000000000, 60000, 0x776b6767358609bd),
    ("Q15", 40.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f88000000000000, 60000, 0x776b6767358609bd),
    ("Q16", 0.0, 0x4000000000000000, 0x4000000000000000, 0x3fd4c00000000000, 160000, 0x494386808eb528f4),
    ("Q16", 2.0, 0x4000000000000000, 0x4000000000000000, 0x3fd4c00000000000, 160000, 0x494386808eb528f4),
    ("Q16", 40.0, 0x4000000000000000, 0x4000000000000000, 0x3fd4c00000000000, 160000, 0x494386808eb528f4),
    ("Q17", 0.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q17", 2.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q17", 40.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q18", 0.0, 0x4000000000000000, 0x4000000000000000, 0x3fd3700000000000, 160000, 0x5c32fc3b15741ec2),
    ("Q18", 2.0, 0x4000000000000000, 0x4000000000000000, 0x3fd3700000000000, 160000, 0x5c32fc3b15741ec2),
    ("Q18", 40.0, 0x4000000000000000, 0x4000000000000000, 0x3fd3700000000000, 160000, 0x5c32fc3b15741ec2),
    ("Q19", 0.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q19", 2.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q19", 40.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd4000000000000, 60000, 0xbc3ac606ef74bddc),
    ("Q20", 0.0, 0x4008000000000000, 0x4008000000000000, 0x3fd5700000000000, 300000, 0xec6d85990cd1b742),
    ("Q20", 2.0, 0x4008000000000000, 0x4008000000000000, 0x3fd5700000000000, 300000, 0xec6d85990cd1b742),
    ("Q20", 40.0, 0x4008000000000000, 0x4008000000000000, 0x3fd5700000000000, 300000, 0xec6d85990cd1b742),
    ("Q21", 0.0, 0x4008000000000000, 0x4008000000000000, 0x3f98000000000000, 300000, 0x11dbc43053864606),
    ("Q21", 2.0, 0x4008000000000000, 0x4008000000000000, 0x3f98000000000000, 300000, 0x11dbc43053864606),
    ("Q21", 40.0, 0x4008000000000000, 0x4008000000000000, 0x3f98000000000000, 300000, 0x11dbc43053864606),
    ("Q22", 0.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd3600000000000, 60000, 0x43bfb070bf6e85e7),
    ("Q22", 2.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd3600000000000, 60000, 0x43bfb070bf6e85e7),
    ("Q22", 40.0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fd3600000000000, 60000, 0x43bfb070bf6e85e7),
    ("All", 0.0, 0x401c000000000000, 0x401c000000000000, 0x3fd7500000000000, 5260000, 0x5572e62df8b5e841),
    ("All", 2.0, 0x401c000000000000, 0x401c000000000000, 0x3fb0400000000000, 3320000, 0x9d3555367a7b7090),
    ("All", 40.0, 0x401c000000000000, 0x401c000000000000, 0x3fd7500000000000, 5260000, 0x5572e62df8b5e841),
];

fn check(parallelism: Parallelism) {
    let plans = plan_all(parallelism);
    assert_eq!(plans.len(), GOLDEN.len(), "every query plans under every objective");
    for ((name, objective, plan), want) in plans.iter().zip(GOLDEN.iter()) {
        let got = (
            name.as_str(),
            *objective,
            plan.query.cost.to_bits(),
            plan.time_sec().to_bits(),
            plan.money_tb_sec().to_bits(),
            plan.stats.resource_iterations,
            digest(plan),
        );
        assert_eq!(got, *want, "{name} under objective {objective} ({parallelism:?})");
    }
}

#[test]
fn brute_grid_plans_match_golden() {
    check(Parallelism::Off);
}

#[test]
fn brute_grid_plans_match_golden_with_grid_workers() {
    check(Parallelism::Threads(3));
}
