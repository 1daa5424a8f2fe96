//! Golden plans for the bushy-join workload: the Cascades memo search
//! (`PlannerKind::cascades()`) over 23 fixed-seed queries of the
//! `bushy-joins` shape — star and chain schemas of 6–12 relations, cliques
//! of 6–8, and ten random connected walks over one 100-table schema —
//! planned with multi-start hill climbing, which is deterministic (no
//! cache can change a plan). Each query is planned twice: under the
//! trained Hive model the `bushy-joins` benchmark uses (whose per-join
//! time floor makes many orders tie, so the tie-breaks are pinned) and
//! under the simulation oracle (whose costs separate the orders).
//!
//! Each row pins the plan's total cost as a bit pattern, an FNV-1a digest
//! of the tree shape and every join's implementation, resources and cost,
//! the search size (groups, expressions, tasks) and the number of
//! `getPlanCost` calls. The memo search may be rewritten for speed, but it
//! must keep enumerating and choosing exactly these plans.

use raqo_catalog::random::{RandomSchema, RandomSchemaConfig};
use raqo_catalog::{Catalog, JoinGraph, QuerySpec};
use raqo_core::{PlannerKind, RaqoOptimizer, RaqoPlan, ResourceStrategy};
use raqo_cost::{JoinCostModel, OperatorCost, SimOracleCost};
use raqo_planner::PlanTree;
use raqo_resource::ClusterConditions;
use raqo_telemetry::{Counter, Telemetry};

/// `(query, cost bits, plan digest, groups, expressions, tasks,
/// plan-cost calls)`.
type Row = (&'static str, u64, u64, u64, u64, u64, u64);

const SET_SEED: u64 = 0x5241_514f;

fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

/// The 23 queries, each with its own catalog and join graph.
fn suite() -> Vec<(QuerySpec, Catalog, JoinGraph)> {
    let mut out = Vec::new();
    let shaped: [(&str, &[usize]); 3] =
        [("star", &[6, 8, 10, 11, 12]), ("chain", &[6, 8, 10, 11, 12]), ("clique", &[6, 7, 8])];
    for (shape_tag, (shape, sizes)) in shaped.iter().enumerate() {
        for &n in *sizes {
            let s = sub_seed(SET_SEED, (shape_tag * 100 + n) as u64);
            let RandomSchema { catalog, graph } = match *shape {
                "star" => RandomSchema::star(n, s),
                "chain" => RandomSchema::chain(n, s),
                _ => RandomSchema::clique(n, s),
            };
            let spec = QuerySpec::new(format!("{shape}{n}"), catalog.table_ids().collect());
            out.push((spec, catalog, graph));
        }
    }
    let big = RandomSchemaConfig::with_tables(100, sub_seed(SET_SEED, 1)).generate();
    for (j, k) in [6usize, 6, 7, 7, 8, 8, 9, 9, 9, 9].into_iter().enumerate() {
        let mut spec = QuerySpec::random_connected(
            &big.catalog,
            &big.graph,
            k,
            sub_seed(SET_SEED, 1000 + j as u64),
        );
        spec.name = format!("walk{k}.{j}");
        out.push((spec, big.catalog.clone(), big.graph.clone()));
    }
    out
}

fn digest(plan: &RaqoPlan) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fn shape(t: &PlanTree, mix: &mut dyn FnMut(u64)) {
        match t {
            PlanTree::Leaf(id) => mix(id.0 as u64),
            PlanTree::Join(l, r) => {
                mix(u64::MAX);
                shape(l, mix);
                shape(r, mix);
            }
        }
    }
    shape(&plan.query.tree, &mut mix);
    for j in &plan.query.joins {
        mix(j.decision.join as u64);
        let (nc, cs) = j.decision.resources.expect("RAQO plans carry resources");
        mix(nc.to_bits());
        mix(cs.to_bits());
        mix(j.decision.cost.to_bits());
    }
    h
}

fn plan_all<M: OperatorCost + Send + Sync>(
    model: &M,
) -> Vec<(String, u64, u64, u64, u64, u64, u64)> {
    let mut out = Vec::new();
    for (spec, catalog, graph) in suite() {
        let tel = Telemetry::enabled();
        let mut opt = RaqoOptimizer::new(
            &catalog,
            &graph,
            model,
            ClusterConditions::paper_default(),
            PlannerKind::cascades(),
            ResourceStrategy::HillClimb,
        )
        .with_telemetry(tel.clone());
        let before = tel.snapshot().expect("enabled telemetry");
        let plan = opt.optimize(&spec).expect("every bushy-joins query plans");
        let after = tel.snapshot().expect("enabled telemetry");
        assert!(plan.degradation.is_none(), "{}: no budget, no degradation", spec.name);
        out.push((
            spec.name.clone(),
            plan.query.cost.to_bits(),
            digest(&plan),
            after.delta(&before, Counter::CascadesGroups),
            after.delta(&before, Counter::CascadesExpressions),
            after.delta(&before, Counter::CascadesTasks),
            plan.stats.plan_cost_calls,
        ));
    }
    out
}

/// Captured from the memo search before mask-native estimation.
const GOLDEN_TRAINED: [Row; 23] = [
    ("star6", 0x4014000000000000, 0x87793ef5d0dbf294, 37, 160, 626, 80),
    ("star8", 0x401c000000000000, 0xfc2b9f9efd9293d5, 135, 896, 3419, 448),
    ("star10", 0x4022000000000000, 0x188805e60a68b46a, 521, 4608, 17535, 2304),
    ("star11", 0x4024000000000000, 0xbdd72819ea42bfbe, 1034, 10240, 38928, 5120),
    ("star12", 0x4026000000000000, 0x1e232bf19dfe4175, 2059, 22528, 85366, 11264),
    ("chain6", 0x4014000000000000, 0x59fb9bfded8a5778, 21, 70, 265, 35),
    ("chain8", 0x401c000000000000, 0x17478af091f67f35, 36, 168, 601, 84),
    ("chain10", 0x4022000000000000, 0x93a5c8ace7d014f8, 55, 330, 1149, 165),
    ("chain11", 0x4024000000000000, 0xacc01563611655be, 66, 440, 1519, 220),
    ("chain12", 0x4026000000000000, 0x3d74284255e0419b, 78, 572, 1961, 286),
    ("clique6", 0x4014000000000000, 0x850f43c93c702794, 63, 602, 2319, 301),
    ("clique7", 0x4018000000000000, 0x0fefe229feec34de, 127, 1932, 7582, 966),
    ("clique8", 0x401c000000000000, 0xd147ab5d6099ccf5, 255, 6050, 23104, 3025),
    ("walk6.0", 0x4014000000000000, 0xe145c7d65180460e, 39, 212, 775, 106),
    ("walk6.1", 0x4014000000000000, 0xee9cfdbd8f5d04dd, 30, 122, 456, 61),
    ("walk7.2", 0x4018000000000000, 0x60c5cc29058d0e73, 46, 258, 995, 129),
    ("walk7.3", 0x4018000000000000, 0xcc34de68d8d27151, 44, 220, 810, 110),
    ("walk8.4", 0x401c000000000000, 0x29d6b7fb2891e04a, 107, 846, 3132, 423),
    ("walk8.5", 0x401c000000000000, 0xc706cdffc92bc831, 83, 558, 2012, 279),
    ("walk9.6", 0x4020000000000000, 0x5dbcbc32c1e976ca, 167, 1670, 6431, 835),
    ("walk9.7", 0x4020000000000000, 0x0e427695409f4fb3, 130, 1032, 3705, 516),
    ("walk9.8", 0x4020000000000000, 0x31ad6031998cb48b, 108, 778, 2919, 389),
    ("walk9.9", 0x4020000000000000, 0xb00e1c8874132fc3, 223, 2392, 9052, 1196),
];

/// Same queries under [`SimOracleCost`].
const GOLDEN_ORACLE: [Row; 23] = [
    ("star6", 0x404c120ce22ba4c1, 0xd725d350e3e0f63e, 37, 160, 626, 80),
    ("star8", 0x405486c5ac5d5e70, 0x0b81b48b9ffb6da6, 135, 896, 3419, 448),
    ("star10", 0x405a291325fccbc6, 0xec31f88b6766e51d, 521, 4608, 17535, 2304),
    ("star11", 0x405fa937712cfdd4, 0x81e951d48c4d15fb, 1034, 10240, 38928, 5120),
    ("star12", 0x40609f30519ef85a, 0x4fed5cfa848ec4a8, 2059, 22528, 85366, 11264),
    ("chain6", 0x404b140931ff3463, 0x9e9918b45e9f7c49, 21, 70, 265, 35),
    ("chain8", 0x40531096526257bc, 0x9d25ba19d2bc756e, 36, 168, 601, 84),
    ("chain10", 0x405d03bb6b927669, 0x3e602fa62f45644a, 55, 330, 1149, 165),
    ("chain11", 0x405d8282410a9559, 0xa6e4776cc0b28478, 66, 440, 1519, 220),
    ("chain12", 0x405e3a2fec8df8bc, 0xa1061630ade94d78, 78, 572, 1961, 286),
    ("clique6", 0x4049ad0484416175, 0x8b87ddf45061ff92, 63, 602, 2319, 301),
    ("clique7", 0x404ea10c008f7dd6, 0x197cab28b9566fed, 127, 1932, 7582, 966),
    ("clique8", 0x4051d23fcfdfdeec, 0xe999b58c3f4c6c14, 255, 6050, 23104, 3025),
    ("walk6.0", 0x40498a4248a64726, 0xc919856de3d0cef4, 39, 212, 775, 106),
    ("walk6.1", 0x404b2bac7f31f4db, 0xd7454d77ef027857, 30, 122, 456, 61),
    ("walk7.2", 0x404ebd5877a3c9ac, 0x578de60bdf35ef7b, 46, 258, 995, 129),
    ("walk7.3", 0x405085256db08f45, 0x9afc64a960f7da2d, 44, 220, 810, 110),
    ("walk8.4", 0x4051bf00824e5378, 0xf57ca27fc04786c8, 107, 846, 3132, 423),
    ("walk8.5", 0x4051f334aa7445b2, 0xc1457a6ddd68f2c8, 83, 558, 2012, 279),
    ("walk9.6", 0x4054e82058839674, 0x136c459cbf73b08d, 167, 1670, 6431, 835),
    ("walk9.7", 0x4054af2a32d646a1, 0x61e3dc7155466c74, 130, 1032, 3705, 516),
    ("walk9.8", 0x405687c0217b45a8, 0x99fbe7ac77522a04, 108, 778, 2919, 389),
    ("walk9.9", 0x405474dbd1af1f22, 0x5db20f3541c883fb, 223, 2392, 9052, 1196),
];

fn check<M: OperatorCost + Send + Sync>(model: &M, golden: &[Row; 23]) {
    let plans = plan_all(model);
    assert_eq!(plans.len(), golden.len());
    for (got, want) in plans.iter().zip(golden) {
        let got = (got.0.as_str(), got.1, got.2, got.3, got.4, got.5, got.6);
        assert_eq!(got, *want, "{}", want.0);
    }
}

#[test]
fn bushy_plans_match_golden_under_trained_model() {
    check(&JoinCostModel::trained_hive(), &GOLDEN_TRAINED);
}

#[test]
fn bushy_plans_match_golden_under_oracle() {
    check(&SimOracleCost::hive(), &GOLDEN_ORACLE);
}
