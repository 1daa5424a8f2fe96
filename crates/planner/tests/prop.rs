//! Property tests for the planner layer.

use proptest::prelude::*;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec, RandomSchemaConfig, TableId, TableStats};
use raqo_cost::SimOracleCost;
use raqo_planner::coster::{cost_tree, FixedResourceCoster};
use raqo_planner::{
    CardinalityEstimator, CostMemo, DpFill, IdpConfig, IdpPlanner, MaskEstimator, PlanTree,
    RandomizedConfig, RandomizedPlanner, SelingerPlanner,
};
use raqo_resource::Parallelism;
use raqo_telemetry::Telemetry;

/// The relations of `mask` (bit `i` = `rels[i]`) in ascending bit order.
fn rels_of(rels: &[TableId], mask: u64) -> Vec<TableId> {
    (0..rels.len()).filter(|&i| mask >> i & 1 == 1).map(|i| rels[i]).collect()
}

/// `(build, probe, out GB, out rows, join_rows, connects)` of `left ⋈
/// right` from the mask estimator, then from the slice estimator and the
/// join graph over the same sets listed in ascending bit order. Floats as
/// bit patterns: the two must agree exactly.
type Estimates = (u64, u64, u64, u64, u64, bool);

fn mask_vs_slices(
    catalog: &Catalog,
    graph: &JoinGraph,
    rels: &[TableId],
    left: u64,
    right: u64,
) -> (Estimates, Estimates) {
    let masks = MaskEstimator::new(catalog, graph, rels);
    let io = masks.join_io(left, right);
    let got = (
        io.build_gb.to_bits(),
        io.probe_gb.to_bits(),
        io.out_gb.to_bits(),
        io.out_rows.to_bits(),
        masks.join_rows(left, right).to_bits(),
        masks.connects(left, right),
    );
    let (l, r) = (rels_of(rels, left), rels_of(rels, right));
    let io = CardinalityEstimator::new(catalog, graph).join_io(&l, &r);
    let want = (
        io.build_gb.to_bits(),
        io.probe_gb.to_bits(),
        io.out_gb.to_bits(),
        io.out_rows.to_bits(),
        io.out_rows.to_bits(),
        graph.connects(&l, &r),
    );
    (got, want)
}

/// Two disjoint, non-empty masks over `n` relations drawn from `a` and
/// `b`: bit 0 always goes left and bit 1 right, every other bit left, right
/// or neither.
fn split(n: usize, a: u64, b: u64) -> (u64, u64) {
    let full = u64::MAX >> (64 - n);
    let left = (a | 1) & !2 & full;
    let right = ((b & !left) | 2) & full;
    (left, right)
}

proptest! {
    /// Plan cost is the sum of its join decisions' costs, for arbitrary
    /// random plans on arbitrary random schemas.
    #[test]
    fn plan_cost_is_additive(seed in 0u64..300, k in 2usize..9) {
        use rand::SeedableRng;
        let schema = RandomSchemaConfig::with_tables(12, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tree = PlanTree::random_connected(&schema.graph, &q.relations, &mut rng);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        if let Some(planned) = cost_tree(&tree, &est, &mut coster) {
            let sum: f64 = planned.joins.iter().map(|j| j.decision.cost).sum();
            prop_assert!((planned.cost - sum).abs() < 1e-9);
            prop_assert_eq!(planned.joins.len(), k - 1);
            // Objectives accumulate too.
            let t: f64 = planned.joins.iter().map(|j| j.decision.objectives.time_sec).sum();
            prop_assert!((planned.objectives.time_sec - t).abs() < 1e-9);
        }
    }

    /// Selinger's result is invariant to the order relations are listed in
    /// the query spec.
    #[test]
    fn selinger_invariant_to_relation_listing(seed in 0u64..100) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let schema = RandomSchemaConfig::with_tables(10, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, 6, seed);
        let model = SimOracleCost::hive();

        let mut shuffled = q.relations.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed ^ 99));
        let q2 = QuerySpec::new("shuffled", shuffled);

        let mut c1 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let p1 = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut c1);
        let mut c2 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let p2 = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q2, &mut c2);
        match (p1, p2) {
            (Ok(p1), Ok(p2)) => prop_assert!((p1.cost - p2.cost).abs() < 1e-9),
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            _ => prop_assert!(false, "one ordering planned, the other did not"),
        }
    }

    /// Parallel level-batched and memoized Selinger runs are bit-identical
    /// to the plain sequential DP on arbitrary random schemas, for every
    /// `Parallelism` mode and with/without a memo.
    #[test]
    fn selinger_modes_agree(seed in 0u64..40, k in 2usize..8) {
        let schema = RandomSchemaConfig::with_tables(10, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let model = SimOracleCost::hive();
        let mut c0 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let base = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut c0);
        for par in [Parallelism::Off, Parallelism::Threads(3), Parallelism::Auto] {
            let mut memo = CostMemo::new(&q.relations);
            for memoized in [false, true] {
                let mut c = FixedResourceCoster::new(&model, 10.0, 6.0);
                let got = SelingerPlanner::plan_with(
                    &schema.catalog,
                    &schema.graph,
                    &q,
                    &mut c,
                    par,
                    memoized.then_some(&mut memo),
                );
                match (&base, &got) {
                    (Ok(b), Ok(g)) => {
                        prop_assert_eq!(&b.tree, &g.tree);
                        if memoized {
                            // Memo replays DP-time IOs (bit-ordered float
                            // accumulation): costs agree to fp noise.
                            prop_assert!((b.cost - g.cost).abs() <= 1e-9 * b.cost.abs());
                        } else {
                            prop_assert_eq!(b.cost.to_bits(), g.cost.to_bits());
                            prop_assert_eq!(&b.joins, &g.joins);
                        }
                    }
                    (Err(b), Err(g)) => prop_assert_eq!(b, g),
                    _ => prop_assert!(false, "modes disagree on feasibility"),
                }
            }
        }
    }

    /// The randomized planner always produces a valid covering plan and
    /// never beats the DP on queries small enough for both (left-deep DP
    /// can be beaten by bushy plans, so allow it to *win*, never to
    /// produce an invalid tree).
    #[test]
    fn randomized_plans_are_valid(seed in 0u64..60) {
        let schema = RandomSchemaConfig::with_tables(10, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, 7, seed);
        let model = SimOracleCost::hive();
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let cfg = RandomizedConfig { restarts: 3, rounds_per_join: 8, epsilon: 0.05, seed, memoize: false };
        if let Some(out) =
            RandomizedPlanner::plan(&schema.catalog, &schema.graph, &q, &mut coster, &cfg)
        {
            prop_assert!(raqo_planner::plan::covers_exactly(&out.best.tree, &q.relations));
            prop_assert!(out.best.cost.is_finite() && out.best.cost > 0.0);
            prop_assert!(!out.frontier.is_empty());
        } else {
            prop_assert!(false, "no plan found");
        }
    }

    /// The streamed (two-level) DP fill is bit-identical to the dense
    /// table — same tree, same cost bits, same join decisions — for every
    /// n ≤ 20 query across seeds, engines, and resource points.
    #[test]
    fn streamed_fill_is_bit_identical_to_dense(seed in 0u64..60, k in 2usize..13) {
        let schema = RandomSchemaConfig::with_tables(16, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let model =
            if seed % 2 == 0 { SimOracleCost::hive() } else { SimOracleCost::spark() };
        let (nc, cs) = [(10.0, 6.0), (50.0, 4.0), (100.0, 10.0)][(seed % 3) as usize];
        let mut dense_coster = FixedResourceCoster::new(&model, nc, cs);
        let dense =
            SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut dense_coster);
        let mut streamed_coster = FixedResourceCoster::new(&model, nc, cs);
        let streamed = SelingerPlanner::plan_opts(
            &schema.catalog,
            &schema.graph,
            &q,
            &mut streamed_coster,
            Parallelism::Off,
            None,
            &Telemetry::disabled(),
            20,
            DpFill::Streamed,
        );
        match (dense, streamed) {
            (Ok(d), Ok(s)) => {
                prop_assert_eq!(&d.tree, &s.tree);
                prop_assert_eq!(d.cost.to_bits(), s.cost.to_bits());
                prop_assert_eq!(&d.joins, &s.joins);
            }
            (Err(d), Err(s)) => prop_assert_eq!(d, s),
            _ => prop_assert!(false, "fills disagree on feasibility"),
        }
    }

    /// IDP with a block size at least the relation count *is* exhaustive
    /// DP: identical trees, costs, and decisions.
    #[test]
    fn idp_with_covering_block_equals_exhaustive_dp(seed in 0u64..60, k in 2usize..10) {
        let schema = RandomSchemaConfig::with_tables(12, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let model = SimOracleCost::hive();
        let mut dp_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let dp = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut dp_coster);
        let mut idp_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let idp = IdpPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &q,
            &mut idp_coster,
            IdpConfig { block_size: 16, fill: DpFill::Auto },
        );
        match (dp, idp) {
            (Ok(d), Ok(i)) => {
                prop_assert_eq!(&d.tree, &i.tree);
                prop_assert_eq!(d.cost.to_bits(), i.cost.to_bits());
                prop_assert_eq!(&d.joins, &i.joins);
            }
            (Err(d), Err(i)) => prop_assert_eq!(d, i),
            _ => prop_assert!(false, "planners disagree on feasibility"),
        }
    }

    /// Past the exhaustive-DP bound, IDP never panics, always covers the
    /// query, and never costs worse than the randomized planner's
    /// best-of-restarts on the same seed.
    #[test]
    fn idp_bridges_mid_size_queries_beating_randomized(seed in 0u64..12, k in 21usize..31) {
        let schema = RandomSchemaConfig::with_tables(32, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let model = SimOracleCost::hive();
        let mut idp_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let idp = IdpPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &q,
            &mut idp_coster,
            IdpConfig::default(),
        );
        let Ok(idp) = idp else {
            return Err(TestCaseError(format!("IDP failed on k={k} seed={seed}")));
        };
        prop_assert!(raqo_planner::plan::covers_exactly(&idp.tree, &q.relations));
        prop_assert_eq!(idp.joins.len(), k - 1);
        prop_assert!(idp.cost.is_finite() && idp.cost > 0.0);

        let mut rand_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let cfg = RandomizedConfig { restarts: 3, rounds_per_join: 8, epsilon: 0.05, seed, memoize: false };
        let rand = RandomizedPlanner::plan(&schema.catalog, &schema.graph, &q, &mut rand_coster, &cfg)
            .expect("randomized plans any connected query");
        prop_assert!(
            idp.cost <= rand.best.cost * (1.0 + 1e-9),
            "IDP {} worse than randomized {} at k={} seed={}",
            idp.cost, rand.best.cost, k, seed
        );
    }

    /// Cardinality estimation stays finite and split-orientation-symmetric
    /// on clique schemas — the fully cyclic graphs whose every binary cut
    /// crosses many edges at once.
    #[test]
    fn clique_join_io_finite_and_symmetric(
        n in 3usize..10,
        seed in 0u64..100,
        cut in 1u32..512,
    ) {
        let schema = raqo_catalog::RandomSchema::clique(n, seed);
        let all: Vec<_> = schema.catalog.table_ids().collect();
        let (left, right): (Vec<_>, Vec<_>) = all
            .iter()
            .enumerate()
            .partition(|(i, _)| cut & (1 << i) != 0);
        let left: Vec<_> = left.into_iter().map(|(_, &t)| t).collect();
        let right: Vec<_> = right.into_iter().map(|(_, &t)| t).collect();
        if left.is_empty() || right.is_empty() { return Ok(()); }
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let io = est.join_io(&left, &right);
        prop_assert!(io.build_gb.is_finite() && io.build_gb >= 0.0);
        prop_assert!(io.probe_gb.is_finite() && io.probe_gb >= 0.0);
        prop_assert!(io.out_gb.is_finite() && io.out_rows.is_finite());
        prop_assert!(io.out_rows > 0.0);
        let mirrored = est.join_io(&right, &left);
        // Build/probe are min/max of per-side sizes — bit-identical under a
        // swap. The output cardinality sums logs in concatenation order, so
        // the mirror agrees to rounding noise only.
        prop_assert_eq!(io.build_gb.to_bits(), mirrored.build_gb.to_bits());
        prop_assert_eq!(io.probe_gb.to_bits(), mirrored.probe_gb.to_bits());
        prop_assert!((io.out_rows - mirrored.out_rows).abs() <= 1e-9 * io.out_rows.abs());
        prop_assert!((io.out_gb - mirrored.out_gb).abs() <= 1e-9 * io.out_gb.abs().max(1e-300));
    }

    /// The Cascades memo search plans every clique (no panics on cyclic
    /// graphs) and never loses to left-deep Selinger, for arbitrary sizes
    /// and seeds within the memo bound.
    #[test]
    fn cascades_plans_cliques_no_worse_than_selinger(n in 2usize..8, seed in 0u64..30) {
        use raqo_planner::{CascadesConfig, CascadesPlanner};
        let schema = raqo_catalog::RandomSchema::clique(n, seed);
        let q = QuerySpec::new("clique", schema.catalog.table_ids().collect());
        let model = SimOracleCost::hive();
        let mut c1 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let selinger = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut c1)
            .expect("selinger plans cliques");
        let mut c2 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let cascades = CascadesPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &q,
            &mut c2,
            &CascadesConfig::default(),
        )
        .expect("cascades plans cliques");
        prop_assert!(!cascades.cut_short);
        prop_assert!(raqo_planner::plan::covers_exactly(&cascades.planned.tree, &q.relations));
        prop_assert!(
            cascades.planned.cost <= selinger.cost * (1.0 + 1e-12),
            "bushy search lost to left-deep on a clique: {} vs {}",
            cascades.planned.cost,
            selinger.cost
        );
    }

    /// The mask estimator is bit for bit the slice estimator and
    /// `JoinGraph::connects` on chain, star and clique schemas, for random
    /// disjoint sides in both orientations.
    #[test]
    fn mask_estimator_matches_slices_on_shapes(
        shape in 0usize..3,
        n in 2usize..13,
        seed in 0u64..1000,
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
    ) {
        let schema = match shape {
            0 => raqo_catalog::RandomSchema::chain(n, seed),
            1 => raqo_catalog::RandomSchema::star(n, seed),
            _ => raqo_catalog::RandomSchema::clique(n, seed),
        };
        let rels: Vec<_> = schema.catalog.table_ids().collect();
        let (left, right) = split(n, a, b);
        for (l, r) in [(left, right), (right, left)] {
            let (got, want) = mask_vs_slices(&schema.catalog, &schema.graph, &rels, l, r);
            prop_assert_eq!(got, want);
        }
    }

    /// Same on random connected walks over a 100-table schema, whose join
    /// graph holds many edges outside each query; the walk lists its
    /// relations unsorted.
    #[test]
    fn mask_estimator_matches_slices_on_walks(
        seed in 0u64..200,
        k in 2usize..13,
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
    ) {
        let schema = RandomSchemaConfig::with_tables(100, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed ^ a);
        let (left, right) = split(k, a, b);
        for (l, r) in [(left, right), (right, left)] {
            let (got, want) =
                mask_vs_slices(&schema.catalog, &schema.graph, &q.relations, l, r);
            prop_assert_eq!(got, want);
        }
    }

    /// Same with a 64-relation query whose last relation sits on bit 63,
    /// always on one of the two sides.
    #[test]
    fn mask_estimator_matches_slices_at_bit_63(
        seed in 0u64..50,
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
        bit_63_left in any_bool,
    ) {
        let schema = RandomSchemaConfig::with_tables(64, seed).generate();
        let rels: Vec<_> = schema.catalog.table_ids().collect();
        let (mut left, mut right) = split(64, a, b);
        let top = 1u64 << 63;
        if bit_63_left {
            (left, right) = (left | top, right & !top);
        } else {
            (left, right) = (left & !top, right | top);
        }
        for (l, r) in [(left, right), (right, left), (top, 1), (1, top)] {
            let (got, want) = mask_vs_slices(&schema.catalog, &schema.graph, &rels, l, r);
            prop_assert_eq!(got, want);
        }
    }
}

/// Every pair of disjoint, non-empty sides of an unsorted five-relation
/// query whose graph has parallel edges, edges leaving the query, and an
/// edge with neither endpoint in it: the mask estimator agrees bit for bit
/// with the slice estimator and `JoinGraph::connects`, one-relation sides
/// included.
#[test]
fn mask_estimator_matches_slices_with_parallel_and_outside_edges() {
    let mut catalog = Catalog::new();
    let t: Vec<TableId> = (0..8)
        .map(|i| {
            let stats = TableStats::new(1_000.0 * (i as f64 + 1.5).powi(3), 40.0 + 13.0 * i as f64);
            catalog.add_stats_only(format!("t{i}"), stats)
        })
        .collect();
    let mut graph = JoinGraph::new();
    graph.add_edge(t[0], t[1], 0.01);
    graph.add_edge(t[1], t[0], 0.3);
    graph.add_edge(t[1], t[2], 1e-4);
    graph.add_edge(t[2], t[5], 0.02);
    graph.add_edge(t[6], t[0], 0.5);
    graph.add_edge(t[3], t[4], 1.0 / 7.0);
    graph.add_edge(t[7], t[6], 0.9);
    graph.add_edge(t[0], t[1], 0.7);
    let rels = [t[4], t[0], t[2], t[1], t[3]];
    let full = (1u64 << rels.len()) - 1;
    let mut pairs = 0;
    for left in 1..=full {
        let rest = full & !left;
        let mut right = rest;
        while right != 0 {
            let (got, want) = mask_vs_slices(&catalog, &graph, &rels, left, right);
            assert_eq!(got, want, "left {left:#b}, right {right:#b}");
            pairs += 1;
            right = (right - 1) & rest;
        }
    }
    assert_eq!(pairs, 3usize.pow(5) - 2 * 2usize.pow(5) + 1);
}
