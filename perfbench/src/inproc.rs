//! The two in-process workloads, each a closed loop of one caller thread
//! calling `RaqoOptimizer::optimize`:
//!
//! * `bushy-joins` — Cascades memo search over 6–12-relation star, chain
//!   and clique schemas and random walks over a 100-table schema, with
//!   cached hill climbing behind it: planner enumeration dominates and
//!   resource planning is mostly cache reads.
//! * `brute-grid` — Selinger over the TPC-H join cores at SF100 with
//!   exhaustive resource search over a 10,000-point grid: the cost kernel
//!   and the search dominate and the planner does almost nothing.
//!
//! Each pass plans every query of the workload once, in an order drawn
//! from `--seed`, until `--seconds` have passed; every query but those of
//! the last, cut pass carries the same weight in every percentile.

use crate::check::{rung_metric, validate, RUNG_METRICS};
use crate::layers::{Clock, Tally, TracedCoster, TracedModel};
use crate::report::{Metrics, Outcome};
use crate::stats::{cache_since, geomean, percentile, process_cpu_ms, shuffled};
use crate::{repeat_setup, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;
use raqo_catalog::random::{RandomSchema, RandomSchemaConfig};
use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec};
use raqo_core::{Objective, PlannerKind, RaqoCoster, RaqoOptimizer, RaqoPlan, ResourceStrategy};
use raqo_cost::JoinCostModel;
use raqo_planner::{CascadesPlanner, PlannedQuery, SelingerPlanner};
use raqo_resource::{CacheLookup, CacheStats, ClusterConditions, Parallelism};
use raqo_sim::Engine;
use raqo_telemetry::Telemetry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A catalog and join graph the optimizers co-own.
struct Schema {
    catalog: Arc<Catalog>,
    graph: Arc<JoinGraph>,
}

impl Schema {
    fn of(catalog: Catalog, graph: JoinGraph) -> Self {
        Schema {
            catalog: Arc::new(catalog),
            graph: Arc::new(graph),
        }
    }
}

struct Query {
    spec: QuerySpec,
    /// Index into [`Suite::schemas`].
    schema: usize,
}

/// One in-process workload's inputs and optimizer configuration.
struct Suite {
    schemas: Vec<Schema>,
    queries: Vec<Query>,
    cluster: ClusterConditions,
    planner: PlannerKind,
    strategy: ResourceStrategy,
    /// Plans must repeat bit for bit (no cache can change them).
    deterministic: bool,
}

const CACHED_NN: ResourceStrategy =
    ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 });

/// The `bushy-joins` query set is generated once from this fixed seed, so
/// plan quality and planning cost compare across runs; `--seed` draws the
/// order the queries are planned in.
const BUSHY_SET_SEED: u64 = 0x5241_514f;

/// Seed for one generated schema: the set seed mixed with a per-schema tag.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

/// `bushy-joins`: shaped schemas whose planning cost is set by their shape
/// and size, so the latency distribution holds from seed to seed, plus
/// random connected walks over one 100-table schema.
fn bushy_suite() -> Suite {
    let seed = BUSHY_SET_SEED;
    let mut schemas = Vec::new();
    let mut queries = Vec::new();
    let shaped: [(&str, &[usize]); 3] = [
        ("star", &[6, 8, 10, 11, 12]),
        ("chain", &[6, 8, 10, 11, 12]),
        ("clique", &[6, 7, 8]),
    ];
    for (shape_tag, (shape, sizes)) in shaped.iter().enumerate() {
        for &n in *sizes {
            let s = sub_seed(seed, (shape_tag * 100 + n) as u64);
            let RandomSchema { catalog, graph } = match *shape {
                "star" => RandomSchema::star(n, s),
                "chain" => RandomSchema::chain(n, s),
                _ => RandomSchema::clique(n, s),
            };
            let spec = QuerySpec::new(format!("{shape}{n}"), catalog.table_ids().collect());
            queries.push(Query {
                spec,
                schema: schemas.len(),
            });
            schemas.push(Schema::of(catalog, graph));
        }
    }
    let big = RandomSchemaConfig::with_tables(100, sub_seed(seed, 1)).generate();
    for (j, k) in [6usize, 6, 7, 7, 8, 8, 9, 9, 9, 9].into_iter().enumerate() {
        let mut spec = QuerySpec::random_connected(
            &big.catalog,
            &big.graph,
            k,
            sub_seed(seed, 1000 + j as u64),
        );
        spec.name = format!("walk{k}.{j}");
        queries.push(Query {
            spec,
            schema: schemas.len(),
        });
    }
    schemas.push(Schema::of(big.catalog, big.graph));
    Suite {
        schemas,
        queries,
        cluster: ClusterConditions::paper_default(),
        planner: PlannerKind::cascades(),
        strategy: CACHED_NN,
        deterministic: false,
    }
}

/// `brute-grid`: the 20 multi-relation TPC-H join cores plus the paper's
/// all-tables query at SF100. 21 equally weighted queries put both p50
/// and p95 inside one query's block of samples rather than on the
/// boundary between two, where they would flip between queries.
fn grid_suite() -> Suite {
    let schema = TpchSchema::sf100();
    let mut specs: Vec<QuerySpec> = QuerySpec::tpch_full_suite()
        .into_iter()
        .filter(|q| q.relations.len() > 1)
        .collect();
    specs.push(QuerySpec::tpch_all(&schema));
    Suite {
        queries: specs
            .into_iter()
            .map(|spec| Query { spec, schema: 0 })
            .collect(),
        schemas: vec![Schema::of(schema.catalog, schema.graph)],
        cluster: ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0),
        planner: PlannerKind::Selinger,
        strategy: ResourceStrategy::BruteForce,
        deterministic: true,
    }
}

type Optimizer = RaqoOptimizer<'static, JoinCostModel>;
type TracedRaqoCoster = RaqoCoster<'static, TracedModel<JoinCostModel>>;

/// Everything a run plans with.
struct Setup {
    suite: Suite,
    optimizers: Vec<Optimizer>,
    /// Traced run only: one coster per schema over the wrapped model, fed
    /// the same query sequence as `optimizers` so their caches stay equal.
    traced: Option<(Arc<TracedModel<JoinCostModel>>, Vec<TracedRaqoCoster>)>,
    planner_clock: Clock,
    coster_clock: Clock,
}

fn setup(workload: &str, trace: bool) -> Setup {
    let suite = if workload == "bushy-joins" {
        bushy_suite()
    } else {
        grid_suite()
    };
    let model = Arc::new(JoinCostModel::trained_hive());
    let optimizers = suite
        .schemas
        .iter()
        .map(|s| {
            RaqoOptimizer::new(
                s.catalog.clone(),
                s.graph.clone(),
                model.clone(),
                suite.cluster,
                suite.planner.clone(),
                suite.strategy,
            )
        })
        .collect();
    let traced = trace.then(|| {
        let wrapped = Arc::new(TracedModel::new(JoinCostModel::trained_hive()));
        let costers = suite
            .schemas
            .iter()
            .map(|_| {
                RaqoCoster::new(
                    wrapped.clone(),
                    suite.cluster,
                    suite.strategy,
                    Objective::Time,
                )
            })
            .collect();
        (wrapped, costers)
    });
    Setup {
        suite,
        optimizers,
        traced,
        planner_clock: Clock::default(),
        coster_clock: Clock::default(),
    }
}

/// Warm-up pass: plan every query once to fill the resource-plan caches.
fn warm(s: &mut Setup) {
    for qi in 0..s.suite.queries.len() {
        let _ = plan_untraced(s, qi);
        if s.traced.is_some() {
            let _ = plan_traced(s, qi);
        }
    }
}

fn plan_untraced(s: &mut Setup, qi: usize) -> Option<RaqoPlan> {
    let q = &s.suite.queries[qi];
    s.optimizers[q.schema].optimize(&q.spec)
}

/// Plan through the planner's public entry point with the wrapped coster,
/// exactly as `optimize` runs it for this configuration (no budget, no
/// memo, sequential costing).
fn plan_traced(s: &mut Setup, qi: usize) -> Option<PlannedQuery> {
    let q = &s.suite.queries[qi];
    let schema = &s.suite.schemas[q.schema];
    let (_, costers) = s.traced.as_mut().expect("traced run");
    let mut coster = TracedCoster {
        inner: &mut costers[q.schema],
        clock: &s.coster_clock,
    };
    let tel = Telemetry::disabled();
    let t = Instant::now();
    let planned = match &s.suite.planner {
        PlannerKind::Cascades(cfg) => CascadesPlanner::plan_traced(
            &schema.catalog,
            &schema.graph,
            &q.spec,
            &mut coster,
            Parallelism::Off,
            None,
            &tel,
            cfg,
            None,
        )
        .ok()
        .map(|o| o.planned),
        _ => SelingerPlanner::plan_traced(
            &schema.catalog,
            &schema.graph,
            &q.spec,
            &mut coster,
            Parallelism::Off,
            None,
            &tel,
        )
        .ok(),
    };
    s.planner_clock.record(1, t);
    planned
}

/// Distinct plans emitted for one query, with how often each came back.
#[derive(Default)]
struct Emitted {
    variants: Vec<(RaqoPlan, u64)>,
    missing: u64,
}

impl Emitted {
    fn add(&mut self, plan: Option<RaqoPlan>) {
        let Some(plan) = plan else {
            self.missing += 1;
            return;
        };
        let bits = plan.query.cost.to_bits();
        match self
            .variants
            .iter_mut()
            .find(|(p, _)| p.query.cost.to_bits() == bits)
        {
            Some((_, n)) => *n += 1,
            None => self.variants.push((plan, 1)),
        }
    }
}

/// Cache statistics summed over every optimizer (or traced coster).
fn cache_totals(s: &Setup) -> (CacheStats, usize) {
    let mut stats = CacheStats::default();
    let mut entries = 0;
    let mut add = |c: CacheStats, e: usize| {
        stats.hits += c.hits;
        stats.misses += c.misses;
        stats.insertions += c.insertions;
        entries += e;
    };
    match &s.traced {
        Some((_, costers)) => {
            for c in costers {
                add(c.cache_stats(), c.shared_cache().total_entries());
            }
        }
        None => {
            for o in &s.optimizers {
                let bank = o.shared_cache();
                add(bank.aggregate_stats(), bank.total_entries());
            }
        }
    }
    (stats, entries)
}

/// Stats summed over the traced costers.
fn traced_stats(s: &Setup) -> raqo_core::RaqoStats {
    let mut total = raqo_core::RaqoStats::default();
    for c in &s.traced.as_ref().expect("traced run").1 {
        total.resource_iterations += c.stats.resource_iterations;
        total.plan_cost_calls += c.stats.plan_cost_calls;
        total.cache_hits += c.stats.cache_hits;
        total.memo_hits += c.stats.memo_hits;
    }
    total
}

pub fn run(args: &Args, metrics: &mut Metrics, outcome: &mut Outcome) {
    // The last set-up is the one measured. The warm-up pass is planning,
    // which the plan metrics already time, so it runs once, untimed.
    let mut setup_s = Vec::new();
    let mut s = repeat_setup(&mut setup_s, |_| setup(&args.workload, args.trace), drop);
    warm(&mut s);
    let n_queries = s.suite.queries.len();

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut emitted: Vec<Emitted> = (0..n_queries).map(|_| Emitted::default()).collect();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut parity_breaks = Vec::new();
    let (cache0, _) = cache_totals(&s);
    let stats0 = s.traced.as_ref().map(|_| traced_stats(&s));
    let kernel0 = s
        .traced
        .as_ref()
        .map(|(m, _)| (m.clocks.scalar.tally(), m.clocks.batch.tally()));
    let (planner0, coster0) = (s.planner_clock.tally(), s.coster_clock.tally());

    let window = Duration::from_secs(args.seconds);
    let cpu0 = process_cpu_ms();
    let start = Instant::now();
    let mut passes = 0u64;
    'window: loop {
        for qi in shuffled(n_queries, &mut rng) {
            if start.elapsed() >= window {
                break 'window;
            }
            let t = Instant::now();
            let plan = plan_untraced(&mut s, qi);
            untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if args.trace {
                let t = Instant::now();
                let traced = plan_traced(&mut s, qi);
                traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let bits = |c: Option<f64>| c.map(f64::to_bits);
                if bits(plan.as_ref().map(|p| p.query.cost)) != bits(traced.map(|p| p.cost)) {
                    parity_breaks.push(s.suite.queries[qi].spec.name.clone());
                }
            }
            emitted[qi].add(plan);
        }
        passes += 1;
    }

    let elapsed = start.elapsed().as_secs_f64();
    let cpu_ms = process_cpu_ms() - cpu0;
    let plans = untraced_ms.len() as u64;
    drop(repeat_setup(
        &mut setup_s,
        |_| setup(&args.workload, args.trace),
        drop,
    ));

    // ---- output checks, after the window ------------------------------
    let engine = Engine::hive();
    let mut failed = 0u64;
    let mut degraded = 0u64;
    let mut rungs = std::collections::HashMap::<&str, u64>::new();
    let (mut times, mut moneys, mut qerrors) = (Vec::new(), Vec::new(), Vec::new());
    for (q, e) in s.suite.queries.iter().zip(&emitted) {
        if e.missing > 0 {
            failed += e.missing;
            outcome
                .problems
                .push(format!("{}: no plan on {} call(s)", q.spec.name, e.missing));
        }
        if s.suite.deterministic && e.variants.len() > 1 {
            let repeats: u64 = e.variants[1..].iter().map(|(_, n)| n).sum();
            failed += repeats;
            outcome.problems.push(format!(
                "{}: {} distinct plan costs across repetitions of a deterministic plan",
                q.spec.name,
                e.variants.len()
            ));
        }
        for (plan, n) in &e.variants {
            if let Some(rung) = rung_metric(plan) {
                degraded += n;
                *rungs.entry(rung).or_default() += n;
            }
            match validate(plan, &q.spec, &s.suite.cluster, &engine) {
                Ok(sim) => {
                    times.push((sim.time_s, *n));
                    moneys.push((sim.money_tbs, *n));
                    for q in sim.qerrors {
                        qerrors.extend(std::iter::repeat_n(q, *n as usize));
                    }
                }
                Err(reason) => {
                    failed += n;
                    outcome
                        .problems
                        .push(format!("{}: {reason} ({n} plan(s))", q.spec.name));
                }
            }
        }
    }
    if !parity_breaks.is_empty() {
        parity_breaks.sort();
        parity_breaks.dedup();
        outcome.problems.push(format!(
            "traced and untraced plan costs differ on {}",
            parity_breaks.join(", ")
        ));
    }
    outcome.attempted = plans;
    outcome.failed = failed;
    println!("window {elapsed:.3} s, {passes} full passes of {n_queries} queries, {plans} plans");

    if !args.trace {
        metrics.pct("setup_s", percentile(&mut setup_s, 50.0));
        metrics.pct("plan_ms_p50", percentile(&mut untraced_ms, 50.0));
        metrics.pct("plan_ms_p95", percentile(&mut untraced_ms, 95.0));
        metrics.set("plans_per_s", plans as f64 / elapsed);
        // In process, the round trip is the optimize call itself.
        metrics.pct("rtt_ms_p50", percentile(&mut untraced_ms, 50.0));
        metrics.set("cpu_ms_per_plan", cpu_ms / plans as f64);
        metrics.set("peak_rss_mb", crate::stats::peak_rss_mb());
        metrics.set("sim_time_s_gm", geomean(times));
        metrics.set("sim_money_tbs_gm", geomean(moneys));
        metrics.set("ok_frac", 1.0 - failed as f64 / plans as f64);
        metrics.set("undegraded_frac", 1.0 - degraded as f64 / plans as f64);
        return;
    }

    // ---- per-layer metrics from the traced calls ----------------------
    let n = traced_ms.len() as f64;
    let planner = s.planner_clock.tally().since(planner0);
    let coster = s.coster_clock.tally().since(coster0);
    let (wrapped, _) = s.traced.as_ref().expect("traced run");
    let (scalar0, batch0) = kernel0.expect("traced run");
    let scalar = wrapped.clocks.scalar.tally().since(scalar0);
    let batch = wrapped.clocks.batch.tally().since(batch0);
    let kernel = Tally {
        calls: scalar.calls + batch.calls,
        items: scalar.items + batch.items,
        ns: scalar.ns + batch.ns,
    };
    let stats0 = stats0.expect("traced run");
    let stats = traced_stats(&s);
    let calls = stats.plan_cost_calls - stats0.plan_cost_calls;
    let (cache1, entries) = cache_totals(&s);
    for name in RUNG_METRICS {
        metrics.set(name, rungs.get(name).copied().unwrap_or(0) as f64);
    }
    if coster.items != calls {
        outcome.problems.push(format!(
            "wrapped coster counted {} joins, the coster's own stats {calls}",
            coster.items
        ));
    }
    metrics.set("coster.calls_per_plan", coster.items as f64 / n);
    metrics.set("coster.ms_per_plan", coster.ms() / n);
    metrics.set(
        "coster.batch_width_mean",
        coster.items as f64 / coster.calls.max(1) as f64,
    );
    metrics.set(
        "coster.cache_hit_ratio",
        (stats.cache_hits - stats0.cache_hits) as f64 / calls.max(1) as f64,
    );
    metrics.set(
        "coster.memo_hits_per_plan",
        (stats.memo_hits - stats0.memo_hits) as f64 / n,
    );
    metrics.set("planner.ms_per_plan", planner.ms() / n);
    metrics.set("planner.self_ms_per_plan", (planner.ms() - coster.ms()) / n);
    metrics.set(
        "resource.iterations_per_plan",
        (stats.resource_iterations - stats0.resource_iterations) as f64 / n,
    );
    metrics.set("resource.self_ms_per_plan", (coster.ms() - kernel.ms()) / n);
    let cache = cache_since(cache1, cache0);
    metrics.set("resource.cache_hit_rate", cache.hit_rate());
    metrics.set("resource.cache_insertions", cache.insertions as f64);
    metrics.set("resource.cache_entries", entries as f64);
    metrics.set("cost.kernel_ms_per_plan", kernel.ms() / n);
    metrics.set("cost.configs_per_plan", kernel.items as f64 / n);
    metrics.set(
        "cost.ns_per_config",
        kernel.ns as f64 / kernel.items.max(1) as f64,
    );
    metrics.set("cost.batch_calls_per_plan", batch.calls as f64 / n);
    metrics.set("cost.scalar_calls_per_plan", scalar.calls as f64 / n);
    metrics.pct("cost.qerror_p50", percentile(&mut qerrors, 50.0));
    let untraced_p50 = percentile(&mut untraced_ms, 50.0).value;
    let traced_p50 = percentile(&mut traced_ms, 50.0).value;
    metrics.set(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
    );
    crate::wire::zero_wire_layers(metrics);
}
