//! Property tests for the resource-planning primitives.

use proptest::prelude::*;
use raqo_resource::{
    brute_force, brute_force_batch, brute_force_parallel, brute_force_parallel_batch, hill_climb,
    CacheLookup, ClusterConditions, Parallelism, PlanningOutcome, ResourceConfig,
    ResourcePlanCache, BATCH_CHUNK,
};

proptest! {
    /// The grid iterator enumerates exactly `grid_size()` in-bounds points
    /// for arbitrary bounds and steps.
    #[test]
    fn grid_iterator_is_exact(
        nc_lo in 1.0f64..20.0,
        nc_extra in 0.0f64..40.0,
        cs_lo in 1.0f64..5.0,
        cs_extra in 0.0f64..10.0,
        nc_step in 1.0f64..4.0,
        cs_step in 1.0f64..3.0,
    ) {
        let (nc_lo, cs_lo) = (nc_lo.round(), cs_lo.round());
        let (nc_step, cs_step) = (nc_step.round(), cs_step.round());
        let cluster = ClusterConditions::two_dim(
            nc_lo..=(nc_lo + nc_extra.round()),
            cs_lo..=(cs_lo + cs_extra.round()),
            nc_step,
            cs_step,
        );
        let pts: Vec<ResourceConfig> = cluster.grid().collect();
        prop_assert_eq!(pts.len() as u64, cluster.grid_size());
        for p in &pts {
            prop_assert!(cluster.contains(p));
        }
        // Pairwise distinct.
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                prop_assert_ne!(a, b);
            }
        }
    }

    /// Hill climbing on a surface with a flat plateau terminates (no
    /// infinite loop) and stays in bounds.
    #[test]
    fn hill_climb_terminates_on_plateaus(
        plateau in 0.0f64..50.0,
        cx in 1.0f64..100.0,
    ) {
        let cluster = ClusterConditions::paper_default();
        let cost = |r: &ResourceConfig| -> f64 {
            let d = (r.containers() - cx).abs();
            if d < plateau { 0.0 } else { d }
        };
        let out = hill_climb(&cluster, cluster.min, cost);
        prop_assert!(cluster.contains(&out.config));
        prop_assert!(out.iterations < 10_000);
    }

    /// Weighted-average cache results stay inside the bounding box of the
    /// neighbours that produced them.
    #[test]
    fn weighted_average_stays_in_neighbor_hull(
        keys in proptest::collection::vec((0.0f64..10.0, 1.0f64..100.0, 1.0f64..10.0), 2..12),
        query in 0.0f64..10.0,
        threshold in 0.1f64..5.0,
    ) {
        let mut cache = ResourcePlanCache::new();
        for (k, nc, cs) in &keys {
            cache.insert(*k, ResourceConfig::containers_and_size(nc.round(), cs.round()));
        }
        if let Some(cfg) = cache.lookup(query, CacheLookup::WeightedAverage { threshold }) {
            let neighbors: Vec<_> = keys
                .iter()
                .filter(|(k, _, _)| (k - query).abs() <= threshold)
                .collect();
            if !neighbors.is_empty() {
                // Exact hits return a stored config, which is in the hull
                // trivially; interpolations must be too.
                let (lo_nc, hi_nc) = neighbors.iter().fold((f64::INFINITY, 0.0f64), |(l, h), (_, nc, _)| {
                    (l.min(nc.round()), h.max(nc.round()))
                });
                prop_assert!(cfg.containers() >= lo_nc - 1e-9 && cfg.containers() <= hi_nc + 1e-9,
                    "containers {} outside [{lo_nc}, {hi_nc}]", cfg.containers());
            }
        }
    }

    /// On strictly monotone surfaces brute force and hill climbing agree
    /// on the optimum (a corner).
    #[test]
    fn monotone_surfaces_agree(sign_nc in proptest::bool::ANY, sign_cs in proptest::bool::ANY) {
        let cluster = ClusterConditions::two_dim(1.0..=25.0, 1.0..=8.0, 1.0, 1.0);
        let a = if sign_nc { 1.0 } else { -1.0 };
        let b = if sign_cs { 1.0 } else { -1.0 };
        let cost = |r: &ResourceConfig| a * r.containers() + b * r.container_size_gb();
        let bf = brute_force(&cluster, cost);
        let hc = hill_climb(&cluster, cluster.min, cost);
        prop_assert!((bf.cost - hc.cost).abs() < 1e-9, "bf {} hc {}", bf.cost, hc.cost);
        prop_assert_eq!(bf.config, hc.config);
    }
}

/// A deterministic cost surface over grid points. `kind` picks the shape:
/// 0 one constant (every point ties), 1 all infeasible, 2 a quantized bowl
/// (wide plateaus of exact ties), 3 a hashed choice among {1, 2, 3, +∞}
/// (scattered ties and infeasible points), 4 the bowl with +∞ over a band
/// of the first coordinate (contiguous infeasible runs in row-major order).
fn surface(kind: u32, seed: u64, r: &ResourceConfig) -> f64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in r.as_slice() {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    let target = (seed % 7) as f64 * 0.4;
    let bowl = || {
        let d: f64 = r.as_slice().iter().map(|v| (v - target) * (v - target)).sum();
        (d / 1.5).floor()
    };
    match kind {
        0 => 2.5,
        1 => f64::INFINITY,
        2 => bowl(),
        3 => [1.0, 2.0, 3.0, f64::INFINITY][(h % 4) as usize],
        _ => {
            let band = (seed % 5) as f64;
            if r.get(0) >= band && r.get(0) <= band + 1.5 { f64::INFINITY } else { bowl() }
        }
    }
}

/// Grid lengths the scan must get right: a handful of points (about one
/// argmin lane group) and runs around one and two scan chunks.
fn target_len(class: u32, jitter: u64) -> u64 {
    let around = match class {
        0 => 4,
        1 => BATCH_CHUNK as u64,
        2 => 2 * BATCH_CHUNK as u64,
        _ => 1000,
    };
    (around + jitter).saturating_sub(4).max(1)
}

const STEPS: [f64; 6] = [0.1, 0.25, 0.3, 0.7, 1.0, 2.0];
const MINS: [f64; 4] = [0.0, 0.5, 1.0, 3.0];

proptest! {
    /// The batched grid scan — sequential and split over 1–5 workers, fed
    /// by a batch evaluator or a per-point closure — picks exactly the
    /// reference `brute_force` winner: same configuration bits, cost bits
    /// and iteration count, on grids with fractional steps and on surfaces
    /// made of plateaus, exact ties and runs of infeasible points.
    #[test]
    fn grid_scan_matches_reference_brute_force(
        dims in 1usize..=3,
        class in 0u32..4,
        jitter in 0u64..9,
        inner in 1u64..12,
        step_pick in (0usize..6, 0usize..6, 0usize..6),
        min_pick in (0usize..4, 0usize..4, 0usize..4),
        kind in 0u32..5,
        seed in 0u64..1_000_000,
    ) {
        // The last dimensions get `inner` points each; the first makes up
        // the target length.
        let target = target_len(class, jitter);
        let inner = if dims == 1 { 1 } else { inner.min(target) };
        let outer = target.div_ceil(inner.pow(dims as u32 - 1)).max(1);
        let steps = [STEPS[step_pick.0], STEPS[step_pick.1], STEPS[step_pick.2]];
        let mins = [MINS[min_pick.0], MINS[min_pick.1], MINS[min_pick.2]];
        let counts = [outer, inner, inner];
        let max: Vec<f64> =
            (0..dims).map(|d| mins[d] + (counts[d] - 1) as f64 * steps[d]).collect();
        let cluster = ClusterConditions::new(
            ResourceConfig::from_slice(&mins[..dims]),
            ResourceConfig::from_slice(&max),
            ResourceConfig::from_slice(&steps[..dims]),
        );
        let cost = |r: &ResourceConfig| surface(kind, seed, r);
        let reference = brute_force(&cluster, cost);
        let bits = |o: &PlanningOutcome| {
            let config: Vec<u64> = o.config.as_slice().iter().map(|v| v.to_bits()).collect();
            (config, o.cost.to_bits(), o.iterations)
        };
        prop_assert_eq!(reference.iterations, cluster.grid_size());
        let batch = |_: u64, configs: &[ResourceConfig], out: &mut [f64]| {
            for (r, c) in configs.iter().zip(out.iter_mut()) {
                *c = cost(r);
            }
        };
        prop_assert_eq!(bits(&brute_force_batch(&cluster, batch)), bits(&reference));
        let want = bits(&reference);
        let modes = (1..=5).map(Parallelism::Threads).chain([Parallelism::Off]);
        for par in modes {
            let batched = brute_force_parallel_batch(&cluster, batch, par);
            prop_assert_eq!(bits(&batched), want.clone(), "{:?} batched", par);
            let per_point = brute_force_parallel(&cluster, cost, par);
            prop_assert_eq!(bits(&per_point), want.clone(), "{:?} per point", par);
        }
    }
}
