//! Resource planners: brute force (§VI-B1) and hill climbing (Algorithm 1).

use crate::cluster::{ChunkFill, ClusterConditions, GridAxes};
use crate::config::ResourceConfig;

/// Result of one resource-planning call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanningOutcome {
    /// The chosen resource configuration.
    pub config: ResourceConfig,
    /// The cost model's value at `config`.
    pub cost: f64,
    /// Number of cost-model evaluations performed — the paper's "resource
    /// configurations explored" metric (Figs. 12–14).
    pub iterations: u64,
}

/// Exhaustive search over the whole resource grid (§VI-B1):
///
/// > "The brute force approach to resource planning would perform an
/// > exhaustive search of all possible resource configurations to find the
/// > best one."
///
/// Ties are broken toward the earlier grid point, which — because the grid
/// starts at the minimum allocation — prefers smaller resource footprints.
pub fn brute_force<F>(cluster: &ClusterConditions, mut cost_fn: F) -> PlanningOutcome
where
    F: FnMut(&ResourceConfig) -> f64,
{
    let mut best: Option<(ResourceConfig, f64)> = None;
    let mut iterations = 0u64;
    for r in cluster.grid() {
        let c = cost_fn(&r);
        iterations += 1;
        match best {
            Some((_, bc)) if bc <= c => {}
            _ => best = Some((r, c)),
        }
    }
    // Infallible: `ClusterConditions` guarantees min <= max along every
    // dimension, so `grid()` yields at least the min corner.
    let (config, cost) = best.expect("cluster grid is never empty");
    PlanningOutcome { config, cost, iterations }
}

/// Chunk size for the batched grid scans: large enough to amortize per-chunk
/// setup and give the cost kernel a vectorizable run, small enough that the
/// config/cost buffers stay cache-resident.
pub const BATCH_CHUNK: usize = 256;

/// Exhaustive grid search driven by a *batched* cost evaluator instead of a
/// per-point closure.
///
/// `batch_fn(start_index, configs, costs)` must fill `costs[i]` with the
/// cost at `configs[i]` (using `f64::INFINITY` for infeasible points), where
/// `start_index` is the row-major grid index of `configs[0]`. Winner
/// selection is by `(cost, grid index)` with ties toward the earlier point —
/// bit-identical to [`brute_force`] whenever the evaluator agrees with the
/// scalar cost function point-wise and never returns NaN (a NaN cost never
/// wins).
pub fn brute_force_batch<F>(cluster: &ClusterConditions, mut batch_fn: F) -> PlanningOutcome
where
    F: FnMut(u64, &[ResourceConfig], &mut [f64]),
{
    let axes = cluster.axes();
    let best = scan_range(&axes.chunk_fill(), 0, axes.len(), &mut batch_fn);
    grid_outcome(&axes, best)
}

/// The outcome for a scan winner `(grid index, cost)` over the whole grid.
pub(crate) fn grid_outcome(axes: &GridAxes, (index, cost): (u64, f64)) -> PlanningOutcome {
    PlanningOutcome { config: axes.point_at(index), cost, iterations: axes.len() }
}

/// The grid scan: evaluate grid indices `[lo, hi)` in [`BATCH_CHUNK`]-sized
/// slices through `batch_fn` and return the winner as `(grid index, cost)`
/// — lowest cost, earliest index on ties. When no point costs less than
/// +∞ the winner is `(lo, +∞)`, the same first point [`brute_force`]
/// keeps. The sequential planner scans `[0, len)`; each parallel worker
/// scans its own range, and the results merge by `(cost, index)`.
pub(crate) fn scan_range<F>(grid: &ChunkFill, lo: u64, hi: u64, batch_fn: &mut F) -> (u64, f64)
where
    F: FnMut(u64, &[ResourceConfig], &mut [f64]),
{
    debug_assert!(hi < 1u64 << 53, "grid indices must be exact as f64");
    let mut configs = [grid.template(); BATCH_CHUNK];
    let mut costs = [0.0f64; BATCH_CHUNK];
    let mut argmin = LaneArgmin::new();
    let mut at = lo;
    while at < hi {
        let n = ((hi - at) as usize).min(BATCH_CHUNK);
        grid.fill(at, &mut configs[..n]);
        batch_fn(at, &configs[..n], &mut costs[..n]);
        argmin.update(at, &costs[..n]);
        at += n as u64;
    }
    argmin.winner().unwrap_or((lo, f64::INFINITY))
}

/// Lanes of the branch-free argmin (one AVX2 register of `f64`s).
const LANES: usize = 4;

/// Branch-free running argmin over a stream of costs. Cost `j` of the
/// stream goes to lane `j % LANES`, which keeps its strict minimum and the
/// earliest index reaching it — a select instead of a branch, because new
/// minima arrive unpredictably. [`LaneArgmin::winner`] then merges the
/// lanes by `(cost, index)`.
///
/// Indices are carried as `f64` (exact below 2^53) so that the cost and
/// index selects share one compare mask in the same vector registers.
struct LaneArgmin {
    cost: [f64; LANES],
    index: [f64; LANES],
}

impl LaneArgmin {
    fn new() -> Self {
        LaneArgmin { cost: [f64::INFINITY; LANES], index: [f64::INFINITY; LANES] }
    }

    /// Fold in `costs`, the first at grid index `base`. Calls come in
    /// ascending index order, so each lane sees its indices ascending and
    /// its strict minimum keeps the earliest of equal costs.
    #[inline]
    fn update(&mut self, base: u64, costs: &[f64]) {
        // Work on register copies so the lanes are not stored and reloaded
        // between groups.
        let (mut cost, mut index) = (self.cost, self.index);
        let mut at: [f64; LANES] = std::array::from_fn(|l| (base + l as u64) as f64);
        let mut groups = costs.chunks_exact(LANES);
        for group in &mut groups {
            for l in 0..LANES {
                let better = group[l] < cost[l];
                cost[l] = if better { group[l] } else { cost[l] };
                index[l] = if better { at[l] } else { index[l] };
                at[l] += LANES as f64;
            }
        }
        for (l, &c) in groups.remainder().iter().enumerate() {
            let better = c < cost[l];
            cost[l] = if better { c } else { cost[l] };
            index[l] = if better { at[l] } else { index[l] };
        }
        (self.cost, self.index) = (cost, index);
    }

    /// The lowest `(index, cost)` over the lanes by `(cost, index)`, or
    /// `None` when no cost beat +∞.
    fn winner(&self) -> Option<(u64, f64)> {
        let mut best: Option<(f64, f64)> = None;
        for (&c, &i) in self.cost.iter().zip(&self.index) {
            if i == f64::INFINITY {
                continue;
            }
            match best {
                Some((bi, bc)) if bc < c || (bc == c && bi < i) => {}
                _ => best = Some((i, c)),
            }
        }
        best.map(|(i, c)| (i as u64, c))
    }
}

/// Hill-climbing resource planning — a faithful transcription of the paper's
/// **Algorithm 1 (HillClimbResourcePlanning)**.
///
/// Starting from `start` (typically the minimum allocation,
/// `cluster.min`), each round considers a forward and a backward discrete
/// step (`candidate = [-1, 1]`) along every resource dimension, applies the
/// step that improves the cost most for that dimension (lines 7–19), and
/// terminates when no candidate step on any dimension improves on the
/// current configuration (lines 20–21, return at the local optimum).
///
/// The returned [`PlanningOutcome::iterations`] counts *distinct resource
/// configurations probed* (the start plus every neighbour evaluation).
/// This deviates from a literal reading of Algorithm 1, whose line 5
/// re-evaluates `cost(currRes)` at the top of every round: the winning
/// neighbour's cost from the previous round *is* the current
/// configuration's cost, so this implementation carries it forward instead
/// of recomputing it. The search trajectory — every step taken and the
/// final configuration — is unchanged; only redundant cost-model calls are
/// dropped, which matters once each call runs a full resource planning
/// simulation. Fig. 13(a)'s "resource configurations explored" metric is
/// reported in the same units.
///
/// ```
/// use raqo_resource::{hill_climb, ClusterConditions, ResourceConfig};
///
/// // A convex cost bowl with its optimum at 40 containers × 7 GB.
/// let cluster = ClusterConditions::paper_default();
/// let cost = |r: &ResourceConfig| {
///     (r.containers() - 40.0).powi(2) + 3.0 * (r.container_size_gb() - 7.0).powi(2)
/// };
/// let found = hill_climb(&cluster, cluster.min, cost);
/// assert_eq!(found.config, ResourceConfig::containers_and_size(40.0, 7.0));
/// assert!(found.iterations < cluster.grid_size()); // far fewer than brute force
/// ```
pub fn hill_climb<F>(
    cluster: &ClusterConditions,
    start: ResourceConfig,
    mut cost_fn: F,
) -> PlanningOutcome
where
    F: FnMut(&ResourceConfig) -> f64,
{
    assert_eq!(start.dims(), cluster.dims(), "start/cluster dimensionality mismatch");
    debug_assert!(cluster.contains(&start), "start must lie inside the cluster bounds");

    let step_size = cluster.discrete_steps(); // line 1: GetDiscreteSteps
    let candidate = [-1.0, 1.0]; // line 2
    let mut curr_res = start; // line 3
    // Evaluate the start once; every later round reuses the winning
    // neighbour's cost instead of re-running line 5 of Algorithm 1.
    let mut curr_cost = cost_fn(&curr_res);
    let mut iterations = 1u64;

    loop {
        let mut best_cost = curr_cost; // line 6

        for i in 0..curr_res.dims() {
            // lines 7–19: probe ±1 step on dimension i
            let mut best = None; // line 8: best = -1
            for &cand in &candidate {
                let i_val = step_size.get(i) * cand; // line 10
                let stepped = curr_res.get(i) + i_val;
                // line 11: respect cluster bounds
                if stepped <= cluster.max.get(i) && stepped >= cluster.min.get(i) {
                    curr_res.nudge(i, i_val); // line 12
                    let temp = cost_fn(&curr_res); // line 13
                    iterations += 1;
                    curr_res.nudge(i, -i_val); // line 14: backtrack
                    if temp < best_cost {
                        // lines 15–17
                        best_cost = temp;
                        best = Some(cand);
                    }
                }
            }
            if let Some(cand) = best {
                // lines 18–19: reapply the winning step
                curr_res.nudge(i, step_size.get(i) * cand);
            }
        }

        // lines 20–21: no better neighbour on any dimension → local optimum
        if best_cost >= curr_cost {
            return PlanningOutcome { config: curr_res, cost: curr_cost, iterations };
        }
        // A step was accepted: the last accepted probe was evaluated at the
        // configuration `curr_res` now holds, so `best_cost` is exactly
        // `cost_fn(&curr_res)` — carry it into the next round.
        curr_cost = best_cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cluster() -> ClusterConditions {
        ClusterConditions::paper_default()
    }

    /// A convex bowl with minimum at (40, 7): hill climbing must find the
    /// global optimum of a unimodal cost surface.
    fn bowl(r: &ResourceConfig) -> f64 {
        let dc = r.containers() - 40.0;
        let ds = r.container_size_gb() - 7.0;
        dc * dc + 3.0 * ds * ds
    }

    #[test]
    fn brute_force_explores_whole_grid() {
        let out = brute_force(&paper_cluster(), bowl);
        assert_eq!(out.iterations, 1000);
        assert_eq!(out.config, ResourceConfig::containers_and_size(40.0, 7.0));
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn hill_climb_matches_brute_force_on_convex_surface() {
        let cluster = paper_cluster();
        let bf = brute_force(&cluster, bowl);
        let hc = hill_climb(&cluster, cluster.min, bowl);
        assert_eq!(hc.config, bf.config);
        assert_eq!(hc.cost, bf.cost);
    }

    #[test]
    fn hill_climb_uses_far_fewer_iterations() {
        // Fig. 13: "hill climbing explores 4 times less resource
        // configurations than brute force" — on this toy surface the gap is
        // much larger; assert at least 4x.
        let cluster = paper_cluster();
        let bf = brute_force(&cluster, bowl);
        let hc = hill_climb(&cluster, cluster.min, bowl);
        assert!(
            hc.iterations * 4 <= bf.iterations,
            "hc={} bf={}",
            hc.iterations,
            bf.iterations
        );
    }

    #[test]
    fn hill_climb_stops_at_local_optimum_of_multimodal_surface() {
        // Two basins: a shallow one near the start and a deep one far away.
        // Greedy climbing from the minimum allocation must settle in the
        // nearer basin — that is the documented local-optimum behaviour.
        let two_basins = |r: &ResourceConfig| -> f64 {
            let near = (r.containers() - 5.0).powi(2) + (r.container_size_gb() - 2.0).powi(2);
            let far =
                (r.containers() - 90.0).powi(2) + (r.container_size_gb() - 9.0).powi(2) - 50.0;
            near.min(far)
        };
        let cluster = paper_cluster();
        let hc = hill_climb(&cluster, cluster.min, two_basins);
        assert_eq!(hc.config, ResourceConfig::containers_and_size(5.0, 2.0));
        let bf = brute_force(&cluster, two_basins);
        assert_eq!(bf.config, ResourceConfig::containers_and_size(90.0, 9.0));
        assert!(bf.cost < hc.cost);
    }

    #[test]
    fn hill_climb_never_leaves_cluster_bounds() {
        // Cost decreasing toward huge configurations: the climber must stop
        // at the max corner rather than stepping outside.
        let decreasing = |r: &ResourceConfig| -> f64 { -(r.containers() + r.container_size_gb()) };
        let cluster = paper_cluster();
        let out = hill_climb(&cluster, cluster.min, decreasing);
        assert_eq!(out.config, ResourceConfig::containers_and_size(100.0, 10.0));
    }

    #[test]
    fn hill_climb_with_flat_cost_returns_start_immediately() {
        let cluster = paper_cluster();
        let out = hill_climb(&cluster, cluster.min, |_| 42.0);
        assert_eq!(out.config, cluster.min);
        assert_eq!(out.cost, 42.0);
        // 1 current evaluation + 1 inbound probe per dimension (the -1 step
        // is out of bounds at the minimum corner).
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn hill_climb_from_interior_start() {
        let cluster = paper_cluster();
        let start = ResourceConfig::containers_and_size(60.0, 9.0);
        let out = hill_climb(&cluster, start, bowl);
        assert_eq!(out.config, ResourceConfig::containers_and_size(40.0, 7.0));
    }

    #[test]
    fn brute_force_tie_break_prefers_first_grid_point() {
        let cluster = ClusterConditions::two_dim(1.0..=3.0, 1.0..=1.0, 1.0, 1.0);
        let out = brute_force(&cluster, |_| 1.0);
        assert_eq!(out.config, ResourceConfig::containers_and_size(1.0, 1.0));
    }

    #[test]
    fn batched_brute_force_matches_scalar() {
        let cluster = paper_cluster();
        let seq = brute_force(&cluster, bowl);
        let out = brute_force_batch(&cluster, |_, configs, costs| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = bowl(r);
            }
        });
        assert_eq!(out.config, seq.config);
        assert_eq!(out.cost.to_bits(), seq.cost.to_bits());
        assert_eq!(out.iterations, seq.iterations);
    }

    #[test]
    fn batched_brute_force_tie_break_and_chunk_boundaries() {
        // Grid larger than one chunk with a constant surface: ties must
        // resolve to the first grid point regardless of chunking, and the
        // evaluator must see contiguous start indices covering the grid.
        let cluster = ClusterConditions::two_dim(1.0..=40.0, 1.0..=10.0, 1.0, 1.0);
        assert!(cluster.grid_size() > BATCH_CHUNK as u64);
        let mut seen = Vec::new();
        let out = brute_force_batch(&cluster, |start, configs, costs| {
            seen.push((start, configs.len() as u64));
            costs.fill(7.0);
        });
        assert_eq!(out.config, cluster.min);
        assert_eq!(out.cost, 7.0);
        let mut expect = 0u64;
        for (start, len) in &seen {
            assert_eq!(*start, expect);
            expect += len;
        }
        assert_eq!(expect, cluster.grid_size());
    }

    #[test]
    fn batched_brute_force_skips_infinite_costs() {
        // Infeasible (INFINITY) points lose to any finite point, matching
        // the scalar planner fed `f64::INFINITY` for infeasible configs.
        let cluster = paper_cluster();
        let masked = |r: &ResourceConfig| -> f64 {
            if r.containers() < 90.0 { f64::INFINITY } else { bowl(r) }
        };
        let seq = brute_force(&cluster, masked);
        let out = brute_force_batch(&cluster, |_, configs, costs| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = masked(r);
            }
        });
        assert_eq!(out.config, seq.config);
        assert_eq!(out.cost.to_bits(), seq.cost.to_bits());
    }

    /// Pin the exact iteration count — distinct configurations probed — on
    /// a 1-D ridge with a known trajectory. `two_dim(1..=4, 1..=1)` with
    /// cost `|containers − 3|`, start (1,1):
    ///
    /// * start eval (1,1)=2 .............................. 1 iteration
    /// * round 1: dim 0 probes (2,1)=1 (the −1 step is out of bounds),
    ///   dim 1 has no in-bounds probes .................... 1 iteration, step to (2,1)
    /// * round 2: probes (1,1)=2 and (3,1)=0 ............. 2 iterations, step to (3,1)
    /// * round 3: probes (2,1)=1 and (4,1)=1 — no strict
    ///   improvement, terminate ........................... 2 iterations
    ///
    /// Total: 6 probes, optimum (3,1) at cost 0.
    #[test]
    fn hill_climb_iteration_count_pinned_on_ridge() {
        let cluster = ClusterConditions::two_dim(1.0..=4.0, 1.0..=1.0, 1.0, 1.0);
        let out = hill_climb(&cluster, cluster.min, |r| (r.containers() - 3.0).abs());
        assert_eq!(out.config, ResourceConfig::containers_and_size(3.0, 1.0));
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.iterations, 6);
    }

    /// Same pin on a 2-D bowl where both dimensions step in one round.
    /// `two_dim(1..=3, 1..=2)` with cost `(c−2)² + (s−2)²`, start (1,1):
    ///
    /// * start eval (1,1)=2 .............................. 1 iteration
    /// * round 1: dim 0 probes (2,1)=1 → step; dim 1 probes
    ///   (2,2)=0 → step ................................... 2 iterations, now (2,2)
    /// * round 2: dim 0 probes (1,2)=1 and (3,2)=1; dim 1
    ///   probes (2,1)=1 — no strict improvement, stop ..... 3 iterations
    ///
    /// Total: 6 probes, optimum (2,2) at cost 0. (The round-2 count also
    /// pins the bounds rule: (2,3) is out of bounds and never probed.)
    #[test]
    fn hill_climb_iteration_count_pinned_on_bowl() {
        let cluster = ClusterConditions::two_dim(1.0..=3.0, 1.0..=2.0, 1.0, 1.0);
        let cost = |r: &ResourceConfig| {
            (r.containers() - 2.0).powi(2) + (r.container_size_gb() - 2.0).powi(2)
        };
        let out = hill_climb(&cluster, cluster.min, cost);
        assert_eq!(out.config, ResourceConfig::containers_and_size(2.0, 2.0));
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.iterations, 6);
    }

    #[test]
    fn hill_climb_respects_non_unit_steps() {
        let cluster = ClusterConditions::two_dim(10.0..=100.0, 10.0..=100.0, 10.0, 10.0);
        let target = |r: &ResourceConfig| -> f64 {
            (r.containers() - 50.0).abs() + (r.container_size_gb() - 30.0).abs()
        };
        let out = hill_climb(&cluster, cluster.min, target);
        assert_eq!(out.config, ResourceConfig::containers_and_size(50.0, 30.0));
    }
}
