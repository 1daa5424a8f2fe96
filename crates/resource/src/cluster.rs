//! Cluster conditions: the dynamically changing min/max/step bounds of the
//! resource space.
//!
//! §VI-B: Algorithm 1 takes "the current cluster conditions (mainly providing
//! the minimum and maximum cluster resources available currently)" and
//! "gathers the hill climb step sizes along all resource dimensions"
//! (`GetDiscreteSteps`). §VII Setup instantiates this as: "a cluster of 100
//! containers each having a maximum size of 10GB. Minimum allocation is 1
//! container of size 1GB and resources could be increased in discrete
//! intervals of 1 on either axis."

use crate::config::{ResourceConfig, MAX_DIMS};
use crate::planner::BATCH_CHUNK;
use serde::{Deserialize, Serialize};

/// Bounds and granularity of the resource space, per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConditions {
    pub min: ResourceConfig,
    pub max: ResourceConfig,
    step: ResourceConfig,
}

impl ClusterConditions {
    /// Build conditions from per-dimension min/max/step vectors.
    pub fn new(min: ResourceConfig, max: ResourceConfig, step: ResourceConfig) -> Self {
        assert_eq!(min.dims(), max.dims(), "min/max dimensionality mismatch");
        assert_eq!(min.dims(), step.dims(), "min/step dimensionality mismatch");
        for i in 0..min.dims() {
            assert!(
                min.get(i) <= max.get(i),
                "dimension {i}: min {} > max {}",
                min.get(i),
                max.get(i)
            );
            assert!(step.get(i) > 0.0, "dimension {i}: step must be positive");
        }
        ClusterConditions { min, max, step }
    }

    /// The paper's default evaluation cluster (§VII Setup): 1–100 containers,
    /// 1–10 GB each, unit steps on both axes.
    pub fn paper_default() -> Self {
        ClusterConditions::two_dim(1.0..=100.0, 1.0..=10.0, 1.0, 1.0)
    }

    /// Convenience constructor for the 2-D ⟨containers, size⟩ space.
    pub fn two_dim(
        containers: std::ops::RangeInclusive<f64>,
        size_gb: std::ops::RangeInclusive<f64>,
        container_step: f64,
        size_step: f64,
    ) -> Self {
        ClusterConditions::new(
            ResourceConfig::containers_and_size(*containers.start(), *size_gb.start()),
            ResourceConfig::containers_and_size(*containers.end(), *size_gb.end()),
            ResourceConfig::containers_and_size(container_step, size_step),
        )
    }

    /// `GetDiscreteSteps` of Algorithm 1.
    #[inline]
    pub fn discrete_steps(&self) -> ResourceConfig {
        self.step
    }

    /// Number of resource dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.min.dims()
    }

    /// Number of grid points along dimension `i`: the coordinates
    /// `min`, `min + step`, `min + step + step`, … (repeated addition) that
    /// stay within `max + 1e-9`.
    pub fn points_along(&self, i: usize) -> u64 {
        self.axis(i).len()
    }

    /// Grid coordinate `k` along dimension `i` (`k < points_along(i)`):
    /// `min` plus `k` repeated additions of `step`. O(1) on integer
    /// lattices, where the closed form is exact; O(k) otherwise.
    pub fn axis_value(&self, i: usize, k: u64) -> f64 {
        self.axis(i).value(k)
    }

    fn axis(&self, i: usize) -> Axis {
        Axis::new(self.min.get(i), self.max.get(i), self.step.get(i))
    }

    /// Total number of grid points in the space (the brute-force search
    /// size; `rp · rc` in the paper's search-space formula §VI-B).
    pub fn grid_size(&self) -> u64 {
        (0..self.dims()).map(|i| self.points_along(i)).product()
    }

    /// Is `r` inside the bounds on every dimension? (Algorithm 1 lines
    /// 11–12 check each step against `cluster.min`/`cluster.max`.)
    pub fn contains(&self, r: &ResourceConfig) -> bool {
        (0..self.dims()).all(|i| r.get(i) >= self.min.get(i) && r.get(i) <= self.max.get(i))
    }

    /// Clamp `r` into bounds (used when cached configurations from a larger
    /// cluster are replayed under shrunken conditions).
    pub fn clamp(&self, r: &ResourceConfig) -> ResourceConfig {
        let mut out = *r;
        for i in 0..self.dims() {
            out.set(i, r.get(i).clamp(self.min.get(i), self.max.get(i)));
        }
        out
    }

    /// The per-dimension coordinate table every grid enumeration reads:
    /// build it once per scan, then look points up in O(dims).
    pub(crate) fn axes(&self) -> GridAxes {
        GridAxes::new(self)
    }

    /// Iterate every grid point (row-major over dimensions, dimension 0
    /// most significant). Used by the reference brute-force planner and by
    /// tests that cross-check hill climbing.
    pub fn grid(&self) -> GridIter {
        let axes = self.axes();
        GridIter { coord: [0; MAX_DIMS], remaining: axes.len(), axes }
    }

    /// Clamp `r` into bounds and round each coordinate to the nearest grid
    /// point (used for cached configurations that come from interpolation
    /// or from other cluster conditions).
    pub fn snap_to_grid(&self, r: &ResourceConfig) -> ResourceConfig {
        let mut out = self.clamp(r);
        for i in 0..self.dims() {
            out.set(i, self.axis(i).nearest(out.get(i)));
        }
        out
    }

    /// Stable 64-bit fingerprint of the exact bounds and steps (FNV-1a over
    /// the bit patterns of every min/max/step coordinate). Two conditions
    /// fingerprint equal iff their grids are identical, so memo entries
    /// keyed on it are never replayed under a different resource space.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.dims() as u64);
        for i in 0..self.dims() {
            mix(self.min.get(i).to_bits());
            mix(self.max.get(i).to_bits());
            mix(self.step.get(i).to_bits());
        }
        h
    }
}

/// How far past `max` a grid coordinate may land and still count as on
/// the grid, so that `0.1 + 0.1 + 0.1` (`0.30000000000000004`) is the last
/// point of a `0.0..=0.3` axis with step `0.1`.
const GRID_TOLERANCE: f64 = 1e-9;

/// Magnitude below which integer coordinates add exactly in `f64`.
const EXACT_LIMIT: f64 = (1u64 << 52) as f64;

/// One dimension of the grid: the single definition of its coordinates and
/// their count, which the axis table, the iterator, the scans' chunk fills,
/// `grid_size` and `snap_to_grid` all derive from.
#[derive(Clone, Copy)]
struct Axis {
    min: f64,
    max: f64,
    step: f64,
    /// Integer `min` and `step` with every coordinate well inside the
    /// exactly representable integers: repeated addition never rounds, so
    /// coordinate `k` is `min + k·step` in closed form.
    exact: bool,
}

impl Axis {
    fn new(min: f64, max: f64, step: f64) -> Self {
        // The cast round trip tests integrality without a libm call.
        let integral = |x: f64| x.abs() < EXACT_LIMIT && x == x as i64 as f64;
        let exact = integral(min) && integral(step) && min.abs() + max.abs() + step < EXACT_LIMIT;
        Axis { min, max, step, exact }
    }

    fn value(&self, k: u64) -> f64 {
        if k == 0 {
            self.min
        } else if self.exact {
            self.min + k as f64 * self.step
        } else {
            let mut v = self.min;
            for _ in 0..k {
                v += self.step;
            }
            v
        }
    }

    fn len(&self) -> u64 {
        let limit = self.max + GRID_TOLERANCE;
        if self.exact {
            // Estimate (the cast floors, and saturates below zero), then
            // settle on the exact boundary.
            let mut k = ((limit - self.min) / self.step) as u64;
            while k > 0 && self.value(k) > limit {
                k -= 1;
            }
            while self.value(k + 1) <= limit {
                k += 1;
            }
            k + 1
        } else {
            let mut n = 1;
            self.for_each_after_min(|_| n += 1);
            n
        }
    }

    /// The coordinate nearest to `x`, which lies in `[min, max]`.
    fn nearest(&self, x: f64) -> f64 {
        let k = ((x - self.min) / self.step).round();
        if self.exact {
            // `value(k)` in closed form, kept in floating point. `x <= max`
            // puts `k` at most one past the last coordinate.
            let v = if k == 0.0 { self.min } else { self.min + k * self.step };
            if v > self.max + GRID_TOLERANCE {
                v - self.step
            } else {
                v
            }
        } else {
            self.value((k as u64).min(self.len() - 1))
        }
    }

    /// Call `f` with every coordinate after `min`, by repeated addition.
    fn for_each_after_min(&self, mut f: impl FnMut(f64)) {
        let limit = self.max + GRID_TOLERANCE;
        let mut v = self.min;
        loop {
            let next = v + self.step;
            if next > limit {
                return;
            }
            assert!(next > v, "grid step {} vanishes at coordinate {v}", self.step);
            f(next);
            v = next;
        }
    }
}

/// The coordinate table of a [`ClusterConditions`] grid: one ascending
/// list of values per dimension, built once per scan. Grid point `index`
/// (row-major, dimension 0 most significant) takes coordinate
/// `index / stride[d] % len[d]` on dimension `d`.
#[derive(Debug, Clone)]
pub(crate) struct GridAxes {
    /// The cluster minimum: a point with the grid's dimensionality, the
    /// base of every configuration the table hands out.
    template: ResourceConfig,
    axes: Vec<Vec<f64>>,
    strides: [u64; MAX_DIMS],
    total: u64,
}

impl GridAxes {
    fn new(cluster: &ClusterConditions) -> Self {
        let dims = cluster.dims();
        let axes: Vec<Vec<f64>> = (0..dims)
            .map(|i| {
                let axis = cluster.axis(i);
                if axis.exact {
                    (0..axis.len()).map(|k| axis.value(k)).collect()
                } else {
                    let mut values = vec![axis.min];
                    axis.for_each_after_min(|v| values.push(v));
                    values
                }
            })
            .collect();
        let mut strides = [1u64; MAX_DIMS];
        for d in (0..dims.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * axes[d + 1].len() as u64;
        }
        let total = strides[0] * axes[0].len() as u64;
        GridAxes { template: cluster.min, axes, strides, total }
    }

    /// Total number of grid points.
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        self.total
    }

    /// Per-dimension coordinate indices of grid point `index`.
    fn coords_of(&self, index: u64) -> [usize; MAX_DIMS] {
        let mut coord = [0usize; MAX_DIMS];
        for (d, axis) in self.axes.iter().enumerate() {
            coord[d] = (index / self.strides[d] % axis.len() as u64) as usize;
        }
        coord
    }

    /// The grid point at row-major `index`, in O(dims).
    pub(crate) fn point_at(&self, index: u64) -> ResourceConfig {
        debug_assert!(index < self.total, "grid index out of range");
        let coord = self.coords_of(index);
        let mut out = self.template;
        for (d, axis) in self.axes.iter().enumerate() {
            out.set(d, axis[coord[d]]);
        }
        out
    }

    /// The chunk writer of a grid scan over this table.
    pub(crate) fn chunk_fill(&self) -> ChunkFill<'_> {
        let dims = self.axes.len();
        let last = &self.axes[dims - 1];
        let rounds =
            if last.len() < BATCH_CHUNK { BATCH_CHUNK.div_ceil(last.len()) + 1 } else { 1 };
        let mut cycle = vec![self.template; rounds * last.len()];
        for (slot, &v) in cycle.iter_mut().zip(last.iter().cycle()) {
            slot.set(dims - 1, v);
        }
        ChunkFill { axes: self, cycle }
    }
}

/// Writes runs of consecutive grid points into a scan's chunk buffers.
/// Built once per scan: only the scans need its cycle table, so the
/// iterator and point lookups never allocate it.
pub(crate) struct ChunkFill<'a> {
    axes: &'a GridAxes,
    /// The template with the last (fastest-varying) coordinate set to each
    /// value of its axis in turn, repeated until any [`BATCH_CHUNK`] run
    /// starting inside the first cycle fits: a chunk fill copies its
    /// last coordinates from here in one slice copy.
    ///
    /// [`BATCH_CHUNK`]: crate::BATCH_CHUNK
    cycle: Vec<ResourceConfig>,
}

impl ChunkFill<'_> {
    /// A configuration with the grid's dimensionality (the cluster
    /// minimum), for initializing chunk buffers.
    pub(crate) fn template(&self) -> ResourceConfig {
        self.axes.template
    }

    /// Write the grid points starting at row-major index `lo` into `out`,
    /// one per slot, straight into the slots: the last coordinate by slice
    /// copies from the cycle table, every other one in runs of equal
    /// value.
    pub(crate) fn fill(&self, lo: u64, out: &mut [ResourceConfig]) {
        let axes = self.axes;
        debug_assert!(lo + out.len() as u64 <= axes.total, "chunk past the end of the grid");
        let start = axes.coords_of(lo);
        let last = axes.axes.len() - 1;
        // The fastest-varying dimension: slice copies from the cycle table.
        let period = axes.axes[last].len();
        let mut from = start[last];
        let mut rest = &mut out[..];
        while !rest.is_empty() {
            let n = rest.len().min(self.cycle.len() - from);
            let (head, tail) = rest.split_at_mut(n);
            head.copy_from_slice(&self.cycle[from..from + n]);
            rest = tail;
            from = (from + n) % period;
        }
        // Every slower dimension: runs of one value, `stride` slots long.
        for (d, axis) in axes.axes[..last].iter().enumerate() {
            let stride = axes.strides[d] as usize;
            let mut c = start[d];
            let mut run = stride - (lo % stride as u64) as usize;
            let mut slots = out.iter_mut();
            while slots.len() > 0 {
                let v = axis[c];
                for slot in slots.by_ref().take(run) {
                    slot.set(d, v);
                }
                run = stride;
                c = if c + 1 == axis.len() { 0 } else { c + 1 };
            }
        }
    }
}

/// Iterator over the grid points of a [`ClusterConditions`] space, reading
/// the axis table through an integer odometer.
pub struct GridIter {
    axes: GridAxes,
    coord: [usize; MAX_DIMS],
    remaining: u64,
}

impl Iterator for GridIter {
    type Item = ResourceConfig;

    fn next(&mut self) -> Option<ResourceConfig> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut out = self.axes.template;
        for (d, axis) in self.axes.axes.iter().enumerate() {
            out.set(d, axis[self.coord[d]]);
        }
        // Advance the odometer, least-significant dimension last.
        for d in (0..self.axes.axes.len()).rev() {
            self.coord[d] += 1;
            if self.coord[d] < self.axes.axes[d].len() {
                break;
            }
            self.coord[d] = 0;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        usize::try_from(self.remaining).map_or((usize::MAX, None), |n| (n, Some(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_grid_is_100_by_10() {
        let c = ClusterConditions::paper_default();
        assert_eq!(c.points_along(0), 100);
        assert_eq!(c.points_along(1), 10);
        assert_eq!(c.grid_size(), 1000);
    }

    #[test]
    fn contains_checks_all_dims() {
        let c = ClusterConditions::paper_default();
        assert!(c.contains(&ResourceConfig::containers_and_size(1.0, 1.0)));
        assert!(c.contains(&ResourceConfig::containers_and_size(100.0, 10.0)));
        assert!(!c.contains(&ResourceConfig::containers_and_size(101.0, 10.0)));
        assert!(!c.contains(&ResourceConfig::containers_and_size(100.0, 10.5)));
        assert!(!c.contains(&ResourceConfig::containers_and_size(0.0, 5.0)));
    }

    #[test]
    fn clamp_pulls_into_bounds() {
        let c = ClusterConditions::paper_default();
        let r = c.clamp(&ResourceConfig::containers_and_size(500.0, 0.5));
        assert_eq!(r, ResourceConfig::containers_and_size(100.0, 1.0));
    }

    #[test]
    fn grid_enumerates_every_point_once() {
        let c = ClusterConditions::two_dim(1.0..=3.0, 1.0..=2.0, 1.0, 1.0);
        let pts: Vec<_> = c.grid().collect();
        assert_eq!(pts.len() as u64, c.grid_size());
        assert_eq!(pts.len(), 6);
        // All unique.
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Bounds respected.
        assert!(pts.iter().all(|p| c.contains(p)));
    }

    #[test]
    fn grid_handles_non_unit_steps() {
        let c = ClusterConditions::two_dim(10.0..=50.0, 2.0..=8.0, 10.0, 2.0);
        assert_eq!(c.points_along(0), 5);
        assert_eq!(c.points_along(1), 4);
        let pts: Vec<_> = c.grid().collect();
        assert_eq!(pts.len(), 20);
    }

    #[test]
    fn single_point_grid() {
        let c = ClusterConditions::two_dim(5.0..=5.0, 3.0..=3.0, 1.0, 1.0);
        let pts: Vec<_> = c.grid().collect();
        assert_eq!(pts, vec![ResourceConfig::containers_and_size(5.0, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "min")]
    fn inverted_bounds_rejected() {
        ClusterConditions::two_dim(10.0..=1.0, 1.0..=10.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn zero_step_rejected() {
        ClusterConditions::two_dim(1.0..=10.0, 1.0..=10.0, 0.0, 1.0);
    }

    /// Every enumeration of `cluster`'s grid agrees point for point (bit
    /// patterns included): the iterator, `grid_size`, the axis table's
    /// `point_at`, and chunk fills at every offset.
    fn assert_one_grid(cluster: &ClusterConditions) {
        let pts: Vec<ResourceConfig> = cluster.grid().collect();
        assert_eq!(pts.len() as u64, cluster.grid_size(), "{cluster:?}");
        let axes = cluster.axes();
        assert_eq!(axes.len(), cluster.grid_size());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(axes.point_at(i as u64), *p, "point_at({i})");
        }
        let chunks = axes.chunk_fill();
        for lo in [0, 1, pts.len() / 2, pts.len() - 1] {
            let mut buf = vec![chunks.template(); pts.len() - lo];
            chunks.fill(lo as u64, &mut buf);
            assert_eq!(buf, pts[lo..], "fill from {lo}");
        }
        // Walking one dimension from the min corner visits its axis values.
        let mut stride = 1;
        for d in (0..cluster.dims()).rev() {
            for k in 0..cluster.points_along(d) {
                let v = pts[(k * stride) as usize].get(d);
                assert_eq!(cluster.axis_value(d, k).to_bits(), v.to_bits(), "dim {d} coord {k}");
            }
            stride *= cluster.points_along(d);
        }
    }

    #[test]
    fn fractional_steps_give_one_grid() {
        // 0.1 + 0.1 + 0.1 = 0.30000000000000004: within the tolerance, so
        // the axis has four points. Counting them by division (2.999… → 2)
        // used to give three, so the grid had 6 points by `grid_size` but
        // 8 by iteration, and the parallel scan's index lookup disagreed
        // with `grid().nth`.
        let c = ClusterConditions::two_dim(1.0..=2.0, 0.0..=0.3, 1.0, 0.1);
        assert_eq!(c.points_along(1), 4);
        assert_eq!(c.grid_size(), 8);
        assert_one_grid(&c);
        let c = ClusterConditions::two_dim(1.0..=2.0, 0.5..=0.7, 1.0, 0.1);
        assert_eq!(c.points_along(1), 3);
        assert_one_grid(&c);
        assert_one_grid(&ClusterConditions::two_dim(0.5..=3.3, 0.25..=2.0, 0.7, 0.35));
    }

    #[test]
    fn integer_grids_are_closed_form_and_unchanged() {
        for c in [
            ClusterConditions::paper_default(),
            ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0),
            ClusterConditions::two_dim(10.0..=55.0, 2.0..=8.5, 10.0, 2.0),
            ClusterConditions::two_dim(3.0..=3.0, 2.0..=2.0, 1.0, 1.0),
        ] {
            for d in 0..c.dims() {
                let (min, max, step) = (c.min.get(d), c.max.get(d), c.discrete_steps().get(d));
                assert_eq!(c.points_along(d), ((max - min) / step).floor() as u64 + 1);
                let mut v = min;
                for k in 0..c.points_along(d) {
                    assert_eq!(c.axis_value(d, k), min + k as f64 * step);
                    assert_eq!(c.axis_value(d, k).to_bits(), v.to_bits());
                    v += step;
                }
            }
            assert_one_grid(&c);
        }
    }

    #[test]
    fn fills_cross_axis_cycles_and_long_last_axes() {
        // One and three dimensions; last axes shorter and longer than a
        // chunk, so fills both repeat the cycle table and wrap it.
        let one = ClusterConditions::new(
            ResourceConfig::from_slice(&[1.0]),
            ResourceConfig::from_slice(&[700.0]),
            ResourceConfig::from_slice(&[1.0]),
        );
        assert_one_grid(&one);
        let three = ClusterConditions::new(
            ResourceConfig::from_slice(&[1.0, 1.0, 0.5]),
            ResourceConfig::from_slice(&[4.0, 3.0, 2.0]),
            ResourceConfig::from_slice(&[1.0, 1.0, 0.5]),
        );
        assert_eq!(three.grid_size(), 48);
        assert_one_grid(&three);
        assert_one_grid(&ClusterConditions::two_dim(1.0..=3.0, 1.0..=300.0, 1.0, 1.0));
    }

    #[test]
    fn snap_to_grid_lands_on_grid_points() {
        let c = ClusterConditions::two_dim(1.0..=2.0, 0.0..=0.3, 1.0, 0.1);
        let pts: Vec<ResourceConfig> = c.grid().collect();
        for (nc, cs) in [(1.4, 0.29), (9.0, 0.3), (0.0, -1.0), (1.6, 0.151)] {
            let s = c.snap_to_grid(&ResourceConfig::containers_and_size(nc, cs));
            assert!(pts.contains(&s), "({nc}, {cs}) snapped off the grid to {s}");
        }
        let s = c.snap_to_grid(&ResourceConfig::containers_and_size(9.0, 0.3));
        assert_eq!(s.container_size_gb().to_bits(), (0.1f64 + 0.1 + 0.1).to_bits());
        // An off-lattice max snaps to the last grid point, not to max.
        let c = ClusterConditions::two_dim(1.0..=10.5, 1.0..=1.0, 1.0, 1.0);
        let s = c.snap_to_grid(&ResourceConfig::containers_and_size(10.5, 1.0));
        assert_eq!(s.containers(), 10.0);
    }

    #[test]
    fn fig15b_scaled_cluster_sizes() {
        // Fig. 15(b): up to 100K containers and 100 GB container sizes.
        let c = ClusterConditions::two_dim(1.0..=100_000.0, 1.0..=100.0, 1.0, 1.0);
        assert_eq!(c.grid_size(), 10_000_000);
    }
}
