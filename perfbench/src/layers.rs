//! Per-layer timing for the traced run. Spans are recorded only here, in
//! the benchmark, around calls into the program's public seams: the
//! `OperatorCost` model the optimizer is built over (the `cost` layer) and
//! the `PlanCoster` the join planners call (the `coster` layer). Each span
//! adds its count, the items it covered and its duration to a [`Clock`];
//! self times are derived from the nesting planner ⊃ coster ⊃ cost.

use raqo_cost::OperatorCost;
use raqo_planner::{JoinDecision, JoinIo, PlanCoster};
use raqo_resource::{Parallelism, ResourceConfig};
use raqo_sim::JoinImpl;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Aggregated spans of one kind: how many, over how many items, how long.
/// The fields are statistics read after the run, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    items: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time copy of a [`Clock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub calls: u64,
    pub items: u64,
    pub ns: u64,
}

impl Clock {
    pub fn record(&self, items: u64, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn tally(&self) -> Tally {
        Tally {
            calls: self.calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

impl Tally {
    pub fn since(self, before: Tally) -> Tally {
        Tally {
            calls: self.calls - before.calls,
            items: self.items - before.items,
            ns: self.ns - before.ns,
        }
    }

    pub fn ms(self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// Spans around the cost model: scalar calls (one configuration each) and
/// batch calls (a slice of configurations each).
#[derive(Debug)]
pub struct KernelClocks {
    pub scalar: Clock,
    pub batch: Clock,
    /// Recording switch: off, the wrapper only forwards. The wire workload
    /// flips it between request blocks to price the tracing itself.
    on: AtomicBool,
}

impl Default for KernelClocks {
    fn default() -> Self {
        KernelClocks {
            scalar: Clock::default(),
            batch: Clock::default(),
            on: AtomicBool::new(true),
        }
    }
}

impl KernelClocks {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

/// An [`OperatorCost`] that forwards every method to `inner` and records a
/// span around each call.
pub struct TracedModel<M> {
    pub inner: M,
    pub clocks: Arc<KernelClocks>,
}

impl<M> TracedModel<M> {
    pub fn new(inner: M) -> Self {
        TracedModel {
            inner,
            clocks: Arc::default(),
        }
    }
}

impl<M: OperatorCost> OperatorCost for TracedModel<M> {
    fn join_cost(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        containers: f64,
        container_size_gb: f64,
    ) -> Option<f64> {
        if !self.clocks.on() {
            return self
                .inner
                .join_cost(join, build_gb, probe_gb, containers, container_size_gb);
        }
        let t = Instant::now();
        let out = self
            .inner
            .join_cost(join, build_gb, probe_gb, containers, container_size_gb);
        self.clocks.scalar.record(1, t);
        out
    }

    fn join_cost_at(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        r: &ResourceConfig,
    ) -> Option<f64> {
        if !self.clocks.on() {
            return self.inner.join_cost_at(join, build_gb, probe_gb, r);
        }
        let t = Instant::now();
        let out = self.inner.join_cost_at(join, build_gb, probe_gb, r);
        self.clocks.scalar.record(1, t);
        out
    }

    fn join_cost_batch_at(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        configs: &[ResourceConfig],
        out: &mut [f64],
    ) {
        if !self.clocks.on() {
            return self
                .inner
                .join_cost_batch_at(join, build_gb, probe_gb, configs, out);
        }
        let t = Instant::now();
        self.inner
            .join_cost_batch_at(join, build_gb, probe_gb, configs, out);
        self.clocks.batch.record(configs.len() as u64, t);
    }

    fn best_impl(
        &self,
        build_gb: f64,
        probe_gb: f64,
        containers: f64,
        container_size_gb: f64,
    ) -> Option<(JoinImpl, f64)> {
        if !self.clocks.on() {
            return self
                .inner
                .best_impl(build_gb, probe_gb, containers, container_size_gb);
        }
        let t = Instant::now();
        let out = self
            .inner
            .best_impl(build_gb, probe_gb, containers, container_size_gb);
        self.clocks.scalar.record(1, t);
        out
    }
}

/// A [`PlanCoster`] that forwards every method to `inner` and records a
/// span around each costing call; items are joins costed.
pub struct TracedCoster<'c, C: PlanCoster> {
    pub inner: &'c mut C,
    pub clock: &'c Clock,
}

impl<C: PlanCoster> PlanCoster for TracedCoster<'_, C> {
    fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
        let t = Instant::now();
        let out = self.inner.join_cost(io);
        self.clock.record(1, t);
        out
    }

    fn join_cost_many(
        &mut self,
        ios: &[JoinIo],
        parallelism: Parallelism,
    ) -> Vec<Option<JoinDecision>> {
        let t = Instant::now();
        let out = self.inner.join_cost_many(ios, parallelism);
        self.clock.record(ios.len() as u64, t);
        out
    }

    fn prefers_batch(&self) -> bool {
        self.inner.prefers_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqo_cost::JoinCostModel;

    #[test]
    fn traced_model_forwards_bit_for_bit_and_counts() {
        let plain = JoinCostModel::trained_hive();
        let traced = TracedModel::new(plain.clone());
        let configs: Vec<ResourceConfig> = (1..=37)
            .map(|i| ResourceConfig::containers_and_size(f64::from(i), 1.0 + f64::from(i % 10)))
            .collect();
        for join in JoinImpl::ALL {
            let (mut a, mut b) = (vec![0.0; configs.len()], vec![0.0; configs.len()]);
            plain.join_cost_batch_at(join, 2.5, 40.0, &configs, &mut a);
            traced.join_cost_batch_at(join, 2.5, 40.0, &configs, &mut b);
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            for r in &configs {
                assert_eq!(
                    plain.join_cost_at(join, 2.5, 40.0, r),
                    traced.join_cost_at(join, 2.5, 40.0, r)
                );
            }
        }
        assert_eq!(
            plain.best_impl(0.1, 9.0, 4.0, 2.0),
            traced.best_impl(0.1, 9.0, 4.0, 2.0)
        );
        let batch = traced.clocks.batch.tally();
        assert_eq!((batch.calls, batch.items), (2, 74));
        assert_eq!(traced.clocks.scalar.tally().calls, 75);
        traced.clocks.set_on(false);
        traced.join_cost_at(JoinImpl::SortMerge, 1.0, 2.0, &configs[0]);
        assert_eq!(traced.clocks.scalar.tally().calls, 75, "off only forwards");
    }
}
