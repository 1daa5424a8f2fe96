//! System-R cardinality and size estimation over the join graph.

use raqo_catalog::{Catalog, JoinGraph, TableId, GB};
use serde::{Deserialize, Serialize};

/// The data characteristics of one join: what the cost models consume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinIo {
    /// Smaller input, GB (the "ss" of §VI-A; the build/broadcast side).
    pub build_gb: f64,
    /// Larger input, GB.
    pub probe_gb: f64,
    /// Estimated output, GB.
    pub out_gb: f64,
    /// Estimated output rows.
    pub out_rows: f64,
}

/// Estimates sub-result sizes for arbitrary relation sets.
pub struct CardinalityEstimator<'a> {
    pub catalog: &'a Catalog,
    pub graph: &'a JoinGraph,
}

impl<'a> CardinalityEstimator<'a> {
    pub fn new(catalog: &'a Catalog, graph: &'a JoinGraph) -> Self {
        CardinalityEstimator { catalog, graph }
    }

    /// Estimated byte size (GB) of the join result over `tables`.
    pub fn set_gb(&self, tables: &[TableId]) -> f64 {
        self.graph.join_bytes(self.catalog, tables) / GB
    }

    /// Estimated row count of the join result over `tables`.
    pub fn set_rows(&self, tables: &[TableId]) -> f64 {
        self.graph.join_cardinality(self.catalog, tables)
    }

    /// Characterize the join of two disjoint relation sets. The smaller
    /// side becomes the build input, as every engine in the paper does.
    pub fn join_io(&self, left: &[TableId], right: &[TableId]) -> JoinIo {
        debug_assert!(left.iter().all(|t| !right.contains(t)), "sides must be disjoint");
        let left_gb = self.set_gb(left);
        let right_gb = self.set_gb(right);
        let mut all: Vec<TableId> = left.to_vec();
        all.extend_from_slice(right);
        let out_rows = self.set_rows(&all);
        // `set_gb(&all)` without estimating the cardinality a second time.
        let out_gb = out_rows * self.graph.join_row_width(self.catalog, &all) / GB;
        JoinIo {
            build_gb: left_gb.min(right_gb),
            probe_gb: left_gb.max(right_gb),
            out_gb,
            out_rows,
        }
    }
}

/// [`CardinalityEstimator`] for the relation sets of one query, addressed
/// by u64 masks: bit `i` stands for the `i`-th relation of the list it was
/// built from. Built once per planner run, it keeps each relation's log
/// row count and row width, and only the join edges with both endpoints in
/// the query — in graph order, parallel edges included — as
/// (endpoint mask, log selectivity). Estimating a set then allocates
/// nothing and touches no edge outside the query.
///
/// [`MaskEstimator::join_io`] and [`MaskEstimator::connects`] are bit for
/// bit [`CardinalityEstimator::join_io`] and [`JoinGraph::connects`] over
/// the same sets listed in ascending bit order: the log terms are added in
/// the slice path's order (left relations, right relations, then edges in
/// graph order).
#[derive(Debug)]
pub struct MaskEstimator {
    /// `ln(rows)` per relation, rows clamped to `f64::MIN_POSITIVE` as in
    /// [`JoinGraph::join_cardinality`].
    ln_rows: Vec<f64>,
    /// Row width in bytes per relation.
    widths: Vec<f64>,
    /// Query-local edges: (mask of both endpoints, ln selectivity).
    edges: Vec<(u64, f64)>,
    /// Per relation, the mask of relations it shares an edge with.
    adjacent: Vec<u64>,
}

/// Positions of the set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

impl MaskEstimator {
    /// Estimator over `rels` (distinct, at most 64), bit `i` = `rels[i]`.
    pub fn new(catalog: &Catalog, graph: &JoinGraph, rels: &[TableId]) -> Self {
        assert!(rels.len() <= 64, "relation-set masks are u64");
        let stats = |t: TableId| catalog.table(t).stats;
        let ln_rows = rels.iter().map(|&t| stats(t).rows.max(f64::MIN_POSITIVE).ln()).collect();
        let widths = rels.iter().map(|&t| stats(t).row_width).collect();
        let mut edges = Vec::new();
        let mut adjacent = vec![0u64; rels.len()];
        let index = |t: TableId| rels.iter().position(|&r| r == t);
        for e in graph.edges() {
            if let (Some(a), Some(b)) = (index(e.a), index(e.b)) {
                edges.push((1u64 << a | 1u64 << b, e.selectivity.ln()));
                adjacent[a] |= 1 << b;
                adjacent[b] |= 1 << a;
            }
        }
        MaskEstimator { ln_rows, widths, edges, adjacent }
    }

    /// ln of the join cardinality of `first ∪ second`, summed in the order
    /// of [`JoinGraph::join_cardinality`] over `first`'s relations followed
    /// by `second`'s.
    fn ln_card(&self, first: u64, second: u64) -> f64 {
        let mut log_card = 0.0f64;
        for i in bits(first).chain(bits(second)) {
            log_card += self.ln_rows[i];
        }
        let all = first | second;
        for &(ends, ln_sel) in &self.edges {
            if ends & !all == 0 {
                log_card += ln_sel;
            }
        }
        log_card
    }

    /// Row width of `first ∪ second`, summed like `Iterator::sum`.
    fn width(&self, first: u64, second: u64) -> f64 {
        bits(first).chain(bits(second)).map(|i| self.widths[i]).sum()
    }

    /// [`CardinalityEstimator::set_gb`] of `mask`.
    fn set_gb(&self, mask: u64) -> f64 {
        self.ln_card(mask, 0).exp() * self.width(mask, 0) / GB
    }

    /// Estimated output rows of `left ⋈ right`: the `out_rows` of
    /// [`MaskEstimator::join_io`] without the input sizes.
    pub fn join_rows(&self, left: u64, right: u64) -> f64 {
        self.ln_card(left, right).exp()
    }

    /// [`CardinalityEstimator::join_io`] of two disjoint relation sets.
    pub fn join_io(&self, left: u64, right: u64) -> JoinIo {
        debug_assert_eq!(left & right, 0, "sides must be disjoint");
        let left_gb = self.set_gb(left);
        let right_gb = self.set_gb(right);
        let out_rows = self.join_rows(left, right);
        let out_gb = out_rows * self.width(left, right) / GB;
        JoinIo {
            build_gb: left_gb.min(right_gb),
            probe_gb: left_gb.max(right_gb),
            out_gb,
            out_rows,
        }
    }

    /// [`JoinGraph::connects`]: does an edge join `left` to `right`?
    pub fn connects(&self, left: u64, right: u64) -> bool {
        bits(left).fold(0, |reach, i| reach | self.adjacent[i]) & right != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqo_catalog::tpch::{table, TpchSchema};

    #[test]
    fn single_table_size_matches_stats() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let gb = est.set_gb(&[table::LINEITEM]);
        let want = s.catalog.table(table::LINEITEM).stats.bytes() / GB;
        assert!((gb - want).abs() < 1e-12);
    }

    #[test]
    fn build_side_is_smaller_side() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let io = est.join_io(&[table::LINEITEM], &[table::ORDERS]);
        let orders_gb = est.set_gb(&[table::ORDERS]);
        let lineitem_gb = est.set_gb(&[table::LINEITEM]);
        assert!((io.build_gb - orders_gb).abs() < 1e-12);
        assert!((io.probe_gb - lineitem_gb).abs() < 1e-12);
        // Swapping sides yields the same io.
        let io2 = est.join_io(&[table::ORDERS], &[table::LINEITEM]);
        assert_eq!(io, io2);
    }

    #[test]
    fn fk_join_output_rows_track_fact_side() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let io = est.join_io(&[table::LINEITEM], &[table::ORDERS]);
        assert!((io.out_rows - 6_000_000.0).abs() / 6_000_000.0 < 1e-9);
        // Output bytes = rows * (sum of widths).
        assert!(io.out_gb > est.set_gb(&[table::LINEITEM]));
    }

    #[test]
    fn multi_table_sets_compose() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        // (lineitem ⋈ orders) ⋈ customer keeps ~|lineitem| rows.
        let io = est.join_io(&[table::LINEITEM, table::ORDERS], &[table::CUSTOMER]);
        assert!((io.out_rows - 6_000_000.0).abs() / 6_000_000.0 < 1e-9);
        // Customer (27 MB at SF1) is the build side.
        let customer_gb = est.set_gb(&[table::CUSTOMER]);
        assert!((io.build_gb - customer_gb).abs() < 1e-12);
    }

    #[test]
    fn cross_product_sets_multiply() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let rows = est.set_rows(&[table::REGION, table::PART]);
        let want = 5.0 * 200_000.0;
        assert!((rows - want).abs() / want < 1e-12, "rows {rows}");
    }
}
