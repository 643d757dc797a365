//! Compiled inference plans: compile once, execute many.
//!
//! The tree-walking [`crate::Evaluator`] re-dispatches on every node of
//! every sample — enum match, bounds checks, and a binary search per
//! histogram leaf. This module compiles an [`Spn`] *once* into a flat
//! instruction buffer ([`CompiledPlan`]) and evaluates whole byte
//! [`crate::Dataset`] slices with a batched [`PlanExecutor`]:
//!
//! * **Flat ops over arena indices.** The arena is already a level-
//!   consistent topological order (children strictly precede parents),
//!   so plan ops are emitted 1:1 in arena order and executed as a
//!   linear scan — the same schedule the hardware pipeline uses.
//! * **Leaf lookup tables.** Datasets are byte matrices (domain ≤ 256),
//!   so every leaf lowers to a 256-entry log-density table built with
//!   the oracle's own `log_density` — one indexed load per sample
//!   replaces a binary search, with bit-identical results.
//! * **Fused log-domain sum kernels.** Sum ops carry `(child, weight,
//!   log-weight)` terms pre-filtered to `w > 0` in child order; one
//!   weighted log-sum-exp kernel serves every fan-in while preserving
//!   the oracle's exact float-op order.
//! * **Tiled operand layout.** The executor evaluates [`LANES`]
//!   samples per pass with one `[f64; LANES]` tile per op. Products,
//!   maxima and the MPE kernel loop child-major over a tile's lanes,
//!   so everything but the libm `exp`/`ln` calls vectorizes; a partial
//!   tile (the remainder, a 1-row request) works on its live lanes
//!   only.
//! * **Exact `exp(0)` shortcut.** A log-sum-exp term whose `x − m` is
//!   zero — the term attaining the max, and every tie — adds its
//!   weight without calling `exp`: `exp(±0) == 1.0` and `w·1.0 == w`,
//!   so a sum with a finite max saves one libm call per lane without
//!   changing a bit. The (term, lane) pairs that do need `exp` are
//!   first compacted into one list per sum op, so the shortcut costs
//!   no data-dependent branch per lane.
//!
//! Bit-exactness against the [`crate::Evaluator`] oracle is a hard
//! contract (pinned by `tests/plan_differential.rs`): every kernel
//! reproduces the oracle's operation order exactly.

use crate::dataset::Dataset;
use crate::graph::{Node, Spn};
use crate::infer::{mode_log_density, mode_value};
use crate::leaf::MARGINALIZED_LOG;
use crate::query::Query;
use serde::{Deserialize, Serialize};

/// Samples evaluated per executor pass (the tile width). At the
/// runtime's 1024-sample blocks on NIPS10–80, 16 and 32 lanes measured
/// alike and 8 slower; 16 is the smaller of the two fast widths.
pub const LANES: usize = 16;

/// Entries in a lowered leaf table: one per possible byte value.
const TABLE_SIZE: usize = 256;

/// One weighted child of a compiled sum op. Only `weight > 0` terms
/// are compiled in; order matches the source child order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SumTerm {
    /// Plan/arena index of the child op.
    child: u32,
    /// Linear mixture weight (> 0).
    weight: f64,
    /// Precomputed `weight.ln()` for the MPE max kernel.
    log_weight: f64,
}

/// One flat instruction. Operands are plan indices (= arena indices).
#[derive(Debug, Clone, PartialEq)]
enum PlanOp {
    /// Leaf lowered to a byte-indexed log-density table.
    Leaf {
        /// Variable (= dataset column) this leaf reads.
        var: u32,
        /// `table[v] = log density at v`, for every byte value `v`.
        table: Box<[f64; TABLE_SIZE]>,
        /// Log-density at the distribution's mode (MPE's value for an
        /// unobserved variable).
        mode_log: f64,
        /// The mode itself (MPE traceback assignment).
        mode_value: f64,
    },
    /// Product: log-domain sum of child values, in child order.
    Product {
        /// Plan indices of the children.
        children: Box<[u32]>,
    },
    /// Sum: fused weighted log-sum-exp (or weighted max for MPE).
    Sum {
        /// Positive-weight terms, in child order.
        terms: Box<[SumTerm]>,
    },
}

/// Structural statistics of a compiled plan (telemetry payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Total op count (= node count of the source network).
    pub ops: usize,
    /// Leaf-table ops.
    pub leaf_ops: usize,
    /// Product ops.
    pub product_ops: usize,
    /// Sum ops.
    pub sum_ops: usize,
    /// Largest compiled sum fan-in.
    pub max_sum_fan_in: usize,
    /// Bytes held in leaf lookup tables.
    pub table_bytes: usize,
    /// `exp` calls per sample of a [`Query::Complete`] evaluation, one
    /// per compiled sum term: an upper bound, since the executor's
    /// `exp(0)` shortcut skips each sum's max term.
    pub exp_per_sample: usize,
    /// `ln` calls per sample of a [`Query::Complete`] evaluation, one
    /// per sum op with at least one term.
    pub ln_per_sample: usize,
}

/// An [`Spn`] compiled to a flat instruction buffer.
///
/// Compile once with [`CompiledPlan::compile`], then evaluate any
/// number of batches through [`PlanExecutor`]. The plan is immutable
/// and shareable (`Arc<CompiledPlan>` is the unit the runtime's plan
/// cache stores).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    ops: Vec<PlanOp>,
    num_vars: usize,
    fingerprint: u64,
    name: String,
    stats: PlanStats,
}

impl CompiledPlan {
    /// Lower `spn` into a flat plan. Cost is one pass over the arena
    /// plus 256 oracle `log_density` calls per leaf.
    pub fn compile(spn: &Spn) -> CompiledPlan {
        let mut ops = Vec::with_capacity(spn.len());
        let mut stats = PlanStats {
            ops: spn.len(),
            leaf_ops: 0,
            product_ops: 0,
            sum_ops: 0,
            max_sum_fan_in: 0,
            table_bytes: 0,
            exp_per_sample: 0,
            ln_per_sample: 0,
        };
        for node in spn.nodes() {
            let op = match node {
                Node::Leaf { var, dist } => {
                    stats.leaf_ops += 1;
                    stats.table_bytes += TABLE_SIZE * std::mem::size_of::<f64>();
                    let table = Box::new(std::array::from_fn(|v| dist.log_density(Some(v as f64))));
                    PlanOp::Leaf {
                        var: *var as u32,
                        table,
                        mode_log: mode_log_density(dist),
                        mode_value: mode_value(dist),
                    }
                }
                Node::Product { children } => {
                    stats.product_ops += 1;
                    PlanOp::Product {
                        children: children.iter().map(|c| c.0).collect(),
                    }
                }
                Node::Sum { children, weights } => {
                    stats.sum_ops += 1;
                    let terms: Box<[SumTerm]> = children
                        .iter()
                        .zip(weights)
                        .filter(|(_, &w)| w > 0.0)
                        .map(|(c, &w)| SumTerm {
                            child: c.0,
                            weight: w,
                            log_weight: w.ln(),
                        })
                        .collect();
                    stats.max_sum_fan_in = stats.max_sum_fan_in.max(terms.len());
                    stats.exp_per_sample += terms.len();
                    stats.ln_per_sample += usize::from(!terms.is_empty());
                    PlanOp::Sum { terms }
                }
            };
            ops.push(op);
        }
        CompiledPlan {
            ops,
            num_vars: spn.num_vars(),
            fingerprint: spn.fingerprint(),
            name: spn.name.clone(),
            stats,
        }
    }

    /// Number of variables the source network models.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Fingerprint of the source network ([`Spn::fingerprint`]) — the
    /// runtime's cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Name of the source network.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Structural statistics.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Number of ops (= source node count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the plan is empty (never for a compiled network).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One op's values for a tile of [`LANES`] samples.
type Tile = [f64; LANES];

/// Batched plan interpreter. Owns the tiled scratch (one
/// `[f64; LANES]` tile per op, allocated once) and streams a
/// [`Dataset`] through the plan [`LANES`] samples at a time.
pub struct PlanExecutor<'p> {
    plan: &'p CompiledPlan,
    /// Tiled values: `scratch[op][lane]`.
    scratch: Vec<Tile>,
    /// Per-term `exp` arguments/results of the sum op being evaluated
    /// (one tile per term of the widest sum).
    exps: Vec<Tile>,
    /// Flat `term * LANES + lane` indices of `exps` that need a libm
    /// call.
    live: Vec<u32>,
}

impl<'p> PlanExecutor<'p> {
    /// Build an executor (allocates the scratch once).
    pub fn new(plan: &'p CompiledPlan) -> Self {
        PlanExecutor {
            plan,
            scratch: vec![[0.0; LANES]; plan.ops.len()],
            exps: vec![[0.0; LANES]; plan.stats.max_sum_fan_in],
            live: vec![0; plan.stats.max_sum_fan_in * LANES],
        }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &CompiledPlan {
        self.plan
    }

    /// Evaluate `query` over every row of `data`: one result per
    /// sample, in order. For [`Query::Mpe`] the result is the max
    /// log-probability (the oracle's upward-pass root value).
    ///
    /// # Panics
    /// Panics if the dataset width or query mask does not match the
    /// plan's variable count.
    pub fn eval_batch(&mut self, query: &Query, data: &Dataset) -> Vec<f64> {
        let mut out = Vec::with_capacity(data.num_samples());
        self.eval_batch_into(query, data, &mut out);
        out
    }

    /// [`PlanExecutor::eval_batch`] appending into a caller-owned
    /// buffer (the allocation-free inner loop the server batcher uses).
    pub fn eval_batch_into(&mut self, query: &Query, data: &Dataset, out: &mut Vec<f64>) {
        assert_eq!(
            data.num_features(),
            self.plan.num_vars,
            "dataset has {} features but the plan models {} variables",
            data.num_features(),
            self.plan.num_vars
        );
        self.eval_batch_raw(query, data.raw(), data.num_features(), out);
    }

    /// Evaluate `query` over rows packed contiguously in `raw`
    /// (`num_features` bytes per row), appending one result per row to
    /// `out`. This is the zero-copy entry the runtime's host backend
    /// feeds block-sized dataset slices through.
    ///
    /// # Panics
    /// Panics if `raw` is not a whole number of rows or the query mask
    /// does not match the plan's variable count.
    pub fn eval_batch_raw(
        &mut self,
        query: &Query,
        raw: &[u8],
        num_features: usize,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            num_features, self.plan.num_vars,
            "rows have {} features but the plan models {} variables",
            num_features, self.plan.num_vars
        );
        assert_eq!(
            raw.len() % num_features,
            0,
            "raw byte length {} is not a whole number of {}-byte rows",
            raw.len(),
            num_features
        );
        query.check_arity(self.plan.num_vars);
        let n = raw.len() / num_features;
        out.reserve(n);
        let mut start = 0;
        while start < n {
            let lanes = LANES.min(n - start);
            self.run_tile(query, &raw[start * num_features..], num_features, lanes);
            let root = self.scratch.last().expect("a compiled plan has ops");
            out.extend_from_slice(&root[..lanes]);
            start += lanes;
        }
    }

    /// Evaluate `query` over rows packed in `raw` and extract the
    /// values of the given `taps` (plan/arena op indices) instead of
    /// the root: for each row, `taps.len()` values are appended to
    /// `out` in tap order (sample-major). This is the multi-output
    /// entry the sharded executor reads shard boundary values through —
    /// a shard subgraph has several consumers, not one root.
    ///
    /// Values are read from the same scratch the root path uses, so a
    /// tap at the last op index reproduces [`eval_batch_raw`] exactly.
    ///
    /// # Panics
    /// Panics on the same row/arity mismatches as
    /// [`PlanExecutor::eval_batch_raw`], or if a tap index is out of
    /// range.
    ///
    /// [`eval_batch_raw`]: PlanExecutor::eval_batch_raw
    pub fn eval_taps_batch_raw(
        &mut self,
        query: &Query,
        raw: &[u8],
        num_features: usize,
        taps: &[u32],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            num_features, self.plan.num_vars,
            "rows have {} features but the plan models {} variables",
            num_features, self.plan.num_vars
        );
        assert_eq!(
            raw.len() % num_features,
            0,
            "raw byte length {} is not a whole number of {}-byte rows",
            raw.len(),
            num_features
        );
        query.check_arity(self.plan.num_vars);
        for &t in taps {
            assert!(
                (t as usize) < self.plan.ops.len(),
                "tap {t} out of range for a {}-op plan",
                self.plan.ops.len()
            );
        }
        let n = raw.len() / num_features;
        out.reserve(n * taps.len());
        let mut start = 0;
        while start < n {
            let lanes = LANES.min(n - start);
            self.run_tile(query, &raw[start * num_features..], num_features, lanes);
            for l in 0..lanes {
                for &t in taps {
                    out.push(self.scratch[t as usize][l]);
                }
            }
            start += lanes;
        }
    }

    /// Evaluate one byte row (single-lane convenience; same result as
    /// a one-row batch).
    pub fn eval_row(&mut self, query: &Query, row: &[u8]) -> f64 {
        let data = Dataset::from_raw(row.to_vec(), row.len(), TABLE_SIZE);
        self.eval_batch(query, &data)[0]
    }

    /// Evaluate every op over the first `lanes` rows of `rows`,
    /// leaving one tile per op in the scratch.
    fn run_tile(&mut self, query: &Query, rows: &[u8], nf: usize, lanes: usize) {
        // One body, instantiated per width: a full tile gets the
        // compile-time width, so its lane loops have a fixed trip count
        // and vectorize, and a 1-row request gets straight-line scalar
        // code. Any other partial tile (a remainder) runs the same body
        // on its live lanes only.
        match lanes {
            LANES => self.run_ops(query, rows, nf, LANES),
            1 => self.run_ops(query, rows, nf, 1),
            _ => self.run_ops(query, rows, nf, lanes),
        }
    }

    #[inline(always)]
    fn run_ops(&mut self, query: &Query, rows: &[u8], nf: usize, lanes: usize) {
        let mpe = query.is_mpe();
        for (i, op) in self.plan.ops.iter().enumerate() {
            let (done, rest) = self.scratch.split_at_mut(i);
            let out = &mut rest[0][..lanes];
            match op {
                PlanOp::Leaf {
                    var,
                    table,
                    mode_log,
                    ..
                } => {
                    let var = *var as usize;
                    if query.is_observed(var) {
                        for (l, o) in out.iter_mut().enumerate() {
                            *o = table[rows[l * nf + var] as usize];
                        }
                    } else {
                        // Summed out (marginal) or maximized (MPE).
                        out.fill(if mpe { *mode_log } else { MARGINALIZED_LOG });
                    }
                }
                PlanOp::Product { children } => {
                    // The oracle's `Iterator::sum`: fold from -0.0, then
                    // += in child order.
                    let mut acc: Tile = [-0.0; LANES];
                    for &c in children.iter() {
                        lanewise(&mut acc[..lanes], &done[c as usize], |a, x| *a += x);
                    }
                    out.copy_from_slice(&acc[..lanes]);
                }
                PlanOp::Sum { terms } if mpe => {
                    // The oracle's MPE kernel: strict `>`, first term
                    // wins ties.
                    let mut best: Tile = [f64::NEG_INFINITY; LANES];
                    for t in terms.iter() {
                        lanewise(&mut best[..lanes], &done[t.child as usize], |b, x| {
                            let v = t.log_weight + x;
                            if v > *b {
                                *b = v;
                            }
                        });
                    }
                    out.copy_from_slice(&best[..lanes]);
                }
                PlanOp::Sum { terms } => lse_tile(done, terms, &mut self.exps, &mut self.live, out),
            }
        }
    }
}

/// Apply `f(acc[l], x[l])` for every live lane of `acc`.
#[inline(always)]
fn lanewise(acc: &mut [f64], x: &Tile, mut f: impl FnMut(&mut f64, f64)) {
    for (a, &x) in acc.iter_mut().zip(x) {
        f(a, x);
    }
}

/// Weighted log-sum-exp of `terms` into the live lanes `out`, in the
/// oracle's exact op order: max folded from `-inf` in term order, then
/// `Σ w·exp(x−m)` folded from -0.0 in term order, then `m + ln s`.
#[inline(always)]
fn lse_tile(
    done: &[Tile],
    terms: &[SumTerm],
    exps: &mut [Tile],
    live: &mut [u32],
    out: &mut [f64],
) {
    let lanes = out.len();
    let mut m: Tile = [f64::NEG_INFINITY; LANES];
    for t in terms {
        lanewise(&mut m[..lanes], &done[t.child as usize], |m, x| {
            *m = m.max(x)
        });
    }
    // exp(±0) == 1.0 and w·1.0 == w exactly, so a term that attains
    // the max (or ties it) keeps e = 1.0 without a libm call. Every
    // other (term, lane) is compacted into `live` first, so the
    // shortcut costs no per-lane branch.
    let exps = &mut exps[..terms.len()];
    let mut n = 0;
    for (k, (e, t)) in exps.iter_mut().zip(terms).enumerate() {
        let x = &done[t.child as usize];
        for l in 0..lanes {
            let d = x[l] - m[l];
            let zero = d == 0.0;
            e[l] = if zero { 1.0 } else { d };
            live[n] = (k * LANES + l) as u32;
            n += usize::from(!zero);
        }
    }
    let flat = exps.as_flattened_mut();
    for &i in &live[..n] {
        flat[i as usize] = flat[i as usize].exp();
    }
    let mut s: Tile = [-0.0; LANES];
    for (e, t) in exps.iter().zip(terms) {
        lanewise(&mut s[..lanes], e, |s, e| *s += t.weight * e);
    }
    for ((o, &m), &s) in out.iter_mut().zip(&m).zip(&s) {
        *o = if m == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            m + s.ln()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpnBuilder;
    use crate::infer::Evaluator;
    use crate::leaf::Leaf;

    fn mixture() -> Spn {
        let mut b = SpnBuilder::new(2);
        let a0 = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
        let a1 = b.leaf(1, Leaf::byte_histogram(&[0.25, 0.75]));
        let c0 = b.leaf(0, Leaf::byte_histogram(&[0.9, 0.1]));
        let c1 = b.leaf(1, Leaf::byte_histogram(&[0.1, 0.9]));
        let p1 = b.product(vec![a0, a1]);
        let p2 = b.product(vec![c0, c1]);
        let s = b.sum(vec![(0.3, p1), (0.7, p2)]);
        b.finish(s, "mix").unwrap()
    }

    fn all_rows() -> Dataset {
        Dataset::from_raw(vec![0, 0, 0, 1, 1, 0, 1, 1], 2, 2)
    }

    #[test]
    fn compile_counts_ops() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        assert_eq!(plan.len(), spn.len());
        let st = plan.stats();
        assert_eq!(st.leaf_ops, 4);
        assert_eq!(st.product_ops, 2);
        assert_eq!(st.sum_ops, 1);
        assert_eq!(st.max_sum_fan_in, 2);
        assert_eq!(st.table_bytes, 4 * 256 * 8);
        assert_eq!(st.exp_per_sample, 2);
        assert_eq!(st.ln_per_sample, 1);
        assert_eq!(plan.fingerprint(), spn.fingerprint());
        assert_eq!(plan.name(), "mix");
        assert!(!plan.is_empty());
    }

    #[test]
    fn complete_matches_oracle_bit_exactly() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = all_rows();
        let out = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            let want = ev.eval_bytes(&Query::Complete, row);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn marginal_matches_oracle_bit_exactly() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = all_rows();
        let q = Query::marginal(vec![true, false]);
        let out = PlanExecutor::new(&plan).eval_batch(&q, &data);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            let want = ev.eval_bytes(&q, row);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // And against the classic evidence API: P(X0=0) = 0.78.
        assert!((out[0] - 0.78f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn mpe_scores_match_oracle_bit_exactly() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = all_rows();
        let q = Query::mpe(vec![false, true]);
        let out = PlanExecutor::new(&plan).eval_batch(&q, &data);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            let want = ev.eval_bytes(&q, row);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn remainder_lanes_match_whole_chunks() {
        // One full tile plus a 5-lane remainder.
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let raw: Vec<u8> = (0..2 * (LANES + 5)).map(|i| (i % 2) as u8).collect();
        let data = Dataset::from_raw(raw, 2, 2);
        let out = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
        assert_eq!(out.len(), LANES + 5);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            assert_eq!(
                got.to_bits(),
                ev.eval_bytes(&Query::Complete, row).to_bits()
            );
        }
    }

    #[test]
    fn zero_weight_children_are_filtered_like_the_oracle() {
        let mut b = SpnBuilder::new(1);
        let l0 = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
        let l1 = b.leaf(0, Leaf::byte_histogram(&[1.0]));
        let s = b.sum(vec![(1.0, l0), (0.0, l1)]);
        let spn = b.finish(s, "zw").unwrap();
        let plan = CompiledPlan::compile(&spn);
        let data = Dataset::from_raw(vec![0, 1], 1, 2);
        let out = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            assert_eq!(
                got.to_bits(),
                ev.eval_bytes(&Query::Complete, row).to_bits()
            );
        }
    }

    #[test]
    fn eval_row_matches_batch() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let mut ex = PlanExecutor::new(&plan);
        let batch = ex.eval_batch(&Query::Complete, &all_rows());
        assert_eq!(
            ex.eval_row(&Query::Complete, &[1, 0]).to_bits(),
            batch[2].to_bits()
        );
    }

    #[test]
    fn tap_extraction_matches_scratch_semantics() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = all_rows();
        let mut ex = PlanExecutor::new(&plan);
        // Tapping the root op reproduces the root path bit for bit;
        // tapping a leaf op yields that leaf's table value.
        let root = (plan.len() - 1) as u32;
        let mut tapped = Vec::new();
        ex.eval_taps_batch_raw(&Query::Complete, data.raw(), 2, &[root, 0], &mut tapped);
        assert_eq!(tapped.len(), 2 * data.num_samples());
        let roots = ex.eval_batch(&Query::Complete, &data);
        let mut ev = Evaluator::new(&spn);
        for (i, row) in data.rows().enumerate() {
            assert_eq!(tapped[2 * i].to_bits(), roots[i].to_bits());
            // Leaf 0 models var 0 with P(0) = P(1) = 0.5.
            let want = ev.eval_bytes(&Query::Complete, row);
            let _ = want; // root check above is the bit-exact anchor
            assert!((tapped[2 * i + 1] - 0.5f64.ln()).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tap_out_of_range_panics() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let mut out = Vec::new();
        PlanExecutor::new(&plan).eval_taps_batch_raw(&Query::Complete, &[0, 0], 2, &[99], &mut out);
    }

    #[test]
    #[should_panic(expected = "features")]
    fn wrong_width_panics() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = Dataset::from_raw(vec![0, 0, 0], 3, 2);
        PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
    }

    /// Assert the plan and the oracle agree bit for bit on every row of
    /// `data` under Complete, a one-var marginal and an MPE query.
    fn assert_all_queries_exact(spn: &Spn, data: &Dataset) {
        let plan = CompiledPlan::compile(spn);
        let mut ex = PlanExecutor::new(&plan);
        let mut ev = Evaluator::new(spn);
        let mut mask = vec![false; spn.num_vars()];
        mask[0] = true;
        for q in [
            Query::Complete,
            Query::marginal(mask.clone()),
            Query::mpe(mask),
        ] {
            let out = ex.eval_batch(&q, data);
            for (row, &got) in data.rows().zip(&out) {
                let want = ev.eval_bytes(&q, row);
                assert_eq!(got.to_bits(), want.to_bits(), "{} on {row:?}", q.label());
            }
        }
    }

    #[test]
    fn tied_maxima_take_the_exact_shortcut() {
        // Identical children tie on every row: every term of both sums
        // has `x − m == 0` and adds its bare weight.
        let mut b = SpnBuilder::new(1);
        let l0 = b.leaf(0, Leaf::byte_histogram(&[0.2, 0.3, 0.5]));
        let l1 = b.leaf(0, Leaf::byte_histogram(&[0.2, 0.3, 0.5]));
        let l2 = b.leaf(0, Leaf::byte_histogram(&[0.2, 0.3, 0.5]));
        let two = b.sum(vec![(0.3, l0), (0.7, l1)]);
        let three = b.sum(vec![(0.1, l0), (0.6, l1), (0.3, l2)]);
        let s = b.sum(vec![(0.5, two), (0.5, three)]);
        let spn = b.finish(s, "ties").unwrap();
        // Enough rows for a full tile plus a partial one.
        let raw: Vec<u8> = (0..LANES + 5).map(|i| (i % 3) as u8).collect();
        assert_all_queries_exact(&spn, &Dataset::from_raw(raw, 1, 3));
    }

    #[test]
    fn neg_infinity_children_match_the_oracle() {
        // Zero-probability buckets give -inf leaf values: byte 0 is
        // impossible under `zero0`, byte 1 under `zero1`.
        let mut b = SpnBuilder::new(2);
        let zero0 = b.leaf(0, Leaf::byte_histogram(&[0.0, 1.0]));
        let zero1 = b.leaf(0, Leaf::byte_histogram(&[1.0, 0.0]));
        let dead = b.leaf(0, Leaf::byte_histogram(&[0.0, 1.0]));
        let y = b.leaf(1, Leaf::byte_histogram(&[0.5, 0.5]));
        // Fan-in 1: -inf on byte 0.
        let one = b.sum(vec![(1.0, zero0)]);
        // Fan-in 2, one -inf child per row.
        let mixed = b.sum(vec![(0.4, zero0), (0.6, zero1)]);
        // Fan-in 2, both children -inf on byte 0.
        let both = b.sum(vec![(0.5, zero0), (0.5, dead)]);
        let inner = b.sum(vec![(0.2, one), (0.3, mixed), (0.5, both)]);
        let root = b.product(vec![inner, y]);
        let spn = b.finish(root, "zeros").unwrap();
        let raw: Vec<u8> = (0..2 * (LANES + 3))
            .map(|i| ((i / 2 + i) % 2) as u8)
            .collect();
        assert_all_queries_exact(&spn, &Dataset::from_raw(raw, 2, 2));
        // Fan-in 1 and 2 at the root: -inf reaches the output.
        for fan_in in [1, 2] {
            let mut b = SpnBuilder::new(1);
            let terms = (0..fan_in)
                .map(|_| {
                    let leaf = b.leaf(0, Leaf::byte_histogram(&[0.0, 1.0]));
                    (1.0 / fan_in as f64, leaf)
                })
                .collect();
            let s = b.sum(terms);
            let spn = b.finish(s, "zero-root").unwrap();
            let data = Dataset::from_raw(vec![0, 1], 1, 2);
            assert_all_queries_exact(&spn, &data);
            let out =
                PlanExecutor::new(&CompiledPlan::compile(&spn)).eval_batch(&Query::Complete, &data);
            assert_eq!(out[0], f64::NEG_INFINITY);
            assert!(out[1].is_finite());
        }
    }

    /// Overwrite every leaf table of `plan` with `v`.
    fn fill_tables(plan: &mut CompiledPlan, v: f64) {
        for op in &mut plan.ops {
            if let PlanOp::Leaf { table, .. } = op {
                table.fill(v);
            }
        }
    }

    #[test]
    fn all_nan_children_fold_from_neg_infinity() {
        // The oracle folds the max from -inf and `f64::max` drops NaN,
        // so all-NaN children give -inf at every fan-in.
        for fan_in in [1, 2, 3] {
            let mut b = SpnBuilder::new(1);
            let terms = (0..fan_in)
                .map(|_| {
                    let leaf = b.leaf(0, Leaf::byte_histogram(&[1.0]));
                    (1.0 / fan_in as f64, leaf)
                })
                .collect();
            let s = b.sum(terms);
            let mut plan = CompiledPlan::compile(&b.finish(s, "nan").unwrap());
            fill_tables(&mut plan, f64::NAN);
            let out = PlanExecutor::new(&plan)
                .eval_batch(&Query::Complete, &Dataset::from_raw(vec![0], 1, 1));
            let want = crate::log_sum_exp_weighted(
                &vec![f64::NAN; fan_in],
                &vec![1.0 / fan_in as f64; fan_in],
            );
            assert_eq!(want, f64::NEG_INFINITY);
            assert_eq!(out[0].to_bits(), want.to_bits(), "fan-in {fan_in}");
        }
    }

    #[test]
    fn product_folds_from_negative_zero_like_iterator_sum() {
        let mut b = SpnBuilder::new(2);
        let l0 = b.leaf(0, Leaf::byte_histogram(&[1.0]));
        let l1 = b.leaf(1, Leaf::byte_histogram(&[1.0]));
        let p = b.product(vec![l0, l1]);
        let mut plan = CompiledPlan::compile(&b.finish(p, "negzero").unwrap());
        fill_tables(&mut plan, -0.0);
        let out = PlanExecutor::new(&plan)
            .eval_batch(&Query::Complete, &Dataset::from_raw(vec![0, 0], 2, 1));
        let want: f64 = [-0.0f64, -0.0].iter().sum();
        assert_eq!(out[0].to_bits(), want.to_bits());
        assert_eq!(out[0].to_bits(), (-0.0f64).to_bits());
    }
}
