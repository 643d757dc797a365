//! Scope-aware graph sharding: cut one SPN into K scope-disjoint
//! subgraphs plus a merge plan.
//!
//! The paper scales a single network's inference across HBM channels by
//! striping the model over independent memory ports (Figs. 4/5). This
//! module is the software analogue: [`ShardPlan::cut`] partitions the
//! variable set into K disjoint *scope groups* along the network's own
//! product splits, assigns every node whose scope fits inside one group
//! to that group's shard, and lowers the remaining "spanning" nodes —
//! the ones whose scope crosses groups — into a tiny [`MergePlan`] that
//! combines the shards' boundary values into the root value.
//!
//! Why scopes and not edges: SPNs are DAGs with heavy node sharing
//! (every repetition of a region reuses the same child subgraphs), so a
//! single-edge cut does not exist in general. A *scope* cut does: for
//! any partition of the variables, a node's scope either fits inside
//! one group (the node and its whole cone of children go to that
//! group's shard) or spans several (the node goes to the merge plan,
//! and each of its in-shard children becomes a shard *tap* — a boundary
//! value the shard exports).
//!
//! **Bit-exactness is the contract.** A node's value depends only on
//! its children's values and its own parameters, so re-numbering nodes
//! into shard arenas changes nothing, and the merge plan replays the
//! spanning nodes with the tree-walk oracle's exact float-op order
//! (products: `+=` in child order from -0.0, the start value of
//! `Iterator::sum`; sums: max over the positive-weight terms, then
//! `Σ w·exp(x−m)` in term order; MPE sums: strict-`>` first-wins max
//! of `ln w + x`). `tests/shard_differential.rs`
//! pins sharded evaluation bit-identical to [`crate::Evaluator`] and
//! [`crate::PlanExecutor`] across random networks, cuts and queries.

use crate::builder::SpnBuilder;
use crate::graph::{Node, NodeId, Spn};
use crate::infer::mode_log_density;
use crate::query::Query;
use crate::scope::Scope;
use sim_core::SplitMix64;
use std::collections::HashMap;

/// One scope-disjoint subgraph of the source network.
///
/// The sub-network keeps the source's `num_vars` and variable indices,
/// so source data rows and query masks apply unchanged. It is
/// *multi-output*: its boundary values are the nodes listed in `taps`,
/// not (only) its last arena slot, so it is built unchecked — the last
/// node need not reach every other node.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// The shard subgraph, arena-ordered like the source.
    pub spn: Spn,
    /// The scope group this shard owns.
    pub scope: Scope,
    /// Arena indices (into `spn`) of the boundary nodes whose values
    /// the merge plan consumes, in registration order.
    pub taps: Vec<u32>,
}

/// One instruction of the merge plan. Operands are indices of earlier
/// merge ops; the last op's value is the network's root value.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeOp {
    /// A shard boundary value: `taps[tap]` of shard `shard`.
    Input {
        /// Which shard exports the value.
        shard: u32,
        /// Index into that shard's `taps` list.
        tap: u32,
    },
    /// Replay of a spanning product node: log-domain `+=` in child
    /// order.
    Product {
        /// Merge-op indices of the children.
        children: Vec<u32>,
    },
    /// Replay of a spanning sum node: positive-weight terms in child
    /// order, each `(weight, ln weight, merge-op index)`.
    Sum {
        /// Pre-filtered `w > 0` terms.
        terms: Vec<(f64, f64, u32)>,
    },
}

/// The spanning nodes of the cut, lowered to a flat op list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MergePlan {
    ops: Vec<MergeOp>,
}

impl MergePlan {
    /// The flat op list (inputs interleaved before their consumers).
    pub fn ops(&self) -> &[MergeOp] {
        &self.ops
    }

    /// Number of distinct shards the plan draws inputs from — by
    /// construction equal to the shard count of the owning
    /// [`ShardPlan`].
    pub fn fan_in(&self) -> usize {
        let mut shards: Vec<u32> = self
            .ops
            .iter()
            .filter_map(|op| match op {
                MergeOp::Input { shard, .. } => Some(*shard),
                _ => None,
            })
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards.len()
    }

    /// Number of `Input` ops referencing shard `shard`.
    pub fn inputs_from(&self, shard: u32) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, MergeOp::Input { shard: s, .. } if *s == shard))
            .count()
    }

    /// Combine shard boundary values into the root value. `get_tap`
    /// returns the value of `taps[tap]` of shard `shard`; `scratch` is
    /// a reusable workspace (cleared on entry).
    ///
    /// Replays the oracle's float-op order exactly (see module docs).
    pub fn eval_with(
        &self,
        mpe: bool,
        scratch: &mut Vec<f64>,
        mut get_tap: impl FnMut(u32, u32) -> f64,
    ) -> f64 {
        scratch.clear();
        for op in &self.ops {
            let v = match op {
                MergeOp::Input { shard, tap } => get_tap(*shard, *tap),
                MergeOp::Product { children } => {
                    let mut acc = -0.0;
                    for &c in children {
                        acc += scratch[c as usize];
                    }
                    acc
                }
                MergeOp::Sum { terms } => {
                    if mpe {
                        let mut best = f64::NEG_INFINITY;
                        for &(_, log_w, c) in terms {
                            let v = log_w + scratch[c as usize];
                            if v > best {
                                best = v;
                            }
                        }
                        best
                    } else {
                        let m = terms
                            .iter()
                            .map(|&(_, _, c)| scratch[c as usize])
                            .fold(f64::NEG_INFINITY, f64::max);
                        if m == f64::NEG_INFINITY {
                            f64::NEG_INFINITY
                        } else {
                            let s: f64 = terms
                                .iter()
                                .map(|&(w, _, c)| w * (scratch[c as usize] - m).exp())
                                .sum();
                            m + s.ln()
                        }
                    }
                }
            };
            scratch.push(v);
        }
        *scratch.last().expect("merge plan is never empty")
    }
}

/// A complete cut: K shards plus the merge plan combining them.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    shards: Vec<Shard>,
    merge: MergePlan,
    requested: usize,
    seed: u64,
    num_vars: usize,
    source_fingerprint: u64,
    source_name: String,
}

impl ShardPlan {
    /// Cut `spn` into (at most) `k` scope-disjoint shards. The cut is a
    /// pure function of `(spn, k, seed)`: the same inputs always yield
    /// the same shards and merge plan.
    ///
    /// The variable partition follows the network's own product splits:
    /// the full scope is recursively split at product nodes into atomic
    /// regions, which a seeded shuffle + greedy balance assigns to `k`
    /// groups. When the network has fewer atomic regions than `k` the
    /// effective shard count is clamped (a 1-variable network can only
    /// ever be one shard).
    ///
    /// # Panics
    /// Panics if `k == 0` — a construction bug, not a data error.
    pub fn cut(spn: &Spn, k: usize, seed: u64) -> ShardPlan {
        assert!(k > 0, "shard count must be positive");
        let scopes = spn.scopes();
        let groups = scope_groups(spn, &scopes, k, seed);
        let effective = groups.len();

        // Classify every node: the (at most one) group its scope fits
        // inside, or none (a spanning node for the merge plan).
        let membership: Vec<Option<u32>> = scopes
            .iter()
            .map(|s| groups.iter().position(|g| s.is_subset(g)).map(|i| i as u32))
            .collect();

        // Build each shard's arena by filtering the source arena in
        // order (children of an in-shard node share its group, so the
        // remap is always complete).
        let mut remap: Vec<u32> = vec![u32::MAX; spn.len()];
        let mut builders: Vec<SpnBuilder> = (0..effective)
            .map(|_| SpnBuilder::new(spn.num_vars()))
            .collect();
        for (i, node) in spn.nodes().iter().enumerate() {
            let Some(g) = membership[i] else { continue };
            let b = &mut builders[g as usize];
            let id = match node {
                Node::Leaf { var, dist } => b.leaf(*var, dist.clone()),
                Node::Product { children } => {
                    b.product(children.iter().map(|c| NodeId(remap[c.index()])).collect())
                }
                Node::Sum { children, weights } => b.sum(
                    weights
                        .iter()
                        .zip(children)
                        .map(|(&w, c)| (w, NodeId(remap[c.index()])))
                        .collect(),
                ),
            };
            remap[i] = id.0;
        }

        // Lower the spanning nodes into the merge plan, registering
        // shard taps as `Input` ops on first reference.
        let mut taps: Vec<Vec<u32>> = vec![Vec::new(); effective];
        let mut merge_ops: Vec<MergeOp> = Vec::new();
        let mut merge_ref: HashMap<u32, u32> = HashMap::new();
        let input_of = |src: u32,
                        taps: &mut Vec<Vec<u32>>,
                        merge_ops: &mut Vec<MergeOp>,
                        merge_ref: &mut HashMap<u32, u32>|
         -> u32 {
            if let Some(&idx) = merge_ref.get(&src) {
                return idx;
            }
            let g = membership[src as usize].expect("tap node lives in a shard") as usize;
            let tap = taps[g].len() as u32;
            taps[g].push(remap[src as usize]);
            let idx = merge_ops.len() as u32;
            merge_ops.push(MergeOp::Input {
                shard: g as u32,
                tap,
            });
            merge_ref.insert(src, idx);
            idx
        };
        for (i, node) in spn.nodes().iter().enumerate() {
            if membership[i].is_some() {
                continue;
            }
            let op = match node {
                Node::Leaf { .. } => unreachable!("a leaf's scope always fits one group"),
                Node::Product { children } => MergeOp::Product {
                    children: children
                        .iter()
                        .map(|c| input_of(c.0, &mut taps, &mut merge_ops, &mut merge_ref))
                        .collect(),
                },
                Node::Sum { children, weights } => MergeOp::Sum {
                    terms: children
                        .iter()
                        .zip(weights)
                        .filter(|(_, &w)| w > 0.0)
                        .map(|(c, &w)| {
                            (
                                w,
                                w.ln(),
                                input_of(c.0, &mut taps, &mut merge_ops, &mut merge_ref),
                            )
                        })
                        .collect(),
                },
            };
            let idx = merge_ops.len() as u32;
            merge_ops.push(op);
            merge_ref.insert(i as u32, idx);
        }
        // A fully-contained root (effective == 1): the merge plan is
        // its single tap.
        if membership[spn.root().index()].is_some() {
            input_of(spn.root().0, &mut taps, &mut merge_ops, &mut merge_ref);
        }

        let shards = builders
            .into_iter()
            .zip(groups)
            .zip(taps)
            .enumerate()
            .map(|(g, ((b, scope), taps))| {
                let last = NodeId(b.len() as u32 - 1);
                let name = format!("{}#shard{}/{}", spn.name, g, effective);
                Shard {
                    spn: b.finish_unchecked(last, &name),
                    scope,
                    taps,
                }
            })
            .collect();
        ShardPlan {
            shards,
            merge: MergePlan { ops: merge_ops },
            requested: k,
            seed,
            num_vars: spn.num_vars(),
            source_fingerprint: spn.fingerprint(),
            source_name: spn.name.clone(),
        }
    }

    /// The shards, in group order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Effective shard count (≤ the requested `k`).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard count the cut was asked for.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// The cut seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Variables of the source network.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Fingerprint of the source network ([`Spn::fingerprint`]).
    pub fn source_fingerprint(&self) -> u64 {
        self.source_fingerprint
    }

    /// Name of the source network.
    pub fn source_name(&self) -> &str {
        &self.source_name
    }

    /// The merge plan combining shard boundary values.
    pub fn merge(&self) -> &MergePlan {
        &self.merge
    }

    /// Total node count across shards plus merge ops that replay
    /// spanning nodes (inputs excluded) — equals the source node count.
    pub fn total_nodes(&self) -> usize {
        let shard_nodes: usize = self.shards.iter().map(|s| s.spn.len()).sum();
        let spanning = self
            .merge
            .ops
            .iter()
            .filter(|op| !matches!(op, MergeOp::Input { .. }))
            .count();
        shard_nodes + spanning
    }

    /// Reference sharded evaluation of one f64 row (tree-walk per
    /// shard, then the merge plan) — the pure-core path the runtime's
    /// plan-based executor is verified against. Query semantics match
    /// [`crate::Evaluator::eval`] exactly.
    pub fn eval_row(&self, query: &Query, row: &[f64]) -> f64 {
        assert_eq!(
            row.len(),
            self.num_vars,
            "sample has {} values but the network models {} variables",
            row.len(),
            self.num_vars
        );
        query.check_arity(self.num_vars);
        let tap_values: Vec<Vec<f64>> = self
            .shards
            .iter()
            .map(|s| shard_tap_values(s, query, |var| observed_value(query, var, row[var])))
            .collect();
        let mut scratch = Vec::with_capacity(self.merge.ops.len());
        self.merge.eval_with(query.is_mpe(), &mut scratch, |s, t| {
            tap_values[s as usize][t as usize]
        })
    }

    /// [`ShardPlan::eval_row`] for a byte row.
    pub fn eval_bytes(&self, query: &Query, row: &[u8]) -> f64 {
        let frow: Vec<f64> = row.iter().map(|&b| b as f64).collect();
        self.eval_row(query, &frow)
    }
}

#[inline]
fn observed_value(query: &Query, var: usize, value: f64) -> Option<f64> {
    if query.is_observed(var) {
        Some(value)
    } else {
        None
    }
}

/// All-node tree walk of one shard under `query`, returning the tap
/// values. Reproduces the [`crate::Evaluator`] kernels byte for byte
/// (same fold orders, same `w > 0` filters).
fn shard_tap_values(
    shard: &Shard,
    query: &Query,
    value_of: impl Fn(usize) -> Option<f64>,
) -> Vec<f64> {
    let spn = &shard.spn;
    let mpe = query.is_mpe();
    let mut values = vec![0.0f64; spn.len()];
    for (i, node) in spn.nodes().iter().enumerate() {
        values[i] = match node {
            Node::Leaf { var, dist } => match value_of(*var) {
                Some(v) => dist.log_density(Some(v)),
                None if mpe => mode_log_density(dist),
                None => dist.log_density(None),
            },
            Node::Product { children } => children.iter().map(|c| values[c.index()]).sum(),
            Node::Sum { children, weights } => {
                if mpe {
                    let mut best = f64::NEG_INFINITY;
                    for (c, &w) in children.iter().zip(weights) {
                        if w <= 0.0 {
                            continue;
                        }
                        let v = w.ln() + values[c.index()];
                        if v > best {
                            best = v;
                        }
                    }
                    best
                } else {
                    let m = children
                        .iter()
                        .zip(weights)
                        .filter(|(_, &w)| w > 0.0)
                        .map(|(c, _)| values[c.index()])
                        .fold(f64::NEG_INFINITY, f64::max);
                    if m == f64::NEG_INFINITY {
                        f64::NEG_INFINITY
                    } else {
                        let s: f64 = children
                            .iter()
                            .zip(weights)
                            .filter(|(_, &w)| w > 0.0)
                            .map(|(c, &w)| w * (values[c.index()] - m).exp())
                            .sum();
                        m + s.ln()
                    }
                }
            }
        };
    }
    shard.taps.iter().map(|&t| values[t as usize]).collect()
}

/// Partition the network's variable set into at most `k` disjoint
/// groups along its own product splits: recursively split the root
/// scope at product nodes into atomic regions, then seeded-shuffle and
/// greedy-assign regions to groups, balancing variable counts.
fn scope_groups(spn: &Spn, scopes: &[Scope], k: usize, seed: u64) -> Vec<Scope> {
    // Atomic regions: scopes no product node splits further.
    let mut parts: Vec<Scope> = Vec::new();
    let mut work = vec![scopes[spn.root().index()].clone()];
    while let Some(s) = work.pop() {
        // Only a genuinely decomposing product (every child scope
        // strictly smaller) splits a region; anything else would loop
        // on a malformed network.
        let split = spn.nodes().iter().enumerate().find(|(i, n)| {
            matches!(n, Node::Product { children }
                if children.len() >= 2
                    && children.iter().all(|c| scopes[c.index()].len() < s.len()))
                && scopes[*i].same_as(&s)
        });
        match split {
            Some((_, Node::Product { children })) => {
                for c in children {
                    work.push(scopes[c.index()].clone());
                }
            }
            _ => parts.push(s),
        }
    }
    // Dedup (shared regions reached along several paths) and order
    // canonically before the seeded shuffle.
    parts.sort_by_key(|p| p.iter().next().unwrap_or(usize::MAX));
    parts.dedup_by(|a, b| a.same_as(b));

    // Fisher–Yates with SplitMix64 — same deterministic generator
    // family the ring and trace formats use.
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in (1..parts.len()).rev() {
        parts.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }

    let effective = k.min(parts.len()).max(1);
    let mut groups: Vec<Scope> = vec![Scope::empty(); effective];
    let mut sizes = vec![0usize; effective];
    for part in parts {
        let g = (0..effective).min_by_key(|&i| sizes[i]).unwrap();
        sizes[g] += part.len();
        groups[g].union_with(&part);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::Evaluator;
    use crate::leaf::Leaf;
    use crate::random::{random_spn, RandomSpnConfig};

    fn four_var_spn() -> Spn {
        // Two independent two-variable mixtures under a product root,
        // wrapped in a sum so the root is a genuine spanning node.
        let mut b = SpnBuilder::new(4);
        let pair = |b: &mut SpnBuilder, v0: usize, v1: usize, p: f64| {
            let a = b.leaf(v0, Leaf::byte_histogram(&[p, 1.0 - p]));
            let c = b.leaf(v1, Leaf::byte_histogram(&[1.0 - p, p]));
            b.product(vec![a, c])
        };
        let left = pair(&mut b, 0, 1, 0.3);
        let left2 = pair(&mut b, 0, 1, 0.8);
        let ls = b.sum(vec![(0.6, left), (0.4, left2)]);
        let right = pair(&mut b, 2, 3, 0.2);
        let right2 = pair(&mut b, 2, 3, 0.7);
        let rs = b.sum(vec![(0.5, right), (0.5, right2)]);
        let top = b.product(vec![ls, rs]);
        b.finish(top, "four").unwrap()
    }

    #[test]
    fn cut_partitions_the_scope() {
        let spn = four_var_spn();
        let plan = ShardPlan::cut(&spn, 2, 1);
        assert_eq!(plan.num_shards(), 2);
        let mut seen = Scope::empty();
        for s in plan.shards() {
            assert!(seen.is_disjoint(&s.scope), "groups overlap");
            seen.union_with(&s.scope);
        }
        assert!(seen.same_as(&Scope::full(4)));
        assert_eq!(plan.merge().fan_in(), plan.num_shards());
        assert_eq!(plan.total_nodes(), spn.len());
    }

    #[test]
    fn two_way_cut_matches_oracle_bit_exactly() {
        let spn = four_var_spn();
        let plan = ShardPlan::cut(&spn, 2, 42);
        let mut ev = Evaluator::new(&spn);
        for row in [[0u8, 0, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 1, 1]] {
            for q in [
                Query::Complete,
                Query::marginal(vec![true, false, true, false]),
                Query::marginal(vec![false; 4]),
                Query::mpe(vec![false, true, false, true]),
            ] {
                let want = ev.eval_bytes(&q, &row);
                let got = plan.eval_bytes(&q, &row);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} query on {row:?}: sharded {got} vs oracle {want}",
                    q.label()
                );
            }
        }
    }

    #[test]
    fn single_shard_cut_is_the_identity_cut() {
        let spn = four_var_spn();
        let plan = ShardPlan::cut(&spn, 1, 0);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.shards()[0].spn.len(), spn.len());
        assert_eq!(plan.merge().ops().len(), 1);
        let mut ev = Evaluator::new(&spn);
        let row = [1u8, 0, 1, 0];
        assert_eq!(
            plan.eval_bytes(&Query::Complete, &row).to_bits(),
            ev.eval_bytes(&Query::Complete, &row).to_bits()
        );
    }

    #[test]
    fn requested_count_clamps_to_atomic_regions() {
        // One variable ⇒ one atomic region ⇒ one shard, whatever k.
        let mut b = SpnBuilder::new(1);
        let l = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
        let l2 = b.leaf(0, Leaf::byte_histogram(&[0.1, 0.9]));
        let s = b.sum(vec![(0.5, l), (0.5, l2)]);
        let spn = b.finish(s, "one").unwrap();
        let plan = ShardPlan::cut(&spn, 4, 9);
        assert_eq!(plan.requested(), 4);
        assert_eq!(plan.num_shards(), 1);
        let mut ev = Evaluator::new(&spn);
        assert_eq!(
            plan.eval_bytes(&Query::Complete, &[1]).to_bits(),
            ev.eval_bytes(&Query::Complete, &[1]).to_bits()
        );
    }

    #[test]
    fn cut_matches_pinned_grouping() {
        // Pinned before the shuffle moved onto `sim_core::SplitMix64`.
        let spn = crate::nips::NipsBenchmark::Nips20.build_spn();
        let plan = ShardPlan::cut(&spn, 3, 17);
        let groups: Vec<Vec<usize>> = plan
            .shards()
            .iter()
            .map(|s| s.scope.iter().collect())
            .collect();
        assert_eq!(
            groups,
            vec![
                vec![0, 7, 10, 14, 16, 17, 19],
                vec![4, 6, 8, 9, 12, 13, 18],
                vec![1, 2, 3, 5, 11, 15],
            ]
        );
    }

    #[test]
    fn cut_is_deterministic_per_seed() {
        let cfg = RandomSpnConfig {
            num_vars: 6,
            domain: 4,
            repetitions: 2,
            max_leaf_region: 2,
            seed: 3,
        };
        let spn = random_spn(&cfg, "det").unwrap();
        let a = ShardPlan::cut(&spn, 3, 17);
        let b = ShardPlan::cut(&spn, 3, 17);
        assert_eq!(a, b);
        // A different seed is allowed to (and here does) move the cut.
        let c = ShardPlan::cut(&spn, 3, 18);
        let moved = a
            .shards()
            .iter()
            .zip(c.shards())
            .any(|(x, y)| !x.scope.same_as(&y.scope));
        assert!(moved, "seed 18 produced the identical grouping");
    }

    #[test]
    fn random_dag_with_sharing_survives_the_cut() {
        let cfg = RandomSpnConfig {
            num_vars: 8,
            domain: 4,
            repetitions: 3,
            max_leaf_region: 2,
            seed: 11,
        };
        let spn = random_spn(&cfg, "dag").unwrap();
        let mut ev = Evaluator::new(&spn);
        for k in [2usize, 3, 4] {
            let plan = ShardPlan::cut(&spn, k, 5);
            let row: Vec<u8> = (0..8).map(|i| (i % 4) as u8).collect();
            assert_eq!(
                plan.eval_bytes(&Query::Complete, &row).to_bits(),
                ev.eval_bytes(&Query::Complete, &row).to_bits(),
                "k = {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_panics() {
        ShardPlan::cut(&four_var_spn(), 0, 0);
    }
}
