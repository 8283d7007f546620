//! Approximate acyclic-schema discovery.
//!
//! The paper is motivated by the schema-discovery problem of Kenig et al.
//! (SIGMOD 2020, reference \[14\]): given a dataset, find an acyclic schema
//! whose J-measure is small, because (by the results reproduced here) a
//! small J-measure certifies a small lower bound on the loss and — under the
//! random relation model — also an upper bound.  This module implements a
//! practical miner:
//!
//! 1. **Chow–Liu tree** ([`SchemaMiner::chow_liu_tree`]): compute the pairwise
//!    mutual information of every attribute pair and take a maximum spanning
//!    tree.  The bags `{Xᵢ, Xⱼ}` of its edges form an acyclic schema whose
//!    J-measure equals `H(Ω) − Σ_nodes H(Xᵢ) ... ` — more usefully, among all
//!    schemas with two-attribute bags structured as a tree it minimises `J`.
//! 2. **Greedy coarsening** ([`SchemaMiner::mine`]): while the J-measure is
//!    above the configured threshold, contract the join-tree edge whose
//!    contraction reduces `J` the most (subject to a bag-size cap).
//!    Contracting edges only ever lowers `J` (the fully-merged single-bag
//!    schema has `J = 0`), so the procedure terminates.
//! 3. **Exhaustive best-MVD search** ([`SchemaMiner::best_mvd`]) for small
//!    arities: enumerate conditioning sets of bounded size and bipartitions
//!    of the remaining attributes, returning the MVD with the smallest
//!    conditional mutual information.

use crate::analysis::Analyzer;
use ajd_bounds::j_lower_bound_on_loss;
use ajd_info::{conditional_mutual_information, mutual_information};
use ajd_jointree::{JoinTree, Mvd};
use ajd_relation::{
    AnalysisContext, AttrId, AttrSet, GroupKernel, GroupSource, Relation, RelationError, Result,
};
use serde::{Deserialize, Serialize};

/// Configuration of the schema miner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Stop coarsening once `J ≤ j_threshold` (nats).
    pub j_threshold: f64,
    /// Never produce a bag with more than this many attributes
    /// (`usize::MAX` disables the cap).
    pub max_bag_size: usize,
    /// Maximum number of attributes for which [`SchemaMiner::best_mvd`] will
    /// run its exhaustive search.
    pub max_attrs_exhaustive: usize,
    /// Maximum size of the conditioning set explored by
    /// [`SchemaMiner::best_mvd`].
    pub max_lhs_size: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            j_threshold: 1e-9,
            max_bag_size: usize::MAX,
            max_attrs_exhaustive: 14,
            max_lhs_size: 2,
        }
    }
}

/// The result of mining: a join tree, its J-measure, and the loss lower
/// bound that J certifies (Lemma 4.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinedSchema {
    /// The discovered join tree.
    pub tree: JoinTree,
    /// Its J-measure with respect to the mined relation, in nats.
    pub j_measure: f64,
    /// The Lemma 4.1 lower bound on the loss implied by that J-measure.
    pub rho_lower_bound: f64,
}

impl MinedSchema {
    /// The bags of the discovered schema.
    pub fn bags(&self) -> &[AttrSet] {
        self.tree.bags()
    }
}

/// Approximate acyclic-schema miner.
#[derive(Debug, Clone, Default)]
pub struct SchemaMiner {
    config: DiscoveryConfig,
}

impl SchemaMiner {
    /// Creates a miner with the given configuration.
    pub fn new(config: DiscoveryConfig) -> Self {
        SchemaMiner { config }
    }

    /// The miner's configuration.
    pub fn config(&self) -> &DiscoveryConfig {
        &self.config
    }

    /// Builds the Chow–Liu join tree of `r`: bags are the attribute pairs of
    /// a maximum-spanning tree of the pairwise mutual-information graph.
    ///
    /// For a single-attribute relation the tree is the single bag `{X}`.
    pub fn chow_liu_tree(&self, r: &Relation) -> Result<JoinTree> {
        // A throwaway context so each singleton marginal is grouped once
        // instead of `n − 1` times across the O(n²) pairwise MIs.
        chow_liu(&AnalysisContext::new(r))
    }

    /// Mines an acyclic schema: Chow–Liu tree followed by greedy edge
    /// contraction until the J-measure drops below the configured threshold
    /// (or no admissible contraction remains).
    ///
    /// All candidate scoring runs through one [`Analyzer`] cache: the
    /// candidate trees of every contraction round share almost all of their
    /// bags and separators, so their J-measures are answered mostly from
    /// cache.  Scoring fans out over the analyzer's default
    /// [`ThreadBudget`](ajd_relation::ThreadBudget)
    /// (the machine's available parallelism); callers that already
    /// parallelise at a coarser grain — e.g. mining many relations at once —
    /// should pass an analyzer with `with_threads(1)` to
    /// [`SchemaMiner::mine_with`] instead of stacking thread pools.
    ///
    /// (A previous revision hardwired `with_threads(1)` here, silently
    /// serialising every mine; the regression test below pins the default
    /// budget to [`Analyzer::new`]'s.)
    pub fn mine(&self, r: &Relation) -> Result<MinedSchema> {
        self.mine_with(&Analyzer::new(r))
    }

    /// [`SchemaMiner::mine`] over an existing [`Analyzer`] — the same
    /// Chow–Liu + greedy-contraction pipeline, scored through the
    /// analyzer's measures.
    ///
    /// It reproduces [`SchemaMiner::mine`] bit-for-bit while sharing the
    /// analyzer's cache and thread budget with any other analysis of the
    /// same source, flat or sharded.  To mine a sample instead, build the
    /// analyzer over the sampled rows.
    pub fn mine_with<S: GroupKernel>(&self, analyzer: &Analyzer<S>) -> Result<MinedSchema> {
        let mut tree = chow_liu(analyzer)?;
        let mut j = analyzer.j_measure(&tree)?;

        while j > self.config.j_threshold && tree.num_edges() > 0 {
            // Score every admissible contraction in parallel and keep the
            // one with the smallest resulting J.
            let mut candidates: Vec<JoinTree> = Vec::with_capacity(tree.num_edges());
            for e in 0..tree.num_edges() {
                let (u, v) = tree.edges()[e];
                let merged_size = tree.bag(u).union(tree.bag(v)).len();
                if merged_size > self.config.max_bag_size {
                    continue;
                }
                candidates.push(tree.contract_edge(e)?);
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, cj) in analyzer.j_measures(&candidates).into_iter().enumerate() {
                let cj = cj?;
                if best.is_none_or(|(_, bj)| cj < bj) {
                    best = Some((i, cj));
                }
            }
            match best {
                // Contracting never raises J, and every contraction removes
                // an edge, so the loop ends even when J stalls.
                Some((best_idx, next_j)) => {
                    tree = candidates.swap_remove(best_idx);
                    j = next_j;
                }
                None => break, // every contraction exceeds the bag cap
            }
        }

        Ok(MinedSchema {
            j_measure: j,
            rho_lower_bound: j_lower_bound_on_loss(j.max(0.0)),
            tree,
        })
    }

    /// Exhaustively searches for the MVD `C ↠ A | B` with the smallest
    /// conditional mutual information `I(A;B|C)`.
    ///
    /// The conditioning set ranges over all subsets of size at most
    /// `max_lhs_size`; for each, all bipartitions of the remaining
    /// attributes are scored.  Returns `None` for relations with fewer than
    /// two attributes.  Errors if the relation has more attributes than
    /// `max_attrs_exhaustive`.
    pub fn best_mvd(&self, r: &Relation) -> Result<Option<(Mvd, f64)>> {
        if r.is_empty() {
            return Err(RelationError::EmptyInput("relation for best-MVD search"));
        }
        // One context for the whole search: the four entropy terms of each
        // candidate's CMI recur across bipartitions and conditioning sets,
        // so almost every candidate after the first is pure cache hits.
        let ctx = AnalysisContext::new(r);
        let attrs: Vec<AttrId> = r.attrs().iter().collect();
        let n = attrs.len();
        if n < 2 {
            return Ok(None);
        }
        if n > self.config.max_attrs_exhaustive {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "exhaustive MVD search limited to {} attributes, relation has {n}",
                    self.config.max_attrs_exhaustive
                ),
            });
        }

        let mut best: Option<(Mvd, f64)> = None;
        // Enumerate conditioning sets as bitmasks.
        for lhs_mask in 0u32..(1 << n) {
            let lhs_size = lhs_mask.count_ones() as usize;
            if lhs_size > self.config.max_lhs_size || n - lhs_size < 2 {
                continue;
            }
            let lhs: AttrSet = (0..n)
                .filter(|i| lhs_mask >> i & 1 == 1)
                .map(|i| attrs[i])
                .collect();
            let rest: Vec<AttrId> = (0..n)
                .filter(|i| lhs_mask >> i & 1 == 0)
                .map(|i| attrs[i])
                .collect();
            let k = rest.len();
            // Bipartitions of `rest`: fix rest[0] on the left to avoid the
            // mirror duplicates, then enumerate membership of the others.
            for split in 0u32..(1 << (k - 1)) {
                let mut left = vec![rest[0]];
                let mut right = Vec::new();
                for (bit, &attr) in rest[1..].iter().enumerate() {
                    if split >> bit & 1 == 1 {
                        left.push(attr);
                    } else {
                        right.push(attr);
                    }
                }
                if right.is_empty() {
                    continue;
                }
                let a = AttrSet::from_slice(&left);
                let b = AttrSet::from_slice(&right);
                let cmi = conditional_mutual_information(&ctx, &a, &b, &lhs)?;
                if best.as_ref().is_none_or(|(_, c)| cmi < *c) {
                    best = Some((Mvd::new(lhs.clone(), a, b)?, cmi));
                }
            }
        }
        Ok(best)
    }
}

/// Maximum-spanning-tree (Kruskal) Chow–Liu construction over the pairwise
/// mutual information of `src`'s attributes.  Shared by
/// [`SchemaMiner::chow_liu_tree`] and the miner, so both build the
/// identical tree from identical scores.
fn chow_liu<S: GroupSource>(src: &S) -> Result<JoinTree> {
    if src.is_empty() {
        return Err(RelationError::EmptyInput("relation for schema discovery"));
    }
    let attrs: Vec<AttrId> = src.attrs().iter().collect();
    let n = attrs.len();
    if n == 1 {
        return JoinTree::new(vec![AttrSet::singleton(attrs[0])], vec![]);
    }

    // All pairwise mutual informations.
    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let (x, y) = (AttrSet::singleton(attrs[i]), AttrSet::singleton(attrs[j]));
            edges.push((mutual_information(src, &x, &y)?, i, j));
        }
    }
    // Maximum spanning tree (Kruskal with a tiny union-find).
    edges.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(n - 1);
    for (_w, i, j) in edges {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri] = rj;
            chosen.push((i, j));
            if chosen.len() == n - 1 {
                break;
            }
        }
    }
    debug_assert_eq!(chosen.len(), n - 1);

    // Bags are the chosen attribute pairs; the schema of a tree of pairs
    // is acyclic, so GYO yields its join tree.
    let bags: Vec<AttrSet> = chosen
        .iter()
        .map(|&(i, j)| AttrSet::from_slice(&[attrs[i], attrs[j]]))
        .collect();
    JoinTree::from_acyclic_schema(&bags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_info::jmeasure::j_measure;
    use ajd_random::generators::{conditional_product_relation, markov_chain_relation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn chow_liu_tree_is_a_valid_join_tree_over_all_attributes() {
        let r =
            markov_chain_relation(&mut StdRng::seed_from_u64(1), 5, 6, 400, 0.2, false).unwrap();
        let miner = SchemaMiner::default();
        let t = miner.chow_liu_tree(&r).unwrap();
        assert_eq!(t.attributes(), r.attrs());
        assert!(t.check_running_intersection());
        assert_eq!(t.num_nodes(), 4); // n-1 pair bags
        for b in t.bags() {
            assert_eq!(b.len(), 2);
        }
    }

    #[test]
    fn chow_liu_recovers_markov_chain_structure() {
        // With low noise, consecutive attributes have the highest MI, so the
        // spanning tree should be exactly the path {X0X1, X1X2, X2X3}.
        let r =
            markov_chain_relation(&mut StdRng::seed_from_u64(5), 4, 8, 2000, 0.05, false).unwrap();
        let miner = SchemaMiner::default();
        let t = miner.chow_liu_tree(&r).unwrap();
        let expected: Vec<AttrSet> = vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])];
        for e in &expected {
            assert!(
                t.bags().contains(e),
                "expected bag {e} in Chow-Liu tree, got {:?}",
                t.bags()
            );
        }
    }

    #[test]
    fn chow_liu_on_single_attribute_relation() {
        let r = Relation::from_rows(vec![AttrId(0)], &[&[0u32][..], &[1][..], &[2][..]]).unwrap();
        let t = SchemaMiner::default().chow_liu_tree(&r).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.bag(0), &AttrSet::singleton(AttrId(0)));
    }

    #[test]
    fn mine_reaches_zero_j_on_lossless_data() {
        // The conditional product satisfies C ->> A|B, so the miner should
        // find a schema with essentially zero J without merging everything.
        let r = conditional_product_relation(5, 4, 3);
        let miner = SchemaMiner::new(DiscoveryConfig {
            j_threshold: 1e-9,
            ..DiscoveryConfig::default()
        });
        let mined = miner.mine(&r).unwrap();
        assert!(mined.j_measure <= 1e-9);
        assert!(mined.rho_lower_bound <= 1e-9);
        assert_eq!(mined.tree.attributes(), r.attrs());
    }

    #[test]
    fn mine_respects_bag_size_cap() {
        let r =
            markov_chain_relation(&mut StdRng::seed_from_u64(2), 5, 4, 300, 0.4, false).unwrap();
        let miner = SchemaMiner::new(DiscoveryConfig {
            j_threshold: 0.0,
            max_bag_size: 3,
            ..DiscoveryConfig::default()
        });
        let mined = miner.mine(&r).unwrap();
        for b in mined.bags() {
            assert!(b.len() <= 3, "bag {b} exceeds the cap");
        }
        assert!(mined.tree.check_running_intersection());
    }

    #[test]
    fn mining_decreases_j_relative_to_chow_liu_start() {
        let r =
            markov_chain_relation(&mut StdRng::seed_from_u64(9), 5, 5, 500, 0.3, false).unwrap();
        let miner = SchemaMiner::new(DiscoveryConfig {
            j_threshold: 0.05,
            ..DiscoveryConfig::default()
        });
        let start = j_measure(&r, &miner.chow_liu_tree(&r).unwrap()).unwrap();
        let mined = miner.mine(&r).unwrap();
        assert!(mined.j_measure <= start + 1e-12);
    }

    #[test]
    fn best_mvd_finds_the_planted_dependency() {
        // C ->> A | B holds exactly, so the best MVD must have (near-)zero CMI.
        let r = conditional_product_relation(4, 3, 3);
        let miner = SchemaMiner::default();
        let (mvd, cmi) = miner.best_mvd(&r).unwrap().unwrap();
        assert!(cmi.abs() < 1e-9);
        // The planted MVD conditions on C = X2 (or finds another exact one).
        assert!(mvd.attributes() == r.attrs());
    }

    #[test]
    fn best_mvd_handles_edge_cases() {
        let miner = SchemaMiner::default();
        // Single attribute: no MVD exists.
        let r1 = Relation::from_rows(vec![AttrId(0)], &[&[0u32][..], &[1][..]]).unwrap();
        assert!(miner.best_mvd(&r1).unwrap().is_none());
        // Empty relation: error.
        let r0 = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        assert!(miner.best_mvd(&r0).is_err());
        // Too many attributes for the exhaustive search: error.
        let limited = SchemaMiner::new(DiscoveryConfig {
            max_attrs_exhaustive: 2,
            ..DiscoveryConfig::default()
        });
        let r3 = conditional_product_relation(2, 2, 2);
        assert!(limited.best_mvd(&r3).is_err());
    }

    /// Regression: `mine` used to hardwire `with_threads(1)`, silently
    /// serialising candidate scoring.  It must now (a) agree exactly with
    /// an explicitly-constructed default `Analyzer`, and (b) inherit that
    /// analyzer's default budget, which on a multi-core host is > 1.  The
    /// exact engine scores candidates in parallel, so `mine_with` must also
    /// agree with `Analyzer::mine` at budgets 1 and 4 on every input.
    #[test]
    fn mine_uses_the_default_batch_thread_budget() {
        let miner = SchemaMiner::new(DiscoveryConfig {
            j_threshold: 0.1,
            ..DiscoveryConfig::default()
        });
        let inputs = [
            markov_chain_relation(&mut StdRng::seed_from_u64(13), 5, 5, 600, 0.3, false).unwrap(),
            markov_chain_relation(&mut StdRng::seed_from_u64(29), 6, 4, 800, 0.2, true).unwrap(),
        ];
        for r in &inputs {
            let analyzer = Analyzer::new(r);
            // The default budget is the machine's available parallelism —
            // strictly greater than one on any multi-core host.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert_eq!(analyzer.thread_budget().get(), cores);

            // `mine` and `mine_with(default analyzer)` are the same
            // computation — identical tree, bit-identical J (determinism is
            // independent of the thread budget).
            let via_mine = miner.mine(r).unwrap();
            let via_analyzer = miner.mine_with(&analyzer).unwrap();
            assert_eq!(via_mine.tree.bags(), via_analyzer.tree.bags());
            assert_eq!(via_mine.tree.edges(), via_analyzer.tree.edges());
            assert_eq!(
                via_mine.j_measure.to_bits(),
                via_analyzer.j_measure.to_bits()
            );
            assert_eq!(
                via_mine.rho_lower_bound.to_bits(),
                via_analyzer.rho_lower_bound.to_bits()
            );

            // And `Analyzer::mine` agrees with `mine_with` at a serial and
            // a four-thread budget.
            let reference = Analyzer::new(r).mine(miner.config().clone()).unwrap();
            for threads in [1, 4] {
                let at = miner
                    .mine_with(&Analyzer::new(r).with_threads(threads))
                    .unwrap();
                assert_eq!(reference.tree.bags(), at.tree.bags(), "threads={threads}");
                assert_eq!(reference.tree.edges(), at.tree.edges(), "threads={threads}");
                assert_eq!(
                    reference.j_measure.to_bits(),
                    at.j_measure.to_bits(),
                    "threads={threads}"
                );
            }
            assert_eq!(via_mine.tree.bags(), reference.tree.bags());
            assert_eq!(via_mine.j_measure.to_bits(), reference.j_measure.to_bits());
        }
    }

    #[test]
    fn mined_schema_j_certifies_actual_loss_lower_bound() {
        // Whatever schema the miner returns, Lemma 4.1 must hold against the
        // actual loss of that schema.
        let r =
            markov_chain_relation(&mut StdRng::seed_from_u64(21), 4, 6, 400, 0.25, true).unwrap();
        let miner = SchemaMiner::new(DiscoveryConfig {
            j_threshold: 0.2,
            ..DiscoveryConfig::default()
        });
        let mined = miner.mine(&r).unwrap();
        let rho = ajd_jointree::loss_acyclic(&r, &mined.tree).unwrap();
        assert!(mined.rho_lower_bound <= rho + 1e-6);
    }
}
