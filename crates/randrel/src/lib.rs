//! # ajd-random
//!
//! The **random relation model** of *"Quantifying the Loss of Acyclic Join
//! Dependencies"* (Kenig & Weinberger, PODS 2023), Definition 5.2, plus the
//! structured relation generators used by the paper's examples and by our
//! experiments.
//!
//! In the random relation model a relation of size `N` over attributes with
//! domains `[d₁],…,[d_n]` is drawn **uniformly at random, without
//! replacement**, from the product domain `[d₁]×⋯×[d_n]`.  The empirical
//! distribution of such a relation is uniform over its `N` tuples; the
//! paper's Theorem 5.1 and 5.2 describe the concentration of its entropies
//! and mutual informations.
//!
//! * [`ProductDomain`] — mixed-radix encoding of the product domain.
//! * [`sampling`] — uniform sampling of `N` distinct indices from a range,
//!   with three strategies depending on the density `N / |domain|`.
//! * [`RandomRelationModel`] — Definition 5.2: sampling relation instances.
//! * [`generators`] — structured families: the bijection relation of
//!   Example 4.1, lossless tree-factorised relations, noisy approximate-AJD
//!   relations, and the Figure 1 workload.
//!
//! All sampling is driven by a caller-provided [`rand::Rng`], so experiments
//! are reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod model;
pub mod product;
pub mod sampling;

pub use model::RandomRelationModel;
pub use product::ProductDomain;
pub use sampling::{sample_distinct, SamplingStrategy};
