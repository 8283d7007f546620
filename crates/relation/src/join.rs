//! Natural joins and the materialised loss.
//!
//! The paper's central combinatorial quantity is the size of the acyclic
//! join `|⋈ᵢ R[Ωᵢ]|`, from which the relative number of spurious tuples
//! `ρ(R,S) = (|⋈ᵢ R[Ωᵢ]| − |R|)/|R|` (eq. 1) is computed.  This module
//! provides the generic relational operators:
//!
//! * [`natural_join`] — classic build/probe hash join of two relations on
//!   their shared attributes.
//! * [`natural_join_all`] — left-to-right multiway join, the
//!   *materialising baseline* that tests check join-tree counting against.
//! * [`decompose`] and [`loss_materialized`] — the projections onto a
//!   schema and eq. (1) computed by joining them.
//!
//! Joins run on **dictionary codes**: the probe side's codes are remapped
//! into the build side's code space through the column dictionaries (one
//! dictionary lookup per *distinct* value, not per row), the per-row join
//! key packs into a single `u64`, and rows whose key value does not occur on
//! the other side are skipped before any hashing.  Raw-value hashing remains
//! only as a fallback for keys too wide to pack.
//!
//! The asymptotically better way to compute the size of an *acyclic* join is
//! message passing over the join tree; that lives in `ajd-jointree`
//! (`count_acyclic_join`) because it needs the join-tree type, and is
//! validated against [`natural_join_all`] in tests.

use crate::attr::{AttrId, AttrSet};
use crate::context::GroupSource;
use crate::error::{RelationError, Result};
use crate::hash::{map_with_capacity, FxHashMap};
use crate::relation::{Relation, Value};

/// Sentinel key for probe rows whose shared values cannot occur in the build
/// side (the key space is capped at `u64::MAX - 1`, so this never collides).
const MISS: u64 = u64::MAX;

/// Packed `u64` join keys of the two sides over their shared attributes, in
/// the **left** relation's code space.
///
/// `left[i]` is the mixed-radix packing of row `i`'s shared-attribute codes;
/// `right[j]` is the same packing of row `j`'s codes *after remapping into
/// the left dictionaries* — [`MISS`] if some value of the row does not occur
/// in the left relation at all (such a row can never join).  Returns `None`
/// when the packed key space would exceed `u64` (dozens of huge shared
/// columns); callers then fall back to hashing decoded keys.
fn shared_code_keys(
    left: &Relation,
    right: &Relation,
    shared: &AttrSet,
) -> Result<Option<(Vec<u64>, Vec<u64>)>> {
    let mut strides_fit = true;
    let mut key_space: u128 = 1;
    let left_pos = left.attr_positions(shared)?;
    let right_pos = right.attr_positions(shared)?;
    let mut domains: Vec<u64> = Vec::with_capacity(shared.len());
    for &p in &left_pos {
        let d = left.schema()[p];
        // Domain sizes are dictionary lengths, bounded by the u32 code
        // space, so the u64 is exact; only the key-space *product* needs
        // u128 headroom.
        let size = left.domain(d)?.len().max(1) as u64;
        // ajd: allow(silent-arithmetic, "overflow guard, not a count: the product is only compared against u64::MAX to decide whether packed keys fit; saturating at u128::MAX keeps that comparison correct")
        key_space = key_space.saturating_mul(size as u128);
        domains.push(size);
    }
    if key_space > u64::MAX as u128 {
        strides_fit = false;
    }
    if !strides_fit {
        return Ok(None);
    }

    // Per shared attribute: right code → left code (or u32::MAX).
    let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(shared.len());
    for (&lp, &rp) in left_pos.iter().zip(&right_pos) {
        let attr_l = left.schema()[lp];
        let attr_r = right.schema()[rp];
        let remap: Vec<u32> = right
            .domain(attr_r)?
            .iter()
            .map(|&v| {
                left.code_of(attr_l, v)
                    .expect("attribute comes from left's schema")
                    .unwrap_or(u32::MAX)
            })
            .collect();
        remaps.push(remap);
    }

    let n_left = left.len();
    let mut left_keys: Vec<u64> = Vec::with_capacity(n_left);
    for i in 0..n_left {
        let mut key = 0u64;
        for (k, &p) in left_pos.iter().enumerate() {
            let codes = left
                .column_codes(left.schema()[p])
                .expect("own schema attribute");
            key = key * domains[k] + codes[i] as u64;
        }
        left_keys.push(key);
    }

    let n_right = right.len();
    let mut right_keys: Vec<u64> = Vec::with_capacity(n_right);
    'rows: for j in 0..n_right {
        let mut key = 0u64;
        for (k, &p) in right_pos.iter().enumerate() {
            let codes = right
                .column_codes(right.schema()[p])
                .expect("own schema attribute");
            let mapped = remaps[k][codes[j] as usize];
            if mapped == u32::MAX {
                right_keys.push(MISS);
                continue 'rows;
            }
            key = key * domains[k] + mapped as u64;
        }
        right_keys.push(key);
    }

    Ok(Some((left_keys, right_keys)))
}

/// Decoded (raw-value) join key of one row — the fallback key type.
fn decoded_key(row: &[Value], positions: &[usize]) -> Box<[Value]> {
    positions
        .iter()
        .map(|&p| row[p])
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

/// Computes the natural join `left ⋈ right` on their shared attributes.
///
/// If the relations share no attribute the result is the Cartesian product.
/// The output schema is `left`'s columns followed by `right`'s non-shared
/// columns.  Output rows are **not** deduplicated (joining two sets always
/// yields a set, so no deduplication is needed in that case).
pub fn natural_join(left: &Relation, right: &Relation) -> Result<Relation> {
    let shared = left.attrs().intersection(&right.attrs());

    let right_extra: Vec<AttrId> = right
        .schema()
        .iter()
        .copied()
        .filter(|a| !shared.contains(*a))
        .collect();
    let right_extra_pos: Vec<usize> = right_extra
        .iter()
        .map(|&a| right.attr_pos(a).expect("attribute from own schema"))
        .collect();

    let mut out_schema: Vec<AttrId> = left.schema().to_vec();
    out_schema.extend_from_slice(&right_extra);
    let mut out = Relation::new(out_schema)?;
    let mut out_row = vec![0u32; left.arity() + right_extra.len()];

    let emit =
        |out: &mut Relation, out_row: &mut [u32], lrow: &[Value], matches: &[u32]| -> Result<()> {
            out_row[..left.arity()].copy_from_slice(lrow);
            for &ri in matches {
                let rrow = right.row(ri as usize);
                for (k, &p) in right_extra_pos.iter().enumerate() {
                    out_row[left.arity() + k] = rrow[p];
                }
                out.push_row(out_row)?;
            }
            Ok(())
        };

    if let Some((left_keys, right_keys)) = shared_code_keys(left, right, &shared)? {
        // Build on `right` (output-order stability), keyed by packed codes.
        let mut build: FxHashMap<u64, Vec<u32>> = map_with_capacity(right.len());
        for (j, &key) in right_keys.iter().enumerate() {
            if key != MISS {
                build.entry(key).or_default().push(j as u32);
            }
        }
        for (i, lrow) in left.iter_rows().enumerate() {
            if let Some(matches) = build.get(&left_keys[i]) {
                emit(&mut out, &mut out_row, lrow, matches)?;
            }
        }
    } else {
        // Fallback for very wide keys: hash decoded shared values.
        let left_key_pos = left.attr_positions(&shared)?;
        let right_key_pos = right.attr_positions(&shared)?;
        let mut build: FxHashMap<Box<[Value]>, Vec<u32>> = map_with_capacity(right.len());
        for (j, rrow) in right.iter_rows().enumerate() {
            build
                .entry(decoded_key(rrow, &right_key_pos))
                .or_default()
                .push(j as u32);
        }
        for lrow in left.iter_rows() {
            if let Some(matches) = build.get(&decoded_key(lrow, &left_key_pos)) {
                emit(&mut out, &mut out_row, lrow, matches)?;
            }
        }
    }
    Ok(out)
}

/// Joins a sequence of relations left to right: `r₁ ⋈ r₂ ⋈ … ⋈ r_k`.
///
/// This is the *materialising baseline* used to validate the join-tree based
/// counting; for cyclic join orders intermediate results can explode.
pub fn natural_join_all(relations: &[Relation]) -> Result<Relation> {
    let mut iter = relations.iter();
    let first = iter.next().ok_or(RelationError::EmptyInput(
        "natural_join_all of zero relations",
    ))?;
    let mut acc = first.clone();
    for r in iter {
        acc = natural_join(&acc, r)?;
    }
    Ok(acc)
}

/// Decomposes `r` onto a database schema: returns `[Π_{Ω₁}(R), …, Π_{Ω_m}(R)]`.
pub fn decompose(r: &Relation, schema: &[AttrSet]) -> Result<Vec<Relation>> {
    schema.iter().map(|bag| r.project(bag)).collect()
}

/// Computes the *loss* of a database schema with respect to `r`:
/// `(|⋈ᵢ Π_{Ωᵢ}(R)| − |R|) / |R|` — eq. (1) of the paper — by fully
/// materialising the join.  Prefer the join-tree counting in `ajd-jointree`
/// for acyclic schemas; this function is the reference implementation.
///
/// `|R|` is the number of distinct tuples of `R` projected onto the
/// schema's attributes (equal to `r.len()` in the paper's setting of a set
/// relation fully covered by the schema), so the loss is never negative.
pub fn loss_materialized(r: &Relation, schema: &[AttrSet]) -> Result<f64> {
    if r.is_empty() {
        return Err(RelationError::EmptyInput("relation for loss computation"));
    }
    let projections = decompose(r, schema)?;
    let joined = natural_join_all(&projections)?;
    let covered = schema.iter().fold(AttrSet::empty(), |acc, b| acc.union(b));
    let base = GroupSource::distinct(r, &covered)? as f64;
    Ok((joined.len() as f64 - base) / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[Value]]) -> Relation {
        let s: Vec<AttrId> = schema.iter().map(|&i| AttrId(i)).collect();
        Relation::from_rows(s, rows).unwrap()
    }

    #[test]
    fn join_on_shared_attribute() {
        // R(A,B) ⋈ S(B,C)
        let r = rel(&[0, 1], &[&[1, 10], &[2, 10], &[3, 20]]);
        let s = rel(&[1, 2], &[&[10, 100], &[10, 200], &[30, 300]]);
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.attrs(), AttrSet::from_ids([0, 1, 2]));
        assert_eq!(j.len(), 4); // (1,10)x2 + (2,10)x2
        assert!(j.contains_row(&[1, 10, 100]));
        assert!(j.contains_row(&[2, 10, 200]));
        assert!(!j.contains_row(&[3, 20, 300]));
    }

    #[test]
    fn join_without_shared_attributes_is_cartesian_product() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[1], &[&[7], &[8], &[9]]);
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn join_with_identical_schemas_is_intersection() {
        let r = rel(&[0, 1], &[&[1, 1], &[2, 2]]);
        let s = rel(&[0, 1], &[&[2, 2], &[3, 3]]);
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.contains_row(&[2, 2]));
    }

    #[test]
    fn join_is_commutative_as_sets() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20], &[2, 30]]);
        let s = rel(&[1, 2], &[&[10, 5], &[20, 6], &[20, 7]]);
        let a = natural_join(&r, &s).unwrap();
        let b = natural_join(&s, &r).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn join_handles_values_missing_from_either_dictionary() {
        // Values 20 and 30 occur on only one side each: rows carrying them
        // must silently not join (code remapping yields a MISS).
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let s = rel(&[1, 2], &[&[10, 5], &[30, 6]]);
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.contains_row(&[1, 10, 5]));
    }

    #[test]
    fn multiway_join_reconstructs_lossless_decomposition() {
        // R(A,B,C) that satisfies the MVD A ->> B | C  (so lossless).
        let mut rows = Vec::new();
        for a in 0..3u32 {
            for b in 0..2u32 {
                for c in 0..2u32 {
                    rows.push(vec![a, b, c]);
                }
            }
        }
        let r = rel(
            &[0, 1, 2],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let schema = vec![AttrSet::from_ids([0, 1]), AttrSet::from_ids([0, 2])];
        let parts = decompose(&r, &schema).unwrap();
        let joined = natural_join_all(&parts).unwrap();
        assert!(joined.set_eq(&r));
        assert_eq!(loss_materialized(&r, &schema).unwrap(), 0.0);
    }

    #[test]
    fn lossy_decomposition_produces_spurious_tuples() {
        // Example 4.1: a bijection between A and B; schema {{A},{B}}.
        let n = 5u32;
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![i, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let schema = vec![AttrSet::singleton(AttrId(0)), AttrSet::singleton(AttrId(1))];
        let rho = loss_materialized(&r, &schema).unwrap();
        assert!((rho - (n as f64 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn join_always_contains_original_relation() {
        let r = rel(&[0, 1, 2], &[&[0, 1, 2], &[0, 2, 1], &[1, 1, 1]]);
        let schema = vec![AttrSet::from_ids([0, 1]), AttrSet::from_ids([1, 2])];
        let parts = decompose(&r, &schema).unwrap();
        let joined = natural_join_all(&parts).unwrap();
        assert!(r.is_subset_of(&joined));
        assert!(joined.len() >= r.len());
    }

    #[test]
    fn join_all_of_nothing_is_an_error() {
        assert!(natural_join_all(&[]).is_err());
    }

    #[test]
    fn loss_of_empty_relation_is_an_error() {
        let r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        let schema = vec![AttrSet::singleton(AttrId(0)), AttrSet::singleton(AttrId(1))];
        assert!(loss_materialized(&r, &schema).is_err());
    }
}
