//! Observational-equivalence property tests of the columnar store.
//!
//! The dictionary-encoded columnar `Relation` must be indistinguishable
//! from a naive row store: every operation the measurement stack relies on
//! (`group_counts`, `project`, `project_multiset`, `distinct`,
//! `canonicalize`, `group_ids`) is compared bit-for-bit against a reference
//! implementation written here directly over `iter_rows()` — the seed's
//! row-hashing semantics — on random multiset relations, including raw
//! values scattered across the full `u32` range (so dictionary encode →
//! decode round-trips are exercised at the extremes).

use ajd_relation::{AttrId, AttrSet, Relation, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// Multiplies values by a large odd constant so raw values are scattered
/// over the whole `u32` range (dictionary codes stay dense regardless).
fn scatter(v: u32) -> u32 {
    v.wrapping_mul(2_654_435_761).wrapping_add(0xdead_beef)
}

/// A relation over `arity` attributes with (possibly duplicated) rows.
/// `scattered` maps the small generated values across the full u32 range.
fn relation_strategy(
    arity: usize,
    domain: Value,
    max_rows: usize,
    scattered: bool,
) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0..domain, arity), 0..max_rows).prop_map(
        move |rows| {
            let schema: Vec<AttrId> = (0..arity).map(AttrId::from).collect();
            let rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|v| if scattered { scatter(v) } else { v })
                        .collect()
                })
                .collect();
            Relation::from_rows(schema, &rows).expect("generated rows have the right arity")
        },
    )
}

// ---------------------------------------------------------------------------
// Reference (row-path) implementations
// ---------------------------------------------------------------------------

fn ref_key(row: &[Value], positions: &[usize]) -> Vec<Value> {
    positions.iter().map(|&p| row[p]).collect()
}

/// The seed's `group_counts`: hash the projected value tuple of every row.
fn ref_group_counts(r: &Relation, attrs: &AttrSet) -> HashMap<Vec<Value>, u64> {
    let positions = r.attr_positions(attrs).unwrap();
    let mut counts: HashMap<Vec<Value>, u64> = HashMap::new();
    for row in r.iter_rows() {
        *counts.entry(ref_key(row, &positions)).or_insert(0) += 1;
    }
    counts
}

/// The seed's set-semantic projection: first-appearance dedup of value rows.
fn ref_project(r: &Relation, attrs: &AttrSet) -> Vec<Vec<Value>> {
    let positions = r.attr_positions(attrs).unwrap();
    let mut seen: HashMap<Vec<Value>, ()> = HashMap::new();
    let mut out = Vec::new();
    for row in r.iter_rows() {
        let key = ref_key(row, &positions);
        if seen.insert(key.clone(), ()).is_none() {
            out.push(key);
        }
    }
    out
}

/// The seed's multiset projection: one output row per input row.
fn ref_project_multiset(r: &Relation, attrs: &AttrSet) -> Vec<Vec<Value>> {
    let positions = r.attr_positions(attrs).unwrap();
    r.iter_rows().map(|row| ref_key(row, &positions)).collect()
}

/// The seed's `distinct`: first occurrence kept, insertion order preserved.
fn ref_distinct(r: &Relation) -> Vec<Vec<Value>> {
    let mut seen: HashMap<Vec<Value>, ()> = HashMap::new();
    let mut out = Vec::new();
    for row in r.iter_rows() {
        let key = row.to_vec();
        if seen.insert(key.clone(), ()).is_none() {
            out.push(key);
        }
    }
    out
}

/// The seed's `canonicalize`: ascending attribute order, sorted rows.
fn ref_canonicalize(r: &Relation) -> Vec<Vec<Value>> {
    let attrs = r.attrs();
    let positions = r.attr_positions(&attrs).unwrap();
    let mut rows: Vec<Vec<Value>> = r.iter_rows().map(|row| ref_key(row, &positions)).collect();
    rows.sort_unstable();
    rows
}

fn rows_of(r: &Relation) -> Vec<Vec<Value>> {
    r.iter_rows().map(|row| row.to_vec()).collect()
}

/// Checks one relation against every reference operation on one attribute
/// subset.  Returns an error string on the first mismatch (proptest style).
fn check_equivalence(r: &Relation, attrs: &AttrSet) -> Result<(), String> {
    // group_counts: identical key → count maps, identical totals.
    let counts = r.group_counts(attrs).map_err(|e| e.to_string())?;
    let reference = ref_group_counts(r, attrs);
    if counts.num_groups() != reference.len() {
        return Err(format!(
            "group_counts groups {} != reference {}",
            counts.num_groups(),
            reference.len()
        ));
    }
    if counts.total != r.len() as u128 {
        return Err("group_counts total mismatch".into());
    }
    for (key, count) in counts.iter() {
        if reference.get(key).copied().unwrap_or(0) != count {
            return Err(format!("count mismatch for key {key:?}"));
        }
    }

    // group_ids: per-row labels consistent with the reference partition.
    let ids = r.group_ids(attrs).map_err(|e| e.to_string())?;
    let positions = r.attr_positions(attrs).unwrap();
    let mut id_of_key: HashMap<Vec<Value>, u32> = HashMap::new();
    for (row, &id) in r.iter_rows().zip(ids.row_ids()) {
        let key = ref_key(row, &positions);
        match id_of_key.get(&key) {
            Some(&seen) if seen != id => {
                return Err(format!(
                    "rows with equal projection got ids {seen} and {id}"
                ))
            }
            None => {
                if ids.counts()[id as usize] != reference[&key] {
                    return Err(format!("group id {id} count mismatch"));
                }
                id_of_key.insert(key, id);
            }
            _ => {}
        }
    }
    if id_of_key.len() != ids.num_groups() {
        return Err("group id space not dense".into());
    }

    // project: identical rows in identical (first-appearance) order.
    let projected = r.project(attrs).map_err(|e| e.to_string())?;
    if rows_of(&projected) != ref_project(r, attrs) {
        return Err("project mismatch".into());
    }

    // project_multiset: identical rows in row order.
    let multiset = r.project_multiset(attrs).map_err(|e| e.to_string())?;
    if rows_of(&multiset) != ref_project_multiset(r, attrs) {
        return Err("project_multiset mismatch".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dictionary occupancy invariant: every constructor's output has every
    /// dictionary code occurring in at least one row.  The single-column
    /// `group_ids` fast path treats the code column as its own grouping, so
    /// a constructor leaving zero-occurrence codes behind (e.g. a careless
    /// column-wholesale copy) would make it emit phantom groups — this
    /// property pins every constructor to the invariant, and additionally
    /// checks the fast path's counts are all positive.
    #[test]
    fn every_constructor_preserves_dictionary_occupancy(
        r in relation_strategy(3, 4, 40, false),
        s in relation_strategy(3, 6, 40, false),
    ) {
        let half = AttrSet::from_ids([0u32, 1]);

        let mut outputs: Vec<(&str, Relation)> = vec![
            ("from_rows", r.clone()),
            ("distinct", r.distinct()),
            ("canonicalize", r.canonicalize()),
            ("project", r.project(&half).unwrap()),
            ("project_multiset", r.project_multiset(&half).unwrap()),
            ("select_eq", r.select_eq(AttrId(0), 1).unwrap()),
            (
                "reorder_columns",
                r.reorder_columns(&[AttrId(2), AttrId(0), AttrId(1)]).unwrap(),
            ),
        ];
        // The join exercises the code-remap path: `s` shares attrs {0,1} with
        // `r` but draws from a larger domain, so remapping misses (probe
        // values absent from the build dictionaries) are common.
        let s01 = s.project(&half).unwrap();
        outputs.push(("natural_join", ajd_relation::join::natural_join(&r, &s01).unwrap()));

        for (what, out) in &outputs {
            prop_assert!(
                out.dictionaries_fully_occupied(),
                "{what} produced zero-occurrence dictionary codes"
            );
            // The single-column fast path must never fabricate empty groups.
            for attr in out.schema() {
                let ids = out.group_ids(&AttrSet::singleton(*attr)).unwrap();
                prop_assert!(
                    ids.counts().iter().all(|&c| c > 0),
                    "{what}: single-column grouping on {attr} emitted an empty group"
                );
                prop_assert_eq!(ids.num_groups(), out.domain(*attr).unwrap().len());
            }
        }
    }

    /// Dense small values: the grouping kernel's mixed-radix path.
    #[test]
    fn columnar_matches_row_path_dense(r in relation_strategy(4, 4, 40, false)) {
        for attrs in [
            AttrSet::empty(),
            AttrSet::from_ids([0u32]),
            AttrSet::from_ids([1u32, 3]),
            AttrSet::from_ids([0u32, 1, 2]),
            AttrSet::from_ids([0u32, 1, 2, 3]),
        ] {
            if let Err(e) = check_equivalence(&r, &attrs) {
                return Err(format!("{e} (attrs {attrs})"));
            }
        }
        prop_assert_eq!(rows_of(&r.distinct()), ref_distinct(&r));
        prop_assert_eq!(rows_of(&r.canonicalize()), ref_canonicalize(&r));
        prop_assert_eq!(r.is_set(), ref_distinct(&r).len() == r.len());
    }

    /// Values scattered over the full u32 range: dictionaries do real work,
    /// and encode → decode must round-trip every raw value.
    #[test]
    fn columnar_matches_row_path_scattered(r in relation_strategy(3, 5, 40, true)) {
        for attrs in [
            AttrSet::from_ids([0u32]),
            AttrSet::from_ids([0u32, 2]),
            AttrSet::from_ids([0u32, 1, 2]),
        ] {
            if let Err(e) = check_equivalence(&r, &attrs) {
                return Err(format!("{e} (attrs {attrs})"));
            }
        }
        prop_assert_eq!(rows_of(&r.distinct()), ref_distinct(&r));
        prop_assert_eq!(rows_of(&r.canonicalize()), ref_canonicalize(&r));
    }

    /// Dictionary round-trip: the decoded view returns the pushed raw values
    /// untouched, the domain is exactly the distinct values in
    /// first-appearance order, and `code → value → code` is the identity.
    #[test]
    fn dictionary_roundtrips_all_values(
        rows in prop::collection::vec(prop::collection::vec(0u32..8, 2), 1..30),
        extreme in 0u32..4,
    ) {
        // Mix scattered values with boundary cases per generated case.
        let boundary = [0u32, 1, u32::MAX, u32::MAX - 1][extreme as usize];
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|row| vec![scatter(row[0]).max(2), boundary])
            .collect();
        let schema = vec![AttrId(0), AttrId(1)];
        let r = Relation::from_rows(schema, &rows).unwrap();

        // Decoded view round-trips exactly.
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(r.row(i), row.as_slice());
        }
        for attr in [AttrId(0), AttrId(1)] {
            let domain = r.domain(attr).unwrap();
            // Domain = distinct values in first-appearance order.
            let mut expected: Vec<Value> = Vec::new();
            let pos = r.attr_pos(attr).unwrap();
            for row in &rows {
                if !expected.contains(&row[pos]) {
                    expected.push(row[pos]);
                }
            }
            prop_assert_eq!(domain, expected.as_slice());
            prop_assert_eq!(r.active_domain_size(attr).unwrap(), expected.len());
            // code → value → code is the identity.
            for (code, &value) in domain.iter().enumerate() {
                prop_assert_eq!(r.code_of(attr, value).unwrap(), Some(code as u32));
            }
            // Codes decode back to the row's raw value.
            let codes = r.column_codes(attr).unwrap();
            for (i, &code) in codes.iter().enumerate() {
                prop_assert_eq!(domain[code as usize], r.row(i)[pos]);
            }
        }
    }
}
