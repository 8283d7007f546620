//! The server-side catalog of named relations.
//!
//! A [`RelationStore`] is one catalog entry: a name, an
//! [`ajd_relation::Catalog`] (attribute names, so requests can address
//! columns by label), and the relation data itself — always a
//! [`ShardedRelation`].  A *flat* entry is a one-shard relation that
//! refuses appends: [`RelationStore::flat`] moves its [`Relation`] in as
//! the single shard, without copying a row.  The [`crate::Server`] serves
//! every entry through one `LiveAnalyzer` built at startup and kept hot for
//! the lifetime of the process, so every query against the same entry
//! shares one memoized grouping cache.
//!
//! Stores are constructed *before* the server (the server borrows them),
//! which keeps the whole stack free of self-referential ownership: load the
//! catalog, hand a slice of stores to [`crate::Server::new`], run.

use ajd_relation::io::{read_delimited, read_delimited_from, read_delimited_sharded};
use ajd_relation::{
    Catalog, ReadOptions, Relation, RelationError, Result, ShardPolicy, ShardedRelation,
};
use std::path::Path;

/// One named relation served by the catalog: name + attribute catalog +
/// data, and whether the entry accepts appends.
#[derive(Debug, Clone)]
pub struct RelationStore {
    name: String,
    catalog: Catalog,
    relation: ShardedRelation,
    sharded: bool,
}

impl RelationStore {
    /// Wraps a flat relation as a read-only one-shard entry.  The catalog
    /// must name exactly the relation's attributes (arity checked here so a
    /// mismatch fails at load time, not per-request).
    pub fn flat(name: impl Into<String>, catalog: Catalog, relation: Relation) -> Result<Self> {
        let one_shard = ShardedRelation::from_shards(relation.schema().to_vec(), [relation])?;
        Self::build(name.into(), catalog, one_shard, false)
    }

    /// Wraps a sharded relation as a live entry that accepts appends.
    pub fn sharded(
        name: impl Into<String>,
        catalog: Catalog,
        relation: ShardedRelation,
    ) -> Result<Self> {
        Self::build(name.into(), catalog, relation, true)
    }

    /// Wraps a flat relation whose attributes have no external names,
    /// generating the positional names `x0, x1, …` (the same convention as
    /// headerless delimited reads).
    pub fn flat_unnamed(name: impl Into<String>, relation: Relation) -> Result<Self> {
        let catalog = Catalog::with_attributes((0..relation.arity()).map(|i| format!("x{i}")))?;
        Self::flat(name, catalog, relation)
    }

    /// Parses in-memory delimited text (see
    /// [`ajd_relation::io::read_delimited`]) into a flat store.
    pub fn from_delimited(
        name: impl Into<String>,
        text: &str,
        options: ReadOptions,
    ) -> Result<Self> {
        let (catalog, relation) = read_delimited(text, options)?;
        Self::flat(name, catalog, relation)
    }

    /// Streams a delimited file into a flat store
    /// (see [`ajd_relation::io::read_delimited_from`]).
    pub fn from_delimited_path(
        name: impl Into<String>,
        path: impl AsRef<Path>,
        options: ReadOptions,
    ) -> Result<Self> {
        let (catalog, relation) = read_delimited_from(path, options)?;
        Self::flat(name, catalog, relation)
    }

    /// Streams a delimited file straight into shard-local storage under a
    /// [`ShardPolicy`] (see [`ajd_relation::io::read_delimited_sharded`]).
    pub fn from_delimited_sharded(
        name: impl Into<String>,
        path: impl AsRef<Path>,
        options: ReadOptions,
        policy: ShardPolicy,
    ) -> Result<Self> {
        let (catalog, relation) = read_delimited_sharded(path, options, policy)?;
        Self::sharded(name, catalog, relation)
    }

    fn build(
        name: String,
        catalog: Catalog,
        relation: ShardedRelation,
        sharded: bool,
    ) -> Result<Self> {
        if name.is_empty() {
            return Err(RelationError::EmptyInput("relation store name"));
        }
        if catalog.arity() != relation.arity() {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "catalog for store '{name}' names {} attributes but the relation has {}",
                    catalog.arity(),
                    relation.arity()
                ),
            });
        }
        Ok(RelationStore {
            name,
            catalog,
            relation,
            sharded,
        })
    }

    /// The catalog name queries address this relation by.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute names and value dictionaries of this relation.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The stored relation as loaded (a flat entry's is one shard).
    pub fn relation(&self) -> &ShardedRelation {
        &self.relation
    }

    /// `true` if the entry was loaded sharded and accepts appends; a flat
    /// entry is read-only.
    pub fn is_sharded(&self) -> bool {
        self.sharded
    }

    /// Attribute names in schema order.
    pub fn attribute_names(&self) -> Vec<String> {
        self.catalog.names().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_relation::AttrId;

    const CSV: &str = "\
city,region
haifa,north
eilat,south
acre,north
";

    #[test]
    fn delimited_text_builds_a_flat_store() {
        let store = RelationStore::from_delimited("geo", CSV, ReadOptions::default()).unwrap();
        assert_eq!(store.name(), "geo");
        assert_eq!(store.relation().len(), 3);
        assert_eq!(store.relation().arity(), 2);
        assert!(!store.is_sharded());
        assert_eq!(store.relation().num_shards(), 1);
        assert_eq!(store.attribute_names(), vec!["city", "region"]);
        assert_eq!(store.catalog().attr("region").unwrap(), AttrId(1));
    }

    #[test]
    fn unnamed_relations_get_positional_names() {
        let r =
            Relation::from_rows(vec![AttrId(0), AttrId(1)], &[&[0, 1][..], &[1, 0][..]]).unwrap();
        let store = RelationStore::flat_unnamed("anon", r).unwrap();
        assert_eq!(store.attribute_names(), vec!["x0", "x1"]);
    }

    #[test]
    fn arity_mismatch_and_empty_name_fail_at_load_time() {
        let r = Relation::from_rows(vec![AttrId(0), AttrId(1)], &[&[0, 1][..]]).unwrap();
        let wrong = Catalog::with_attributes(["only_one"]).unwrap();
        assert!(matches!(
            RelationStore::flat("bad", wrong, r.clone()),
            Err(RelationError::SchemaMismatch { .. })
        ));
        let ok = Catalog::with_attributes(["a", "b"]).unwrap();
        assert!(matches!(
            RelationStore::flat("", ok, r),
            Err(RelationError::EmptyInput(_))
        ));
    }

    #[test]
    fn sharded_store_reports_its_layout() {
        let r = Relation::from_rows(
            vec![AttrId(0), AttrId(1)],
            &[&[0, 1][..], &[1, 0][..], &[2, 1][..], &[3, 0][..]],
        )
        .unwrap();
        let catalog = Catalog::with_attributes(["a", "b"]).unwrap();
        let sharded = r.into_shards(2).unwrap();
        let store = RelationStore::sharded("s", catalog, sharded).unwrap();
        assert!(store.is_sharded());
        assert_eq!(store.relation().num_shards(), 2);
        assert_eq!(store.relation().len(), 4);
    }
}
