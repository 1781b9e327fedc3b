//! Partitioned in-memory storage, column by column.
//!
//! The engine's physical layout mirrors the paper's (§5.1) at micro scale:
//! the two big tables (LINEITEM, ORDERS) are hash-co-partitioned on
//! `orderkey` across the worker nodes; every other table is replicated to
//! all nodes — the engine-level equivalent of the paper's RREF partial
//! replication, which exists precisely to make all evaluation-query joins
//! node-local.
//!
//! Every base-table cell is an integer (keys, dates, enums and prices in
//! cents), so a [`Partition`] holds one `Vec<i64>` per column. A scan reads
//! the columns its filter and projection name; every operator after it
//! works on [`Row`]s. A replicated table holds one partition, which every
//! node shares.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use ftpde_store::value::{Row, Value};

/// How a table's rows are distributed across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Each row lives on exactly one node (hash of a key column).
    Partitioned,
    /// Every node holds a full copy.
    Replicated,
}

/// One node's rows of a table, stored column by column.
#[derive(Debug, PartialEq, Eq)]
pub struct Partition {
    columns: Vec<Vec<i64>>,
    len: usize,
}

impl Partition {
    /// An empty partition of `width` columns with room for `rows` rows.
    fn with_capacity(width: usize, rows: usize) -> Self {
        Partition { columns: (0..width).map(|_| Vec::with_capacity(rows)).collect(), len: 0 }
    }

    /// Appends one row, given as one cell per column.
    fn push(&mut self, row: &[i64]) {
        assert_eq!(row.len(), self.columns.len(), "every row of a table has its width");
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.len += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub(crate) fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `c`, one cell per row in row order.
    pub(crate) fn column(&self, c: usize) -> &[i64] {
        &self.columns[c]
    }
}

/// A table distributed over the cluster's nodes.
#[derive(Debug, Clone)]
pub struct PartitionedTable {
    name: String,
    distribution: Distribution,
    /// One entry per node; a replicated table's entries share one
    /// partition.
    partitions: Vec<Arc<Partition>>,
}

/// Spreads sequential integer keys uniformly over `nodes` buckets.
#[inline]
pub fn hash_key(key: i64, nodes: usize) -> usize {
    ((key as u64).wrapping_mul(MULTIPLIER) >> 32) as usize % nodes
}

/// Fibonacci hashing's multiplier, `2^64 / φ`.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiplicative hasher for integer keys: the join build tables and
/// aggregation group tables hash engine-generated integers, so SipHash's
/// resistance to chosen keys buys nothing there.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the low bits, which pick the
        // bucket.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(MULTIPLIER);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A hash map keyed by engine integers, hashed with [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

impl PartitionedTable {
    /// Hash-partitions `rows` on column `key_col` over `nodes` nodes.
    ///
    /// # Panics
    /// Panics on a float cell: base tables hold integers only.
    pub fn hash_partitioned(
        name: impl Into<String>,
        rows: Vec<Row>,
        key_col: usize,
        nodes: usize,
    ) -> Self {
        let width = rows.first().map_or(0, |r| r.len());
        Self::from_ints(name.into(), width, rows.iter().map(|r| ints(r)), Some(key_col), nodes)
    }

    /// Replicates `rows` to every node.
    ///
    /// # Panics
    /// Panics on a float cell: base tables hold integers only.
    pub fn replicated(name: impl Into<String>, rows: Vec<Row>, nodes: usize) -> Self {
        let width = rows.first().map_or(0, |r| r.len());
        Self::from_ints(name.into(), width, rows.iter().map(|r| ints(r)), None, nodes)
    }

    /// Hash-partitions rows of `W` integer cells on column `key_col` over
    /// `nodes` nodes, keeping their order within each node.
    pub(crate) fn hash_partitioned_ints<const W: usize>(
        name: impl Into<String>,
        rows: impl IntoIterator<Item = [i64; W]>,
        key_col: usize,
        nodes: usize,
    ) -> Self {
        Self::from_ints(name.into(), W, rows.into_iter(), Some(key_col), nodes)
    }

    /// Replicates rows of `W` integer cells to every node.
    pub(crate) fn replicated_ints<const W: usize>(
        name: impl Into<String>,
        rows: impl IntoIterator<Item = [i64; W]>,
        nodes: usize,
    ) -> Self {
        Self::from_ints(name.into(), W, rows.into_iter(), None, nodes)
    }

    /// Stores `rows` as columns: hash-partitioned on `key_col`, or, with no
    /// key column, one partition that every node shares.
    fn from_ints<R: AsRef<[i64]>>(
        name: String,
        width: usize,
        rows: impl Iterator<Item = R>,
        key_col: Option<usize>,
        nodes: usize,
    ) -> Self {
        assert!(nodes > 0);
        let copies = if key_col.is_some() { nodes } else { 1 };
        let per_copy = rows.size_hint().0.div_ceil(copies);
        let mut parts: Vec<Partition> =
            (0..copies).map(|_| Partition::with_capacity(width, per_copy)).collect();
        for r in rows {
            let r = r.as_ref();
            parts[key_col.map_or(0, |k| hash_key(r[k], nodes))].push(r);
        }
        let mut partitions: Vec<Arc<Partition>> = parts
            .into_iter()
            .map(|mut p| {
                // Hash partitions are sized by estimate; give back the slack.
                p.columns.iter_mut().for_each(Vec::shrink_to_fit);
                Arc::new(p)
            })
            .collect();
        let distribution = match key_col {
            Some(_) => Distribution::Partitioned,
            None => {
                partitions.resize(nodes, Arc::clone(&partitions[0]));
                Distribution::Replicated
            }
        };
        PartitionedTable { name, distribution, partitions }
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's distribution.
    pub fn distribution(&self) -> Distribution {
        self.distribution
    }

    /// The rows visible on `node`.
    pub fn partition(&self, node: usize) -> &Partition {
        &self.partitions[node]
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.partitions.len()
    }

    /// Total distinct rows (one copy for replicated tables).
    pub fn logical_rows(&self) -> usize {
        match self.distribution {
            Distribution::Partitioned => self.partitions.iter().map(|p| p.len()).sum(),
            Distribution::Replicated => self.partitions.first().map_or(0, |p| p.len()),
        }
    }
}

/// A row's cells as integers.
fn ints(row: &[Value]) -> Vec<i64> {
    row.iter().map(|v| v.as_int()).collect()
}

/// The node-local view of a sharded database: a set of named partitioned
/// tables, all over the same node count.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, PartitionedTable>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table.
    ///
    /// # Panics
    /// Panics if a table of that name exists or node counts disagree.
    pub fn register(&mut self, table: PartitionedTable) {
        if let Some(existing) = self.tables.values().next() {
            assert_eq!(existing.nodes(), table.nodes(), "node counts must agree");
        }
        let prev = self.tables.insert(table.name().to_string(), table);
        assert!(prev.is_none(), "duplicate table registration");
    }

    /// Looks a table up by name.
    ///
    /// # Panics
    /// Panics on unknown tables — plans are validated against the catalog
    /// at construction time.
    pub fn table(&self, name: &str) -> &PartitionedTable {
        self.tables.get(name).unwrap_or_else(|| panic!("unknown table {name:?}"))
    }

    /// `true` iff a table of this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Number of nodes all tables are distributed over (0 when empty).
    pub fn nodes(&self) -> usize {
        self.tables.values().next().map_or(0, PartitionedTable::nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_store::value::int_row;
    use std::hash::BuildHasher;

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|k| int_row(&[k, k * 10])).collect()
    }

    #[test]
    fn hash_partitioning_covers_all_rows_once() {
        let t = PartitionedTable::hash_partitioned("t", rows(1000), 0, 4);
        assert_eq!(t.logical_rows(), 1000);
        let total: usize = (0..4).map(|n| t.partition(n).len()).sum();
        assert_eq!(total, 1000);
        // Reasonably balanced.
        for n in 0..4 {
            let len = t.partition(n).len();
            assert!((150..350).contains(&len), "partition {n} has {len}");
        }
    }

    #[test]
    fn same_key_same_partition_in_row_order() {
        let t = PartitionedTable::hash_partitioned("t", rows(100), 0, 4);
        for n in 0..4 {
            let keys = t.partition(n).column(0);
            // A row with key k must be in partition hash_key(k), and the
            // rows keep their input order.
            assert!(keys.iter().all(|&k| hash_key(k, 4) == n));
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
            let tens: Vec<i64> = keys.iter().map(|k| k * 10).collect();
            assert_eq!(t.partition(n).column(1), tens);
        }
    }

    #[test]
    fn replication_shares_one_partition() {
        let t = PartitionedTable::replicated("t", rows(10), 3);
        assert_eq!(t.logical_rows(), 10);
        for n in 0..3 {
            assert_eq!(t.partition(n).len(), 10);
            assert!(std::ptr::eq(t.partition(n), t.partition(0)));
        }
        assert_eq!(t.distribution(), Distribution::Replicated);
        assert_eq!(t.partition(2).column(1)[4], 40);
    }

    #[test]
    fn integer_rows_store_like_boxed_rows() {
        let arrays = (0..50).map(|k| [k, k * 10]);
        let a = PartitionedTable::hash_partitioned_ints("a", arrays.clone(), 0, 3);
        let b = PartitionedTable::hash_partitioned("b", rows(50), 0, 3);
        for n in 0..3 {
            assert_eq!(a.partition(n), b.partition(n));
        }
        let r = PartitionedTable::replicated_ints("r", arrays, 3);
        assert_eq!(r.partition(1), PartitionedTable::replicated("s", rows(50), 3).partition(1));
        assert_eq!(PartitionedTable::replicated("e", Vec::new(), 2).partition(1).width(), 0);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn float_cells_are_rejected() {
        let r = vec![ftpde_store::value::row([Value::Int(1), Value::Float(0.5)])];
        let _ = PartitionedTable::replicated("f", r, 1);
    }

    #[test]
    fn int_hasher_spreads_structured_keys() {
        // Multiples of 1024 keep their low bits under a bare multiply; the
        // fold must still spread them over the low bits a table indexes by.
        let build = BuildHasherDefault::<IntHasher>::default();
        let mut buckets = [0u32; 64];
        for k in 0..4096i64 {
            buckets[(build.hash_one(k * 1024) & 63) as usize] += 1;
        }
        assert!(buckets.iter().all(|&b| (32..=96).contains(&b)), "{buckets:?}");
        assert_ne!(build.hash_one([1i64, 2].as_slice()), build.hash_one([2i64, 1].as_slice()));
    }

    #[test]
    fn catalog_roundtrip() {
        let mut c = Catalog::new();
        c.register(PartitionedTable::hash_partitioned("a", rows(10), 0, 2));
        c.register(PartitionedTable::replicated("b", rows(5), 2));
        assert!(c.contains("a"));
        assert!(!c.contains("z"));
        assert_eq!(c.table("b").logical_rows(), 5);
        assert_eq!(c.nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_registration_panics() {
        let mut c = Catalog::new();
        c.register(PartitionedTable::replicated("a", rows(1), 2));
        c.register(PartitionedTable::replicated("a", rows(1), 2));
    }

    #[test]
    #[should_panic(expected = "node counts")]
    fn node_count_mismatch_panics() {
        let mut c = Catalog::new();
        c.register(PartitionedTable::replicated("a", rows(1), 2));
        c.register(PartitionedTable::replicated("b", rows(1), 3));
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn unknown_table_panics() {
        let c = Catalog::new();
        let _ = c.table("nope");
    }
}
