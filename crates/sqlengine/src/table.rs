//! Row storage with hash indexes.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ast::{ColumnDef, ColumnType};
use crate::error::SqlError;
use crate::value::{Row, Value};

/// Row slots per storage chunk.
const CHUNK: usize = 128;
/// Hash partitions per index.
const PARTS: usize = 256;

/// Up to `CHUNK` consecutive row slots; `None` (or a slot past the end)
/// is a tombstone or an [`Table::insert_at`] gap.
type Chunk = Arc<Vec<Option<Row>>>;
/// One hash partition of an index: key → row ids, ascending.
type Partition = Arc<HashMap<Value, Vec<usize>>>;

/// A stored table: schema, row slots (tombstoned on delete) and hash indexes.
///
/// Storage is two-level copy-on-write. Row slots live in fixed-size chunks
/// and every index is split into a fixed number of hash partitions, each
/// behind its own [`Arc`], and the chunk list and the index map sit behind
/// one more `Arc` each. Cloning a table — and therefore snapshotting a
/// whole [`crate::Database`] — is a few reference-count bumps. A mutation
/// while a clone is outstanding copies the chunk list (pointers only) and
/// the one chunk holding the row; if it touches an index, also the index
/// map with its partition lists (pointers only) and, per touched index,
/// the one or two partitions holding the old and new keys. Its cost is
/// bounded by the chunk and partition sizes, not by the table size.
/// Readers holding the clone keep a consistent, immutable view for free.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name as declared.
    pub name: String,
    /// Column schema in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Row slots: row id `r` is slot `r % CHUNK` of chunk `r / CHUNK`.
    chunks: Arc<Vec<Chunk>>,
    live: usize,
    /// column index → its `PARTS` partitions. The primary key is always
    /// indexed.
    indexes: Arc<HashMap<usize, Vec<Partition>>>,
}

/// The partition of an index that holds `key`. `DefaultHasher::new()` is
/// unkeyed, so the choice is the same in every process.
fn partition(key: &Value) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % PARTS as u64) as usize
}

/// An index with no keys; its partitions share one empty map until
/// written.
fn empty_index() -> Vec<Partition> {
    vec![Partition::default(); PARTS]
}

/// Adds `rid` to `key`'s row ids, keeping them in row-id (scan) order.
fn index_add(index: &mut [Partition], key: Value, rid: usize) {
    let ids = Arc::make_mut(&mut index[partition(&key)])
        .entry(key)
        .or_default();
    if let Err(pos) = ids.binary_search(&rid) {
        ids.insert(pos, rid);
    }
}

/// Removes `rid` from `key`'s row ids, dropping the key when none remain.
fn index_remove(index: &mut [Partition], key: &Value, rid: usize) {
    let part = Arc::make_mut(&mut index[partition(key)]);
    if let Some(ids) = part.get_mut(key) {
        if let Ok(pos) = ids.binary_search(&rid) {
            ids.remove(pos);
        }
        if ids.is_empty() {
            part.remove(key);
        }
    }
}

impl Table {
    /// Creates an empty table; the primary-key column (if any) is indexed.
    pub fn new(name: String, columns: Vec<ColumnDef>) -> Self {
        let mut indexes = HashMap::new();
        if let Some(pk) = columns.iter().position(|c| c.primary_key) {
            indexes.insert(pk, empty_index());
        }
        Table {
            name,
            columns,
            chunks: Arc::default(),
            live: 0,
            indexes: Arc::new(indexes),
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Position of a column by name (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Declared column names.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Adds a secondary hash index over `column`; idempotent.
    pub fn create_index(&mut self, column: &str) -> Result<(), SqlError> {
        let ci = self
            .column_index(column)
            .ok_or_else(|| SqlError::new(format!("no column {column} in {}", self.name)))?;
        if self.indexes.contains_key(&ci) {
            return Ok(());
        }
        let mut index = empty_index();
        for (rid, row) in self.scan() {
            index_add(&mut index, row[ci].clone(), rid);
        }
        Arc::make_mut(&mut self.indexes).insert(ci, index);
        Ok(())
    }

    /// Whether `column` (by index) has a hash index.
    pub fn has_index(&self, column: usize) -> bool {
        self.indexes.contains_key(&column)
    }

    /// Coerces `v` to the declared type of column `ci` where harmless
    /// (int ↔ float); other mismatches pass through unchanged since the
    /// engine is dynamically typed like MySQL.
    fn coerce(&self, ci: usize, v: Value) -> Value {
        match (self.columns[ci].ty, &v) {
            (ColumnType::Float, Value::Int(i)) => Value::Float(*i as f64),
            (ColumnType::Int, Value::Float(f)) => Value::Int(*f as i64),
            _ => v,
        }
    }

    /// Inserts a full-width row, maintaining indexes.
    pub fn insert(&mut self, row: Row) -> Result<(), SqlError> {
        self.insert_at(self.next_rowid(), row)
    }

    /// Inserts a full-width row at an explicit row id, maintaining indexes.
    ///
    /// Slots between the current end and `rid` are left as tombstones.
    /// This is what keeps scan order stable across a sharded fleet: the
    /// shard router assigns each table's rows a fleet-wide id sequence,
    /// each shard stores its rows at those (sparse) ids, and a k-way
    /// merge by row id reconstructs the exact scan order a single server
    /// would produce.
    pub fn insert_at(&mut self, rid: usize, row: Row) -> Result<(), SqlError> {
        if row.len() != self.columns.len() {
            return Err(SqlError::new(format!(
                "insert into {}: expected {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        if self.row(rid).is_some() {
            return Err(SqlError::new(format!(
                "insert into {}: row id {rid} already occupied",
                self.name
            )));
        }
        let row: Row = row
            .into_iter()
            .enumerate()
            .map(|(ci, v)| self.coerce(ci, v))
            .collect();
        for (ci, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
            index_add(index, row[*ci].clone(), rid);
        }
        let (c, s) = (rid / CHUNK, rid % CHUNK);
        let chunks = Arc::make_mut(&mut self.chunks);
        if chunks.len() <= c {
            chunks.resize(c + 1, Chunk::default());
        }
        let chunk = Arc::make_mut(&mut chunks[c]);
        if chunk.len() <= s {
            chunk.resize(s + 1, None);
        }
        chunk[s] = Some(row);
        self.live += 1;
        Ok(())
    }

    /// The next row id a plain [`Table::insert`] would use.
    pub fn next_rowid(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Iterates `(row_id, row)` over live rows.
    pub fn scan(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(s, r)| r.as_ref().map(|row| (c * CHUNK + s, row)))
        })
    }

    /// Row ids whose indexed column `ci` equals `key`, in row-id (scan)
    /// order (requires an index).
    pub fn probe(&self, ci: usize, key: &Value) -> Option<&[usize]> {
        self.indexes.get(&ci).map(|index| {
            index[partition(key)]
                .get(key)
                .map_or(&[][..], Vec::as_slice)
        })
    }

    /// Returns a live row by id.
    pub fn row(&self, rid: usize) -> Option<&Row> {
        self.chunks
            .get(rid / CHUNK)
            .and_then(|chunk| chunk.get(rid % CHUNK))
            .and_then(Option::as_ref)
    }

    /// The slot of live row `rid`, unshared from any clone of this table
    /// (copying its chunk if need be); `None` if the row is not live.
    fn live_slot_mut(&mut self, rid: usize) -> Option<&mut Option<Row>> {
        self.row(rid)?;
        let chunks = Arc::make_mut(&mut self.chunks);
        Some(&mut Arc::make_mut(&mut chunks[rid / CHUNK])[rid % CHUNK])
    }

    /// Overwrites column `ci` of row `rid`, maintaining indexes.
    pub fn update_cell(&mut self, rid: usize, ci: usize, value: Value) {
        let value = self.coerce(ci, value);
        if self.row(rid).is_none_or(|row| row[ci] == value) {
            return;
        }
        let Some(row) = self.live_slot_mut(rid).and_then(Option::as_mut) else {
            return;
        };
        let old = std::mem::replace(&mut row[ci], value.clone());
        if self.has_index(ci) {
            if let Some(index) = Arc::make_mut(&mut self.indexes).get_mut(&ci) {
                index_remove(index, &old, rid);
                index_add(index, value, rid);
            }
        }
    }

    /// Tombstones row `rid`, maintaining indexes.
    pub fn delete(&mut self, rid: usize) {
        let Some(row) = self.live_slot_mut(rid).and_then(Option::take) else {
            return;
        };
        self.live -= 1;
        for (ci, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
            index_remove(index, &row[*ci], rid);
        }
    }

    /// Chunk numbers and `(column, partition)` pairs of `self` whose
    /// storage is not pointer-shared with `other`.
    #[cfg(test)]
    fn unshared_with(&self, other: &Table) -> (Vec<usize>, Vec<(usize, usize)>) {
        let chunks = (0..self.chunks.len())
            .filter(|&c| {
                other
                    .chunks
                    .get(c)
                    .is_none_or(|o| !Arc::ptr_eq(o, &self.chunks[c]))
            })
            .collect();
        let mut parts: Vec<(usize, usize)> = self
            .indexes
            .iter()
            .flat_map(|(&ci, index)| {
                let theirs = other.indexes.get(&ci);
                (0..PARTS)
                    .filter(move |&p| theirs.is_none_or(|t| !Arc::ptr_eq(&t[p], &index[p])))
                    .map(move |p| (ci, p))
            })
            .collect();
        parts.sort_unstable();
        (chunks, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn sample() -> Table {
        let mut t = Table::new(
            "t".into(),
            vec![
                ColumnDef {
                    name: "id".into(),
                    ty: ColumnType::Int,
                    primary_key: true,
                },
                ColumnDef {
                    name: "name".into(),
                    ty: ColumnType::Text,
                    primary_key: false,
                },
            ],
        );
        t.insert(vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Str("b".into())])
            .unwrap();
        t
    }

    #[test]
    fn pk_index_probe() {
        let t = sample();
        assert_eq!(t.probe(0, &Value::Int(2)), Some(&[1usize][..]));
        assert_eq!(t.probe(0, &Value::Int(99)), Some(&[][..]));
        assert!(t.probe(1, &Value::Str("a".into())).is_none());
    }

    #[test]
    fn secondary_index_after_insert() {
        let mut t = sample();
        t.create_index("name").unwrap();
        assert_eq!(t.probe(1, &Value::Str("b".into())), Some(&[1usize][..]));
        t.insert(vec![Value::Int(3), Value::Str("b".into())])
            .unwrap();
        assert_eq!(t.probe(1, &Value::Str("b".into())), Some(&[1usize, 2][..]));
    }

    #[test]
    fn delete_updates_index_and_len() {
        let mut t = sample();
        t.delete(0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.probe(0, &Value::Int(1)), Some(&[][..]));
        assert_eq!(t.scan().count(), 1);
    }

    #[test]
    fn update_cell_moves_index_entry() {
        let mut t = sample();
        t.update_cell(0, 0, Value::Int(10));
        assert_eq!(t.probe(0, &Value::Int(1)), Some(&[][..]));
        assert_eq!(t.probe(0, &Value::Int(10)), Some(&[0usize][..]));
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut t = sample();
        assert!(t.insert(vec![Value::Int(9)]).is_err());
    }

    #[test]
    fn int_to_float_coercion() {
        let mut t = Table::new(
            "f".into(),
            vec![ColumnDef {
                name: "x".into(),
                ty: ColumnType::Float,
                primary_key: false,
            }],
        );
        t.insert(vec![Value::Int(3)]).unwrap();
        assert_eq!(t.row(0).unwrap()[0], Value::Float(3.0));
    }

    #[test]
    fn probe_ids_stay_in_row_id_order() {
        let mut t = sample();
        t.create_index("name").unwrap();
        // An update moves row 0 behind row 1 under the new key; a sparse
        // insert lands below both of them.
        t.update_cell(0, 1, Value::Str("b".into()));
        assert_eq!(t.probe(1, &Value::Str("b".into())), Some(&[0usize, 1][..]));
        t.delete(0);
        t.insert_at(700, vec![Value::Int(7), Value::Str("b".into())])
            .unwrap();
        t.insert_at(0, vec![Value::Int(5), Value::Str("b".into())])
            .unwrap();
        assert_eq!(
            t.probe(1, &Value::Str("b".into())),
            Some(&[0usize, 1, 700][..])
        );
        assert_eq!(t.next_rowid(), 701);
    }

    fn wide_columns() -> Vec<ColumnDef> {
        let col = |name: &str, ty, primary_key| ColumnDef {
            name: name.into(),
            ty,
            primary_key,
        };
        vec![
            col("id", ColumnType::Int, true),
            col("grp", ColumnType::Int, false),
            col("name", ColumnType::Text, false),
            col("score", ColumnType::Float, false),
        ]
    }

    /// The naive reference: one flat slot vector, lookups by linear scan.
    #[derive(Clone)]
    struct Model {
        slots: Vec<Option<Row>>,
        indexed: Vec<usize>,
    }

    impl Model {
        fn live(&self) -> impl Iterator<Item = (usize, &Row)> {
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|row| (i, row)))
        }

        fn is_live(&self, rid: usize) -> bool {
            self.slots.get(rid).is_some_and(Option::is_some)
        }

        fn put(&mut self, rid: usize, row: Row) {
            if rid >= self.slots.len() {
                self.slots.resize(rid + 1, None);
            }
            self.slots[rid] = Some(row);
        }
    }

    /// `table` answers `scan`, `probe`, `row`, `len` and `next_rowid`
    /// exactly as `model` does.
    fn assert_matches(table: &Table, model: &Model, what: &str) {
        let scanned: Vec<(usize, Row)> = table.scan().map(|(i, r)| (i, r.clone())).collect();
        let expected: Vec<(usize, Row)> = model.live().map(|(i, r)| (i, r.clone())).collect();
        assert_eq!(scanned, expected, "{what}: scan");
        assert_eq!(table.len(), expected.len(), "{what}: len");
        assert_eq!(table.next_rowid(), model.slots.len(), "{what}: next_rowid");
        for rid in 0..model.slots.len() + CHUNK {
            assert_eq!(
                table.row(rid),
                model.slots.get(rid).and_then(Option::as_ref),
                "{what}: row {rid}"
            );
        }
        for ci in 0..table.columns.len() {
            if !model.indexed.contains(&ci) {
                assert!(table.probe(ci, &Value::Null).is_none(), "{what}: col {ci}");
                continue;
            }
            let mut expected: HashMap<Value, Vec<usize>> = HashMap::new();
            for (rid, row) in model.live() {
                expected.entry(row[ci].clone()).or_default().push(rid);
            }
            expected.insert(Value::Str("absent".into()), Vec::new());
            for (key, ids) in &expected {
                assert_eq!(
                    table.probe(ci, key),
                    Some(&ids[..]),
                    "{what}: probe col {ci} key {key:?}"
                );
            }
        }
    }

    fn random_value(rng: &mut StdRng, ci: usize) -> Value {
        match ci {
            0 => Value::Int(rng.random_range(0..400i64)),
            1 => Value::Int(rng.random_range(0..8i64)),
            2 => Value::Str(format!("n{}", rng.random_range(0..12u32))),
            _ => Value::Float(rng.random_range(0..6i64) as f64 / 2.0),
        }
    }

    fn random_row(rng: &mut StdRng) -> Row {
        (0..4).map(|ci| random_value(rng, ci)).collect()
    }

    /// A seeded random op stream against `Table` and the naive model,
    /// with clones taken along the way: every clone must keep answering
    /// like the model did when it was taken, whatever the live table does
    /// afterwards.
    #[test]
    fn table_model_differential() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = Table::new("m".into(), wide_columns());
            let mut model = Model {
                slots: Vec::new(),
                indexed: vec![0],
            };
            let mut frozen: Vec<(Table, Model)> = Vec::new();
            for step in 0..1500 {
                match rng.random_range(0..100u32) {
                    0..=34 => {
                        let row = random_row(&mut rng);
                        model.put(model.slots.len(), row.clone());
                        table.insert(row).unwrap();
                    }
                    // Sparse ids past the end, across chunk boundaries.
                    35..=39 => {
                        let rid = model.slots.len() + rng.random_range(0..3 * CHUNK);
                        let row = random_row(&mut rng);
                        model.put(rid, row.clone());
                        table.insert_at(rid, row).unwrap();
                    }
                    // Sparse ids into a free slot below the end.
                    40..=44 => {
                        let free: Vec<usize> = (0..model.slots.len())
                            .filter(|&i| !model.is_live(i))
                            .collect();
                        if let Some(&rid) = free.get(rng.random_range(0..free.len().max(1))) {
                            let row = random_row(&mut rng);
                            model.put(rid, row.clone());
                            table.insert_at(rid, row).unwrap();
                        }
                    }
                    45..=49 => {
                        let rid = rng.random_range(0..model.slots.len() + 2);
                        let row = random_row(&mut rng);
                        assert_eq!(
                            table.insert_at(rid, row.clone()).is_err(),
                            model.is_live(rid)
                        );
                        if !model.is_live(rid) {
                            model.put(rid, row);
                        }
                    }
                    50..=64 => {
                        let rid = rng.random_range(0..model.slots.len() + 2);
                        if let Some(slot) = model.slots.get_mut(rid) {
                            *slot = None;
                        }
                        table.delete(rid);
                    }
                    65..=89 => {
                        let rid = rng.random_range(0..model.slots.len() + 2);
                        let ci = rng.random_range(0..4usize);
                        let value = random_value(&mut rng, ci);
                        if let Some(Some(row)) = model.slots.get_mut(rid) {
                            row[ci] = value.clone();
                        }
                        table.update_cell(rid, ci, value);
                    }
                    90..=92 => {
                        let ci = rng.random_range(1..4usize);
                        if !model.indexed.contains(&ci) {
                            model.indexed.push(ci);
                        }
                        table.create_index(&table.columns[ci].name.clone()).unwrap();
                    }
                    _ => frozen.push((table.clone(), model.clone())),
                }
                if step % 100 == 99 {
                    assert_matches(&table, &model, &format!("seed {seed} step {step}"));
                }
            }
            assert_matches(&table, &model, &format!("seed {seed} end"));
            for (i, (snap, snap_model)) in frozen.iter().enumerate() {
                assert_matches(snap, snap_model, &format!("seed {seed} snapshot {i}"));
            }
        }
    }

    /// A single-row write under an outstanding clone copies only the
    /// touched chunk and the touched index partitions.
    #[test]
    fn table_write_under_snapshot_shares_untouched_storage() {
        let mut t = Table::new("big".into(), wide_columns());
        for i in 0..40_000i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::Str(format!("n{i}")),
                Value::Float(0.0),
            ])
            .unwrap();
        }
        t.create_index("grp").unwrap();

        // An unindexed cell: one chunk, not even the index map.
        let snap = t.clone();
        t.update_cell(12_345, 3, Value::Float(1.5));
        assert_eq!(t.unshared_with(&snap), (vec![12_345 / CHUNK], vec![]));
        assert!(Arc::ptr_eq(&t.indexes, &snap.indexes));

        // An indexed cell: one chunk, the old and the new key's partition.
        let snap = t.clone();
        t.update_cell(20_000, 1, Value::Int(7));
        let mut parts = vec![
            (1, partition(&Value::Int(0))),
            (1, partition(&Value::Int(7))),
        ];
        parts.sort_unstable();
        parts.dedup();
        assert_eq!(t.unshared_with(&snap), (vec![20_000 / CHUNK], parts));

        // A delete: one chunk, one partition per index.
        let snap = t.clone();
        t.delete(5);
        let mut parts = vec![
            (0, partition(&Value::Int(5))),
            (1, partition(&Value::Int(5))),
        ];
        parts.sort_unstable();
        assert_eq!(t.unshared_with(&snap), (vec![0], parts));

        // An append: the last chunk, one partition per index.
        let snap = t.clone();
        t.insert(vec![
            Value::Int(40_000),
            Value::Int(42),
            Value::Str("new".into()),
            Value::Float(0.0),
        ])
        .unwrap();
        let mut parts = vec![
            (0, partition(&Value::Int(40_000))),
            (1, partition(&Value::Int(42))),
        ];
        parts.sort_unstable();
        assert_eq!(t.unshared_with(&snap), (vec![40_000 / CHUNK], parts));

        // The last snapshot still shows the table as it was before the
        // append.
        assert_eq!(snap.len(), 39_999);
        assert_eq!(snap.row(20_000).unwrap()[1], Value::Int(7));
        assert!(snap.row(40_000).is_none());
    }
}
