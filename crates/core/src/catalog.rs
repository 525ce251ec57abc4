//! The system catalog: tables about tables.
//!
//! "Logical metadata (such as object catalog) itself is stored in relational
//! format and updates to it are logged similar to updates to data" (paper
//! §3). `sys_tables`, `sys_columns` and `sys_indexes` are ordinary B-Trees,
//! which is why an as-of snapshot can answer metadata questions about the
//! past — including showing a table that has since been dropped — with no
//! dedicated versioning machinery.
//!
//! All read functions are generic over [`Store`], so they serve the live
//! database and snapshots identically.

use crate::boot::{read_boot, BootInfo};
use rewind_access::keys::encode_key_owned;
use rewind_access::store::Store;
use rewind_access::value::{decode_row, encode_row};
use rewind_access::{BTree, Column, DataType, Heap, Schema, Value};
use rewind_common::codec::{ByteReader, ByteWriter};
use rewind_common::{Error, ObjectId, PageId, Result};
use rewind_recovery::AccessKind;
use std::ops::Bound;

/// How a table stores its rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableKind {
    /// Clustered B-Tree keyed by the primary key.
    Tree,
    /// Heap addressed by RID (insert-mostly data, e.g. TPC-C HISTORY).
    Heap,
}

impl TableKind {
    fn to_u64(self) -> u64 {
        match self {
            TableKind::Tree => 0,
            TableKind::Heap => 1,
        }
    }

    fn from_u64(v: u64) -> Result<TableKind> {
        match v {
            0 => Ok(TableKind::Tree),
            1 => Ok(TableKind::Heap),
            other => Err(Error::corruption(format!("unknown table kind {other}"))),
        }
    }
}

/// A secondary index over a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexInfo {
    /// The index's own object id.
    pub id: ObjectId,
    /// Index name.
    pub name: String,
    /// Root page of the index B-Tree.
    pub root: PageId,
    /// Indices (into the table schema) of the indexed columns, in order.
    pub cols: Vec<usize>,
}

impl IndexInfo {
    /// The index B-Tree handle.
    pub fn tree(&self) -> BTree {
        BTree {
            object: self.id,
            root: self.root,
        }
    }
}

/// Everything known about one table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableInfo {
    /// The table's object id.
    pub id: ObjectId,
    /// Table name.
    pub name: String,
    /// Storage kind.
    pub kind: TableKind,
    /// Root (B-Tree) or first page (heap).
    pub root: PageId,
    /// The schema.
    pub schema: Schema,
    /// Secondary indexes.
    pub indexes: Vec<IndexInfo>,
}

impl TableInfo {
    /// The clustered-tree handle; errors for heaps.
    pub fn tree(&self) -> Result<BTree> {
        match self.kind {
            TableKind::Tree => Ok(BTree {
                object: self.id,
                root: self.root,
            }),
            TableKind::Heap => Err(Error::InvalidArg(format!(
                "table '{}' is a heap",
                self.name
            ))),
        }
    }

    /// The heap handle; errors for trees.
    pub fn heap(&self) -> Result<Heap> {
        match self.kind {
            TableKind::Heap => Ok(Heap {
                object: self.id,
                first: self.root,
            }),
            TableKind::Tree => Err(Error::InvalidArg(format!(
                "table '{}' is a B-Tree",
                self.name
            ))),
        }
    }

    /// Encode the primary key of `row` as B-Tree key bytes.
    pub fn key_bytes(&self, row: &[Value]) -> Result<Vec<u8>> {
        let keys = self.schema.key_values(row)?;
        rewind_access::keys::encode_key(&keys)
    }

    /// Find a secondary index by name.
    pub fn index(&self, name: &str) -> Result<&IndexInfo> {
        self.indexes
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| Error::InvalidArg(format!("no index '{name}' on '{}'", self.name)))
    }

    /// The key bytes a row contributes to `index`: indexed columns followed
    /// by the primary key (making index entries unique).
    pub fn index_key_bytes(&self, index: &IndexInfo, row: &[Value]) -> Result<Vec<u8>> {
        let mut vals: Vec<&Value> = index.cols.iter().map(|&i| &row[i]).collect();
        let keys = self.schema.key_values(row)?;
        vals.extend(keys);
        rewind_access::keys::encode_key(&vals)
    }
}

// ---- schema blob codec ------------------------------------------------------

/// Serialize a schema into the catalog blob format.
pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u16(schema.columns.len() as u16);
    for c in &schema.columns {
        w.put_str(&c.name);
        w.put_u8(c.ty as u8);
    }
    w.put_u16(schema.key.len() as u16);
    for &k in &schema.key {
        w.put_u16(k as u16);
    }
    w.into_bytes()
}

/// Decode a schema blob.
pub fn decode_schema(bytes: &[u8]) -> Result<Schema> {
    let mut r = ByteReader::new(bytes);
    let ncols = r.get_u16()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.get_str()?.to_string();
        let ty = DataType::from_u8(r.get_u8()?)?;
        columns.push(Column { name, ty });
    }
    let nkey = r.get_u16()? as usize;
    let mut key = Vec::with_capacity(nkey);
    for _ in 0..nkey {
        key.push(r.get_u16()? as usize);
    }
    Ok(Schema { columns, key })
}

// ---- system-tree handles -----------------------------------------------------

/// Handles to the three system trees, resolved from the boot page.
#[derive(Clone, Copy, Debug)]
pub struct SysTrees {
    /// `sys_tables`: object id → table row.
    pub tables: BTree,
    /// `sys_columns`: (table id, ordinal) → column row.
    pub columns: BTree,
    /// `sys_indexes`: index id → index row.
    pub indexes: BTree,
}

impl SysTrees {
    /// Resolve from boot info.
    pub fn from_boot(boot: &BootInfo) -> SysTrees {
        SysTrees {
            tables: BTree {
                object: ObjectId::SYS_TABLES,
                root: boot.sys_tables_root,
            },
            columns: BTree {
                object: ObjectId::SYS_COLUMNS,
                root: boot.sys_columns_root,
            },
            indexes: BTree {
                object: ObjectId::SYS_INDEXES,
                root: boot.sys_indexes_root,
            },
        }
    }

    /// Read the boot page and resolve, through any store.
    pub fn load<S: Store>(s: &S) -> Result<SysTrees> {
        Ok(Self::from_boot(&read_boot(s)?))
    }

    /// The system tree whose object id is `obj`, if it is one of the three.
    pub(crate) fn tree_of(&self, obj: ObjectId) -> Option<BTree> {
        [self.tables, self.columns, self.indexes]
            .into_iter()
            .find(|t| t.object == obj)
    }
}

/// Key bytes for a `sys_tables` row.
pub fn table_key(id: ObjectId) -> Vec<u8> {
    // tidy: allow(no-panic) -- a literal single-U64 key always encodes
    encode_key_owned(&[Value::U64(id.0)]).expect("non-empty")
}

/// The `sys_tables` row for a table.
pub fn table_row(info: &TableInfo) -> Vec<u8> {
    encode_row(&[
        Value::U64(info.id.0),
        Value::Str(info.name.clone()),
        Value::U64(info.kind.to_u64()),
        Value::U64(info.root.0),
        Value::Bytes(encode_schema(&info.schema)),
    ])
}

fn parse_table_row(bytes: &[u8]) -> Result<TableInfo> {
    let row = decode_row(bytes)?;
    if row.len() != 5 {
        return Err(Error::corruption("malformed sys_tables row"));
    }
    Ok(TableInfo {
        id: ObjectId(row[0].as_u64()?),
        name: row[1].as_str()?.to_string(),
        kind: TableKind::from_u64(row[2].as_u64()?)?,
        root: PageId(row[3].as_u64()?),
        schema: match &row[4] {
            Value::Bytes(b) => decode_schema(b)?,
            other => return Err(Error::corruption(format!("schema blob is {other:?}"))),
        },
        indexes: Vec::new(),
    })
}

/// Key bytes for a `sys_indexes` row.
pub fn index_key(id: ObjectId) -> Vec<u8> {
    // tidy: allow(no-panic) -- a literal single-U64 key always encodes
    encode_key_owned(&[Value::U64(id.0)]).expect("non-empty")
}

/// The `sys_indexes` row for an index on `table`.
pub fn index_row(table: ObjectId, info: &IndexInfo) -> Vec<u8> {
    let mut blob = ByteWriter::new();
    blob.put_u16(info.cols.len() as u16);
    for &c in &info.cols {
        blob.put_u16(c as u16);
    }
    encode_row(&[
        Value::U64(info.id.0),
        Value::U64(table.0),
        Value::Str(info.name.clone()),
        Value::U64(info.root.0),
        Value::Bytes(blob.into_bytes()),
    ])
}

fn parse_index_row(bytes: &[u8]) -> Result<(ObjectId, IndexInfo)> {
    let row = decode_row(bytes)?;
    if row.len() != 5 {
        return Err(Error::corruption("malformed sys_indexes row"));
    }
    let cols = match &row[4] {
        Value::Bytes(b) => {
            let mut r = ByteReader::new(b);
            let n = r.get_u16()? as usize;
            let mut cols = Vec::with_capacity(n);
            for _ in 0..n {
                cols.push(r.get_u16()? as usize);
            }
            cols
        }
        other => return Err(Error::corruption(format!("index cols blob is {other:?}"))),
    };
    Ok((
        ObjectId(row[1].as_u64()?),
        IndexInfo {
            id: ObjectId(row[0].as_u64()?),
            name: row[2].as_str()?.to_string(),
            root: PageId(row[3].as_u64()?),
            cols,
        },
    ))
}

/// Key bytes for a `sys_columns` row.
pub fn column_key(table: ObjectId, ord: usize) -> Vec<u8> {
    // tidy: allow(no-panic) -- a literal two-U64 key always encodes
    encode_key_owned(&[Value::U64(table.0), Value::U64(ord as u64)]).expect("non-empty")
}

/// The `sys_columns` row for one column.
pub fn column_row(table: ObjectId, ord: usize, col: &Column, key_pos: Option<usize>) -> Vec<u8> {
    encode_row(&[
        Value::U64(table.0),
        Value::U64(ord as u64),
        Value::Str(col.name.clone()),
        Value::U64(col.ty as u8 as u64),
        Value::I64(key_pos.map(|k| k as i64).unwrap_or(-1)),
    ])
}

// ---- catalog reads (generic over Store) --------------------------------------

/// Load a table (with its indexes) by object id.
pub fn read_table_by_id<S: Store>(
    s: &S,
    sys: &SysTrees,
    id: ObjectId,
) -> Result<Option<TableInfo>> {
    let bytes = match sys.tables.get(s, &table_key(id))? {
        Some(b) => b,
        None => return Ok(None),
    };
    let mut info = parse_table_row(&bytes)?;
    info.indexes = read_indexes_of(s, sys, id)?;
    Ok(Some(info))
}

/// Load a table (with its indexes) by name.
pub fn read_table_by_name<S: Store>(
    s: &S,
    sys: &SysTrees,
    name: &str,
) -> Result<Option<TableInfo>> {
    let mut found = None;
    sys.tables
        .scan(s, Bound::Unbounded, Bound::Unbounded, |_, v| {
            let info = parse_table_row(v)?;
            if info.name == name {
                found = Some(info);
                return Ok(false);
            }
            Ok(true)
        })?;
    match found {
        Some(mut info) => {
            info.indexes = read_indexes_of(s, sys, info.id)?;
            Ok(Some(info))
        }
        None => Ok(None),
    }
}

/// All indexes declared on `table`.
pub fn read_indexes_of<S: Store>(s: &S, sys: &SysTrees, table: ObjectId) -> Result<Vec<IndexInfo>> {
    let mut out = Vec::new();
    sys.indexes
        .scan(s, Bound::Unbounded, Bound::Unbounded, |_, v| {
            let (tid, idx) = parse_index_row(v)?;
            if tid == table {
                out.push(idx);
            }
            Ok(true)
        })?;
    Ok(out)
}

/// Find one index (and its table id) by the index's object id.
pub fn read_index_by_id<S: Store>(
    s: &S,
    sys: &SysTrees,
    id: ObjectId,
) -> Result<Option<(ObjectId, IndexInfo)>> {
    let bytes = match sys.indexes.get(s, &index_key(id))? {
        Some(b) => b,
        None => return Ok(None),
    };
    Ok(Some(parse_index_row(&bytes)?))
}

/// Resolve an object id to its access method through `s`'s catalog — the
/// resolver every logical undo takes (rollback, restart, snapshot undo,
/// restore). The three system trees answer from `sys` without a read;
/// anything else is a table or an index row read fresh, since undo may be
/// restoring the very catalog rows it needs.
pub fn resolve_access<S: Store>(s: &S, sys: &SysTrees, obj: ObjectId) -> Result<AccessKind> {
    if let Some(tree) = sys.tree_of(obj) {
        return Ok(AccessKind::Tree(tree));
    }
    if let Some(t) = read_table_by_id(s, sys, obj)? {
        return Ok(match t.kind {
            TableKind::Tree => AccessKind::Tree(t.tree()?),
            TableKind::Heap => AccessKind::Heap(t.heap()?),
        });
    }
    match read_index_by_id(s, sys, obj)? {
        Some((_, idx)) => Ok(AccessKind::Tree(idx.tree())),
        None => Err(Error::ObjectNotFound(obj)),
    }
}

/// List every user table (with indexes), sorted by object id.
pub fn list_tables<S: Store>(s: &S, sys: &SysTrees) -> Result<Vec<TableInfo>> {
    let mut out = Vec::new();
    sys.tables
        .scan(s, Bound::Unbounded, Bound::Unbounded, |_, v| {
            out.push(parse_table_row(v)?);
            Ok(true)
        })?;
    for info in &mut out {
        info.indexes = read_indexes_of(s, sys, info.id)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("w_id", DataType::U64),
                Column::new("name", DataType::Str),
                Column::new("ytd", DataType::F64),
            ],
            &["w_id"],
        )
        .unwrap()
    }

    #[test]
    fn schema_blob_roundtrip() {
        let s = schema();
        let blob = encode_schema(&s);
        assert_eq!(decode_schema(&blob).unwrap(), s);
        assert!(decode_schema(&blob[..3]).is_err());
    }

    #[test]
    fn table_row_roundtrip() {
        let info = TableInfo {
            id: ObjectId(120),
            name: "warehouse".into(),
            kind: TableKind::Tree,
            root: PageId(9),
            schema: schema(),
            indexes: vec![],
        };
        let parsed = parse_table_row(&table_row(&info)).unwrap();
        assert_eq!(parsed, info);
    }

    #[test]
    fn index_row_roundtrip() {
        let idx = IndexInfo {
            id: ObjectId(130),
            name: "by_name".into(),
            root: PageId(12),
            cols: vec![1, 0],
        };
        let (tid, parsed) = parse_index_row(&index_row(ObjectId(120), &idx)).unwrap();
        assert_eq!(tid, ObjectId(120));
        assert_eq!(parsed, idx);
    }

    #[test]
    fn key_and_index_bytes_are_ordered_and_unique() {
        let info = TableInfo {
            id: ObjectId(120),
            name: "t".into(),
            kind: TableKind::Tree,
            root: PageId(9),
            schema: schema(),
            indexes: vec![IndexInfo {
                id: ObjectId(121),
                name: "by_name".into(),
                root: PageId(10),
                cols: vec![1],
            }],
        };
        let r1 = vec![Value::U64(1), Value::str("aaa"), Value::F64(0.0)];
        let r2 = vec![Value::U64(2), Value::str("aaa"), Value::F64(0.0)];
        let k1 = info.key_bytes(&r1).unwrap();
        let k2 = info.key_bytes(&r2).unwrap();
        assert!(k1 < k2);
        let idx = &info.indexes[0];
        let i1 = info.index_key_bytes(idx, &r1).unwrap();
        let i2 = info.index_key_bytes(idx, &r2).unwrap();
        assert_ne!(
            i1, i2,
            "same indexed value, different pk: entries stay unique"
        );
        assert!(i1 < i2);
    }

    #[test]
    fn heap_tree_handle_guards() {
        let mut info = TableInfo {
            id: ObjectId(5),
            name: "h".into(),
            kind: TableKind::Heap,
            root: PageId(3),
            schema: schema(),
            indexes: vec![],
        };
        assert!(info.heap().is_ok());
        assert!(info.tree().is_err());
        info.kind = TableKind::Tree;
        assert!(info.tree().is_ok());
        assert!(info.heap().is_err());
    }
}
