//! The object store: EXTRA's object identity and integrity semantics over
//! the storage manager.
//!
//! Objects with identity (schema-type instances, named database objects,
//! collection anchors) live in heap records addressed through the
//! [object table](exodus_storage::object::ObjectTable), so OIDs survive
//! record relocation. The store enforces the paper's §2.2 semantics:
//!
//! * **`ref`** — GEM-style references: deleting the referenced object
//!   *nulls out* every dangling reference (and removes dangling members
//!   from ref-sets), via a back-reference index.
//! * **`own ref`** — exclusive composite ownership: adopting an
//!   already-owned object is an integrity error ("a Person instance in the
//!   kids set of one Employee instance cannot be in the kids set of
//!   another Employee instance simultaneously"), and deleting an owner
//!   cascades to its components ("if an employee is deleted, so are his or
//!   her kids").
//! * **`own`** — plain values, stored inline in their parent's record.
//!
//! Top-level **named sets** are represented as *collections*: a heap file
//! of member records plus an anchor object giving the collection an OID
//! (so `own ref` members have an owner and integrity edges have a holder).
//! Nested sets/arrays (e.g. `kids`) are stored inline in the parent
//! record, as the paper's NF²-style complex objects suggest.
//!
//! Values longer than a page spill into a large object ([`crate::store`]
//! uses [`exodus_storage::lob`]), transparently.

use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

use exodus_storage::btree::BTree;
use exodus_storage::buffer::BufferPool;
use exodus_storage::encoding::{ByteReader, ByteWriter};
use exodus_storage::heap::{self, HeapFile};
use exodus_storage::lob::{Lob, LobId};
use exodus_storage::object::ObjectTable;
use exodus_storage::txn::{visible, ReclaimOp, TS_LATEST};
use exodus_storage::{FileId, Oid, RecordId, StorageError, StorageManager};

use crate::error::{ModelError, ModelResult};
use crate::schema::{TypeId, TypeRegistry};
use crate::typeio::{read_qty, write_qty};
use crate::types::{Ownership, QualType, Type};
use crate::value::Value;
use crate::valueio;

const INLINE_LIMIT: usize = 7000;

/// The members of one set or array as an unnest binds them when it reads
/// only some of their attributes: how many there are, and those
/// attributes of each, member after member.
pub type MemberFields = (usize, Vec<Value>);

/// The objects a batched read met an error on, by ascending index into
/// the OIDs it was asked for, each with its error.
pub type FailedReads = Vec<(usize, ModelError)>;

/// One object version as [`ObjectStore`]'s reader hands it over: its
/// interned declared type, its record (owner, tag, payload) and its
/// encoded value.
type Version<'a> = (u32, &'a [u8], &'a [u8]);

const TAG_INLINE: u8 = 0;
const TAG_LOB: u8 = 1;

/// Kinds of back-reference holders.
const BK_OBJECT: u8 = 0;
const BK_MEMBER: u8 = 1;

/// The page-level anchors of an [`ObjectStore`], as plain numbers: what
/// a reopened or replicated volume needs (besides its pages) to
/// re-attach via [`ObjectStore::attach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRoots {
    /// Root page of the object table.
    pub table_root: u64,
    /// Root page of the back-reference index.
    pub backrefs_root: u64,
    /// Root page of the ownership-children index.
    pub children_root: u64,
    /// Heap file id of the top-level object file.
    pub file: u64,
}

/// Where a holder keeps a link to another object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Site {
    /// Inside the holder's own value.
    Value,
    /// As the member record `rid` of the collection the holder anchors.
    Member(RecordId),
}

/// An integrity edge: one link from a holder to `target`, whichever of
/// the two sites keeps it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Edge {
    target: Oid,
    /// The schema type the link is declared at.
    declared: TypeId,
    /// `own ref` (exclusive, cascading) rather than `ref` (null-out).
    owned: bool,
    site: Site,
}

impl Edge {
    /// The back-reference entry through which a delete of `target`
    /// finds this edge at `holder`. An owned link inside a value has
    /// none: the component's record names its owner instead.
    fn backref_key(&self, holder: Oid) -> Option<Vec<u8>> {
        match self.site {
            Site::Member(rid) => Some(backref_key(self.target, BK_MEMBER, holder, rid.pack())),
            Site::Value if self.owned => None,
            Site::Value => Some(backref_key(self.target, BK_OBJECT, holder, 0)),
        }
    }
}

/// A collection: a heap file of members plus its element type.
#[derive(Debug, Clone, Copy)]
struct CollectionInfo {
    file: FileId,
    elem: u32,
}

/// The object store. Cheap to clone is not needed; share via `Arc`.
pub struct ObjectStore {
    sm: StorageManager,
    table: ObjectTable,
    /// Back-reference index:
    /// key = `target ++ kind ++ holder ++ extra`, value = 0.
    backrefs: BTree,
    /// Ownership index: key = `owner ++ child`, value = child OID.
    children: BTree,
    /// Heap file holding all object records.
    file: FileId,
    /// Interned qualified types (object-table `type_id` → descriptor).
    types: RwLock<Vec<QualType>>,
    /// Collection anchors.
    collections: RwLock<HashMap<Oid, CollectionInfo>>,
}

/// The error for an object with no version visible at a snapshot.
fn not_visible(oid: Oid) -> ModelError {
    ModelError::Semantic(format!("object {oid} is not visible at this snapshot"))
}

fn be(oid: Oid) -> [u8; 8] {
    oid.0.to_be_bytes()
}

fn backref_key(target: Oid, kind: u8, holder: Oid, extra: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(25);
    k.extend_from_slice(&be(target));
    k.push(kind);
    k.extend_from_slice(&be(holder));
    k.extend_from_slice(&extra.to_be_bytes());
    k
}

/// The `(holder kind, holder, extra)` a back-reference key ends in.
fn backref_holder(key: &[u8]) -> (u8, Oid, u64) {
    let word = |at: usize| u64::from_be_bytes(key[at..at + 8].try_into().expect("eight bytes"));
    (key[8], Oid(word(9)), word(17))
}

fn child_key(owner: Oid, child: Oid) -> Vec<u8> {
    let mut k = Vec::with_capacity(16);
    k.extend_from_slice(&be(owner));
    k.extend_from_slice(&be(child));
    k
}

fn prefix_bounds(prefix: &[u8]) -> (Bound<Vec<u8>>, Bound<Vec<u8>>) {
    let mut upper = prefix.to_vec();
    for i in (0..upper.len()).rev() {
        if upper[i] != 0xFF {
            upper[i] += 1;
            upper.truncate(i + 1);
            return (Bound::Included(prefix.to_vec()), Bound::Excluded(upper));
        }
    }
    (Bound::Included(prefix.to_vec()), Bound::Unbounded)
}

impl ObjectStore {
    /// Create a fresh object store over a storage manager.
    pub fn new(sm: StorageManager) -> ModelResult<ObjectStore> {
        let roots = StoreRoots {
            table_root: ObjectTable::create(sm.pool())?.root(),
            backrefs_root: BTree::create(sm.pool())?.root(),
            children_root: BTree::create(sm.pool())?.root(),
            file: sm.create_file()?.0,
        };
        Ok(ObjectStore::attach(sm, &roots))
    }

    /// The store's physical anchors: enough to re-attach to the same
    /// pages from another process over a replicated volume.
    pub fn roots(&self) -> StoreRoots {
        StoreRoots {
            table_root: self.table.root(),
            backrefs_root: self.backrefs.root(),
            children_root: self.children.root(),
            file: self.file.0,
        }
    }

    /// Attach to an existing store's pages — the counterpart of
    /// [`ObjectStore::new`] when a volume is reopened (or replicated).
    /// The volume must already hold the structures the roots point at;
    /// the in-memory halves (interned types, collection map) arrive
    /// separately via [`ObjectStore::import_image`].
    pub fn attach(sm: StorageManager, roots: &StoreRoots) -> ObjectStore {
        ObjectStore {
            sm,
            table: ObjectTable::open(roots.table_root),
            backrefs: BTree::open(roots.backrefs_root),
            children: BTree::open(roots.children_root),
            file: FileId(roots.file),
            types: RwLock::new(Vec::new()),
            collections: RwLock::new(HashMap::new()),
        }
    }

    /// Serialize the store's in-memory state (interned qualified types
    /// and the collection map) for the catalog image.
    pub fn export_image(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let types = self.types.read();
        w.put_varint(types.len() as u64);
        for q in types.iter() {
            write_qty(q, &mut w);
        }
        drop(types);
        let cols = self.collections.read();
        w.put_varint(cols.len() as u64);
        for (oid, info) in cols.iter() {
            w.put_u64(oid.0);
            w.put_u64(info.file.0);
            w.put_u32(info.elem);
        }
        w.into_bytes()
    }

    /// Replace the store's in-memory state with an exported image.
    /// Interned type ids are positional, so the vector must be swapped
    /// wholesale — never merged.
    pub fn import_image(&self, buf: &[u8]) -> ModelResult<()> {
        let mut r = ByteReader::new(buf);
        let types = (0..r.get_count()?)
            .map(|_| read_qty(&mut r))
            .collect::<ModelResult<_>>()?;
        let mut cols = HashMap::new();
        for _ in 0..r.get_count()? {
            let oid = Oid(r.get_u64()?);
            let file = FileId(r.get_u64()?);
            let elem = r.get_u32()?;
            cols.insert(oid, CollectionInfo { file, elem });
        }
        *self.types.write() = types;
        *self.collections.write() = cols;
        Ok(())
    }

    /// The sizes of the two tables [`ObjectStore::export_image`]
    /// serializes. Only writers change them, so a writer that sees them
    /// differ from the last image it committed knows that image is stale.
    pub fn image_shape(&self) -> (usize, usize) {
        (self.types.read().len(), self.collections.read().len())
    }

    /// The underlying storage manager.
    pub fn storage(&self) -> &StorageManager {
        &self.sm
    }

    fn pool(&self) -> &Arc<BufferPool> {
        self.sm.pool()
    }

    /// The write transaction's provisional timestamp. Every mutation is
    /// versioned with it — new versions begin at it, superseded ones are
    /// end-stamped with it — so a mutator called with no write
    /// transaction open is refused rather than left to write a record
    /// no snapshot rule covers.
    fn write_ts(&self) -> ModelResult<u64> {
        self.sm
            .txn()
            .current_write_ts()
            .ok_or_else(|| ModelError::Semantic("mutation outside a write transaction".into()))
    }

    /// The snapshot a mutating caller reads at: the writer's own
    /// timestamp inside a write transaction (it sees its own mutations;
    /// the writer gate is held for the whole statement, so the timestamp
    /// is unambiguously the caller's), [`TS_LATEST`] otherwise. Reader
    /// sessions pass their registered snapshot to the `_at` reads
    /// instead.
    pub fn current_snap(&self) -> u64 {
        self.sm.txn().current_write_ts().unwrap_or(TS_LATEST)
    }

    /// Insert a record version that begins at the writer's timestamp.
    fn insert_record(&self, file: FileId, rec: &[u8]) -> ModelResult<RecordId> {
        Ok(HeapFile::open(file).insert_at(self.pool(), rec, self.write_ts()?)?)
    }

    /// Retire the record version at `rid`: end-stamp it at the writer's
    /// timestamp, so snapshots opened before it still read it, and leave
    /// the bytes to vacuum once no live snapshot can.
    fn retire(&self, file: FileId, rid: RecordId) -> ModelResult<()> {
        HeapFile::open(file).delete_versioned(self.pool(), rid, self.write_ts()?)?;
        self.sm.txn().defer_reclaim(ReclaimOp::Record { rid });
        Ok(())
    }

    /// Intern a qualified type, returning its small id.
    pub fn intern(&self, qty: &QualType) -> u32 {
        let mut types = self.types.write();
        if let Some(i) = types.iter().position(|t| t == qty) {
            return i as u32;
        }
        types.push(qty.clone());
        (types.len() - 1) as u32
    }

    /// Recover a qualified type from its interned id.
    pub fn qtype(&self, id: u32) -> QualType {
        self.types.read()[id as usize].clone()
    }

    // -- record payloads ---------------------------------------------------

    fn encode_payload(&self, owner: Oid, value: &Value) -> ModelResult<Vec<u8>> {
        self.write_ts()?; // refuse before a large value spills into a LOB
        let body = valueio::to_bytes(value);
        let mut rec = Vec::with_capacity(9 + body.len().min(INLINE_LIMIT));
        rec.extend_from_slice(&owner.0.to_le_bytes());
        if body.len() <= INLINE_LIMIT {
            rec.push(TAG_INLINE);
            rec.extend_from_slice(&body);
        } else {
            rec.push(TAG_LOB);
            let lob = Lob::create(self.pool())?;
            lob.append(self.pool(), &body)?;
            rec.extend_from_slice(&lob.id().0.to_le_bytes());
        }
        Ok(rec)
    }

    /// The encoded value of an object record: inline after the owner
    /// and tag, or in the large object the record names.
    fn payload_body(&self, rec: &[u8]) -> ModelResult<Vec<u8>> {
        let truncated = || ModelError::Semantic("truncated object record".into());
        match *rec.get(8).ok_or_else(truncated)? {
            TAG_INLINE => Ok(rec[9..].to_vec()),
            TAG_LOB => {
                let id = rec.get(9..17).ok_or_else(truncated)?;
                let id = u64::from_le_bytes(id.try_into().expect("eight bytes"));
                Ok(Lob::open(LobId(id)).read_all(self.pool())?)
            }
            other => Err(ModelError::Semantic(format!("bad record tag {other}"))),
        }
    }

    // -- objects ------------------------------------------------------------

    /// Create an object with identity. Registers integrity edges for the
    /// refs inside `value` (per `qty`'s modes) and adopts `own ref`
    /// components.
    pub fn create_object(
        &self,
        reg: &TypeRegistry,
        qty: &QualType,
        value: Value,
    ) -> ModelResult<Oid> {
        let oid = self.allocate(qty, &value)?;
        for e in self.collect_edges(reg, qty, &value, Site::Value)? {
            self.add_edge(reg, oid, &e)?;
        }
        Ok(oid)
    }

    /// Store `value` as a new, unowned object of type `qty`.
    fn allocate(&self, qty: &QualType, value: &Value) -> ModelResult<Oid> {
        let rec = self.encode_payload(Oid::NULL, value)?;
        let rid = self.insert_record(self.file, &rec)?;
        Ok(self.table.allocate(self.pool(), rid, self.intern(qty))?)
    }

    /// Whether an OID names an object with a version visible at `snap`.
    /// The object's record answers: a large-object payload is not read.
    pub fn exists_at(&self, oid: Oid, snap: u64) -> ModelResult<bool> {
        let entry = self.table.get_many(self.pool(), &[oid])?.pop().flatten();
        Ok(entry.is_some_and(|e| self.chained_record(oid, e.rid, snap).is_some()))
    }

    /// Fetch `(declared type, owner, value)` of the version of an object
    /// visible at `snap`.
    pub fn get_at(&self, oid: Oid, snap: u64) -> ModelResult<(QualType, Oid, Value)> {
        let (type_id, owner, value) = self.visit_one(oid, snap)?.ok_or_else(|| not_visible(oid))?;
        Ok((self.qtype(type_id), owner, value))
    }

    /// Fetch just the value of the version of an object visible at `snap`.
    pub fn value_of_at(&self, oid: Oid, snap: u64) -> ModelResult<Value> {
        let (_, _, value) = self.visit_one(oid, snap)?.ok_or_else(|| not_visible(oid))?;
        Ok(value)
    }

    /// [`ObjectStore::get_at`], `None` for an unknown OID or one with no
    /// version visible at `snap`: an object a cascade may have deleted.
    fn live_at(&self, oid: Oid, snap: u64) -> ModelResult<Option<(QualType, Oid, Value)>> {
        match self.visit_one(oid, snap) {
            Ok(got) => Ok(got.map(|(type_id, owner, value)| (self.qtype(type_id), owner, value))),
            Err(ModelError::Storage(StorageError::UnknownOid(_))) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Interned type, owner and value of `oid`'s version visible at
    /// `snap`, `None` when no version is.
    fn visit_one(&self, oid: Oid, snap: u64) -> ModelResult<Option<(u32, Oid, Value)>> {
        let mut got = None;
        self.visit_at(&[oid], snap, |_, version| {
            if let Some((type_id, rec, body)) = version? {
                let owner = u64::from_le_bytes(rec[..8].try_into().expect("eight bytes"));
                got = Some((type_id, Oid(owner), valueio::from_bytes(body)?));
            }
            Ok(())
        })?;
        Ok(got)
    }

    /// `value` with its references chased: the value, visible at `snap`,
    /// of the object it names, and so on until it is no reference.
    pub fn deref(&self, mut value: Value, snap: u64) -> ModelResult<Value> {
        while let Value::Ref(oid) = value {
            value = self.value_of_at(oid, snap)?;
        }
        Ok(value)
    }

    /// The fields at `positions` of the values of many objects at once,
    /// the one dereference path of batched execution: each directory and
    /// heap page is pinned once per batch and the wanted fields are
    /// skip-decoded straight off the pinned page. Entry
    /// `i * positions.len() + j` is field `positions[j]` of `oids[i]`: null
    /// for a null value, the named object's for a reference. Beside them
    /// come the objects the read met an error on; their fields are unset.
    pub fn fields_of_many_at(
        &self,
        oids: &[Oid],
        positions: &[usize],
        snap: u64,
    ) -> ModelResult<(Vec<Value>, FailedReads)> {
        let width = positions.len();
        let mut out = vec![Value::Null; oids.len() * width];
        let failed = self.visit_chasing(oids, snap, &mut |i, body| {
            for (slot, &pos) in out[i * width..].iter_mut().zip(positions) {
                match valueio::tuple_field_from_bytes(body, pos)? {
                    Some(field) => *slot = field,
                    None => return Ok(false),
                }
            }
            Ok(true)
        })?;
        Ok((out, failed))
    }

    /// [`ObjectStore::fields_of_many_at`] for one field position, `None`
    /// for an object the read met an error on.
    pub fn fields_of_batch_at(
        &self,
        oids: &[Oid],
        pos: usize,
        snap: u64,
    ) -> ModelResult<Vec<Option<Value>>> {
        let (fields, failed) = self.fields_of_many_at(oids, &[pos], snap)?;
        let mut out: Vec<Option<Value>> = fields.into_iter().map(Some).collect();
        failed.into_iter().for_each(|(i, _)| out[i] = None);
        Ok(out)
    }

    /// [`ObjectStore::fields_of_many_at`] one level down: for each of
    /// `oids`, the fields `attrs` of every non-null member of the set or
    /// array in its field `pos`, member after member, with the number of
    /// members — decoded straight off the pinned page, building neither
    /// the set nor its member tuples
    /// ([`valueio::member_fields_from_bytes`]) — or the error reading that
    /// object met.
    pub fn member_fields_of_many_at(
        &self,
        oids: &[Oid],
        pos: usize,
        attrs: &[usize],
        snap: u64,
    ) -> ModelResult<Vec<ModelResult<MemberFields>>> {
        let mut out: Vec<ModelResult<MemberFields>> =
            (0..oids.len()).map(|_| Ok((0, Vec::new()))).collect();
        let failed = self.visit_chasing(oids, snap, &mut |i, body| {
            let mut fields = Vec::new();
            let members = valueio::member_fields_from_bytes(body, pos, attrs, &mut fields)?;
            if let Some(n) = members {
                out[i] = Ok((n, fields));
            }
            Ok(members.is_some())
        })?;
        failed.into_iter().for_each(|(i, e)| out[i] = Err(e));
        Ok(out)
    }

    /// `read(i, body)` of the value of each `oids[i]` visible at `snap`;
    /// answers the objects the read met an error on, by ascending `i`,
    /// with their errors. Where `read` finds no tuple of the shape it
    /// reads (answers `false`), a null value is left to the caller's
    /// default and a reference answers for the object it names.
    fn visit_chasing(
        &self,
        oids: &[Oid],
        snap: u64,
        read: &mut dyn FnMut(usize, &[u8]) -> ModelResult<bool>,
    ) -> ModelResult<FailedReads> {
        let (mut failed, mut chased) = (Vec::new(), Vec::new());
        self.visit_at(oids, snap, |i, version| {
            let body = match version.and_then(|v| v.ok_or_else(|| not_visible(oids[i]))) {
                Ok((_, _, body)) => body,
                Err(e) => {
                    failed.push((i, e));
                    return Ok(());
                }
            };
            if !read(i, body)? {
                match valueio::from_bytes(body)? {
                    Value::Null => {}
                    Value::Ref(next) => chased.push((i, next)),
                    _ => failed.push((
                        i,
                        ModelError::Semantic(format!(
                            "object {} does not hold a value of its type's shape",
                            oids[i]
                        )),
                    )),
                }
            }
            Ok(())
        })?;
        if !chased.is_empty() {
            let (at, next): (Vec<usize>, Vec<Oid>) = chased.into_iter().unzip();
            let more = self.visit_chasing(&next, snap, &mut |k, body| read(at[k], body))?;
            failed.extend(more.into_iter().map(|(k, e)| (at[k], e)));
        }
        failed.sort_unstable_by_key(|&(i, _)| i);
        Ok(failed)
    }

    /// The one reader of object versions: `read(i, version)` for each
    /// `oids[i]` with the version visible at `snap`, `None` when no
    /// version is, or the error reading it met. Head versions stored
    /// inline are read first, each directory and heap page pinned once;
    /// the rest — a head the snapshot cannot see (the version chain is
    /// walked), a large-object payload — after that pass, under no
    /// pinned page. The first error `read` returns stops the visit.
    fn visit_at(
        &self,
        oids: &[Oid],
        snap: u64,
        mut read: impl FnMut(usize, ModelResult<Option<Version<'_>>>) -> ModelResult<()>,
    ) -> ModelResult<()> {
        let mut entries = self.table.get_many(self.pool(), oids)?;
        for i in (0..oids.len()).filter(|&i| entries[i].is_none()) {
            read(i, Err(StorageError::UnknownOid(oids[i].0).into()))?;
        }
        let rids: Vec<RecordId> = entries.iter().flatten().map(|e| e.rid).collect();
        // Record `k` of the visit is `oids[k]` unless some OID is unknown.
        let mut idxs = Vec::new();
        if rids.len() < oids.len() {
            idxs.extend((0..oids.len()).filter(|&i| entries[i].is_some()));
        }
        let mut failed = None;
        heap::visit_records_versioned(self.pool(), &rids, |k, begin, end, rec| {
            let i = idxs.get(k).copied().unwrap_or(k);
            if failed.is_some() || !visible(begin, end, snap) || rec.get(8) != Some(&TAG_INLINE) {
                return;
            }
            let entry = entries[i].take().expect("a visited record has an entry");
            if let Err(e) = read(i, Ok(Some((entry.type_id, rec, &rec[9..])))) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        // What the pass left: the entries it did not take.
        for (i, entry) in entries.into_iter().enumerate() {
            let Some(entry) = entry else { continue };
            let Some(rec) = self.chained_record(oids[i], entry.rid, snap) else {
                read(i, Ok(None))?;
                continue;
            };
            match self.payload_body(&rec) {
                Ok(body) => read(i, Ok(Some((entry.type_id, &rec, &body))))?,
                Err(e) => read(i, Err(e))?,
            }
        }
        Ok(())
    }

    /// The record of `oid`'s version visible at `snap`, if any: the head
    /// at `head`, else the newest visible one of its version chain, whose
    /// records vacuum may already have freed (those are passed over).
    fn chained_record(&self, oid: Oid, head: RecordId, snap: u64) -> Option<Vec<u8>> {
        let older = self.sm.txn().chain_rids(oid).into_iter().rev();
        std::iter::once(head)
            .chain(older.filter(|&rid| rid != head))
            .filter_map(|rid| heap::read_record_versioned(self.pool(), rid).ok())
            .find(|&(begin, end, _)| visible(begin, end, snap))
            .map(|(_, _, rec)| rec)
    }

    /// Give `oid` a new version: insert it, retire the old one, repoint
    /// the object table. The chain entry is published *before* the
    /// relocate so a reader that resolves the new (invisible-to-it) head
    /// can still find the old version.
    fn rewrite_record(&self, oid: Oid, owner: Oid, value: &Value) -> ModelResult<()> {
        let entry = self.table.get(self.pool(), oid)?;
        let rec = self.encode_payload(owner, value)?;
        let txn = self.sm.txn();
        txn.note_chain(oid, entry.rid);
        let new_rid = self.insert_record(self.file, &rec)?;
        self.retire(self.file, entry.rid)?;
        self.table.relocate(self.pool(), oid, new_rid)?;
        txn.defer_reclaim(ReclaimOp::ChainEntry {
            oid,
            rid: entry.rid,
        });
        Ok(())
    }

    /// Replace an object's value, maintaining integrity edges: removed
    /// `own ref` components are deleted (they are exclusively owned),
    /// added ones are adopted, and `ref` back-references are re-indexed.
    pub fn set_value(&self, reg: &TypeRegistry, oid: Oid, value: Value) -> ModelResult<()> {
        let (qty, owner, old) = self.get_at(oid, self.write_ts()?)?;
        let edges_of = |v| self.collect_edges(reg, &qty, v, Site::Value);
        let old_edges: HashSet<Edge> = edges_of(&old)?.into_iter().collect();
        let new_edges: HashSet<Edge> = edges_of(&value)?.into_iter().collect();
        // Validate/adopt additions *before* the destructive removals.
        for e in new_edges.difference(&old_edges) {
            self.add_edge(reg, oid, e)?;
        }
        self.rewrite_record(oid, owner, &value)?;
        for e in old_edges.difference(&new_edges) {
            self.remove_edge(oid, e)?;
            if e.owned {
                // Exclusively owned and no longer held: the component dies.
                self.delete_object(reg, e.target)?;
            }
        }
        Ok(())
    }

    /// Delete an object: cascades to `own ref` components, nulls out
    /// dangling `ref`s, removes dangling ref-set members.
    pub fn delete_object(&self, reg: &TypeRegistry, oid: Oid) -> ModelResult<()> {
        let mut visited = HashSet::new();
        self.delete_rec(reg, oid, &mut visited)
    }

    fn delete_rec(
        &self,
        reg: &TypeRegistry,
        oid: Oid,
        visited: &mut HashSet<Oid>,
    ) -> ModelResult<()> {
        if !visited.insert(oid) {
            return Ok(());
        }
        let snap = self.write_ts()?;
        let Some((qty, owner, value)) = self.live_at(oid, snap)? else {
            return Ok(()); // already cascaded away
        };

        // 0. If this object is an own-ref component deleted directly,
        //    detach it from its owner's value first (unless the owner is
        //    being deleted too).
        if !owner.is_null() && !visited.contains(&owner) {
            self.children
                .delete(self.pool(), &child_key(owner, oid), oid.0)?;
            self.null_out_in(owner, oid, snap)?;
        }

        // 1. Cascade to owned components.
        for (_, kid) in self.scan_under(&self.children, &be(oid))? {
            self.delete_rec(reg, Oid(kid), visited)?;
        }

        // 2. Null out / remove dangling references to this object.
        for (key, _) in self.scan_under(&self.backrefs, &be(oid))? {
            self.backrefs.delete(self.pool(), &key, 0)?;
            let (kind, holder, extra) = backref_holder(&key);
            if visited.contains(&holder) {
                continue; // holder is being deleted anyway
            }
            match kind {
                BK_OBJECT => self.null_out_in(holder, oid, snap)?,
                // holder is a collection anchor; extra is the member rid.
                BK_MEMBER => {
                    self.retire(self.collection_info(holder)?.file, RecordId::unpack(extra))?
                }
                other => return Err(ModelError::Semantic(format!("bad backref kind {other}"))),
            }
        }

        // 3. Drop this object's outgoing edges.
        for e in self.collect_edges(reg, &qty, &value, Site::Value)? {
            self.remove_edge(oid, &e)?;
        }

        // 4. If it anchors a collection, unlink the members that are
        //    links (their file is abandoned with the anchor, so the
        //    records stay as they are).
        let info = self.collections.write().remove(&oid);
        let links = info.map(|i| (i.file, self.qtype(i.elem)));
        if let Some((file, elem)) = links.filter(|(_, elem)| elem.mode != Ownership::Own) {
            let members: Vec<(RecordId, Vec<u8>)> = HeapFile::open(file)
                .scan(self.pool().clone())
                .collect::<Result<_, _>>()?;
            for (rid, bytes) in members {
                self.unlink_member(reg, oid, &elem, rid, &valueio::from_bytes(&bytes)?, visited)?;
            }
        }

        // 5. Retire the record; vacuum frees it and the OID slot once no
        //    live snapshot can need them.
        let entry = self.table.get(self.pool(), oid)?;
        self.retire(self.file, entry.rid)?;
        self.sm.txn().defer_reclaim(ReclaimOp::ObjectSlot { oid });
        Ok(())
    }

    /// GEM null-out: give `holder`, if it is still live, a version
    /// without its references to `target`.
    fn null_out_in(&self, holder: Oid, target: Oid, snap: u64) -> ModelResult<()> {
        if let Some((_, owner, value)) = self.live_at(holder, snap)? {
            let cleaned = null_out(&value, target);
            if cleaned != value {
                self.rewrite_record(holder, owner, &cleaned)?;
            }
        }
        Ok(())
    }

    /// The entries of `tree` whose key starts with `prefix`.
    fn scan_under(&self, tree: &BTree, prefix: &[u8]) -> ModelResult<Vec<(Vec<u8>, u64)>> {
        let (lo, hi) = prefix_bounds(prefix);
        let entries = tree.scan(self.pool().clone(), lo, hi);
        Ok(entries.collect::<Result<_, _>>()?)
    }

    // -- integrity edges ----------------------------------------------------

    /// Extract the integrity edges a holder keeps at `site` from the
    /// value stored there, guided by the declared type.
    fn collect_edges(
        &self,
        reg: &TypeRegistry,
        qty: &QualType,
        value: &Value,
        site: Site,
    ) -> ModelResult<Vec<Edge>> {
        let mut edges = Vec::new();
        self.walk_edges(reg, qty, value, site, &mut edges)?;
        Ok(edges)
    }

    fn walk_edges(
        &self,
        reg: &TypeRegistry,
        qty: &QualType,
        value: &Value,
        site: Site,
        out: &mut Vec<Edge>,
    ) -> ModelResult<()> {
        match qty.mode {
            Ownership::Ref | Ownership::OwnRef => {
                let Type::Schema(declared) = qty.ty else {
                    return Err(ModelError::RefToValueType(reg.display_type(&qty.ty)));
                };
                match value {
                    Value::Null => Ok(()),
                    Value::Ref(oid) => {
                        out.push(Edge {
                            target: *oid,
                            declared,
                            owned: qty.mode == Ownership::OwnRef,
                            site,
                        });
                        Ok(())
                    }
                    other => Err(ModelError::TypeMismatch {
                        expected: reg.display_qual(qty),
                        got: other.kind().into(),
                    }),
                }
            }
            Ownership::Own => match (&qty.ty, value) {
                (Type::Schema(tid), Value::Tuple(fields)) => {
                    let st = reg.get(*tid);
                    for (f, a) in fields.iter().zip(st.attributes()) {
                        self.walk_edges(reg, &a.qty, f, site, out)?;
                    }
                    Ok(())
                }
                (Type::Tuple(attrs), Value::Tuple(fields)) => {
                    for (f, a) in fields.iter().zip(attrs.iter()) {
                        self.walk_edges(reg, &a.qty, f, site, out)?;
                    }
                    Ok(())
                }
                (Type::Set(elem), Value::Set(ms)) => {
                    for m in ms {
                        self.walk_edges(reg, elem, m, site, out)?;
                    }
                    Ok(())
                }
                (Type::Array(_, elem), Value::Array(items)) => {
                    for i in items {
                        self.walk_edges(reg, elem, i, site, out)?;
                    }
                    Ok(())
                }
                _ => Ok(()),
            },
        }
    }

    /// Register `edge` at `holder`: the target must be a live instance
    /// of (a subtype of) the declared type, an owned target becomes
    /// `holder`'s exclusive component, and the back-reference index
    /// learns of the link.
    fn add_edge(&self, reg: &TypeRegistry, holder: Oid, edge: &Edge) -> ModelResult<()> {
        let admitted = self.check_edge(reg, holder, edge)?;
        self.link(holder, edge, admitted)
    }

    /// The validating half of [`ObjectStore::add_edge`], which writes
    /// nothing: returns the target's current owner and value, or the
    /// reason `holder` may not link to it.
    fn check_edge(
        &self,
        reg: &TypeRegistry,
        holder: Oid,
        edge: &Edge,
    ) -> ModelResult<(Oid, Value)> {
        let target = edge.target;
        let (qty, owner, value) = self.get_at(target, self.write_ts()?).map_err(|_| {
            ModelError::Integrity(format!(
                "reference target {target} does not exist (referenced objects \
                 must exist elsewhere in the database)"
            ))
        })?;
        if !matches!(qty.ty, Type::Schema(t) if reg.is_subtype(t, edge.declared)) {
            return Err(ModelError::TypeMismatch {
                expected: reg.get(edge.declared).name.clone(),
                got: reg.display_type(&qty.ty),
            });
        }
        if edge.owned && owner != holder && !owner.is_null() {
            return Err(ModelError::Integrity(format!(
                "object {target} is already an own-ref component of {owner}; \
                 own-ref objects cannot be shared"
            )));
        }
        Ok((owner, value))
    }

    /// The writing half of [`ObjectStore::add_edge`], given what
    /// [`ObjectStore::check_edge`] admitted.
    fn link(&self, holder: Oid, edge: &Edge, (owner, value): (Oid, Value)) -> ModelResult<()> {
        if edge.owned && owner != holder {
            self.rewrite_record(edge.target, holder, &value)?;
            let key = child_key(holder, edge.target);
            self.children
                .insert(self.pool(), &key, edge.target.0, false)?;
        }
        if let Some(key) = edge.backref_key(holder) {
            self.backrefs.insert(self.pool(), &key, 0, false)?;
        }
        Ok(())
    }

    /// The inverse of [`ObjectStore::add_edge`]'s index entries. An owned
    /// target is left to the caller, which deletes it.
    fn remove_edge(&self, holder: Oid, edge: &Edge) -> ModelResult<()> {
        if let Some(key) = edge.backref_key(holder) {
            self.backrefs.delete(self.pool(), &key, 0)?;
        }
        if edge.owned {
            let key = child_key(holder, edge.target);
            self.children.delete(self.pool(), &key, edge.target.0)?;
        }
        Ok(())
    }

    // -- collections ----------------------------------------------------------

    /// Create a named collection (a top-level set object): returns its
    /// anchor OID.
    pub fn create_collection(&self, elem: &QualType) -> ModelResult<Oid> {
        self.write_ts()?; // refuse before the member file is created
        let file = self.sm.create_file()?;
        let coll_ty = QualType::own(Type::Set(Box::new(elem.clone())));
        let anchor = self.allocate(&coll_ty, &Value::Null)?;
        self.collections.write().insert(
            anchor,
            CollectionInfo {
                file,
                elem: self.intern(elem),
            },
        );
        Ok(anchor)
    }

    /// Whether an OID anchors a collection.
    pub fn is_collection(&self, oid: Oid) -> bool {
        self.collections.read().contains_key(&oid)
    }

    /// The element type of a collection.
    pub fn collection_elem(&self, anchor: Oid) -> ModelResult<QualType> {
        let info = self.collection_info(anchor)?;
        Ok(self.qtype(info.elem))
    }

    fn collection_info(&self, anchor: Oid) -> ModelResult<CollectionInfo> {
        self.collections
            .read()
            .get(&anchor)
            .copied()
            .ok_or_else(|| ModelError::Semantic(format!("{anchor} is not a collection")))
    }

    /// Append a member. For `own`-mode elements the value is stored
    /// inline; for `ref` / `own ref` it must be a `Value::Ref` (ref-sets
    /// dedupe by OID; `own ref` members are adopted).
    pub fn append_member(
        &self,
        reg: &TypeRegistry,
        anchor: Oid,
        value: Value,
    ) -> ModelResult<RecordId> {
        let info = self.collection_info(anchor)?;
        let elem = self.qtype(info.elem);
        let bytes = valueio::to_bytes(&value);
        if elem.mode == Ownership::Own {
            return self.insert_record(info.file, &bytes);
        }
        let Value::Ref(target) = value else {
            return Err(ModelError::TypeMismatch {
                expected: "a reference".into(),
                got: value.kind().into(),
            });
        };
        // Sets have no duplicates: an existing membership backref for
        // this (target, anchor) means the member is present.
        let held = [&be(target)[..], &[BK_MEMBER], &be(anchor)].concat();
        if !self.scan_under(&self.backrefs, &held)?.is_empty() {
            return Err(ModelError::Integrity(format!(
                "{target} is already a member of this set"
            )));
        }
        // The edge names the member record, so it is sited once the
        // record is in — and the record goes in only once the target is
        // admitted, so a refused append writes nothing.
        let mut edges = self.collect_edges(reg, &elem, &value, Site::Value)?;
        let mut edge = edges.pop().expect("a reference at a link mode is one edge");
        let admitted = self.check_edge(reg, anchor, &edge)?;
        let rid = self.insert_record(info.file, &bytes)?;
        edge.site = Site::Member(rid);
        self.link(anchor, &edge, admitted)?;
        Ok(rid)
    }

    /// Batched member scan over the member versions visible at `snap`:
    /// decodes records a batch at a time on top of the heap file's
    /// page-at-a-time [`HeapScan::next_batch`](exodus_storage::heap::HeapScan::next_batch).
    pub fn scan_members_batch_at(&self, anchor: Oid, snap: u64) -> ModelResult<MemberScan> {
        let info = self.collection_info(anchor)?;
        Ok(MemberScan::new(
            HeapFile::open(info.file)
                .scan(self.pool().clone())
                .with_snapshot(snap),
        ))
    }

    /// Split a collection's member scan into at most `k` partitioned
    /// scans over contiguous heap-page runs — the morsel sources for
    /// parallel query execution — each visiting only the member versions
    /// visible at `snap`. Concatenating the partitions in order
    /// reproduces [`ObjectStore::scan_members_batch_at`]'s member order;
    /// an empty collection yields no partitions.
    pub fn scan_members_partitions_at(
        &self,
        anchor: Oid,
        k: usize,
        snap: u64,
    ) -> ModelResult<Vec<MemberScan>> {
        let info = self.collection_info(anchor)?;
        Ok(HeapFile::open(info.file)
            .partitions(self.pool(), k)?
            .into_iter()
            .map(|s| MemberScan::new(s.with_snapshot(snap)))
            .collect())
    }

    /// Number of members.
    pub fn member_count(&self, anchor: Oid) -> ModelResult<u64> {
        let info = self.collection_info(anchor)?;
        Ok(HeapFile::open(info.file).record_count(self.pool())?)
    }

    /// Remove a member by record id. `own ref` members are deleted
    /// (exclusive ownership); `ref` members are merely dropped from the
    /// set; `own` members vanish with their record.
    pub fn remove_member(&self, reg: &TypeRegistry, anchor: Oid, rid: RecordId) -> ModelResult<()> {
        let info = self.collection_info(anchor)?;
        let member = valueio::from_bytes(&self.sm.read(rid)?)?;
        self.retire(info.file, rid)?;
        let elem = self.qtype(info.elem);
        if elem.mode != Ownership::Own {
            self.unlink_member(reg, anchor, &elem, rid, &member, &mut HashSet::new())?;
        }
        Ok(())
    }

    /// Take the `ref` / `own ref` member stored at `rid` out of `anchor`'s
    /// integrity graph: drop its edge and, when the collection owns it,
    /// delete it.
    fn unlink_member(
        &self,
        reg: &TypeRegistry,
        anchor: Oid,
        elem: &QualType,
        rid: RecordId,
        member: &Value,
        visited: &mut HashSet<Oid>,
    ) -> ModelResult<()> {
        for e in self.collect_edges(reg, elem, member, Site::Member(rid))? {
            self.remove_edge(anchor, &e)?;
            if e.owned {
                self.delete_rec(reg, e.target, visited)?;
            }
        }
        Ok(())
    }

    /// Replace an `own`-mode member: members are scan-addressed (no
    /// OID), so instead of chaining, the new version goes in beside the
    /// old one and a snapshot scan picks exactly one of them. Returns
    /// the new version's record id.
    pub fn update_member(
        &self,
        anchor: Oid,
        rid: RecordId,
        value: &Value,
    ) -> ModelResult<RecordId> {
        let info = self.collection_info(anchor)?;
        let elem = self.qtype(info.elem);
        if elem.mode != Ownership::Own {
            return Err(ModelError::Semantic(
                "update_member applies to own-mode members; update the object instead".into(),
            ));
        }
        let new_rid = self.insert_record(info.file, &valueio::to_bytes(value))?;
        self.retire(info.file, rid)?;
        Ok(new_rid)
    }

    /// Collections an object is currently a member of:
    /// `(anchor, member record id)` pairs.
    pub fn memberships(&self, oid: Oid) -> ModelResult<Vec<(Oid, RecordId)>> {
        let mut prefix = be(oid).to_vec();
        prefix.push(BK_MEMBER);
        let held = self.scan_under(&self.backrefs, &prefix)?;
        let member = |(key, _): &(Vec<u8>, u64)| {
            let (_, anchor, rid) = backref_holder(key);
            (anchor, RecordId::unpack(rid))
        };
        Ok(held.iter().map(member).collect())
    }

    // -- vacuum --------------------------------------------------------------

    /// Physically reclaim superseded record versions, freed OID slots and
    /// stale chain entries whose commit timestamps are at or below the
    /// reclaim watermark (no live snapshot can still need them). Runs
    /// inside an opportunistic write transaction: if a writer is active
    /// this is a no-op. Returns the number of reclaim ops applied.
    ///
    /// LOB pages referenced by reclaimed versions are intentionally left
    /// behind (a leak bounded by update traffic on LOB-sized values);
    /// reclaiming them would require a LOB refcount the format lacks.
    pub fn vacuum(&self) -> ModelResult<usize> {
        if self.sm.txn().pending_reclaims() == 0 {
            return Ok(0);
        }
        let Some(txn) = self.sm.try_begin_txn()? else {
            return Ok(0);
        };
        let ripe = self.sm.txn().take_ripe();
        if ripe.is_empty() {
            txn.abort()?;
            return Ok(0);
        }
        let applied = ripe.len();
        for r in &ripe {
            match r.op {
                // The record counter was already decremented when the
                // version was end-stamped, so the count-free delete is
                // the right one here.
                ReclaimOp::Record { rid } => {
                    let _ = heap::delete_record(self.pool(), rid);
                }
                ReclaimOp::ObjectSlot { oid } => {
                    let _ = self.table.free(self.pool(), oid);
                }
                ReclaimOp::ChainEntry { oid, rid } => {
                    self.sm.txn().remove_chain(oid, rid);
                }
            }
        }
        txn.commit()?;
        Ok(applied)
    }

    // -- equality -------------------------------------------------------------

    /// Recursive value equality in the sense of \[Banc86\]: references are
    /// chased — reading the versions visible at `snap` — and compared
    /// by content. (`is` — identity — is plain `==` on `Value::Ref`.)
    pub fn deep_eq(&self, a: &Value, b: &Value, snap: u64) -> ModelResult<bool> {
        let mut seen = HashSet::new();
        self.deep_eq_rec(a, b, snap, &mut seen)
    }

    fn deep_eq_rec(
        &self,
        a: &Value,
        b: &Value,
        snap: u64,
        seen: &mut HashSet<(Oid, Oid)>,
    ) -> ModelResult<bool> {
        match (a, b) {
            (Value::Ref(x), Value::Ref(y)) => {
                if x == y || !seen.insert((*x, *y)) {
                    return Ok(true);
                }
                let va = self.value_of_at(*x, snap)?;
                let vb = self.value_of_at(*y, snap)?;
                self.deep_eq_rec(&va, &vb, snap, seen)
            }
            (Value::Ref(x), other) | (other, Value::Ref(x)) => {
                let v = self.value_of_at(*x, snap)?;
                self.deep_eq_rec(&v, other, snap, seen)
            }
            (Value::Tuple(xs), Value::Tuple(ys)) | (Value::Array(xs), Value::Array(ys)) => {
                if xs.len() != ys.len() {
                    return Ok(false);
                }
                for (x, y) in xs.iter().zip(ys) {
                    if !self.deep_eq_rec(x, y, snap, seen)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            (Value::Set(xs), Value::Set(ys)) => {
                if xs.len() != ys.len() {
                    return Ok(false);
                }
                // Order-insensitive matching.
                let mut used = vec![false; ys.len()];
                'outer: for x in xs {
                    for (i, y) in ys.iter().enumerate() {
                        if !used[i] && self.deep_eq_rec(x, y, snap, seen)? {
                            used[i] = true;
                            continue 'outer;
                        }
                    }
                    return Ok(false);
                }
                Ok(true)
            }
            _ => Ok(a == b),
        }
    }
}

/// A batched collection-member scan (see
/// [`ObjectStore::scan_members_batch_at`]).
pub struct MemberScan {
    scan: exodus_storage::heap::HeapScan,
    /// Reused record arena: one allocation per batch refill instead of
    /// one `Vec<u8>` per record.
    scratch: exodus_storage::heap::RecordBatch,
}

impl MemberScan {
    fn new(scan: exodus_storage::heap::HeapScan) -> MemberScan {
        MemberScan {
            scan,
            scratch: exodus_storage::heap::RecordBatch::new(),
        }
    }

    /// Decode up to `n` more `(rid, value)` members. Returns an empty
    /// vector when the collection is exhausted.
    pub fn next_batch(&mut self, n: usize) -> ModelResult<Vec<(RecordId, Value)>> {
        self.scan.next_batch_into(n, &mut self.scratch)?;
        let mut members = Vec::with_capacity(self.scratch.len());
        for (rid, bytes) in self.scratch.iter() {
            members.push((rid, valueio::from_bytes(bytes)?));
        }
        Ok(members)
    }
}

/// Replace every `Ref(target)` in `v` with `Null` (GEM null-out).
fn null_out(v: &Value, target: Oid) -> Value {
    match v {
        Value::Ref(o) if *o == target => Value::Null,
        Value::Tuple(fs) => Value::Tuple(fs.iter().map(|f| null_out(f, target)).collect()),
        Value::Set(ms) => Value::Set(
            ms.iter()
                .filter(|m| !matches!(m, Value::Ref(o) if *o == target))
                .map(|m| null_out(m, target))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(|i| null_out(i, target)).collect()),
        other => other.clone(),
    }
}
