//! The database catalog: named objects, functions, procedures, indexes,
//! statistics and the authorization tables — and the catalog image, its
//! one persistent form (DESIGN.md §14).

use std::collections::{HashMap, HashSet};

use excess_lang::{parse_program, OperatorTable, Privilege, Stmt};
use excess_sema::{
    AttrStats, CatalogLookup, CollectionStats, FunctionDef, IndexInfo, NamedObject, ProcedureDef,
    SystemViewDef,
};
use exodus_storage::crc::crc32;
use exodus_storage::encoding::{ByteReader, ByteWriter};
use exodus_storage::lob::{Lob, LobId};
use exodus_storage::page::PAGE_SIZE;
use exodus_storage::{Oid, StorageError, StorageManager};
use extra_model::typeio::{read_qty, write_qty};
use extra_model::{
    AdtId, AdtRegistry, ObjectStore, QualType, StoreRoots, TypeId, TypeRegistry, Value,
};

use crate::database::{sync_operators, Database};
use crate::error::{DbError, DbResult};

/// The built-in group every user belongs to (paper: "a special
/// 'all-users' group").
pub const ALL_USERS: &str = "all_users";
/// The administrative user that owns the database.
pub const ADMIN: &str = "admin";

/// System R / IDM-style authorization state.
#[derive(Debug, Default)]
pub struct Auth {
    users: HashSet<String>,
    /// group → members.
    groups: HashMap<String, HashSet<String>>,
    /// (object, grantee) → privileges.
    grants: HashMap<(String, String), HashSet<Privilege>>,
}

impl Auth {
    /// Create a user.
    pub fn create_user(&mut self, name: &str) -> bool {
        self.users.insert(name.to_string())
    }

    /// Create a group.
    pub fn create_group(&mut self, name: &str) -> bool {
        match self.groups.entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(HashSet::new());
                true
            }
        }
    }

    /// Whether a user exists.
    pub fn user_exists(&self, name: &str) -> bool {
        name == ADMIN || self.users.contains(name)
    }

    /// Whether a grantee (user or group) exists.
    pub fn grantee_exists(&self, name: &str) -> bool {
        name == ALL_USERS || self.user_exists(name) || self.groups.contains_key(name)
    }

    /// Add a user to a group.
    pub fn add_to_group(&mut self, user: &str, group: &str) -> bool {
        match self.groups.get_mut(group) {
            Some(members) => {
                members.insert(user.to_string());
                true
            }
            None => false,
        }
    }

    /// Grant privileges on an object to a grantee.
    pub fn grant(&mut self, object: &str, grantee: &str, privileges: &[Privilege]) {
        let entry = self
            .grants
            .entry((object.to_string(), grantee.to_string()))
            .or_default();
        for p in privileges {
            entry.insert(*p);
        }
    }

    /// Revoke privileges.
    pub fn revoke(&mut self, object: &str, grantee: &str, privileges: &[Privilege]) {
        if let Some(entry) = self
            .grants
            .get_mut(&(object.to_string(), grantee.to_string()))
        {
            for p in privileges {
                if *p == Privilege::All {
                    entry.clear();
                } else {
                    entry.remove(p);
                }
            }
        }
    }

    fn grantee_has(&self, object: &str, grantee: &str, privilege: Privilege) -> bool {
        self.grants
            .get(&(object.to_string(), grantee.to_string()))
            .map(|ps| ps.contains(&privilege) || ps.contains(&Privilege::All))
            .unwrap_or(false)
    }

    /// Append the authorization state to a catalog image, sorted for
    /// determinism.
    fn encode(&self, w: &mut ByteWriter) {
        let mut users: Vec<&String> = self.users.iter().collect();
        users.sort();
        w.put_varint(users.len() as u64);
        for u in users {
            w.put_str(u);
        }
        let mut groups: Vec<(&String, &HashSet<String>)> = self.groups.iter().collect();
        groups.sort_by_key(|(g, _)| g.as_str());
        w.put_varint(groups.len() as u64);
        for (g, members) in groups {
            w.put_str(g);
            let mut ms: Vec<&String> = members.iter().collect();
            ms.sort();
            w.put_varint(ms.len() as u64);
            for m in ms {
                w.put_str(m);
            }
        }
        let mut grants: Vec<(&(String, String), &HashSet<Privilege>)> =
            self.grants.iter().collect();
        grants.sort_by_key(|((o, g), _)| (o.as_str(), g.as_str()));
        w.put_varint(grants.len() as u64);
        for ((object, grantee), privs) in grants {
            w.put_str(object);
            w.put_str(grantee);
            let mut ps: Vec<u8> = privs.iter().map(|p| privilege_tag(*p)).collect();
            ps.sort_unstable();
            w.put_bytes(&ps);
        }
    }

    /// Rebuild authorization state from [`Auth::encode`] output.
    fn decode(r: &mut ByteReader<'_>) -> DbResult<Auth> {
        let mut a = Auth::default();
        for _ in 0..r.get_count()? {
            a.users.insert(r.get_str()?.to_string());
        }
        for _ in 0..r.get_count()? {
            let g = r.get_str()?.to_string();
            let members = (0..r.get_count()?)
                .map(|_| Ok(r.get_str()?.to_string()))
                .collect::<DbResult<_>>()?;
            a.groups.insert(g, members);
        }
        for _ in 0..r.get_count()? {
            let object = r.get_str()?.to_string();
            let grantee = r.get_str()?.to_string();
            let privs = r
                .get_bytes()?
                .iter()
                .map(|&t| privilege_from_tag(t))
                .collect::<DbResult<_>>()?;
            a.grants.insert((object, grantee), privs);
        }
        Ok(a)
    }

    /// Whether `user` holds `privilege` on `object` (directly, through a
    /// group, or through `all_users`). The admin holds everything.
    pub fn allowed(&self, user: &str, object: &str, privilege: Privilege) -> bool {
        if user == ADMIN {
            return true;
        }
        if self.grantee_has(object, user, privilege) {
            return true;
        }
        if self.grantee_has(object, ALL_USERS, privilege) {
            return true;
        }
        self.groups
            .iter()
            .any(|(g, members)| members.contains(user) && self.grantee_has(object, g, privilege))
    }
}

fn privilege_tag(p: Privilege) -> u8 {
    match p {
        Privilege::Read => 0,
        Privilege::Append => 1,
        Privilege::Delete => 2,
        Privilege::Replace => 3,
        Privilege::Execute => 4,
        Privilege::All => 5,
    }
}

fn privilege_from_tag(t: u8) -> DbResult<Privilege> {
    Ok(match t {
        0 => Privilege::Read,
        1 => Privilege::Append,
        2 => Privilege::Delete,
        3 => Privilege::Replace,
        4 => Privilege::Execute,
        5 => Privilege::All,
        _ => return Err(corrupt(format!("unknown privilege tag {t}"))),
    })
}

/// The catalog: everything the analyzer and executor resolve names
/// against, plus the authorization tables.
pub struct Catalog {
    /// Schema types.
    pub types: TypeRegistry,
    /// ADTs.
    pub adts: AdtRegistry,
    /// Named persistent objects.
    pub named: HashMap<String, NamedObject>,
    /// EXCESS function definitions (name overloads allowed across
    /// receiver types).
    pub functions: Vec<FunctionDef>,
    /// EXCESS procedures.
    pub procedures: HashMap<String, ProcedureDef>,
    /// Secondary indexes.
    pub indexes: Vec<IndexInfo>,
    /// Optimizer statistics recorded by `analyze <collection>`, keyed by
    /// collection name (DESIGN.md §14).
    pub stats: HashMap<String, CollectionStats>,
    /// Authorization state.
    pub auth: Auth,
    /// Bumped, under the catalog write lock, by every statement that
    /// may change the catalog: a session's cached plans are valid only
    /// at the stamp they were made at.
    pub(crate) stamp: u64,
}

impl Catalog {
    /// A catalog pre-loaded with the built-in ADTs.
    pub fn new() -> Catalog {
        Catalog {
            types: TypeRegistry::new(),
            adts: AdtRegistry::with_builtins(),
            named: HashMap::new(),
            functions: Vec::new(),
            procedures: HashMap::new(),
            indexes: Vec::new(),
            stats: HashMap::new(),
            auth: Auth::default(),
            stamp: 0,
        }
    }

    /// Serialize the whole catalog as image number `generation`,
    /// together with the object store's roots and tables and the ADT
    /// table its types are numbered against. Deterministic (maps are
    /// emitted sorted); function and procedure bodies are kept as EXCESS
    /// source and re-parsed on read. A CRC of everything before it
    /// closes the image, so a torn or corrupted one is refused.
    pub(crate) fn to_image(&self, store: &ObjectStore, generation: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(IMAGE_VERSION);
        w.put_u64(generation);
        let roots = store.roots();
        for root in [
            roots.table_root,
            roots.backrefs_root,
            roots.children_root,
            roots.file,
        ] {
            w.put_u64(root);
        }
        w.put_bytes(&store.export_image());
        // Types and stored values name ADTs by id: record what each id
        // means so a reader can refuse a registry that disagrees.
        let adts: Vec<&str> = (0..)
            .map_while(|id| self.adts.get(AdtId(id)).ok())
            .map(|adt| adt.name())
            .collect();
        w.put_varint(adts.len() as u64);
        for name in adts {
            w.put_str(name);
        }
        self.types.encode(&mut w);

        let mut named: Vec<&NamedObject> = self.named.values().collect();
        named.sort_by(|a, b| a.name.cmp(&b.name));
        w.put_varint(named.len() as u64);
        for o in named {
            w.put_str(&o.name);
            w.put_u64(o.oid.0);
            write_qty(&o.qty, &mut w);
            w.put_u8(o.is_collection as u8);
        }
        w.put_varint(self.functions.len() as u64);
        for f in &self.functions {
            w.put_str(&f.name);
            write_params(&f.params, &mut w);
            write_qty(&f.returns, &mut w);
            w.put_str(&f.body.to_string());
            match f.attached_to {
                Some(t) => {
                    w.put_u8(1);
                    w.put_u32(t.0);
                }
                None => w.put_u8(0),
            }
        }
        let mut procs: Vec<&ProcedureDef> = self.procedures.values().collect();
        procs.sort_by(|a, b| a.name.cmp(&b.name));
        w.put_varint(procs.len() as u64);
        for p in procs {
            w.put_str(&p.name);
            write_params(&p.params, &mut w);
            w.put_varint(p.body.len() as u64);
            for s in &p.body {
                w.put_str(&s.to_string());
            }
        }
        w.put_varint(self.indexes.len() as u64);
        for i in &self.indexes {
            w.put_str(&i.name);
            w.put_str(&i.collection);
            w.put_str(&i.attr);
            w.put_u64(i.root);
            w.put_u8(i.unique as u8);
        }
        let mut stats: Vec<(&String, &CollectionStats)> = self.stats.iter().collect();
        stats.sort_by_key(|(name, _)| name.as_str());
        w.put_varint(stats.len() as u64);
        for (name, s) in stats {
            w.put_str(name);
            w.put_u64(s.row_count);
            w.put_varint(s.attrs.len() as u64);
            for a in &s.attrs {
                w.put_str(&a.attr);
                w.put_u64(a.distinct);
                w.put_f64(a.null_frac);
                w.put_varint(a.bounds.len() as u64);
                for b in &a.bounds {
                    w.put_f64(*b);
                }
            }
        }
        self.auth.encode(&mut w);
        let mut image = w.into_bytes();
        let crc = crc32(&image);
        image.extend_from_slice(&crc.to_le_bytes());
        image
    }
}

/// Serialization version of the catalog image. An image of another
/// version is refused at open, never guessed at. The image is also the
/// one stamp a volume carries, so a change to the layout of any page the
/// database keeps bumps it too (v4: B+-tree nodes are slotted pages),
/// and a volume another build wrote is refused even without a log.
const IMAGE_VERSION: u32 = 4;

/// First page of the catalog image's large object: genesis allocates it
/// before anything else, so every volume keeps its catalog here.
pub(crate) const CATALOG_PAGE: u64 = 1;

/// A catalog image read back from its pages: its generation, the object
/// store's roots and tables (for [`ObjectStore::attach`] and
/// [`ObjectStore::import_image`]), and the rebuilt [`Catalog`] (built-in
/// ADTs only — an image whose ADT table says otherwise is refused with
/// [`DbError::AdtMismatch`]).
pub(crate) struct CatalogImage {
    pub(crate) generation: u64,
    pub(crate) roots: StoreRoots,
    pub(crate) store_image: Vec<u8>,
    pub(crate) catalog: Catalog,
}

impl CatalogImage {
    /// Read and decode the image on `sm`'s pages.
    pub(crate) fn read(sm: &StorageManager) -> DbResult<CatalogImage> {
        let pool = sm.pool();
        let lob = Lob::open(LobId(CATALOG_PAGE));
        let len = lob.len(pool)?;
        // The length comes off a page too: refuse one the volume cannot
        // hold before allocating for it.
        if len > pool.volume_pages() * PAGE_SIZE as u64 {
            return Err(corrupt(format!(
                "claims {len} bytes, more than the volume holds"
            )));
        }
        Self::decode(&lob.read(pool, 0, len as usize)?)
    }

    /// Whether no catalog image ever committed on `sm`'s volume: every
    /// page past the metadata page is blank. A genesis that died before
    /// its unit committed leaves only blank pages behind (no uncommitted
    /// page reaches a logged volume), while any committed state — and so
    /// any image since damaged — leaves some page written.
    pub(crate) fn never_written(sm: &StorageManager) -> DbResult<bool> {
        let pool = sm.pool();
        for page_no in CATALOG_PAGE..pool.volume_pages() {
            if pool
                .pin(page_no)?
                .with_read(|buf| buf.iter().any(|&b| b != 0))
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The generation of the image on `sm`'s pages, read from its
    /// header alone.
    pub(crate) fn generation(sm: &StorageManager) -> DbResult<u64> {
        let head = Lob::open(LobId(CATALOG_PAGE)).read(sm.pool(), 4, 8)?;
        Ok(ByteReader::new(&head).get_u64()?)
    }

    fn decode(buf: &[u8]) -> DbResult<CatalogImage> {
        let version = ByteReader::new(buf).get_u32()?;
        if version != IMAGE_VERSION {
            return Err(corrupt(format!(
                "version {version}, but this build reads version {IMAGE_VERSION}"
            )));
        }
        let (body, crc) = buf.split_at(buf.len() - 4);
        if crc32(body).to_le_bytes() != crc {
            return Err(corrupt("checksum mismatch (torn or corrupted)".into()));
        }
        let mut r = ByteReader::new(body);
        r.get_u32()?;
        let generation = r.get_u64()?;
        let roots = StoreRoots {
            table_root: r.get_u64()?,
            backrefs_root: r.get_u64()?,
            children_root: r.get_u64()?,
            file: r.get_u64()?,
        };
        let store_image = r.get_bytes()?.to_vec();

        let mut cat = Catalog::new();
        for id in 0..r.get_count()? as u32 {
            let name = r.get_str()?;
            let here = cat.adts.lookup(name).ok();
            if here != Some(AdtId(id)) {
                let here = here.map_or("missing".into(), |h| h.to_string());
                return Err(DbError::AdtMismatch(format!(
                    "ADT '{name}' is {} in the catalog image but {here} in this node's \
                     registry; a catalog is loaded against the built-in ADTs only",
                    AdtId(id)
                )));
            }
        }
        cat.types = TypeRegistry::decode(&mut r)?;

        for _ in 0..r.get_count()? {
            let name = r.get_str()?.to_string();
            let oid = Oid(r.get_u64()?);
            let qty = read_qty(&mut r)?;
            let is_collection = r.get_u8()? != 0;
            cat.named.insert(
                name.clone(),
                NamedObject {
                    name,
                    oid,
                    qty,
                    is_collection,
                },
            );
        }

        // Bodies re-parse against the built-in ADTs' operator table.
        let mut ops = OperatorTable::new();
        sync_operators(&mut ops, &cat.adts);
        let parse_one = |src: &str| -> DbResult<Stmt> {
            parse_program(src, &ops)?
                .into_iter()
                .next()
                .ok_or_else(|| corrupt("empty statement body".into()))
        };
        for _ in 0..r.get_count()? {
            let name = r.get_str()?.to_string();
            let params = read_params(&mut r)?;
            let returns = read_qty(&mut r)?;
            let body = parse_one(r.get_str()?)?;
            let attached_to = match r.get_u8()? {
                0 => None,
                _ => Some(TypeId(r.get_u32()?)),
            };
            cat.functions.push(FunctionDef {
                name,
                params,
                returns,
                body,
                attached_to,
            });
        }
        for _ in 0..r.get_count()? {
            let name = r.get_str()?.to_string();
            let params = read_params(&mut r)?;
            let body = (0..r.get_count()?)
                .map(|_| parse_one(r.get_str()?))
                .collect::<DbResult<_>>()?;
            cat.procedures
                .insert(name.clone(), ProcedureDef { name, params, body });
        }
        for _ in 0..r.get_count()? {
            cat.indexes.push(IndexInfo {
                name: r.get_str()?.to_string(),
                collection: r.get_str()?.to_string(),
                attr: r.get_str()?.to_string(),
                root: r.get_u64()?,
                unique: r.get_u8()? != 0,
            });
        }
        for _ in 0..r.get_count()? {
            let name = r.get_str()?.to_string();
            let row_count = r.get_u64()?;
            let mut attrs = Vec::new();
            for _ in 0..r.get_count()? {
                attrs.push(AttrStats {
                    attr: r.get_str()?.to_string(),
                    distinct: r.get_u64()?,
                    null_frac: r.get_f64()?,
                    bounds: (0..r.get_count()?)
                        .map(|_| r.get_f64())
                        .collect::<Result<_, _>>()?,
                });
            }
            cat.stats.insert(name, CollectionStats { row_count, attrs });
        }
        cat.auth = Auth::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        Ok(CatalogImage {
            generation,
            roots,
            store_image,
            catalog: cat,
        })
    }
}

fn write_params(params: &[(String, QualType)], w: &mut ByteWriter) {
    w.put_varint(params.len() as u64);
    for (name, q) in params {
        w.put_str(name);
        write_qty(q, w);
    }
}

fn read_params(r: &mut ByteReader<'_>) -> DbResult<Vec<(String, QualType)>> {
    (0..r.get_count()?)
        .map(|_| Ok((r.get_str()?.to_string(), read_qty(r)?)))
        .collect()
}

/// The stable error for an image that cannot be read: `1006`, the code
/// of every storage-level corruption.
fn corrupt(what: String) -> DbError {
    StorageError::Corrupt(format!("catalog image: {what}")).into()
}

/// Write `image` over the catalog's large object. Called only inside a
/// write transaction, so the new image commits — or vanishes — with the
/// statement (or the genesis) that changed the catalog.
pub(crate) fn write_image(sm: &StorageManager, image: &[u8]) -> DbResult<()> {
    let lob = Lob::open(LobId(CATALOG_PAGE));
    lob.write(sm.pool(), 0, image)?;
    lob.truncate(sm.pool(), image.len() as u64)?;
    Ok(())
}

/// Genesis on a fresh volume, in one write transaction so a replica
/// replaying from LSN 1 reproduces it: the catalog's large object takes
/// [`CATALOG_PAGE`], the object store its roots, and an empty catalog
/// image names them. A genesis that died before it committed left
/// [`CATALOG_PAGE`] allocated but blank; this one formats it where it
/// lies.
pub(crate) fn genesis(sm: &StorageManager) -> DbResult<()> {
    let txn = sm.begin_txn()?;
    let page = if sm.pool().volume_pages() > CATALOG_PAGE {
        Lob::create_at(sm.pool(), CATALOG_PAGE)?
    } else {
        Lob::create(sm.pool())?
    };
    assert_eq!(page.id(), LobId(CATALOG_PAGE), "genesis allocates first");
    let store = ObjectStore::new(sm.clone())?;
    write_image(sm, &Catalog::new().to_image(&store, 0))?;
    txn.commit()?;
    Ok(())
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

/// The catalog joined with its database, implementing the analyzer's
/// lookup interface.
pub struct CatalogView<'a> {
    /// The catalog.
    pub cat: &'a Catalog,
    /// The owning database: its store answers member counts, and it
    /// resolves and materializes the `sys.*` virtual collections.
    pub db: &'a Database,
}

impl<'a> CatalogView<'a> {
    pub(crate) fn new(db: &'a Database, cat: &'a Catalog) -> Self {
        CatalogView { cat, db }
    }
}

impl CatalogLookup for CatalogView<'_> {
    fn named(&self, name: &str) -> Option<NamedObject> {
        self.cat.named.get(name).cloned()
    }

    fn functions_named(&self, name: &str) -> Vec<FunctionDef> {
        self.cat
            .functions
            .iter()
            .filter(|f| f.name == name)
            .cloned()
            .collect()
    }

    fn procedure(&self, name: &str) -> Option<ProcedureDef> {
        self.cat.procedures.get(name).cloned()
    }

    fn index_on(&self, collection: &str, attr: &str) -> Option<IndexInfo> {
        self.cat
            .indexes
            .iter()
            .find(|i| i.collection == collection && i.attr == attr)
            .cloned()
    }

    fn collection_size(&self, name: &str) -> Option<u64> {
        let obj = self.cat.named.get(name)?;
        if !obj.is_collection {
            return None;
        }
        self.db.store.member_count(obj.oid).ok()
    }

    fn stats_for(&self, collection: &str) -> Option<CollectionStats> {
        self.cat.stats.get(collection).cloned()
    }

    fn collections(&self) -> Vec<NamedObject> {
        self.cat
            .named
            .values()
            .filter(|o| o.is_collection)
            .cloned()
            .collect()
    }

    fn system_view(&self, name: &str) -> Option<SystemViewDef> {
        self.db.system_view_def(name)
    }

    fn system_view_rows(&self, name: &str) -> Option<Vec<Value>> {
        self.db.system_view_rows_with(self.cat, name)
    }

    fn system_views(&self) -> Vec<SystemViewDef> {
        self.db.system_view_defs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auth_direct_group_and_all_users() {
        let mut a = Auth::default();
        a.create_user("alice");
        a.create_user("bob");
        a.create_group("staff");
        a.add_to_group("alice", "staff");

        a.grant("Employees", "staff", &[Privilege::Read]);
        assert!(a.allowed("alice", "Employees", Privilege::Read));
        assert!(!a.allowed("bob", "Employees", Privilege::Read));
        assert!(!a.allowed("alice", "Employees", Privilege::Append));

        a.grant("Employees", ALL_USERS, &[Privilege::Append]);
        assert!(a.allowed("bob", "Employees", Privilege::Append));

        // All implies everything; revoke all clears.
        a.grant("Payroll", "bob", &[Privilege::All]);
        assert!(a.allowed("bob", "Payroll", Privilege::Replace));
        a.revoke("Payroll", "bob", &[Privilege::All]);
        assert!(!a.allowed("bob", "Payroll", Privilege::Replace));

        // Admin can do anything.
        assert!(a.allowed(ADMIN, "Anything", Privilege::Delete));
    }
}
