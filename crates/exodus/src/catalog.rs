//! The database catalog: named objects, functions, procedures, indexes,
//! and the authorization tables.

use std::collections::{HashMap, HashSet};

use excess_lang::Privilege;
use excess_sema::{
    CatalogLookup, CollectionStats, FunctionDef, IndexInfo, NamedObject, ProcedureDef,
    SystemViewDef,
};
use extra_model::{AdtRegistry, TypeRegistry, Value};

use crate::database::Database;

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

    /// Serialize the authorization state for a replication catalog
    /// image (`docs/REPLICATION.md`). Sorted for determinism.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::new();
        let mut users: Vec<&String> = self.users.iter().collect();
        users.sort();
        out.extend_from_slice(&(users.len() as u32).to_le_bytes());
        for u in users {
            put_str(&mut out, u);
        }
        let mut groups: Vec<(&String, &HashSet<String>)> = self.groups.iter().collect();
        groups.sort_by_key(|(g, _)| g.as_str());
        out.extend_from_slice(&(groups.len() as u32).to_le_bytes());
        for (g, members) in groups {
            put_str(&mut out, g);
            let mut ms: Vec<&String> = members.iter().collect();
            ms.sort();
            out.extend_from_slice(&(ms.len() as u32).to_le_bytes());
            for m in ms {
                put_str(&mut out, m);
            }
        }
        let mut grants: Vec<(&(String, String), &HashSet<Privilege>)> =
            self.grants.iter().collect();
        grants.sort_by_key(|((o, g), _)| (o.as_str(), g.as_str()));
        out.extend_from_slice(&(grants.len() as u32).to_le_bytes());
        for ((object, grantee), privs) in grants {
            put_str(&mut out, object);
            put_str(&mut out, grantee);
            let mut ps: Vec<u8> = privs.iter().map(|p| privilege_tag(*p)).collect();
            ps.sort_unstable();
            out.extend_from_slice(&(ps.len() as u32).to_le_bytes());
            out.extend_from_slice(&ps);
        }
        out
    }

    /// Rebuild authorization state from [`Auth::to_bytes`] output.
    /// Returns `None` on a malformed image.
    pub fn from_bytes(buf: &[u8]) -> Option<Auth> {
        fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
            let end = pos.checked_add(4).filter(|&e| e <= buf.len())?;
            let v = u32::from_le_bytes(buf[*pos..end].try_into().ok()?);
            *pos = end;
            Some(v)
        }
        fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
            let len = get_u32(buf, pos)? as usize;
            let end = pos.checked_add(len).filter(|&e| e <= buf.len())?;
            let s = std::str::from_utf8(&buf[*pos..end]).ok()?.to_string();
            *pos = end;
            Some(s)
        }
        let mut a = Auth::default();
        let mut pos = 0;
        for _ in 0..get_u32(buf, &mut pos)? {
            a.users.insert(get_str(buf, &mut pos)?);
        }
        for _ in 0..get_u32(buf, &mut pos)? {
            let g = get_str(buf, &mut pos)?;
            let mut members = HashSet::new();
            for _ in 0..get_u32(buf, &mut pos)? {
                members.insert(get_str(buf, &mut pos)?);
            }
            a.groups.insert(g, members);
        }
        for _ in 0..get_u32(buf, &mut pos)? {
            let object = get_str(buf, &mut pos)?;
            let grantee = get_str(buf, &mut pos)?;
            let mut privs = HashSet::new();
            for _ in 0..get_u32(buf, &mut pos)? {
                let tag = *buf.get(pos)?;
                pos += 1;
                privs.insert(privilege_from_tag(tag)?);
            }
            a.grants.insert((object, grantee), privs);
        }
        Some(a)
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

fn privilege_from_tag(t: u8) -> Option<Privilege> {
    Some(match t {
        0 => Privilege::Read,
        1 => Privilege::Append,
        2 => Privilege::Delete,
        3 => Privilege::Replace,
        4 => Privilege::Execute,
        5 => Privilege::All,
        _ => return None,
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
    /// collection name (format and durability notes: DESIGN.md §14).
    pub stats: HashMap<String, StatsEntry>,
    /// Heap file holding serialized statistics payloads (created by the
    /// first `analyze`).
    pub stats_file: Option<exodus_storage::FileId>,
    /// Authorization state.
    pub auth: Auth,
}

/// One analyzed collection's statistics plus its durable location.
#[derive(Debug, Clone)]
pub struct StatsEntry {
    /// The decoded statistics the planner consults.
    pub stats: CollectionStats,
    /// Heap record holding the serialized payload (written inside the
    /// analyzing statement's logged transaction; updated in place on
    /// re-analyze).
    pub record: exodus_storage::RecordId,
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
            stats_file: None,
            auth: Auth::default(),
        }
    }
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
        self.cat.stats.get(collection).map(|e| e.stats.clone())
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
