//! Property tests for the object store's integrity invariants: after any
//! sequence of creates, link updates, and deletes, no live object holds a
//! dangling reference, and ownership is exclusive. Every step commits
//! its own write transaction, so the same sequences also check that a
//! snapshot held across them keeps reading the graph it started with and
//! that vacuum reclaims every version the steps retired.

use proptest::prelude::*;

use exodus_storage::object::ObjectTable;
use exodus_storage::{Oid, StorageManager, TS_LATEST};
use extra_model::schema::InheritSpec;
use extra_model::{Attribute, ModelError, ObjectStore, QualType, Type, TypeRegistry, Value};

struct World {
    reg: TypeRegistry,
    store: ObjectStore,
    node: extra_model::TypeId,
    /// A `{ ref Node }` collection the ops add members to.
    set: Oid,
    live: Vec<Oid>,
    /// Every object ever created.
    created: Vec<Oid>,
}

/// The graph as one snapshot sees it: each object's `(owner, value)` and
/// the ref-set's members.
type Graph = (Vec<(Oid, Oid, Value)>, Vec<Value>);

fn world() -> World {
    let mut reg = TypeRegistry::new();
    // Node: a ref link and an own-ref component slot.
    let node = reg.declare("Node").unwrap();
    reg.complete(
        node,
        Vec::<InheritSpec>::new(),
        vec![
            Attribute::own("tag", Type::int4()),
            Attribute::reference("link", Type::Schema(node)),
            Attribute::own_ref("part", Type::Schema(node)),
        ],
    )
    .unwrap();
    let store = ObjectStore::new(StorageManager::in_memory(512)).unwrap();
    let txn = store.storage().begin_txn().unwrap();
    let set = store
        .create_collection(&QualType::reference(Type::Schema(node)))
        .unwrap();
    txn.commit().unwrap();
    World {
        reg,
        store,
        node,
        set,
        live: Vec::new(),
        created: Vec::new(),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create(i64),
    /// Link live[a] → live[b] via the `ref` attribute.
    Link(usize, usize),
    /// Adopt live[b] as live[a]'s own-ref part.
    Adopt(usize, usize),
    Delete(usize),
    /// Add live[a] to the ref-set.
    Join(usize),
    /// Take live[a] out of the ref-set again.
    Leave(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..100).prop_map(Op::Create),
        (0usize..32, 0usize..32).prop_map(|(a, b)| Op::Link(a, b)),
        (0usize..32, 0usize..32).prop_map(|(a, b)| Op::Adopt(a, b)),
        (0usize..32).prop_map(Op::Delete),
        (0usize..32).prop_map(Op::Join),
        (0usize..32).prop_map(Op::Leave),
    ]
}

fn node_value(tag: i64, link: Value, part: Value) -> Value {
    Value::Tuple(vec![Value::Int(tag), link, part])
}

impl World {
    fn qty(&self) -> QualType {
        QualType::own(Type::Schema(self.node))
    }

    /// One step: a write transaction of its own, committed.
    fn apply(&mut self, op: &Op) {
        let txn = self.store.storage().begin_txn().unwrap();
        self.mutate(op);
        txn.commit().unwrap();
        self.live
            .retain(|o| self.store.exists_at(*o, TS_LATEST).unwrap());
    }

    fn mutate(&mut self, op: &Op) {
        match op {
            Op::Create(tag) => {
                let oid = self
                    .store
                    .create_object(
                        &self.reg,
                        &self.qty(),
                        node_value(*tag, Value::Null, Value::Null),
                    )
                    .unwrap();
                self.live.push(oid);
                self.created.push(oid);
            }
            Op::Link(a, b) => {
                if self.live.is_empty() {
                    return;
                }
                let a = self.live[a % self.live.len()];
                let b = self.live[b % self.live.len()];
                let (_, _, mut v) = self.store.get_at(a, TS_LATEST).unwrap();
                if let Value::Tuple(fields) = &mut v {
                    fields[1] = Value::Ref(b);
                }
                self.store.set_value(&self.reg, a, v).unwrap();
            }
            Op::Adopt(a, b) => {
                if self.live.is_empty() {
                    return;
                }
                let a = self.live[a % self.live.len()];
                let b = self.live[b % self.live.len()];
                if a == b {
                    return;
                }
                let (_, owner, _) = self.store.get_at(b, TS_LATEST).unwrap();
                let (_, _, mut v) = self.store.get_at(a, TS_LATEST).unwrap();
                if let Value::Tuple(fields) = &mut v {
                    if matches!(fields[2], Value::Ref(_)) {
                        return; // already holds a part; replacing would kill it
                    }
                    fields[2] = Value::Ref(b);
                }
                let result = self.store.set_value(&self.reg, a, v);
                match result {
                    Ok(()) => assert!(
                        owner.is_null() || owner == a,
                        "adoption of an owned object must have failed"
                    ),
                    Err(ModelError::Integrity(_)) => {
                        assert!(!owner.is_null(), "free object rejected?");
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            Op::Delete(a) => {
                if self.live.is_empty() {
                    return;
                }
                let oid = self.live[a % self.live.len()];
                // Cascades may take others with it; `apply` recomputes.
                self.store.delete_object(&self.reg, oid).unwrap();
            }
            Op::Join(a) => {
                if self.live.is_empty() {
                    return;
                }
                let a = self.live[a % self.live.len()];
                let already = !self.memberships(a).is_empty();
                match self.store.append_member(&self.reg, self.set, Value::Ref(a)) {
                    Ok(_) => assert!(!already, "sets dedupe by identity"),
                    Err(ModelError::Integrity(_)) => assert!(already, "fresh member rejected?"),
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            Op::Leave(a) => {
                if self.live.is_empty() {
                    return;
                }
                let a = self.live[a % self.live.len()];
                for (anchor, rid) in self.memberships(a) {
                    self.store.remove_member(&self.reg, anchor, rid).unwrap();
                }
            }
        }
    }

    fn memberships(&self, oid: Oid) -> Vec<(Oid, exodus_storage::RecordId)> {
        self.store.memberships(oid).unwrap()
    }

    fn members_at(&self, snap: u64) -> Vec<Value> {
        let mut scan = self.store.scan_members_batch_at(self.set, snap).unwrap();
        let mut members = Vec::new();
        loop {
            let batch = scan.next_batch(7).unwrap();
            if batch.is_empty() {
                return members;
            }
            members.extend(batch.into_iter().map(|(_, v)| v));
        }
    }

    /// What `oids` and the ref-set look like at `snap`.
    fn graph_at(&self, oids: &[Oid], snap: u64) -> Graph {
        let objects = oids
            .iter()
            .map(|&o| {
                let (_, owner, v) = self.store.get_at(o, snap).unwrap();
                (o, owner, v)
            })
            .collect();
        (objects, self.members_at(snap))
    }

    /// Invariants: every live object's `link` is live or null; every
    /// `part` is live, owned by exactly this object; owners are live.
    fn check(&self) {
        for &oid in &self.live {
            let (_, owner, v) = self.store.get_at(oid, TS_LATEST).unwrap();
            if !owner.is_null() {
                assert!(
                    self.store.exists_at(owner, TS_LATEST).unwrap(),
                    "{oid} has a dead owner {owner}"
                );
            }
            let Value::Tuple(fields) = &v else {
                panic!("not a tuple")
            };
            match &fields[1] {
                Value::Null => {}
                Value::Ref(t) => assert!(
                    self.store.exists_at(*t, TS_LATEST).unwrap(),
                    "{oid} has a dangling ref {t}"
                ),
                other => panic!("bad link: {other:?}"),
            }
            match &fields[2] {
                Value::Null => {}
                Value::Ref(t) => {
                    assert!(
                        self.store.exists_at(*t, TS_LATEST).unwrap(),
                        "{oid} owns a dead part {t}"
                    );
                    let part_owner = self.store.get_at(*t, TS_LATEST).unwrap().1;
                    assert_eq!(part_owner, oid, "exclusive ownership violated");
                }
                other => panic!("bad part: {other:?}"),
            }
        }
        // The ref-set holds exactly its live members, once each.
        let members = self.members_at(TS_LATEST);
        assert_eq!(
            members.len() as u64,
            self.store.member_count(self.set).unwrap()
        );
        for m in &members {
            let Value::Ref(t) = m else {
                panic!("bad member: {m:?}")
            };
            assert!(self.live.contains(t), "dangling member {t}");
            assert_eq!(self.memberships(*t).len(), 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn integrity_invariants_hold(
        ops in prop::collection::vec(op_strategy(), 1..60),
        cut in 0usize..60,
    ) {
        let mut w = world();
        let (before, after) = ops.split_at(cut.min(ops.len()));
        for op in before {
            w.apply(op);
            w.check();
        }
        // A reader opens here and stays open while the rest commits.
        let snap = w.store.storage().begin_snapshot();
        let seen = w.live.clone();
        let graph = w.graph_at(&seen, TS_LATEST);
        for op in after {
            w.apply(op);
            w.check();
            prop_assert!(w.store.vacuum().is_ok());
        }
        // Cascades, null-outs and member removals since then are all
        // invisible to it, vacuum or no vacuum.
        prop_assert_eq!(w.graph_at(&seen, snap.ts()), graph);
        drop(snap);
        // With no reader left, one vacuum frees everything retired:
        // superseded versions, deleted records, and the deleted objects'
        // OID slots.
        w.store.vacuum().unwrap();
        let sm = w.store.storage();
        prop_assert_eq!(sm.txn().pending_reclaims(), 0);
        let table = ObjectTable::open(w.store.roots().table_root);
        for oid in &w.created {
            prop_assert_eq!(table.exists(sm.pool(), *oid).unwrap(), w.live.contains(oid));
        }
        w.check();
    }
}

#[test]
fn delete_cycle_of_refs_terminates() {
    let mut w = world();
    w.apply(&Op::Create(1));
    w.apply(&Op::Create(2));
    w.apply(&Op::Link(0, 1));
    w.apply(&Op::Link(1, 0));
    w.apply(&Op::Delete(0));
    w.check();
    assert_eq!(w.live.len(), 1);
    // Survivor's link was nulled.
    let (_, _, v) = w.store.get_at(w.live[0], TS_LATEST).unwrap();
    match v {
        Value::Tuple(fields) => assert_eq!(fields[1], Value::Null),
        other => panic!("{other:?}"),
    }
}

#[test]
fn deep_ownership_chain_cascades() {
    let mut w = world();
    for i in 0..10 {
        w.apply(&Op::Create(i));
    }
    // 0 owns 1 owns 2 owns ... owns 9.
    for i in 0..9 {
        w.apply(&Op::Adopt(i, i + 1));
    }
    w.check();
    w.apply(&Op::Delete(0));
    assert!(w.live.is_empty(), "whole chain cascades: {:?}", w.live);
}
