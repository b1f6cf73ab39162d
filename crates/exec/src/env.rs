//! Evaluation environments: variable bindings plus update identities.

use std::collections::HashMap;
use std::sync::Arc;

use exodus_storage::{Oid, RecordId};
use extra_model::Value;

/// How a bound member can be addressed for updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberId {
    /// An `own`-mode collection member: its record in the collection file.
    Record {
        /// Collection anchor.
        anchor: Oid,
        /// Member record id.
        rid: RecordId,
    },
    /// An object with identity (`ref` / `own ref` members, named objects).
    Object(Oid),
    /// A member of a nested set/array inside another binding's value
    /// (e.g. `C` in `range of C is E.kids` when kids holds own values).
    Nested {
        /// The parent variable and the attribute steps from it to the
        /// collection — one allocation shared by every member an unnest
        /// binds.
        container: Arc<(String, Vec<String>)>,
        /// 0-based position within the collection.
        index: usize,
    },
    /// Not updatable (computed values).
    None,
}

/// A row: variable values plus their update identities.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vals: HashMap<String, Value>,
    ids: HashMap<String, MemberId>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Value bound to `var`.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.vals.get(var)
    }

    /// Update identity of `var`.
    pub fn id_of(&self, var: &str) -> MemberId {
        self.ids.get(var).cloned().unwrap_or(MemberId::None)
    }

    /// Whether `var` is bound.
    pub fn contains(&self, var: &str) -> bool {
        self.vals.contains_key(var)
    }

    /// Bind `var`, returning whatever it shadowed (restore with
    /// [`Env::restore`]).
    pub fn bind(&mut self, var: &str, value: Value, id: MemberId) -> Option<(Value, MemberId)> {
        let old_v = self.vals.insert(var.to_string(), value);
        let old_i = self.ids.insert(var.to_string(), id);
        old_v.map(|v| (v, old_i.unwrap_or(MemberId::None)))
    }

    /// Undo a [`Env::bind`].
    pub fn restore(&mut self, var: &str, shadowed: Option<(Value, MemberId)>) {
        match shadowed {
            Some((v, i)) => {
                self.vals.insert(var.to_string(), v);
                self.ids.insert(var.to_string(), i);
            }
            None => {
                self.vals.remove(var);
                self.ids.remove(var);
            }
        }
    }

    /// Variables currently bound.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.vals.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_shadow_restore() {
        let mut env = Env::new();
        assert!(env.bind("x", Value::Int(1), MemberId::None).is_none());
        let shadowed = env.bind("x", Value::Int(2), MemberId::Object(Oid(5)));
        assert_eq!(env.get("x"), Some(&Value::Int(2)));
        assert_eq!(env.id_of("x"), MemberId::Object(Oid(5)));
        env.restore("x", shadowed);
        assert_eq!(env.get("x"), Some(&Value::Int(1)));
        assert_eq!(env.id_of("x"), MemberId::None);
        env.restore("x", None);
        assert!(!env.contains("x"));
    }
}
