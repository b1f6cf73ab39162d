//! Schema types and the type registry: named tuple types with multiple
//! inheritance.
//!
//! EXTRA resolves inheritance conflicts by **renaming only** — "we provide
//! no automatic resolution" (paper §2.3, Figure 3). A diamond (the same
//! attribute reaching a type along two paths from one ancestor) is not a
//! conflict; two *distinct* attributes arriving under one name is, and
//! must be renamed in the `inherits` clause.
//!
//! The registry also enforces that `ref` / `own ref` qualify schema types
//! only (object identity exists only for schema-type instances), and it
//! supports local *specialization*: a subtype may redeclare an inherited
//! attribute at a subtype of its original type.

use std::collections::HashMap;
use std::fmt;

use exodus_storage::encoding::{ByteReader, ByteWriter};

use crate::error::{ModelError, ModelResult};
use crate::typeio::{read_attribute, write_attribute};
use crate::types::{Attribute, Ownership, QualType, Type};

/// Identifies a schema type in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Provenance of an inherited attribute: the type that originally declared
/// it and its original name. Used to tell diamonds from true conflicts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Origin {
    declared_in: TypeId,
    original_name: String,
}

/// One flattened attribute with provenance.
#[derive(Debug, Clone)]
struct FlatAttr {
    attr: Attribute,
    origin: Origin,
}

/// An `inherits` clause: base type plus renames (`rename a to b`).
#[derive(Debug, Clone)]
pub struct InheritSpec {
    /// The base type's name.
    pub base: String,
    /// `(old name, new name)` pairs.
    pub renames: Vec<(String, String)>,
}

impl InheritSpec {
    /// Inherit without renames.
    pub fn plain(base: &str) -> InheritSpec {
        InheritSpec {
            base: base.into(),
            renames: Vec::new(),
        }
    }

    /// Inherit with renames.
    pub fn renamed(base: &str, renames: &[(&str, &str)]) -> InheritSpec {
        InheritSpec {
            base: base.into(),
            renames: renames
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }
}

/// A defined schema (tuple) type.
#[derive(Debug, Clone)]
pub struct SchemaType {
    /// Registry id.
    pub id: TypeId,
    /// Type name.
    pub name: String,
    /// Direct supertypes.
    pub supertypes: Vec<TypeId>,
    /// Locally declared attributes.
    pub local_attrs: Vec<Attribute>,
    /// Flattened attributes: inherited (post-rename, in base order) then
    /// local additions.
    flat: Vec<FlatAttr>,
}

impl SchemaType {
    /// All attributes (inherited + local), in order.
    pub fn attributes(&self) -> impl Iterator<Item = &Attribute> {
        self.flat.iter().map(|f| &f.attr)
    }

    /// Number of attributes (tuple width).
    pub fn arity(&self) -> usize {
        self.flat.len()
    }

    /// Look up an attribute by name, returning `(position, attribute)`.
    pub fn attribute(&self, name: &str) -> Option<(usize, &Attribute)> {
        self.flat
            .iter()
            .enumerate()
            .find(|(_, f)| f.attr.name == name)
            .map(|(i, f)| (i, &f.attr))
    }
}

/// The schema-type registry.
#[derive(Debug, Default)]
pub struct TypeRegistry {
    types: Vec<SchemaType>,
    by_name: HashMap<String, TypeId>,
}

impl TypeRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a type id by name.
    pub fn lookup(&self, name: &str) -> ModelResult<TypeId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ModelError::UnknownType(name.into()))
    }

    /// Whether a name is defined.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Get a type by id.
    pub fn get(&self, id: TypeId) -> &SchemaType {
        &self.types[id.0 as usize]
    }

    /// All defined types.
    pub fn iter(&self) -> impl Iterator<Item = &SchemaType> {
        self.types.iter()
    }

    /// Number of defined types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether no types are defined.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// `sub` is-a `sup` (reflexive, transitive).
    pub fn is_subtype(&self, sub: TypeId, sup: TypeId) -> bool {
        if sub == sup {
            return true;
        }
        self.get(sub)
            .supertypes
            .iter()
            .any(|&s| self.is_subtype(s, sup))
    }

    /// Validate that ref/own-ref modes qualify schema types only, and that
    /// nested constructor types are themselves well formed.
    fn validate_qty(&self, qty: &QualType) -> ModelResult<()> {
        if qty.mode != Ownership::Own && !matches!(qty.ty, Type::Schema(_)) {
            return Err(ModelError::RefToValueType(self.display_type(&qty.ty)));
        }
        match &qty.ty {
            Type::Set(e) | Type::Array(_, e) => self.validate_qty(e),
            Type::Tuple(attrs) => {
                for a in attrs {
                    self.validate_qty(&a.qty)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Whether `a` is assignable where `b` is expected (covariant on schema
    /// types through the subtype lattice, invariant elsewhere).
    pub fn assignable(&self, a: &Type, b: &Type) -> bool {
        match (a, b) {
            (Type::Unknown, _) | (_, Type::Unknown) => true,
            (Type::Schema(x), Type::Schema(y)) => self.is_subtype(*x, *y),
            (Type::Set(x), Type::Set(y)) => x.mode == y.mode && self.assignable(&x.ty, &y.ty),
            (Type::Array(n, x), Type::Array(m, y)) => {
                n == m && x.mode == y.mode && self.assignable(&x.ty, &y.ty)
            }
            _ => a == b,
        }
    }

    /// Forward-declare a type name (for self-referential definitions like
    /// `define type Person (kids: { own ref Person })`). Must be followed
    /// by [`TypeRegistry::complete`]; an incomplete declaration behaves as
    /// an attribute-less type.
    pub fn declare(&mut self, name: &str) -> ModelResult<TypeId> {
        if self.by_name.contains_key(name) {
            return Err(ModelError::DuplicateType(name.into()));
        }
        let id = TypeId(self.types.len() as u32);
        self.types.push(SchemaType {
            id,
            name: name.into(),
            supertypes: Vec::new(),
            local_attrs: Vec::new(),
            flat: Vec::new(),
        });
        self.by_name.insert(name.into(), id);
        Ok(id)
    }

    /// Define a new schema type (`define type Name inherits ... ( attrs )`).
    pub fn define(
        &mut self,
        name: &str,
        inherits: Vec<InheritSpec>,
        attrs: Vec<Attribute>,
    ) -> ModelResult<TypeId> {
        let id = self.declare(name)?;
        match self.complete(id, inherits, attrs) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.by_name.remove(name);
                Err(e)
            }
        }
    }

    /// Fill in a forward-declared type.
    pub fn complete(
        &mut self,
        new_id: TypeId,
        inherits: Vec<InheritSpec>,
        attrs: Vec<Attribute>,
    ) -> ModelResult<()> {
        let name = self.get(new_id).name.clone();
        let name = name.as_str();
        let mut supertypes = Vec::with_capacity(inherits.len());
        let mut flat: Vec<FlatAttr> = Vec::new();

        for spec in &inherits {
            let base_id = self.lookup(&spec.base)?;
            supertypes.push(base_id);
            let base = self.get(base_id);
            // Validate renames against the base's attributes.
            for (old, _) in &spec.renames {
                if base.attribute(old).is_none() {
                    return Err(ModelError::BadRename {
                        base: spec.base.clone(),
                        attr: old.clone(),
                    });
                }
            }
            for fa in &base.flat {
                let mut attr = fa.attr.clone();
                if let Some((_, new_name)) = spec.renames.iter().find(|(old, _)| *old == attr.name)
                {
                    attr.name = new_name.clone();
                }
                // Merge with already-collected inherited attributes.
                if let Some(existing) = flat.iter().find(|f| f.attr.name == attr.name) {
                    if existing.origin == fa.origin {
                        continue; // diamond: same attribute along two paths
                    }
                    let from = vec![
                        self.get(existing.origin.declared_in).name.clone(),
                        self.get(fa.origin.declared_in).name.clone(),
                    ];
                    return Err(ModelError::InheritanceConflict {
                        attr: attr.name,
                        from,
                    });
                }
                flat.push(FlatAttr {
                    attr,
                    origin: fa.origin.clone(),
                });
            }
        }

        // Local attributes: additions, or specializations of inherited ones.
        for attr in &attrs {
            self.validate_qty(&attr.qty)?;
            if let Some(pos) = flat.iter().position(|f| f.attr.name == attr.name) {
                let inherited = &flat[pos].attr;
                let compatible = inherited.qty.mode == attr.qty.mode
                    && self.assignable(&attr.qty.ty, &inherited.qty.ty);
                if !compatible {
                    return Err(ModelError::InheritanceConflict {
                        attr: attr.name.clone(),
                        from: vec![
                            self.get(flat[pos].origin.declared_in).name.clone(),
                            name.to_string(),
                        ],
                    });
                }
                // Specialization: narrow the type, keep provenance.
                flat[pos].attr = attr.clone();
            } else {
                flat.push(FlatAttr {
                    attr: attr.clone(),
                    origin: Origin {
                        declared_in: new_id,
                        original_name: attr.name.clone(),
                    },
                });
            }
        }

        // Reject duplicate local names.
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(ModelError::InheritanceConflict {
                    attr: a.name.clone(),
                    from: vec![name.to_string(), name.to_string()],
                });
            }
        }

        let slot = &mut self.types[new_id.0 as usize];
        slot.supertypes = supertypes;
        slot.local_attrs = attrs;
        slot.flat = flat;
        Ok(())
    }

    /// Remove a type definition by name. The id remains allocated (stale
    /// `TypeId`s in values stay resolvable) but the name becomes free.
    /// The caller is responsible for checking that no other type or
    /// instance depends on it.
    pub fn undefine(&mut self, name: &str) -> ModelResult<()> {
        self.by_name
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ModelError::UnknownType(name.into()))
    }

    /// Whether any defined type inherits from or references `id` in its
    /// attributes (dependency check for `drop type`).
    pub fn has_dependents(&self, id: TypeId) -> bool {
        fn mentions(ty: &Type, id: TypeId) -> bool {
            match ty {
                Type::Schema(t) => *t == id,
                Type::Set(e) | Type::Array(_, e) => mentions(&e.ty, id),
                Type::Tuple(attrs) => attrs.iter().any(|a| mentions(&a.qty.ty, id)),
                _ => false,
            }
        }
        self.by_name.values().any(|&tid| {
            if tid == id {
                return false;
            }
            let t = self.get(tid);
            t.supertypes.contains(&id) || t.local_attrs.iter().any(|a| mentions(&a.qty.ty, id))
        })
    }

    /// Human-readable rendering of a type.
    pub fn display_type(&self, ty: &Type) -> String {
        match ty {
            Type::Base(b) => b.to_string(),
            Type::Adt(id) => format!("adt#{}", id.0),
            Type::Schema(id) => self.get(*id).name.clone(),
            Type::Tuple(attrs) => {
                let inner: Vec<String> = attrs
                    .iter()
                    .map(|a| format!("{}: {}", a.name, self.display_qual(&a.qty)))
                    .collect();
                format!("({})", inner.join(", "))
            }
            Type::Set(e) => format!("{{ {} }}", self.display_qual(e)),
            Type::Array(Some(n), e) => format!("[{n}] {}", self.display_qual(e)),
            Type::Array(None, e) => format!("[] {}", self.display_qual(e)),
            Type::Unknown => "unknown".into(),
        }
    }

    /// Human-readable rendering of a qualified type.
    pub fn display_qual(&self, qty: &QualType) -> String {
        match qty.mode {
            Ownership::Own => self.display_type(&qty.ty),
            mode => format!("{mode} {}", self.display_type(&qty.ty)),
        }
    }

    /// Serialize the registry's full state into a catalog image (see
    /// DESIGN.md §14). Everything round-trips — renames,
    /// specializations, undefined-but-allocated slots — because the
    /// flattened attribute lists are stored as-is rather than rebuilt by
    /// replaying DDL.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_varint(self.types.len() as u64);
        for t in &self.types {
            w.put_u32(t.id.0);
            w.put_str(&t.name);
            w.put_varint(t.supertypes.len() as u64);
            for s in &t.supertypes {
                w.put_u32(s.0);
            }
            w.put_varint(t.local_attrs.len() as u64);
            for a in &t.local_attrs {
                write_attribute(a, w);
            }
            w.put_varint(t.flat.len() as u64);
            for f in &t.flat {
                write_attribute(&f.attr, w);
                w.put_u32(f.origin.declared_in.0);
                w.put_str(&f.origin.original_name);
            }
        }
        w.put_varint(self.by_name.len() as u64);
        for (name, id) in &self.by_name {
            w.put_str(name);
            w.put_u32(id.0);
        }
    }

    /// Rebuild a registry from [`TypeRegistry::encode`] output.
    pub fn decode(r: &mut ByteReader<'_>) -> ModelResult<TypeRegistry> {
        let mut types = Vec::new();
        for _ in 0..r.get_count()? {
            let id = TypeId(r.get_u32()?);
            let name = r.get_str()?.to_string();
            let supertypes = (0..r.get_count()?)
                .map(|_| Ok(TypeId(r.get_u32()?)))
                .collect::<ModelResult<_>>()?;
            let local_attrs = (0..r.get_count()?)
                .map(|_| read_attribute(r))
                .collect::<ModelResult<_>>()?;
            let mut flat = Vec::new();
            for _ in 0..r.get_count()? {
                let attr = read_attribute(r)?;
                let declared_in = TypeId(r.get_u32()?);
                let original_name = r.get_str()?.to_string();
                flat.push(FlatAttr {
                    attr,
                    origin: Origin {
                        declared_in,
                        original_name,
                    },
                });
            }
            types.push(SchemaType {
                id,
                name,
                supertypes,
                local_attrs,
                flat,
            });
        }
        let mut by_name = HashMap::new();
        for _ in 0..r.get_count()? {
            let name = r.get_str()?.to_string();
            by_name.insert(name, TypeId(r.get_u32()?));
        }
        Ok(TypeRegistry { types, by_name })
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BaseType;

    fn person_attrs() -> Vec<Attribute> {
        vec![
            Attribute::own("name", Type::varchar()),
            Attribute::own("age", Type::int4()),
        ]
    }

    #[test]
    fn define_and_lookup() {
        let mut reg = TypeRegistry::new();
        let id = reg.define("Person", vec![], person_attrs()).unwrap();
        assert_eq!(reg.lookup("Person").unwrap(), id);
        let t = reg.get(id);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.attribute("name").unwrap().0, 0);
        assert!(t.attribute("salary").is_none());
        assert!(matches!(
            reg.lookup("Nobody"),
            Err(ModelError::UnknownType(_))
        ));
    }

    #[test]
    fn duplicate_type_rejected() {
        let mut reg = TypeRegistry::new();
        reg.define("Person", vec![], person_attrs()).unwrap();
        assert!(matches!(
            reg.define("Person", vec![], vec![]),
            Err(ModelError::DuplicateType(_))
        ));
    }

    #[test]
    fn single_inheritance_flattens() {
        let mut reg = TypeRegistry::new();
        let person = reg.define("Person", vec![], person_attrs()).unwrap();
        let emp = reg
            .define(
                "Employee",
                vec![InheritSpec::plain("Person")],
                vec![Attribute::own("salary", Type::float8())],
            )
            .unwrap();
        let t = reg.get(emp);
        assert_eq!(t.arity(), 3);
        assert_eq!(
            t.attributes().map(|a| a.name.as_str()).collect::<Vec<_>>(),
            vec!["name", "age", "salary"]
        );
        assert!(reg.is_subtype(emp, person));
        assert!(!reg.is_subtype(person, emp));
        assert!(reg.is_subtype(person, person), "is-a is reflexive");
    }

    #[test]
    fn conflict_requires_rename() {
        // Paper Figure 3: Student and Employee both have a dept attribute;
        // TA inherits from both — conflict unless renamed.
        let mut reg = TypeRegistry::new();
        reg.define(
            "Department",
            vec![],
            vec![Attribute::own("dname", Type::varchar())],
        )
        .unwrap();
        let dept = reg.lookup("Department").unwrap();
        reg.define(
            "Student",
            vec![],
            vec![
                Attribute::own("name", Type::varchar()),
                Attribute::reference("dept", Type::Schema(dept)),
            ],
        )
        .unwrap();
        reg.define(
            "Employee",
            vec![],
            vec![Attribute::reference("dept", Type::Schema(dept))],
        )
        .unwrap();
        let err = reg
            .define(
                "TA",
                vec![
                    InheritSpec::plain("Student"),
                    InheritSpec::plain("Employee"),
                ],
                vec![],
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::InheritanceConflict { ref attr, .. } if attr == "dept"));

        // Renaming resolves it.
        let ta = reg
            .define(
                "TA2",
                vec![
                    InheritSpec::renamed("Student", &[("dept", "enrolled_dept")]),
                    InheritSpec::renamed("Employee", &[("dept", "works_in_dept")]),
                ],
                vec![],
            )
            .unwrap();
        let t = reg.get(ta);
        assert!(t.attribute("enrolled_dept").is_some());
        assert!(t.attribute("works_in_dept").is_some());
        assert!(t.attribute("dept").is_none());
    }

    #[test]
    fn diamond_is_not_a_conflict() {
        let mut reg = TypeRegistry::new();
        reg.define("Thing", vec![], vec![Attribute::own("id", Type::int4())])
            .unwrap();
        reg.define("A", vec![InheritSpec::plain("Thing")], vec![])
            .unwrap();
        reg.define("B", vec![InheritSpec::plain("Thing")], vec![])
            .unwrap();
        let d = reg
            .define(
                "D",
                vec![InheritSpec::plain("A"), InheritSpec::plain("B")],
                vec![],
            )
            .unwrap();
        let t = reg.get(d);
        assert_eq!(t.arity(), 1, "diamond attribute appears once");
    }

    #[test]
    fn bad_rename_rejected() {
        let mut reg = TypeRegistry::new();
        reg.define("Person", vec![], person_attrs()).unwrap();
        let err = reg
            .define(
                "X",
                vec![InheritSpec::renamed("Person", &[("salary", "pay")])],
                vec![],
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::BadRename { .. }));
    }

    #[test]
    fn specialization_narrows_inherited_attribute() {
        let mut reg = TypeRegistry::new();
        let person = reg.define("Person", vec![], person_attrs()).unwrap();
        let emp = reg
            .define(
                "Employee",
                vec![InheritSpec::plain("Person")],
                vec![Attribute::own("salary", Type::float8())],
            )
            .unwrap();
        // Team has a leader: Person; ExecTeam narrows leader to Employee.
        reg.define(
            "Team",
            vec![],
            vec![Attribute::reference("leader", Type::Schema(person))],
        )
        .unwrap();
        let exec = reg
            .define(
                "ExecTeam",
                vec![InheritSpec::plain("Team")],
                vec![Attribute::reference("leader", Type::Schema(emp))],
            )
            .unwrap();
        let (pos, attr) = reg.get(exec).attribute("leader").unwrap();
        assert_eq!(pos, 0);
        assert_eq!(attr.qty.ty, Type::Schema(emp));
        // Widening is rejected.
        let err = reg
            .define(
                "BadTeam",
                vec![InheritSpec::plain("ExecTeam")],
                vec![Attribute::reference("leader", Type::Schema(person))],
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::InheritanceConflict { .. }));
    }

    #[test]
    fn ref_requires_schema_type() {
        let mut reg = TypeRegistry::new();
        let err = reg
            .define("Bad", vec![], vec![Attribute::reference("x", Type::int4())])
            .unwrap_err();
        assert!(matches!(err, ModelError::RefToValueType(_)));
        // Nested inside a set, too.
        let err = reg
            .define(
                "Bad2",
                vec![],
                vec![Attribute::own(
                    "xs",
                    Type::Set(Box::new(QualType::reference(Type::varchar()))),
                )],
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::RefToValueType(_)));
    }

    #[test]
    fn assignability_through_lattice() {
        let mut reg = TypeRegistry::new();
        let person = reg.define("Person", vec![], person_attrs()).unwrap();
        let emp = reg
            .define("Employee", vec![InheritSpec::plain("Person")], vec![])
            .unwrap();
        assert!(reg.assignable(&Type::Schema(emp), &Type::Schema(person)));
        assert!(!reg.assignable(&Type::Schema(person), &Type::Schema(emp)));
        // Sets are covariant in element type, invariant in mode.
        let set_emp = Type::Set(Box::new(QualType::reference(Type::Schema(emp))));
        let set_person = Type::Set(Box::new(QualType::reference(Type::Schema(person))));
        assert!(reg.assignable(&set_emp, &set_person));
        let set_own = Type::Set(Box::new(QualType::own(Type::Schema(emp))));
        assert!(!reg.assignable(&set_own, &set_person));
        assert!(reg.assignable(&Type::int4(), &Type::int4()));
        assert!(!reg.assignable(&Type::int4(), &Type::Base(BaseType::Int8)));
    }

    #[test]
    fn display_renders_nested_types() {
        let mut reg = TypeRegistry::new();
        let person = reg.define("Person", vec![], person_attrs()).unwrap();
        let qty = QualType::own_ref(Type::Schema(person));
        assert_eq!(reg.display_qual(&qty), "own ref Person");
        let set = Type::Set(Box::new(qty));
        assert_eq!(reg.display_type(&set), "{ own ref Person }");
        let arr = Type::Array(
            Some(10),
            Box::new(QualType::reference(Type::Schema(person))),
        );
        assert_eq!(reg.display_type(&arr), "[10] ref Person");
    }
}
