//! A generator of random EXTRA schemas, the data that fills them, and
//! EXCESS expressions over them, typed by a model of the checker's rules.
//!
//! Each of the checker's typing rules over the orthogonal constructors
//! (tuple, set, array, `ref`, `own ref`, ADTs, inheritance) is one case
//! of [`Gen::rule`], which builds an expression whose root is that rule
//! and which the rules either accept or reject — the generator's
//! prediction, which a test holds the checker to. Everything under the
//! root is accepted by construction, so a rejection is the root's.
//!
//! The data is an EXCESS script, so a failing case reproduces by
//! running its script. Anonymous-tuple fields, fixed-array slots, inline
//! schema-typed values and enumerations have no EXCESS writer, so those
//! attributes keep their defaults (nulls, null-padded arrays).
//!
//! Randomness comes from the proptest shim's `TestRng`, seeded per case,
//! so every run replays the same cases.

use proptest::test_runner::TestRng;

/// A type, as the generator models it: an EXTRA type with its ownership
/// folded in.
#[derive(Clone, Debug, PartialEq)]
pub enum Ty {
    /// `int1`..`int8`, by width in bytes.
    Int(u8),
    /// `float4`/`float8`.
    Float(u8),
    Bool,
    Str,
    Enum(Vec<String>),
    Date,
    Complex,
    /// The runtime-registered ADT of `tests/common`.
    Fraction,
    /// An anonymous tuple.
    Tuple(Vec<(String, Ty)>),
    Set(Box<Ty>),
    /// `[n] T` or `[] T`.
    Array(Option<usize>, Box<Ty>),
    /// `ref Tj`.
    Ref(usize),
    /// `own ref Tj`.
    OwnRef(usize),
    /// `own Tj`: a schema-typed value, inline.
    Obj(usize),
    /// The type of `null`, which every rule admits.
    Null,
}

impl Ty {
    fn is_num(&self) -> bool {
        matches!(self, Ty::Int(_) | Ty::Float(_))
    }

    /// `ref`/`own ref`: an object, compared only by `is`.
    pub fn is_object(&self) -> bool {
        matches!(self, Ty::Ref(_) | Ty::OwnRef(_))
    }

    /// Base types and the ordered ADTs.
    fn is_ordered(&self) -> bool {
        matches!(
            self,
            Ty::Int(_) | Ty::Float(_) | Ty::Bool | Ty::Str | Ty::Enum(_) | Ty::Date | Ty::Fraction
        )
    }

    fn is_scalar(&self) -> bool {
        self.is_ordered() || *self == Ty::Complex
    }

    /// The element type of a set or array.
    fn elem(&self) -> Option<&Ty> {
        match self {
            Ty::Set(e) | Ty::Array(_, e) => Some(e),
            _ => None,
        }
    }

    /// The schema type an attribute step reads, if any.
    fn schema(&self) -> Option<usize> {
        match self {
            Ty::Ref(j) | Ty::OwnRef(j) | Ty::Obj(j) => Some(*j),
            _ => None,
        }
    }

    /// The type as written in DDL.
    pub fn ddl(&self) -> String {
        match self {
            Ty::Int(n) => format!("int{n}"),
            Ty::Float(n) => format!("float{n}"),
            Ty::Bool => "boolean".into(),
            Ty::Str => "varchar".into(),
            Ty::Enum(syms) => format!("enum({})", syms.join(", ")),
            Ty::Date => "Date".into(),
            Ty::Complex => "Complex".into(),
            Ty::Fraction => "Fraction".into(),
            Ty::Tuple(fs) => {
                let fs: Vec<String> = fs
                    .iter()
                    .map(|(n, t)| format!("{n}: {}", t.ddl()))
                    .collect();
                format!("({})", fs.join(", "))
            }
            Ty::Set(e) => format!("{{ {} }}", e.ddl()),
            Ty::Array(Some(n), e) => format!("[{n}] {}", e.ddl()),
            Ty::Array(None, e) => format!("[] {}", e.ddl()),
            Ty::Ref(j) => format!("ref T{j}"),
            Ty::OwnRef(j) => format!("own ref T{j}"),
            Ty::Obj(j) => format!("T{j}"),
            Ty::Null => "unknown".into(),
        }
    }
}

/// One schema type: its bases (each with the renames its clashing
/// attributes take) and its own attributes.
#[derive(Clone, Debug)]
pub struct TypeDef {
    pub bases: Vec<(usize, Vec<(String, String)>)>,
    pub own: Vec<(String, Ty)>,
}

/// A generated schema: types `T0..Tn`, each with a collection
/// `Ci: { own ref Ti }` ranged over by `Vi`, and a pool `Pi: { ref Ti }`
/// ranged over by `Qi`, whose objects `own ref` attributes adopt.
#[derive(Clone, Debug)]
pub struct Schema {
    pub types: Vec<TypeDef>,
}

impl Schema {
    /// The attributes of `Ti`, inherited ones first, renamed.
    pub fn attrs(&self, i: usize) -> Vec<(String, Ty)> {
        let t = &self.types[i];
        let mut out: Vec<(String, Ty)> = Vec::new();
        for (b, renames) in &t.bases {
            for (name, ty) in self.attrs(*b) {
                let name = renames
                    .iter()
                    .find(|(from, _)| *from == name)
                    .map_or(name, |(_, to)| to.clone());
                out.push((name, ty));
            }
        }
        out.extend(t.own.iter().cloned());
        out
    }

    /// Whether `Ti` is `Tj` or inherits from it.
    pub fn is_subtype(&self, i: usize, j: usize) -> bool {
        i == j
            || self.types[i]
                .bases
                .iter()
                .any(|(b, _)| self.is_subtype(*b, j))
    }

    fn ancestors(&self, i: usize) -> Vec<usize> {
        (0..=i).filter(|j| self.is_subtype(i, *j)).collect()
    }

    /// Whether a value of type `a` may stand where `b` is wanted.
    fn assignable(&self, a: &Ty, b: &Ty) -> bool {
        match (a, b) {
            (Ty::Null, _) | (_, Ty::Null) => true,
            (Ty::Ref(x), Ty::Ref(y))
            | (Ty::OwnRef(x), Ty::OwnRef(y))
            | (Ty::Obj(x), Ty::Obj(y)) => self.is_subtype(*x, *y),
            (Ty::Set(x), Ty::Set(y)) => self.assignable(x, y) && same_mode(x, y),
            (Ty::Array(n, x), Ty::Array(m, y)) => {
                n == m && same_mode(x, y) && self.assignable(x, y)
            }
            _ => a == b,
        }
    }

    /// The checker's `unify`: the type two operands meet at, if any.
    pub fn unify(&self, a: &Ty, b: &Ty) -> Option<Ty> {
        match (a, b) {
            (Ty::Null, t) | (t, Ty::Null) => Some(t.clone()),
            _ if a == b => Some(a.clone()),
            (Ty::Int(_), Ty::Int(_)) => Some(Ty::Int(8)),
            _ if a.is_num() && b.is_num() => Some(Ty::Float(8)),
            _ if same_mode(a, b) && self.assignable(a, b) => Some(b.clone()),
            _ if same_mode(a, b) && self.assignable(b, a) => Some(a.clone()),
            _ => None,
        }
    }

    /// The schema as DDL, with its collections, pools, ranges and the
    /// functions calls are made to.
    pub fn ddl(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, t) in self.types.iter().enumerate() {
            let mut head = format!("define type T{i}");
            if !t.bases.is_empty() {
                let bases: Vec<String> = t
                    .bases
                    .iter()
                    .map(|(b, renames)| {
                        let mut s = format!("T{b}");
                        for (from, to) in renames {
                            s.push_str(&format!(" rename {from} to {to}"));
                        }
                        s
                    })
                    .collect();
                head.push_str(&format!(" inherits {}", bases.join(", ")));
            }
            let attrs: Vec<String> = t
                .own
                .iter()
                .map(|(n, ty)| format!("{n}: {}", ty.ddl()))
                .collect();
            out.push(format!("{head} ({})", attrs.join(", ")));
            out.push(format!("create {{ own ref T{i} }} C{i}"));
            out.push(format!("create {{ ref T{i} }} P{i}"));
            out.push(format!("range of V{i} is C{i}"));
            out.push(format!("range of Q{i} is P{i}"));
            out.push(format!(
                "define function F{i} (p: T{i}) returns int4 as retrieve (p.k)"
            ));
        }
        out.push(
            "define function Spread (xs: { int4 }) returns int8 \
             as retrieve (max(x over x) - min(x over x)) from x in xs"
                .into(),
        );
        out
    }
}

fn same_mode(a: &Ty, b: &Ty) -> bool {
    a.is_object() == b.is_object() && matches!(a, Ty::Ref(_)) == matches!(b, Ty::Ref(_))
}

/// A generated expression and the type the rules give it.
#[derive(Clone, Debug)]
pub struct E {
    pub text: String,
    pub ty: Ty,
}

fn e(text: String, ty: Ty) -> E {
    E { text, ty }
}

/// The checker's typing rules, one generator case each. A literal has no
/// premise to fail and a tuple literal no surface syntax, so neither is
/// a case.
pub const RULES: &[&str] = &[
    "name",
    "attribute",
    "index",
    "adt call",
    "excess call",
    "not",
    "negation",
    "and/or",
    "arithmetic",
    "equality",
    "ordering",
    "is",
    "membership",
    "set operator",
    "set literal",
    "aggregate of a set",
    "aggregate over ranges",
    "user operator",
];

/// The generator: a seeded stream of schemas, data and expressions.
pub struct Gen {
    rng: TestRng,
    pub schema: Schema,
}

impl Gen {
    /// A generator seeded by `name` and `case`, with a fresh schema.
    pub fn new(name: &str, case: u32) -> Gen {
        let mut g = Gen {
            rng: TestRng::deterministic(name, case),
            schema: Schema { types: Vec::new() },
        };
        g.gen_schema();
        g
    }

    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    fn scalar_ty(&mut self) -> Ty {
        match self.below(11) {
            0 => Ty::Int(1),
            1 => Ty::Int(2),
            2 | 3 => Ty::Int(4),
            4 => Ty::Int(8),
            5 => Ty::Float(4),
            6 => Ty::Float(8),
            7 => Ty::Bool,
            8 => Ty::Str,
            9 => Ty::Date,
            _ => self.pick(&[Ty::Complex, Ty::Fraction]).clone(),
        }
    }

    fn attr_ty(&mut self, i: usize) -> Ty {
        let earlier = |g: &mut Gen| g.below(i);
        match self.below(if i == 0 { 12 } else { 18 }) {
            0..=5 => self.scalar_ty(),
            6 => Ty::Enum(vec![format!("e{i}a"), format!("e{i}b"), format!("e{i}c")]),
            7 => Ty::Tuple(vec![("f".into(), self.scalar_ty()), ("g".into(), Ty::Str)]),
            8 | 9 => Ty::Set(Box::new(
                self.pick(&[Ty::Int(4), Ty::Int(8), Ty::Float(8), Ty::Str])
                    .clone(),
            )),
            10 => Ty::Array(Some(3), Box::new(self.pick(&[Ty::Int(4), Ty::Str]).clone())),
            11 => Ty::Array(
                None,
                Box::new(self.pick(&[Ty::Int(4), Ty::Float(8)]).clone()),
            ),
            12 | 13 => Ty::Ref(earlier(self)),
            14 => Ty::OwnRef(earlier(self)),
            15 => Ty::Obj(earlier(self)),
            16 => Ty::Set(Box::new(Ty::Ref(earlier(self)))),
            _ => Ty::Set(Box::new(Ty::OwnRef(earlier(self)))),
        }
    }

    fn gen_schema(&mut self) {
        for i in 0..2 + self.below(3) {
            let mut bases: Vec<(usize, Vec<(String, String)>)> = Vec::new();
            if i > 0 && self.chance(40) {
                bases.push((self.below(i), Vec::new()));
                if i > 1 && self.chance(40) {
                    let b = self.below(i);
                    let shared = self.schema.ancestors(b);
                    // No diamonds: two bases share no ancestor.
                    if !self
                        .schema
                        .ancestors(bases[0].0)
                        .iter()
                        .any(|a| shared.contains(a))
                    {
                        let taken: Vec<String> = self
                            .schema
                            .attrs(bases[0].0)
                            .into_iter()
                            .map(|(n, _)| n)
                            .collect();
                        let renames = self
                            .schema
                            .attrs(b)
                            .into_iter()
                            .filter(|(n, _)| taken.contains(n))
                            .map(|(n, _)| (n.clone(), format!("{n}_{i}")))
                            .collect();
                        bases.push((b, renames));
                    }
                }
            }
            let mut own = Vec::new();
            if bases.is_empty() {
                own.push(("k".to_string(), Ty::Int(4)));
            }
            for m in 0..1 + self.below(4) {
                let ty = self.attr_ty(i);
                own.push((format!("a{i}{m}"), ty));
            }
            self.schema.types.push(TypeDef { bases, own });
        }
    }

    /// A literal of scalar type `ty` (never null).
    fn lit(&mut self, ty: &Ty) -> String {
        match ty {
            Ty::Int(w) => {
                let max: i64 = match *w {
                    1 => i8::MAX as i64,
                    2 => i16::MAX as i64,
                    4 => i32::MAX as i64,
                    _ => i64::MAX,
                };
                match self.below(8) {
                    0 => max.to_string(),
                    1 => "0".into(),
                    _ => (self.below(9) as i64 - 4).to_string(),
                }
            }
            Ty::Float(_) => match self.below(6) {
                0 => "0.0".into(),
                1 => format!("{}.0", self.below(5)),
                _ => format!("{}.{}", self.below(9) as i64 - 4, 1 + self.below(9)),
            },
            Ty::Bool => self.pick(&["true", "false"]).to_string(),
            Ty::Str => format!("\"s{}\"", self.below(4)),
            Ty::Date => format!(
                "Date(\"{}/{}/{}\")",
                1 + self.below(12),
                1 + self.below(28),
                1950 + self.below(60)
            ),
            Ty::Complex => format!(
                "Complex(\"({}, {})\")",
                self.below(5),
                self.below(5) as i64 - 2
            ),
            Ty::Fraction => format!(
                "Fraction(\"{}/{}\")",
                self.below(7) as i64 - 3,
                1 + self.below(4)
            ),
            Ty::Set(elem) => {
                let items: Vec<String> = (0..self.below(4)).map(|_| self.lit(elem)).collect();
                format!("{{{}}}", items.join(", "))
            }
            other => unreachable!("no literal of {other:?}"),
        }
    }

    /// The data: appends to every collection, then the references,
    /// components and nested members that need one object per statement.
    pub fn data(&mut self) -> Vec<String> {
        let n = self.schema.types.len();
        let sizes: Vec<usize> = (0..n).map(|_| self.below(5)).collect();
        let mut out = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            for m in 0..*size {
                let mut assigns = vec![format!("k = {m}")];
                for (name, ty) in self.schema.attrs(i) {
                    let writable = ty.is_scalar() && !matches!(ty, Ty::Enum(_))
                        || matches!(&ty, Ty::Set(e) if e.is_scalar());
                    if name != "k" && writable && self.chance(75) {
                        assigns.push(format!("{name} = {}", self.lit(&ty)));
                    }
                }
                out.push(format!("append to C{i} ({})", assigns.join(", ")));
            }
        }
        let mut pooled = 0;
        for (i, size) in sizes.iter().enumerate() {
            for m in 0..*size {
                for (name, ty) in self.schema.attrs(i) {
                    let at = format!("where V{i}.k = {m}");
                    match ty {
                        Ty::Array(None, elem) => {
                            for _ in 0..self.below(3) {
                                out.push(format!("append to V{i}.{name} {} {at}", self.lit(&elem)));
                            }
                        }
                        Ty::Ref(j) if sizes[j] > 0 && self.chance(75) => {
                            let to = self.below(sizes[j]);
                            out.push(format!(
                                "replace V{i} ({name} = V{j}) {at} and V{j}.k = {to}"
                            ));
                        }
                        Ty::OwnRef(j) if self.chance(75) => {
                            pooled += 1;
                            out.push(format!("append to P{j} (k = {})", 100 + pooled));
                            out.push(format!(
                                "replace V{i} ({name} = Q{j}) {at} and Q{j}.k = {}",
                                100 + pooled
                            ));
                        }
                        Ty::Set(elem) => match *elem {
                            Ty::Ref(j) if sizes[j] > 0 => {
                                for _ in 0..self.below(3) {
                                    let to = self.below(sizes[j]);
                                    out.push(format!(
                                        "append to V{i}.{name} V{j} {at} and V{j}.k = {to}"
                                    ));
                                }
                            }
                            Ty::OwnRef(_) => {
                                for c in 0..self.below(3) {
                                    out.push(format!(
                                        "append to V{i}.{name} (k = {}) {at}",
                                        200 + c
                                    ));
                                }
                            }
                            _ => {}
                        },
                        _ => {}
                    }
                }
            }
        }
        out
    }

    /// Paths from `var` (of schema type `i`), two steps deep.
    fn paths(&mut self, var: &str, i: usize, depth: usize, out: &mut Vec<E>) {
        for (name, ty) in self.schema.attrs(i) {
            let path = format!("{var}.{name}");
            match &ty {
                Ty::Tuple(fs) => {
                    for (f, fty) in fs {
                        out.push(e(format!("{path}.{f}"), fty.clone()));
                    }
                }
                _ => {
                    if let (Some(j), true) = (ty.schema(), depth > 0) {
                        self.paths(&path, j, depth - 1, out);
                    }
                }
            }
            out.push(e(path, ty));
        }
    }

    /// Well-typed operands over the range variables `vars`: the
    /// variables, their paths and literals, then one round of accepted
    /// rules over those.
    pub fn pool(&mut self, vars: &[usize]) -> Vec<E> {
        let mut pool = Vec::new();
        for &v in vars {
            pool.push(e(format!("V{v}"), Ty::OwnRef(v)));
            self.paths(&format!("V{v}"), v, 1, &mut pool);
        }
        for ty in [
            Ty::Int(8),
            Ty::Int(8),
            Ty::Float(8),
            Ty::Bool,
            Ty::Str,
            Ty::Date,
            Ty::Complex,
            Ty::Fraction,
        ] {
            pool.push(e(self.lit(&ty), ty));
        }
        for ty in [Ty::Int(8), Ty::Float(8), Ty::Str] {
            // Not empty: `{}` is a set of unknown.
            let items: Vec<String> = (0..1 + self.below(3)).map(|_| self.lit(&ty)).collect();
            pool.push(e(
                format!("{{{}}}", items.join(", ")),
                Ty::Set(Box::new(ty)),
            ));
        }
        pool.push(e("null".into(), Ty::Null));
        for _ in 0..8 {
            let r = *self.pick(RULES);
            if let Some(x) = self.rule(r, true, &pool, vars) {
                pool.push(x);
            }
        }
        pool
    }

    /// A member of `pool` satisfying `pred`, never `null` unless `null_ok`.
    fn find(&mut self, pool: &[E], null_ok: bool, pred: impl Fn(&Ty) -> bool) -> Option<E> {
        let hits: Vec<&E> = pool
            .iter()
            .filter(|x| {
                if x.ty == Ty::Null {
                    null_ok
                } else {
                    pred(&x.ty)
                }
            })
            .collect();
        if hits.is_empty() {
            return None;
        }
        // Null stands in rarely: it is admitted everywhere, so it proves
        // little about the rule under it.
        let x = *self.pick(&hits);
        if x.ty == Ty::Null && hits.len() > 1 && !self.chance(15) {
            return hits.iter().find(|h| h.ty != Ty::Null).map(|h| (*h).clone());
        }
        Some(x.clone())
    }

    /// An expression whose root is `rule`, which the typing rules accept
    /// (`accept`) or reject, its operands drawn from `pool`; `None` when
    /// the pool holds no operands of the kinds the case needs.
    pub fn rule(&mut self, rule: &str, accept: bool, pool: &[E], vars: &[usize]) -> Option<E> {
        let s = self.schema.clone();
        let n = accept;
        Some(match (rule, accept) {
            ("name", true) => {
                let v = *self.pick(vars);
                e(format!("V{v}"), Ty::OwnRef(v))
            }
            ("name", false) => e(format!("nope{}", self.below(3)), Ty::Null),
            ("attribute", true) => {
                let b = self.find(pool, false, |t| t.schema().is_some())?;
                let attrs = s.attrs(b.ty.schema()?);
                let (name, ty) = self.pick(&attrs).clone();
                e(format!("{}.{name}", b.text), ty)
            }
            ("attribute", false) => {
                let any = self.chance(50);
                let b = self.find(pool, false, |t| any || t.schema().is_none())?;
                e(format!("{}.nope", b.text), Ty::Null)
            }
            ("index", _) => {
                let a = self.find(pool, false, |t| matches!(t, Ty::Array(..)) == n)?;
                let i = if n || self.chance(50) {
                    self.find(pool, true, |t| matches!(t, Ty::Int(_)))?
                } else {
                    self.find(pool, false, |t| matches!(t, Ty::Str | Ty::Float(_)))?
                };
                let elem = a.ty.elem().cloned().unwrap_or(Ty::Null);
                e(format!("{}[{}]", a.text, i.text), elem)
            }
            ("adt call", _) => {
                let x = self.find(pool, false, |t| matches!(t, Ty::Date | Ty::Complex))?;
                let (call, ty) = match (&x.ty, n) {
                    (_, false) => (
                        format!("{}.{}()", x.text, self.pick(&["Nope", "Area"])),
                        Ty::Null,
                    ),
                    (Ty::Date, true) => match self.below(4) {
                        0 => (format!("{}.Year()", x.text), Ty::Int(8)),
                        1 => (format!("{}.Day()", x.text), Ty::Int(8)),
                        2 => (
                            format!("{}.AddDays({})", x.text, self.below(800) as i64 - 400),
                            Ty::Date,
                        ),
                        _ => {
                            let y = self.find(pool, false, |t| *t == Ty::Date)?;
                            (format!("DaysBetween({}, {})", x.text, y.text), Ty::Int(8))
                        }
                    },
                    _ => match self.below(3) {
                        0 => (format!("{}.Re()", x.text), Ty::Float(8)),
                        1 => (format!("{}.Magnitude()", x.text), Ty::Float(8)),
                        _ => (format!("{}.Conjugate()", x.text), Ty::Complex),
                    },
                };
                e(call, ty)
            }
            ("excess call", _) => {
                let f = self.below(s.types.len());
                let arg = if n {
                    self.find(pool, false, |t| {
                        t.schema().is_some_and(|j| s.is_subtype(j, f))
                    })?
                } else {
                    self.find(pool, false, |t| {
                        t.schema().is_none_or(|j| !s.is_subtype(j, f))
                    })?
                };
                e(format!("F{f}({})", arg.text), Ty::Int(4))
            }
            ("not", _) => {
                let x = self.find(pool, n, |t| (*t == Ty::Bool) == n)?;
                e(format!("(not {})", x.text), Ty::Bool)
            }
            ("negation", _) => {
                let x = self.find(pool, n, |t| t.is_num() == n)?;
                // `null` counts as an integer, as the checker has it.
                let ty = if matches!(x.ty, Ty::Float(_)) {
                    Ty::Float(8)
                } else {
                    Ty::Int(8)
                };
                // Spaced: `--` would open a comment.
                e(format!("(- {})", x.text), ty)
            }
            ("and/or", _) => {
                let a = self.find(pool, true, |t| *t == Ty::Bool)?;
                let b = self.find(pool, n, |t| (*t == Ty::Bool) == n)?;
                e(
                    format!("({} {} {})", a.text, self.pick(&["and", "or"]), b.text),
                    Ty::Bool,
                )
            }
            ("arithmetic", true) => match self.below(3) {
                0 => {
                    let a = self.find(pool, true, |t| matches!(t, Ty::Int(_)))?;
                    let b = self.find(pool, true, |t| matches!(t, Ty::Int(_)))?;
                    e(format!("({} % {})", a.text, b.text), Ty::Int(8))
                }
                1 => {
                    let a = self.find(pool, false, |t| *t == Ty::Complex)?;
                    let b = self.find(pool, false, |t| *t == Ty::Complex)?;
                    e(
                        format!("({} {} {})", a.text, self.pick(&["+", "-", "*"]), b.text),
                        Ty::Complex,
                    )
                }
                _ => {
                    let a = self.find(pool, true, Ty::is_num)?;
                    let b = self.find(pool, true, Ty::is_num)?;
                    let both_int = !matches!(a.ty, Ty::Float(_)) && !matches!(b.ty, Ty::Float(_));
                    let ty = if both_int { Ty::Int(8) } else { Ty::Float(8) };
                    e(
                        format!(
                            "({} {} {})",
                            a.text,
                            self.pick(&["+", "-", "*", "/"]),
                            b.text
                        ),
                        ty,
                    )
                }
            },
            ("arithmetic", false) => {
                let a = self.find(pool, false, Ty::is_num)?;
                let (op, b) = if self.chance(30) {
                    ("%", self.find(pool, false, |t| matches!(t, Ty::Float(_)))?)
                } else {
                    let b = self.find(pool, false, |t| {
                        matches!(t, Ty::Str | Ty::Bool | Ty::Set(_))
                    })?;
                    (*self.pick(&["+", "-", "*", "/"]), b)
                };
                e(format!("({} {op} {})", a.text, b.text), Ty::Null)
            }
            ("equality" | "ordering", _) => {
                let ordering = rule == "ordering";
                let a = self.find(pool, n, |t| {
                    !t.is_object() && (!ordering || !n || t.is_ordered())
                })?;
                let b = self.find(pool, n, |t| {
                    let meets = s.unify(&a.ty, t).is_some() && !t.is_object();
                    let ordered = !ordering
                        || (a.ty.is_ordered() || a.ty == Ty::Null)
                            && (t.is_ordered() || *t == Ty::Null);
                    (meets && ordered) == n
                })?;
                let op = if ordering {
                    *self.pick(&["<", "<=", ">", ">="])
                } else {
                    *self.pick(&["=", "!="])
                };
                e(format!("({} {op} {})", a.text, b.text), Ty::Bool)
            }
            ("is", _) => {
                let a = self.find(pool, true, Ty::is_object)?;
                let b = self.find(pool, n, |t| t.is_object() == n)?;
                e(
                    format!("({} {} {})", a.text, self.pick(&["is", "isnot"]), b.text),
                    Ty::Bool,
                )
            }
            ("membership", _) => {
                let set = self.find(pool, false, |t| matches!(t, Ty::Set(_)) || !n)?;
                let member = match set.ty.elem().filter(|_| matches!(set.ty, Ty::Set(_))) {
                    Some(elem) if elem.is_object() => self.find(pool, n, |t| t.is_object() == n)?,
                    Some(elem) => self.find(pool, n, |t| {
                        (!t.is_object() && s.unify(t, elem).is_some()) == n
                    })?,
                    None if n => return None,
                    None => self.find(pool, true, |_| true)?,
                };
                if self.chance(50) {
                    e(format!("({} in {})", member.text, set.text), Ty::Bool)
                } else {
                    e(format!("({} contains {})", set.text, member.text), Ty::Bool)
                }
            }
            ("set operator", _) => {
                let a = self.find(pool, n, |t| matches!(t, Ty::Set(_)))?;
                let b = self.find(pool, n, |t| {
                    let meets = match (&a.ty, t) {
                        (Ty::Set(x), Ty::Set(y)) => s.unify(x, y).is_some(),
                        (Ty::Null, Ty::Set(_)) => true,
                        _ => false,
                    };
                    meets == n
                })?;
                let ty = match (&a.ty, &b.ty) {
                    (Ty::Set(x), Ty::Set(y)) => {
                        Ty::Set(Box::new(s.unify(x, y).unwrap_or(Ty::Null)))
                    }
                    (Ty::Null, t) | (t, Ty::Null) => t.clone(),
                    (t, _) => t.clone(),
                };
                let op = self.pick(&["union", "intersect", "minus"]);
                e(format!("({} {op} {})", a.text, b.text), ty)
            }
            ("set literal", _) => {
                let first = self.find(pool, false, |t| t.is_scalar() || t.is_object())?;
                let mut items = vec![first.clone()];
                let mut elem = first.ty.clone();
                for _ in 0..self.below(3) {
                    let x = self.find(pool, true, |t| s.unify(&elem, t).is_some())?;
                    elem = s.unify(&elem, &x.ty)?;
                    items.push(x);
                }
                if !n {
                    items.push(self.find(pool, false, |t| s.unify(&elem, t).is_none())?);
                }
                let texts: Vec<&str> = items.iter().map(|x| x.text.as_str()).collect();
                e(format!("{{{}}}", texts.join(", ")), Ty::Set(Box::new(elem)))
            }
            ("aggregate of a set", _) => {
                let arg = self.find(pool, false, |t| t.elem().is_some() || !n)?;
                let elem = arg.ty.elem().cloned();
                // Without `over`, `Spread(S)` is a call, so S must be a set.
                let spread = matches!(arg.ty, Ty::Set(_));
                let (func, ty) = self.agg_func(elem.as_ref(), spread, n)?;
                e(format!("{func}({})", arg.text), ty)
            }
            ("aggregate over ranges", _) => {
                let v = *self.pick(vars);
                let mut inner = Vec::new();
                inner.push(e(format!("V{v}"), Ty::OwnRef(v)));
                self.paths(&format!("V{v}"), v, 0, &mut inner);
                let arg = self.find(&inner, false, |_| true)?;
                // How a rejected case goes wrong: its function, an unknown
                // range, or a `where` that is not boolean.
                let bad = if n { 0 } else { self.below(3) };
                let (func, ty) = self.agg_func(Some(&arg.ty), true, bad != 0 || n)?;
                let mut text = format!("{func}({} over V{v}", arg.text);
                if self.chance(30) {
                    let by = self.find(&inner, false, |t| t.is_scalar())?;
                    text.push_str(&format!(" by {}", by.text));
                }
                match bad {
                    1 => text = text.replacen(&format!(" over V{v}"), " over Nope", 1),
                    2 => {
                        let q = self.find(&inner, false, |t| t.is_scalar() && *t != Ty::Bool)?;
                        text.push_str(&format!(" where {}", q.text));
                    }
                    _ if self.chance(30) => {
                        let q = self.find(&inner, false, |t| t.is_num())?;
                        text.push_str(&format!(" where {} > 0", q.text));
                    }
                    _ => {}
                }
                e(format!("{text})"), ty)
            }
            ("user operator", _) => {
                let a = self.find(pool, false, |t| (*t == Ty::Fraction) == n)?;
                let b = self.find(pool, false, |t| (*t == Ty::Fraction) == n)?;
                e(format!("({} ** {})", a.text, b.text), Ty::Fraction)
            }
            (other, _) => unreachable!("no rule '{other}'"),
        })
    }

    /// An aggregate function over elements of type `elem` (`None`: not a
    /// set) that the rules accept (`accept`) or reject, with its type;
    /// the set function `Spread` takes `{ int4 }` where `spread` allows.
    fn agg_func(
        &mut self,
        elem: Option<&Ty>,
        spread: bool,
        accept: bool,
    ) -> Option<(&'static str, Ty)> {
        let candidates: Vec<(&'static str, Option<Ty>)> = match elem {
            None => vec![("count", None), ("sum", None), ("unique", None)],
            Some(t) => {
                let num = t.is_num();
                let sum = if matches!(t, Ty::Int(_)) {
                    Ty::Int(8)
                } else {
                    Ty::Float(8)
                };
                vec![
                    ("count", Some(Ty::Int(8))),
                    ("unique", Some(Ty::Set(Box::new(t.clone())))),
                    ("sum", num.then_some(sum)),
                    ("avg", num.then_some(Ty::Float(8))),
                    ("min", t.is_ordered().then(|| t.clone())),
                    ("max", t.is_ordered().then(|| t.clone())),
                    ("Spread", (spread && *t == Ty::Int(4)).then_some(Ty::Int(8))),
                ]
            }
        };
        let fits: Vec<(&'static str, Option<Ty>)> = candidates
            .into_iter()
            .filter(|(_, ty)| ty.is_some() == accept)
            .collect();
        if fits.is_empty() {
            return None;
        }
        let (f, ty) = self.pick(&fits).clone();
        Some((f, ty.unwrap_or(Ty::Null)))
    }

    /// One statement: a retrieve whose first target's root is `rule`,
    /// accepted or rejected as `accept` says; everything else in it is
    /// accepted.
    pub fn statement(&mut self, rule: &str, accept: bool) -> Option<String> {
        let n = self.schema.types.len();
        let mut vars = vec![self.below(n)];
        if self.chance(40) {
            vars.push(self.below(n));
        }
        vars.dedup();
        let pool = self.pool(&vars);
        let root = self.rule(rule, accept, &pool, &vars)?;
        let mut targets = vec![root.text];
        if self.chance(30) {
            targets.push(self.find(&pool, false, |_| true)?.text);
        }
        let mut qual = String::new();
        if self.chance(40) {
            let rule = *self.pick(&["equality", "ordering", "membership", "and/or"]);
            qual = format!(" where {}", self.rule(rule, true, &pool, &vars)?.text);
        }
        Some(format!("retrieve ({}){qual}", targets.join(", ")))
    }

    /// A membership or equality probe over literals whose value the
    /// oracle knows: one member equality for `=`, `in` and set
    /// deduplication, numeric across int and float, sets unordered.
    pub fn equality_probe(&mut self) -> (String, bool) {
        let num = |g: &mut Gen| -> (String, f64) {
            let v = g.below(5) as i64 - 2;
            if g.chance(50) {
                (format!("{v}"), v as f64)
            } else {
                (format!("{v}.0"), v as f64)
            }
        };
        // A set literal of floats and ints meets only a set of floats,
        // so in a mixed probe every non-empty set starts with a float.
        let mixed = self.chance(50);
        let set = |g: &mut Gen| -> (String, Vec<f64>) {
            let mut items: Vec<(String, f64)> = (0..g.below(4)).map(|_| num(g)).collect();
            for (i, (text, v)) in items.iter_mut().enumerate() {
                if !mixed || i == 0 {
                    *text = if mixed {
                        format!("{v:.1}")
                    } else {
                        format!("{v}")
                    };
                }
            }
            let mut vals: Vec<f64> = items.iter().map(|(_, v)| *v).collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            let texts: Vec<String> = items.into_iter().map(|(t, _)| t).collect();
            (format!("{{{}}}", texts.join(", ")), vals)
        };
        match self.below(3) {
            0 => {
                let ((ta, a), (tb, b)) = (num(self), num(self));
                (
                    format!("retrieve ({ta} in {{{tb}, 7}})"),
                    a == b || a == 7.0,
                )
            }
            1 => {
                let ((ta, a), (tb, b)) = (set(self), set(self));
                (format!("retrieve ({ta} = {tb})"), a == b)
            }
            _ => {
                let (ta, a) = set(self);
                // Members the literal keeps: one per distinct number.
                (format!("retrieve (count({ta}) = {})", a.len()), true)
            }
        }
    }
}
