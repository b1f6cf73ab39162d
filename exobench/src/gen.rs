//! Seeded generators and oracles. Everything a workload loads or asks is
//! drawn from `--seed` here, and so is the answer it must get back: the engine
//! sees only the generated inputs, never the seed.
//!
//! Sums are taken over integer-valued floats well below 2^53, so the expected
//! value is exact whatever order the engine adds them in.

use std::collections::BTreeSet;

use std::sync::Arc;

use crate::layers::{self, Database, Oid, Response, Value, R};

/// The seed a plain `exobench run` uses.
pub const DEFAULT_SEED: u64 = 0x00EC_0DE5;
/// A second, documented seed: the baseline must pass every oracle on it too.
pub const ALT_SEED: u64 = 1988;

/// splitmix64: small, fast and reproducible everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` (a workload or client index).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what any
    /// workload here could notice.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// ------------------------------------------------------------ checking

/// What a statement must return.
#[derive(Debug, Clone)]
pub enum Expect {
    /// This many rows with this order-independent checksum.
    Rows { count: usize, checksum: u64 },
    /// One row of numbers, each within a relative 1e-9 of the expectation
    /// (averages, whose rounding depends on the order of summation).
    Numbers(Vec<f64>),
    /// An acknowledgement, not rows (`append`, `replace`, `delete`).
    Done,
}

impl Expect {
    pub fn rows(rows: &[Vec<Value>]) -> Expect {
        Expect::Rows {
            count: rows.len(),
            checksum: checksum_rows(rows),
        }
    }

    pub fn holds_for(&self, response: &Response) -> bool {
        match (self, response) {
            (Expect::Rows { count, checksum }, Response::Rows(r)) => {
                r.rows.len() == *count && checksum_rows(&r.rows) == *checksum
            }
            (Expect::Numbers(want), Response::Rows(r)) => {
                r.rows.len() == 1
                    && r.rows[0].len() == want.len()
                    && r.rows[0].iter().zip(want).all(|(got, want)| match got {
                        Value::Int(i) => close(*i as f64, *want),
                        Value::Float(f) => close(*f, *want),
                        _ => false,
                    })
            }
            (Expect::Done, Response::Done(_)) => true,
            _ => false,
        }
    }
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

/// Sum of per-row hashes: equal for equal multisets of rows, in any order.
pub fn checksum_rows(rows: &[Vec<Value>]) -> u64 {
    rows.iter().fold(0u64, |acc, row| {
        let mut h = FNV_OFFSET;
        for v in row {
            hash_value(v, &mut h);
        }
        acc.wrapping_add(h)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn hash_value(v: &Value, h: &mut u64) {
    match v {
        Value::Null => fnv(h, &[0]),
        Value::Int(i) => {
            fnv(h, &[1]);
            fnv(h, &i.to_le_bytes());
        }
        Value::Float(f) => {
            fnv(h, &[2]);
            fnv(h, &f.to_bits().to_le_bytes());
        }
        Value::Bool(b) => fnv(h, &[3, *b as u8]),
        Value::Str(s) => {
            fnv(h, &[4]);
            fnv(h, &(s.len() as u64).to_le_bytes());
            fnv(h, s.as_bytes());
        }
        Value::Enum(ord, _) => {
            fnv(h, &[5]);
            fnv(h, &ord.to_le_bytes());
        }
        Value::Adt(_, bytes) => {
            fnv(h, &[6]);
            fnv(h, bytes);
        }
        Value::Tuple(items) | Value::Array(items) => {
            fnv(h, &[7]);
            for item in items {
                hash_value(item, h);
            }
        }
        // A set has no order: combine member hashes commutatively.
        Value::Set(members) => {
            let sum = members.iter().fold(0u64, |acc, m| {
                let mut mh = FNV_OFFSET;
                hash_value(m, &mut mh);
                acc.wrapping_add(mh)
            });
            fnv(h, &[8]);
            fnv(h, &sum.to_le_bytes());
        }
        Value::Ref(oid) => {
            fnv(h, &[9]);
            fnv(h, &oid.0.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------- university

pub const UNIVERSITY_SCHEMA: &str = r#"
    define type Department (dname: varchar, floor: int4, budget: float8);
    define type Person (name: varchar, age: int4, kids: { own Person });
    define type Employee inherits Person (id: int4, dept: ref Department, salary: float8);
    create { own ref Department } Departments;
    create { own ref Employee } Employees;
"#;

/// Position of `salary` in an `Employee` tuple (inherited attributes first).
pub const EMPLOYEE_SALARY_POS: usize = 5;

#[derive(Debug, Clone)]
pub struct Dept {
    pub dname: String,
    pub floor: i64,
    pub budget: f64,
}

#[derive(Debug, Clone)]
pub struct Kid {
    pub name: String,
    pub age: i64,
}

#[derive(Debug, Clone)]
pub struct Emp {
    pub name: String,
    pub age: i64,
    pub kids: Vec<Kid>,
    pub id: i64,
    pub dept: usize,
    pub salary: f64,
}

/// The paper's running example, generated: employees with a `ref` to a
/// department and a nested set of owned kids.
#[derive(Debug, Clone)]
pub struct University {
    pub depts: Vec<Dept>,
    pub emps: Vec<Emp>,
}

impl University {
    pub fn generate(rng: &mut Rng, n_depts: usize, n_emps: usize, kids: usize) -> University {
        let depts = (0..n_depts)
            .map(|d| Dept {
                dname: format!("dept{d:05}"),
                floor: 1 + rng.below(10) as i64,
                budget: 50_000.0 + 1_000.0 * rng.below(500) as f64,
            })
            .collect();
        let emps = (0..n_emps)
            .map(|i| Emp {
                name: format!("emp{i:06}"),
                age: 20 + rng.below(45) as i64,
                kids: (0..kids)
                    .map(|k| Kid {
                        name: format!("kid{i}-{k}"),
                        age: 1 + rng.below(17) as i64,
                    })
                    .collect(),
                id: i as i64,
                dept: rng.below(n_depts as u64) as usize,
                salary: 20_000.0 + rng.below(80_000) as f64,
            })
            .collect();
        University { depts, emps }
    }

    /// Create the university schema in `db` and load this university into
    /// it; the departments' oids, in generation order.
    pub fn load(&self, db: &Arc<Database>) -> R<Vec<Oid>> {
        layers::run(&mut layers::session(db), UNIVERSITY_SCHEMA)?;
        let dept_oids = layers::bulk_append(db, "Departments", self.dept_values())?;
        layers::bulk_append(db, "Employees", self.emp_values(&dept_oids))?;
        Ok(dept_oids)
    }

    /// `valueio`-encoded bytes of everything `load` loads: the user data.
    pub fn user_bytes(&self) -> u64 {
        let encoded = |v: &Value| layers::value_to_bytes(v).len();
        let depts: usize = self.dept_values().iter().map(encoded).sum();
        let emps: usize = self
            .emps
            .iter()
            .map(|e| encoded(&emp_value(e, Oid(1))))
            .sum();
        (depts + emps) as u64
    }

    pub fn dept_values(&self) -> Vec<Value> {
        self.depts
            .iter()
            .map(|d| {
                Value::Tuple(vec![
                    Value::Str(d.dname.clone()),
                    Value::Int(d.floor),
                    Value::Float(d.budget),
                ])
            })
            .collect()
    }

    /// Employee tuples, `dept` pointing at the loaded departments' oids.
    pub fn emp_values(&self, dept_oids: &[Oid]) -> Vec<Value> {
        self.emps
            .iter()
            .map(|e| emp_value(e, dept_oids[e.dept]))
            .collect()
    }

    pub fn sum_salary(&self) -> f64 {
        self.emps.iter().map(|e| e.salary).sum()
    }

    pub fn sum_dept_budget(&self) -> f64 {
        self.emps.iter().map(|e| self.depts[e.dept].budget).sum()
    }

    /// Names of employees on `floor` earning more than `salary`.
    pub fn names_on_floor_above(&self, floor: i64, salary: f64) -> Vec<Vec<Value>> {
        self.emps
            .iter()
            .filter(|e| self.depts[e.dept].floor == floor && e.salary > salary)
            .map(|e| vec![Value::Str(e.name.clone())])
            .collect()
    }

    pub fn count_on_floor(&self, floor: i64) -> i64 {
        self.emps
            .iter()
            .filter(|e| self.depts[e.dept].floor == floor)
            .count() as i64
    }

    /// Distinct names of departments some employee refers to.
    pub fn referenced_dnames(&self) -> Vec<Value> {
        let used: BTreeSet<usize> = self.emps.iter().map(|e| e.dept).collect();
        used.into_iter()
            .map(|d| Value::Str(self.depts[d].dname.clone()))
            .collect()
    }

    /// `(kid name, floor of the parent's department)` for every kid.
    pub fn kids_with_floor(&self) -> Vec<Vec<Value>> {
        self.emps
            .iter()
            .flat_map(|e| {
                let floor = self.depts[e.dept].floor;
                e.kids
                    .iter()
                    .map(move |k| vec![Value::Str(k.name.clone()), Value::Int(floor)])
            })
            .collect()
    }

    /// Ages of all kids older than `age`.
    pub fn kid_ages_above(&self, age: i64) -> Vec<i64> {
        self.emps
            .iter()
            .flat_map(|e| e.kids.iter().map(|k| k.age))
            .filter(|&a| a > age)
            .collect()
    }
}

fn emp_value(e: &Emp, dept: Oid) -> Value {
    Value::Tuple(vec![
        Value::Str(e.name.clone()),
        Value::Int(e.age),
        Value::Set(
            e.kids
                .iter()
                .map(|k| {
                    Value::Tuple(vec![
                        Value::Str(k.name.clone()),
                        Value::Int(k.age),
                        Value::Set(vec![]),
                    ])
                })
                .collect(),
        ),
        Value::Int(e.id),
        Value::Ref(dept),
        Value::Float(e.salary),
    ])
}

// ------------------------------------------------------------ accounts

pub const ACCOUNTS_SCHEMA: &str = r#"
    define type Account (id: int4, bucket: int4, owner: varchar, balance: float8);
    create { own ref Account } Accounts;
"#;

/// Accounts per `bucket` value: an equality lookup on `bucket` returns this many.
pub const BUCKET_ROWS: u64 = 20;

/// The point-lookup collection: `id` is unique, `bucket = id / 20`.
#[derive(Debug, Clone)]
pub struct Accounts {
    pub balances: Vec<f64>,
}

impl Accounts {
    pub fn generate(rng: &mut Rng, n: usize) -> Accounts {
        Accounts {
            balances: (0..n).map(|_| rng.below(1_000_000) as f64).collect(),
        }
    }

    pub fn owner(id: u64) -> String {
        format!("owner{id:07}")
    }

    pub fn values(&self) -> Vec<Value> {
        self.balances
            .iter()
            .enumerate()
            .map(|(id, &balance)| {
                Value::Tuple(vec![
                    Value::Int(id as i64),
                    Value::Int((id as u64 / BUCKET_ROWS) as i64),
                    Value::Str(Accounts::owner(id as u64)),
                    Value::Float(balance),
                ])
            })
            .collect()
    }

    pub fn buckets(&self) -> u64 {
        self.balances.len() as u64 / BUCKET_ROWS
    }

    /// A point lookup by unique key and the row it must return.
    pub fn point(&self, id: u64) -> (String, Expect) {
        (
            format!("retrieve (A.owner, A.balance) from A in Accounts where A.id = {id}"),
            Expect::rows(&[self.row(id)]),
        )
    }

    /// An index lookup returning the `BUCKET_ROWS` accounts of one bucket.
    pub fn bucket(&self, b: u64) -> (String, Expect) {
        let rows: Vec<_> = (b * BUCKET_ROWS..(b + 1) * BUCKET_ROWS)
            .map(|id| self.row(id))
            .collect();
        (
            format!("retrieve (A.owner, A.balance) from A in Accounts where A.bucket = {b}"),
            Expect::rows(&rows),
        )
    }

    fn row(&self, id: u64) -> Vec<Value> {
        vec![
            Value::Str(Accounts::owner(id)),
            Value::Float(self.balances[id as usize]),
        ]
    }
}

// ------------------------------------------------------------- journal

pub const JOURNAL_SCHEMA: &str = r#"
    define type Entry (k: int4, tag: varchar, n: int4);
    create { own ref Entry } Journal;
"#;

pub fn journal_entry(k: i64, tag: &str, n: i64) -> Value {
    Value::Tuple(vec![
        Value::Int(k),
        Value::Str(tag.to_string()),
        Value::Int(n),
    ])
}

/// The autocommit statement that appends `journal_entry(k, tag, n)`.
pub fn journal_append(k: i64, tag: &str, n: i64) -> String {
    format!("append to Journal (k = {k}, tag = \"{tag}\", n = {n})")
}

/// `valueio`-encoded bytes of `journal_entry(k, tag, n)`.
pub fn journal_entry_bytes(k: i64, tag: &str, n: i64) -> u64 {
    layers::value_to_bytes(&journal_entry(k, tag, n)).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_data_other_seed_other_data() {
        let gen = |seed| University::generate(&mut Rng::new(seed, 0), 20, 200, 2);
        let (a, b, c) = (gen(DEFAULT_SEED), gen(DEFAULT_SEED), gen(ALT_SEED));
        assert_eq!(a.sum_salary(), b.sum_salary());
        assert_eq!(
            checksum_rows(&a.kids_with_floor()),
            checksum_rows(&b.kids_with_floor())
        );
        assert_ne!(a.sum_salary(), c.sum_salary());
    }

    #[test]
    fn checksum_ignores_row_and_set_order_but_not_content() {
        let r1 = vec![
            Value::Int(1),
            Value::Set(vec![Value::str("a"), Value::str("b")]),
        ];
        let r1_swapped = vec![
            Value::Int(1),
            Value::Set(vec![Value::str("b"), Value::str("a")]),
        ];
        let r2 = vec![Value::Int(2), Value::Set(vec![])];
        assert_eq!(
            checksum_rows(&[r1.clone(), r2.clone()]),
            checksum_rows(&[r2.clone(), r1_swapped])
        );
        assert_ne!(
            checksum_rows(&[r1.clone(), r2]),
            checksum_rows(&[r1.clone(), r1])
        );
    }
}
