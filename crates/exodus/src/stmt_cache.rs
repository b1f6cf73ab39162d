//! The session's statement cache: a program of one `retrieve` (without
//! `into`) is checked, planned and compiled once per shape — its tokens
//! with each literal a hole — and each later statement of that shape
//! binds its own literals into the cached plan (DESIGN.md §9b).

use excess_lang::token::{Kw, Tok, Token};
use excess_lang::Lit;
use excess_sema::{CatalogLookup, Reads};

use crate::dml::{Planned, Scope};

/// Plans one session keeps; the least recently used goes first. Four
/// times the most shapes one session of any benchmark workload runs
/// (`path_scan`, 4), at ~6 KB a point plan.
const CAPACITY: usize = 16;

/// A statement's shape — its tokens with each integer, float and string
/// literal a hole of that kind, the cache key — and its literals, in
/// source order.
pub(crate) struct Shape {
    key: String,
    pub(crate) lits: Vec<Lit>,
}

impl Shape {
    /// The shape of a program that is one `retrieve` without `into`
    /// (trailing `;` allowed); `None` for any other program.
    pub(crate) fn of(tokens: &[Token]) -> Option<Shape> {
        let [first, second, ..] = tokens else {
            return None;
        };
        if first.tok != Tok::Kw(Kw::Retrieve) || second.tok == Tok::Kw(Kw::Into) {
            return None;
        }
        let (mut key, mut lits, mut ended) = (String::new(), Vec::new(), false);
        for t in tokens {
            // A hole is its kind: no identifier or symbol holds a `\u{1}`.
            let text = match &t.tok {
                Tok::Sym(s) if s == ";" => {
                    ended = true;
                    continue;
                }
                Tok::Eof => continue,
                _ if ended => return None,
                Tok::Int(i) => {
                    lits.push(Lit::Int(*i));
                    "\u{1}i"
                }
                Tok::Float(f) => {
                    lits.push(Lit::Float(*f));
                    "\u{1}f"
                }
                Tok::Str(s) => {
                    lits.push(Lit::Str(s.clone()));
                    "\u{1}s"
                }
                Tok::Ident(s) | Tok::Sym(s) => s,
                Tok::Kw(k) => k.as_str(),
            };
            key.push_str(text);
            key.push('\0');
        }
        Some(Shape { key, lits })
    }
}

/// The power-of-two bucket of a member count. `PARALLEL_MIN_ROWS`
/// (4,096) starts one, so a plan never outlives the count crossing the
/// planner's parallel threshold.
fn bucket(n: u64) -> u32 {
    u64::BITS - n.leading_zeros()
}

/// One cached plan, and what it was made under beyond its shape.
pub(crate) struct Entry {
    key: String,
    /// The holes whose values checking or planning read, with those
    /// values: they are as much the key as the shape is.
    pinned: Vec<(usize, Lit)>,
    /// The catalog stamp it was planned at. The database's batch size
    /// and worker threads are fixed when it is built, so a session's
    /// plans always match them.
    stamp: u64,
    /// The generation of the session's range declarations it was
    /// checked against.
    ranges: u64,
    /// The user whose read privileges were checked for it.
    user: String,
    /// The bucket of every member count the planner estimated with.
    sizes: Vec<(String, u32)>,
    last_used: u64,
    planned: Planned,
}

impl Entry {
    /// `planned`, made for `shape` in `scope` after reading `reads`.
    pub(crate) fn new(shape: &Shape, scope: &Scope, reads: Reads, planned: Planned) -> Entry {
        let pinned = reads.holes.into_iter();
        let sizes = reads.sizes.into_iter();
        let (stamp, ranges, user) = scope.made_under();
        Entry {
            key: shape.key.clone(),
            pinned: pinned
                .map(|slot| (slot, shape.lits[slot].clone()))
                .collect(),
            stamp,
            ranges,
            user: user.to_string(),
            sizes: sizes.map(|(name, n)| (name, bucket(n))).collect(),
            last_used: 0,
            planned,
        }
    }
}

/// A session's cached plans.
#[derive(Default)]
pub(crate) struct StmtCache {
    entries: Vec<Entry>,
    clock: u64,
}

impl StmtCache {
    fn position(&self, shape: &Shape) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.key == shape.key && e.pinned.iter().all(|(slot, l)| shape.lits[*slot] == *l)
        })
    }

    /// Whether a plan — fresh or stale — is cached for `shape`.
    pub(crate) fn holds(&self, shape: &Shape) -> bool {
        self.position(shape).is_some()
    }

    /// The plan cached for `shape` and its pinned literals, if it still
    /// answers in `scope` as a fresh one would: the catalog is at the
    /// same stamp, the session's range declarations and user are the
    /// ones it was made under, and every member count it estimated with
    /// is in the same bucket. A stale plan is dropped.
    pub(crate) fn lookup(&mut self, shape: &Shape, scope: &Scope) -> Option<&Planned> {
        let i = self.position(shape)?;
        let e = &self.entries[i];
        let catalog: &dyn CatalogLookup = scope.view();
        let same_size =
            |(name, b): &(String, u32)| catalog.collection_size(name).map(bucket) == Some(*b);
        if (e.stamp, e.ranges, e.user.as_str()) != scope.made_under()
            || !e.sizes.iter().all(same_size)
        {
            self.entries.swap_remove(i);
            return None;
        }
        self.clock += 1;
        let e = &mut self.entries[i];
        e.last_used = self.clock;
        Some(&e.planned)
    }

    /// Cache `entry`, in place of the least recently used when full.
    pub(crate) fn insert(&mut self, mut entry: Entry) {
        self.clock += 1;
        entry.last_used = self.clock;
        if self.entries.len() == CAPACITY {
            let lru = (0..CAPACITY).min_by_key(|&i| self.entries[i].last_used);
            self.entries
                .swap_remove(lru.expect("a full cache has entries"));
        }
        self.entries.push(entry);
    }
}
