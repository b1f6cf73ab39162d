//! The catalog is a logged record (DESIGN.md §14): a file-backed
//! database reopens with every type, named object, function, procedure,
//! index, statistic, user and grant it had — and an image that cannot
//! be read is refused with a stable code, never a panic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use extra_excess::storage::crc::crc32;
use extra_excess::storage::lob::{Lob, LobId};
use extra_excess::storage::page::{HEADER_SIZE, PAGE_SIZE};
use extra_excess::storage::StorageManager;
use extra_excess::{Database, DbError, DbResult, Durability, Response, Value};
use proptest::prelude::*;

mod common;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("exodus-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn open(path: &Path) -> DbResult<Arc<Database>> {
    Database::builder()
        .path(path)
        .durability(Durability::Fsync)
        .build()
}

/// A schema touching every part of the catalog: inheritance with
/// renames, a key, a named object, a function, a procedure, an index,
/// statistics, a user, a group and grants.
const SCHEMA: &str = r#"
    define type Dept (dname: varchar, floor: int4);
    define type Person (name: varchar, age: int4, kids: { own ref Person });
    define type Student inherits Person (gpa: float8, dept: ref Dept);
    define type Worker inherits Person (salary: float8, dept: ref Dept);
    define type TA inherits Student rename dept to enrolled_dept,
        Worker rename dept to works_in_dept (hours: int4);
    create { own ref Dept } Depts;
    create { own ref TA } TAs key (name);
    create Dept Hq;
    replace Hq (dname = "hq", floor = 9);
    append to Depts (dname = "toy", floor = 2);
    append to TAs (name = "sam", age = 22, gpa = 3.5, salary = 9000.0, hours = 20);
    append to TAs (name = "ada", age = 31, gpa = 3.9, salary = 12000.0, hours = 10);
    range of T is TAs;
    range of D is Depts;
    replace T (works_in_dept = D) where D.dname = "toy";
    define function Pay (t: TA) returns float8 as retrieve (t.salary + t.salary);
    define procedure Raise (amount: float8) as
        range of X is TAs; replace X (salary = X.salary + amount) end;
    define index ByAge on TAs (age);
    analyze TAs;
    create user alice;
    create user bob;
    create group staff;
    add user alice to group staff;
    grant read on TAs to staff;
    grant execute on Pay to staff
"#;

/// What the catalog is asked, as `(user, statement)`.
const PROBES: &[(&str, &str)] = &[
    (
        "admin",
        "retrieve (T.name, T.age, T.hours, T.works_in_dept.dname) from T in TAs",
    ),
    ("admin", "retrieve (Hq.dname, Hq.floor)"),
    ("admin", "retrieve (Pay(T)) from T in TAs"),
    (
        "admin",
        "explain retrieve (T.name) from T in TAs where T.age = 22",
    ),
    (
        "admin",
        "retrieve (c.name, c.members, c.analyzed, c.analyzed_rows) from c in sys.collections",
    ),
    ("admin", r#"append to TAs (name = "sam", age = 1)"#),
    ("alice", "retrieve (Pay(T)) from T in TAs"),
    ("bob", "retrieve (T.name) from T in TAs"),
    ("bob", "retrieve (D.dname) from D in Depts"),
];

/// The probes' answers: sorted rows, plans, acknowledgments, or codes.
fn transcript(db: &Arc<Database>) -> Vec<String> {
    PROBES
        .iter()
        .map(|(user, stmt)| {
            let mut s = db.session_as(user);
            match s.run(stmt).map(|mut r| r.pop()) {
                Ok(Some(Response::Rows(r))) => {
                    let mut rows: Vec<String> = r.rows.iter().map(|r| format!("{r:?}")).collect();
                    rows.sort();
                    rows.join("; ")
                }
                Ok(Some(Response::Explained(e))) => e.plan,
                Ok(other) => format!("{other:?}"),
                Err(e) => format!("{}: {e}", e.code()),
            }
        })
        .collect()
}

#[test]
fn every_catalog_part_survives_a_reopen() {
    let dir = temp_dir("parts");
    let path = dir.join("db.vol");
    let before = {
        let db = open(&path).unwrap();
        db.run(SCHEMA).unwrap();
        // Fails on `nosuch`, after granting to bob: the image keeps what
        // the catalog holds, failed statement or not.
        db.run("grant read on Depts to bob, nosuch").unwrap_err();
        transcript(&db)
    };
    assert!(before[3].contains("ByAge"), "{}", before[3]);
    assert!(before[5].contains("key violation"), "{}", before[5]);
    assert!(before[7].starts_with("1003"), "{}", before[7]);
    assert!(before[8].contains("toy"), "{}", before[8]);
    let db = open(&path).unwrap();
    assert_eq!(before, transcript(&db));
    // The procedure's body survived with it.
    db.run("execute Raise(100.0)").unwrap();
    let r = db
        .query(r#"retrieve (T.salary) from T in TAs where T.name = "sam""#)
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Float(9100.0)]]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_nested_append_survives_a_reopen() {
    let dir = temp_dir("nested");
    let path = dir.join("db.vol");
    let (kid, image_len) = {
        let db = open(&path).unwrap();
        db.run(
            r#"
            define type Kid (name: varchar);
            define type Person (name: varchar, kids: { own ref Kid });
            create { own ref Person } Ps;
        "#,
        )
        .unwrap();
        let ann = db
            .bulk_append(
                "Ps",
                vec![Value::Tuple(vec![Value::str("ann"), Value::empty_set()])],
            )
            .unwrap()[0];
        let before = db.store().export_image().len();
        db.run(r#"range of P is Ps; append to P.kids (name = "kim") where P.name = "ann""#)
            .unwrap();
        let image_len = db.store().export_image().len();
        assert!(image_len > before, "the nested append interns a new type");
        let snap = db.store().current_snap();
        let Value::Tuple(fields) = db.store().value_of_at(ann, snap).unwrap() else {
            panic!("ann is not a tuple");
        };
        let kid = match &fields[1] {
            Value::Set(kids) => match kids.as_slice() {
                [Value::Ref(kid)] => *kid,
                other => panic!("kids: {other:?}"),
            },
            other => panic!("kids: {other:?}"),
        };
        (kid, image_len)
    };
    let db = open(&path).unwrap();
    assert_eq!(db.store().export_image().len(), image_len);
    let snap = db.store().current_snap();
    assert_eq!(
        db.store().value_of_at(kid, snap).unwrap(),
        Value::Tuple(vec![Value::str("kim")])
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reopen_refuses_an_image_naming_a_runtime_adt() {
    let dir = temp_dir("adt");
    let path = dir.join("db.vol");
    {
        let db = open(&path).unwrap();
        db.register_adt(Arc::new(common::Fraction)).unwrap();
        db.run(
            r#"
            define type Recipe (title: varchar, scale: Fraction);
            create { own ref Recipe } Recipes;
            append to Recipes (title = "bread", scale = Fraction("3/4"));
        "#,
        )
        .unwrap();
    }
    let err = open(&path).map(drop).unwrap_err();
    assert!(matches!(err, DbError::AdtMismatch(_)), "{err}");
    assert_eq!(err.code(), 1008);
    assert!(err.to_string().contains("Fraction"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reopen_over_a_zeroed_catalog_page_fails_with_a_stable_code() {
    let dir = temp_dir("zeroed");
    let path = dir.join("db.vol");
    {
        let db = open(&path).unwrap();
        db.run("define type P (k: int4); create { own P } Ks; append to Ks (k = 1)")
            .unwrap();
        db.checkpoint().unwrap();
    }
    let mut volume = std::fs::read(&path).unwrap();
    volume[PAGE_SIZE..2 * PAGE_SIZE].fill(0);
    std::fs::write(&path, volume).unwrap();
    let err = open(&path).map(drop).unwrap_err();
    assert_eq!(err.code(), 1006, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Hostile bytes: the decoder behind every open.
// ---------------------------------------------------------------------------

/// The image of the [`SCHEMA`] catalog, as it sits on page 1.
fn seed_image() -> Vec<u8> {
    let db = Database::in_memory();
    db.run(SCHEMA).unwrap();
    Lob::open(LobId(1))
        .read_all(db.store().storage().pool())
        .unwrap()
}

/// Open an in-memory database over a volume whose catalog page holds
/// `image`, noting the largest single allocation the open makes.
fn open_over(image: &[u8]) -> (DbResult<()>, usize) {
    let sm = StorageManager::in_memory(64);
    let lob = Lob::create(sm.pool()).unwrap();
    assert_eq!(lob.id(), LobId(1));
    lob.write(sm.pool(), 0, image).unwrap();
    LARGEST.with(|l| l.set(Some(0)));
    let result = Database::builder()
        .storage(sm)
        .metrics(false)
        .build()
        .map(drop);
    (result, LARGEST.with(|l| l.replace(None)).unwrap())
}

/// Re-seal an edited image's trailing checksum, so the edit reaches the
/// parser instead of stopping at the checksum.
fn reseal(image: &mut [u8]) {
    let n = image.len() - 4;
    let crc = crc32(&image[..n]);
    image[n..].copy_from_slice(&crc.to_le_bytes());
}

/// No allocation may be sized by a length or count the bytes cannot
/// back: the largest is a page frame, or linear in the image.
fn assert_bounded(largest: usize, image: &[u8]) {
    let bound = PAGE_SIZE.max(64 * image.len());
    assert!(largest <= bound, "an open allocated {largest} bytes");
}

#[test]
fn every_truncation_of_the_image_is_refused() {
    let image = seed_image();
    let (seed, largest) = open_over(&image);
    assert!(
        seed.is_ok() && largest > 0,
        "the seed image must open, measured"
    );
    for cut in 0..image.len() {
        let (result, largest) = open_over(&image[..cut]);
        assert_eq!(result.unwrap_err().code(), 1006, "cut at {cut}");
        assert_bounded(largest, &image);
    }
}

#[test]
fn an_image_of_another_version_is_refused() {
    // Version 3 is the last image whose volume kept B+-tree entries in
    // the page body.
    for old in [2u32, 3] {
        let mut image = seed_image();
        image[..4].copy_from_slice(&old.to_le_bytes());
        reseal(&mut image);
        let err = open_over(&image).0.unwrap_err();
        assert_eq!(err.code(), 1006);
        assert!(err.to_string().contains(&format!("version {old}")), "{err}");
    }
}

#[test]
fn a_length_past_the_volume_is_refused_before_allocating() {
    let sm = StorageManager::in_memory(64);
    Lob::create(sm.pool()).unwrap();
    let page = sm.pool().pin(1).unwrap();
    // The large object's length is the first word of its page body.
    page.with_write(|buf| {
        buf[HEADER_SIZE..HEADER_SIZE + 8].copy_from_slice(&(1u64 << 40).to_le_bytes())
    });
    drop(page);
    let err = Database::builder()
        .storage(sm)
        .build()
        .map(drop)
        .unwrap_err();
    assert_eq!(err.code(), 1006, "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flipped_bytes_are_refused_and_never_panic(
        at in 0usize..1 << 20,
        xor in 1u8..=255,
        reseal_it in any::<bool>(),
    ) {
        let mut image = seed_image_cached();
        let at = at % image.len();
        image[at] ^= xor;
        if reseal_it && at < image.len() - 4 {
            // Past the checksum, any outcome but a panic or an
            // unbounded allocation is acceptable.
            reseal(&mut image);
            let (_, largest) = open_over(&image);
            assert_bounded(largest, &image);
        } else {
            let (result, largest) = open_over(&image);
            prop_assert!(result.is_err(), "flip at {} went unnoticed", at);
            assert_bounded(largest, &image);
        }
    }
}

fn seed_image_cached() -> Vec<u8> {
    static SEED: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SEED.get_or_init(seed_image).clone()
}

// The largest allocation made on this thread while `LARGEST` is set.
thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Measuring;

// SAFETY: every request is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the wrapper only reads the
// requested size, and the thread-local it writes allocates nothing.
unsafe impl GlobalAlloc for Measuring {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| {
            if let Some(max) = l.get() {
                l.set(Some(max.max(layout.size())));
            }
        });
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Measuring = Measuring;
