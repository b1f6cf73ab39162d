//! `path_scan`, `nested_unnest` and `spill_scan`: one session walking a fixed
//! round of read statements over the generated university.

use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{Env, Finish, Instance, Recorder, Section, StmtOp};
use crate::gen::{Expect, Rng, University};
use crate::layers::{self, Database, Durability, Session, Value, R};
use crate::stats::Metric;

/// Frames of a pool that holds every page these workloads load.
const POOL_FITS: usize = 16_384;

struct Mix {
    dbs: Vec<Arc<Database>>,
    sessions: Vec<Session>,
    /// The statements of one round, each with the session it runs on.
    round: Vec<(usize, StmtOp)>,
    next: usize,
    user_bytes: u64,
    /// `(hits, misses)` of the pool over the measured sections so far.
    pool: (u64, u64),
    /// `spill_scan` at `--scale` >= 1 only: the run is invalid unless the
    /// pool's hit ratio over the measured sections stays below this.
    max_hit_ratio: Option<f64>,
    pool_pages: usize,
}

impl Instance for Mix {
    fn section(&mut self, budget: Duration, traced: bool) -> R<Section> {
        let start = Instant::now();
        let (hits0, misses0, _) = layers::pool_stats(&self.dbs[0]);
        let mut rec = Recorder::new(start, traced);
        while start.elapsed() < budget {
            let (sess, op) = &self.round[self.next];
            rec.local_stmt(&mut self.sessions[*sess], op, true);
            self.next = (self.next + 1) % self.round.len();
        }
        let (hits1, misses1, _) = layers::pool_stats(&self.dbs[0]);
        self.pool.0 += hits1 - hits0;
        self.pool.1 += misses1 - misses0;
        Ok(Section::merge(budget, vec![rec]))
    }

    fn db(&self) -> &Arc<Database> {
        &self.dbs[0]
    }

    fn sample_read(&self, i: usize) -> (String, Expect) {
        // Session 0's statements only: the samples run against `db()`.
        let own: Vec<_> = self.round.iter().filter(|(s, _)| *s == 0).collect();
        let op = &own[i % own.len()].1;
        (op.text.clone(), op.expect.clone())
    }

    fn user_bytes(&self) -> u64 {
        self.user_bytes
    }

    fn stored_bytes(&self) -> (u64, u64) {
        (self.dbs.iter().map(layers::volume_bytes).sum(), 0)
    }

    fn finish(self: Box<Self>) -> R<Finish> {
        let ratio = self.pool.0 as f64 / (self.pool.0 + self.pool.1).max(1) as f64;
        let volume_pages = layers::volume_bytes(&self.dbs[0]) / layers::PAGE_BYTES;
        if let Some(max) = self.max_hit_ratio {
            if ratio >= max {
                return Err(format!(
                    "invalid run: pool hit ratio {ratio:.3} is not below {max} \
                     ({} pool pages over {volume_pages} volume pages)",
                    self.pool_pages
                ));
            }
            if self.pool_pages as u64 * 8 > volume_pages {
                return Err(format!(
                    "invalid run: {} pool pages are more than 1/8 of {volume_pages} volume pages",
                    self.pool_pages
                ));
            }
        }
        Ok(Finish {
            detail: vec![
                Metric::single("pool_hit_ratio", "ratio", ratio),
                Metric::single("pool_pages", "count", self.pool_pages as f64),
                Metric::single("volume_pages", "count", volume_pages as f64),
            ],
            ..Finish::default()
        })
    }
}

fn op(class: &'static str, text: String, expect: Expect, rows: usize) -> StmtOp {
    StmtOp {
        class,
        text,
        expect,
        rows: rows as u64,
    }
}

fn sum_salary(u: &University) -> StmtOp {
    op(
        "sum_salary",
        "retrieve (sum(E.salary over E)) from E in Employees".into(),
        Expect::Numbers(vec![u.sum_salary()]),
        u.emps.len(),
    )
}

fn path_sum(u: &University) -> StmtOp {
    op(
        "path_sum",
        "retrieve (sum(E.dept.budget over E)) from E in Employees".into(),
        Expect::Numbers(vec![u.sum_dept_budget()]),
        u.emps.len(),
    )
}

/// 50k employees over 500 departments in the issue; 12k here, so that three
/// timed set-ups of two databases fit the run budget (README, "Sizes").
pub fn path_scan(env: &Env, _rep: usize) -> R<Box<dyn Instance>> {
    let mut rng = Rng::new(env.seed, 1);
    let n_emps = env.rows(12_000, 40);
    let u = University::generate(&mut rng, env.rows(500, 10), n_emps, 0);
    // Identical data twice: one database never analyzed, one analyzed, so the
    // planner's statistics-driven join is compared inside the same run.
    let plain = layers::db_in_memory(POOL_FITS, 1, true)?;
    let analyzed = layers::db_in_memory(POOL_FITS, 1, true)?;
    u.load(&plain)?;
    u.load(&analyzed)?;
    layers::run(
        &mut layers::session(&analyzed),
        "analyze Employees; analyze Departments",
    )?;

    let floor = 1 + rng.below(10) as i64;
    let filter = || {
        op(
            "path_filter",
            format!(
                "retrieve (E.name) from E in Employees \
                 where E.dept.floor = {floor} and E.salary > 60000.0"
            ),
            Expect::rows(&u.names_on_floor_above(floor, 60_000.0)),
            n_emps,
        )
    };
    let unique = || {
        op(
            "path_unique",
            "retrieve (unique(E.dept.dname over E)) from E in Employees".into(),
            Expect::rows(&[vec![Value::Set(u.referenced_dnames())]]),
            n_emps,
        )
    };
    // The scalar sum runs twice per database and round, so that the pooled
    // median falls inside a latency mode and not on the edge between two.
    let mut round = Vec::new();
    for sess in [0, 1] {
        for stmt in [
            sum_salary(&u),
            path_sum(&u),
            sum_salary(&u),
            filter(),
            unique(),
        ] {
            round.push((sess, stmt));
        }
    }
    Ok(Box::new(Mix {
        sessions: vec![layers::session(&plain), layers::session(&analyzed)],
        dbs: vec![plain, analyzed],
        round,
        next: 0,
        user_bytes: 2 * u.user_bytes(),
        pool: (0, 0),
        max_hit_ratio: None,
        pool_pages: POOL_FITS,
    }))
}

pub fn nested_unnest(env: &Env, _rep: usize) -> R<Box<dyn Instance>> {
    let mut rng = Rng::new(env.seed, 2);
    let n_emps = env.rows(1_000, 20);
    let kids = 16;
    let u = University::generate(&mut rng, env.rows(50, 5), n_emps, kids);
    let db = layers::db_in_memory(POOL_FITS, 1, true)?;
    u.load(&db)?;

    let unnest = || {
        op(
            "unnest_rows",
            "retrieve (C.name, Employees.dept.floor) from C in Employees.kids".into(),
            Expect::rows(&u.kids_with_floor()),
            n_emps * kids,
        )
    };
    let count = || {
        op(
            "kid_count",
            "retrieve (count(C over C where C.age > 9)) from C in Employees.kids".into(),
            Expect::Numbers(vec![u.kid_ages_above(9).len() as f64]),
            n_emps * kids,
        )
    };
    let avg = || {
        let ages = u.kid_ages_above(3);
        op(
            "kid_avg",
            "retrieve (avg(C.age over C where C.age > 3)) from C in Employees.kids".into(),
            Expect::Numbers(vec![ages.iter().sum::<i64>() as f64 / ages.len() as f64]),
            n_emps * kids,
        )
    };
    let round = [unnest(), count(), avg(), count(), avg()]
        .into_iter()
        .map(|stmt| (0, stmt))
        .collect();
    Ok(Box::new(Mix {
        sessions: vec![layers::session(&db)],
        dbs: vec![db],
        round,
        next: 0,
        user_bytes: u.user_bytes(),
        pool: (0, 0),
        max_hit_ratio: None,
        pool_pages: POOL_FITS,
    }))
}

/// 60k employees over 5k departments in the issue; 15k over 5k here (README,
/// "Sizes"). The pool is fixed before loading at 12 frames, well under 1/8 of
/// the ~875 pages the load produces and fewer than the departments and their
/// object-table pages occupy, so that most dereferences miss; `finish` checks
/// both the 1/8 and the hit ratio.
pub fn spill_scan(env: &Env, rep: usize) -> R<Box<dyn Instance>> {
    let mut rng = Rng::new(env.seed, 3);
    let n_emps = env.rows(15_000, 400);
    let u = University::generate(&mut rng, env.rows(5_000, 80), n_emps, 0);
    let pool_pages = (n_emps / 1_250).max(8);
    let path = env.fresh_dir("spill_scan", rep)?.join("spill.vol");
    let db = layers::db_file(&path, pool_pages, Durability::None)?;
    u.load(&db)?;

    let floor = 1 + rng.below(10) as i64;
    let path_count = op(
        "path_count",
        format!("retrieve (count(E over E where E.dept.floor = {floor})) from E in Employees"),
        Expect::Numbers(vec![u.count_on_floor(floor) as f64]),
        n_emps,
    );
    let round = [sum_salary(&u), path_sum(&u), path_count]
        .into_iter()
        .map(|stmt| (0, stmt))
        .collect();
    Ok(Box::new(Mix {
        sessions: vec![layers::session(&db)],
        dbs: vec![db],
        round,
        next: 0,
        user_bytes: u.user_bytes(),
        pool: (0, 0),
        // A scaled-down volume (the smoke test's) is too small to be spilled
        // from: the run's validity is checked at full size only.
        max_hit_ratio: (env.scale >= 1.0).then_some(0.9),
        pool_pages,
    }))
}
