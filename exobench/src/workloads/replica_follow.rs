//! `replica_follow`: a durable primary and an in-process WAL-shipping
//! replica. Set-up includes the replica's bootstrap over a backlog; the loop
//! commits on the primary and times how long until the row reads back on the
//! replica; the end compares both nodes row for row.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{
    check, dir_bytes, last_response, spanned_stmt, wal_dir, Env, Finish, Instance, Recorder,
    Section,
};
use crate::gen::{journal_append, journal_entry_bytes, Expect, Rng, JOURNAL_SCHEMA};
use crate::layers::{self, Database, Durability, Replica, Response, Session, Value, R};
use crate::stats::Metric;

/// Appends per backlog transaction: the backlog's log volume matters to the
/// bootstrap, not how many fsyncs wrote it.
const BACKLOG_TXN: usize = 100;
/// The tag of every row the primary writes.
const TAG: &str = "p";
/// Paired retrieves run on both nodes once the loop has ended.
const PAIRED_READS: u64 = 200;

struct Follow {
    primary: Arc<Database>,
    writer: Session,
    replica: Replica,
    reader: Session,
    checker: Session,
    rng: Rng,
    next_key: i64,
    paths: [PathBuf; 2],
    user_bytes: u64,
    catchup_records: u64,
    catchup_s: f64,
}

/// A 2 000-append backlog, as in the issue.
pub fn setup(env: &Env, rep: usize) -> R<Box<dyn Instance>> {
    let dir = env.fresh_dir("replica_follow", rep)?;
    let paths = [dir.join("primary.vol"), dir.join("replica.vol")];
    let primary = layers::db_file(&paths[0], 4_096, Durability::Fsync)?;
    let mut writer = layers::session(&primary);
    layers::run(&mut writer, JOURNAL_SCHEMA)?;
    layers::run(&mut writer, "define unique index journal_k on Journal (k)")?;

    let mut rng = Rng::new(env.seed, 6);
    let backlog = env.rows(2_000, BACKLOG_TXN);
    let mut user_bytes = 0;
    let mut next_key = 0i64;
    while (next_key as usize) < backlog {
        let mut txn = String::from("begin;");
        for _ in 0..BACKLOG_TXN {
            let n = rng.below(1_000) as i64;
            user_bytes += journal_entry_bytes(next_key, TAG, n);
            txn.push_str(&journal_append(next_key, TAG, n));
            txn.push(';');
            next_key += 1;
        }
        txn.push_str("commit");
        layers::run(&mut writer, &txn)?;
    }

    // The bootstrap replays the primary's whole log before it returns.
    let t = Instant::now();
    let replica = layers::replica_in_process(&primary, &paths[1])?;
    let catchup_s = t.elapsed().as_secs_f64();
    let reader = layers::session(&replica.database());
    Ok(Box::new(Follow {
        checker: layers::session(&primary),
        primary,
        writer,
        catchup_records: replica.applied_lsn(),
        replica,
        reader,
        rng,
        next_key,
        paths,
        user_bytes,
        catchup_s,
    }))
}

fn read_text(k: i64) -> String {
    format!("retrieve (J.n) from J in Journal where J.k = {k}")
}

impl Follow {
    /// Commit one row on the primary, then time from its acknowledgement until
    /// the replica has caught up and answers a read of that row.
    fn one_cycle(&mut self, rec: &mut Recorder) {
        let (k, n) = (self.next_key, self.rng.below(1_000) as i64);
        self.next_key += 1;
        let commit = super::StmtOp {
            class: "commit",
            text: journal_append(k, TAG, n),
            expect: Expect::Done,
            rows: 1,
        };
        let failed_before = rec.failed;
        rec.local_stmt(&mut self.writer, &commit, false);
        if rec.failed != failed_before {
            return;
        }
        self.user_bytes += journal_entry_bytes(k, TAG, n);

        let expect = Expect::rows(&[vec![Value::Int(n)]]);
        let text = read_text(k);
        let acked = Instant::now();
        let reply = match &mut rec.tracer {
            None => layers::replica_pump_until_caught_up(&mut self.replica)
                .and_then(|()| layers::run(&mut self.reader, &text))
                .and_then(last_response),
            Some(tracer) => {
                tracer.next_op();
                tracer.span("op", |tr| {
                    tr.span("exodus.replica_pump", |_| {
                        layers::replica_pump_until_caught_up(&mut self.replica)
                    })?;
                    spanned_stmt(tr, &mut self.reader, &text)
                })
            }
        };
        let ms = acked.elapsed().as_secs_f64() * 1e3;
        rec.record("visible", true, 1, 1, ms, check(&expect, reply));
    }
}

impl Instance for Follow {
    fn section(&mut self, budget: Duration, traced: bool) -> R<Section> {
        let start = Instant::now();
        let mut rec = Recorder::new(start, traced);
        while start.elapsed() < budget {
            self.one_cycle(&mut rec);
        }
        Ok(Section::merge(budget, vec![rec]))
    }

    fn db(&self) -> &Arc<Database> {
        &self.primary
    }

    fn sample_read(&self, i: usize) -> (String, Expect) {
        // Rows of the backlog never change; any of them has a known answer
        // only through the generator, so ask for the key itself.
        let k = (i % BACKLOG_TXN) as i64;
        (
            format!("retrieve (J.k) from J in Journal where J.k = {k}"),
            Expect::rows(&[vec![Value::Int(k)]]),
        )
    }

    fn user_bytes(&self) -> u64 {
        self.user_bytes
    }

    fn stored_bytes(&self) -> (u64, u64) {
        let volumes =
            layers::volume_bytes(&self.primary) + layers::volume_bytes(&self.replica.database());
        (
            volumes,
            self.paths.iter().map(|p| dir_bytes(&wal_dir(p))).sum(),
        )
    }

    /// Identical retrieves on both nodes must return identical rows.
    fn finish(mut self: Box<Self>) -> R<Finish> {
        layers::replica_pump_until_caught_up(&mut self.replica)?;
        let mut failed = 0;
        for _ in 0..PAIRED_READS {
            let n = self.rng.below(1_000);
            let text = format!("retrieve (J.k, J.tag, J.n) from J in Journal where J.n = {n}");
            let on_primary = layers::run(&mut self.checker, &text).and_then(last_response);
            let on_replica = layers::run(&mut self.reader, &text).and_then(last_response);
            match (on_primary, on_replica) {
                (Ok(Response::Rows(mut p)), Ok(Response::Rows(mut r))) => {
                    let key = |row: &Vec<Value>| match row[0] {
                        Value::Int(k) => k,
                        _ => i64::MIN,
                    };
                    p.rows.sort_by_key(key);
                    r.rows.sort_by_key(key);
                    if p.rows != r.rows {
                        failed += 1;
                    }
                }
                _ => failed += 1,
            }
        }
        Ok(Finish {
            attempted: PAIRED_READS,
            failed,
            detail: vec![
                Metric::single("catchup_s", "s", self.catchup_s),
                Metric::single(
                    "catchup_records_per_s",
                    "1/s",
                    self.catchup_records as f64 / self.catchup_s,
                ),
            ],
        })
    }
}
