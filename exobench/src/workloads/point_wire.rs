//! `point_wire`: two closed-loop wire-protocol clients doing tiny indexed
//! lookups against an in-process server on loopback TCP.

use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{check, closed_loop, last_response, Env, Instance, Recorder, Section};
use crate::gen::{Accounts, Expect, Rng, ACCOUNTS_SCHEMA};
use crate::layers::{self, Database, RemoteSession, Server, R};

/// Closed-loop clients, one connection each: the host's two cores.
const CLIENTS: usize = 2;
/// Statements per pipelined operation (`send` x 8, then one `drain`).
const PIPELINE: usize = 8;

struct PointWire {
    // Declared before `server` so the connections close before it shuts down.
    clients: Vec<(RemoteSession, Rng)>,
    server: Server,
    db: Arc<Database>,
    accounts: Accounts,
    user_bytes: u64,
}

/// 20k rows in the issue; 10k here so that three timed set-ups fit (README, "Sizes").
pub fn setup(env: &Env, _rep: usize) -> R<Box<dyn Instance>> {
    let mut rng = Rng::new(env.seed, 4);
    let accounts = Accounts::generate(&mut rng, env.rows(10_000, 200));
    let db = layers::db_in_memory(16_384, 1, true)?;
    layers::run(&mut layers::session(&db), ACCOUNTS_SCHEMA)?;
    let values = accounts.values();
    let user_bytes = values
        .iter()
        .map(|v| layers::value_to_bytes(v).len() as u64)
        .sum();
    layers::bulk_append(&db, "Accounts", values)?;
    // `bulk_append` does not maintain secondary indexes: build them after the load.
    layers::run(
        &mut layers::session(&db),
        "define unique index acc_id on Accounts (id); define index acc_bucket on Accounts (bucket)",
    )?;
    let server = layers::serve(&db)?;
    let clients = (0..CLIENTS)
        .map(|c| Ok((layers::connect(&server)?, Rng::new(env.seed, 40 + c as u64))))
        .collect::<R<Vec<_>>>()?;
    Ok(Box::new(PointWire {
        clients,
        server,
        db,
        accounts,
        user_bytes,
    }))
}

impl Instance for PointWire {
    fn section(&mut self, budget: Duration, traced: bool) -> R<Section> {
        let accounts = &self.accounts;
        closed_loop(&mut self.clients, budget, traced, |(session, rng), rec| {
            one_op(rec, session, rng, accounts)
        })
    }

    fn db(&self) -> &Arc<Database> {
        &self.db
    }

    fn sample_read(&self, i: usize) -> (String, Expect) {
        let mut rng = Rng::new(0x5A4D_504C, i as u64);
        if i % 9 < 7 {
            self.accounts
                .point(rng.below(self.accounts.balances.len() as u64))
        } else {
            self.accounts.bucket(rng.below(self.accounts.buckets()))
        }
    }

    fn server(&self) -> Option<&Server> {
        Some(&self.server)
    }

    fn user_bytes(&self) -> u64 {
        self.user_bytes
    }

    fn stored_bytes(&self) -> (u64, u64) {
        (layers::volume_bytes(&self.db), 0)
    }

    fn finish(self: Box<Self>) -> R<super::Finish> {
        let shed = layers::shed_total(&self.server);
        Ok(super::Finish {
            // A shed connection or statement is a refused operation.
            attempted: shed,
            failed: shed,
            detail: vec![],
        })
    }
}

/// 70 % point lookup by key, 20 % index lookup of one 20-row bucket, 10 % a
/// pipeline of 8 point lookups; keys uniform from the client's seeded stream.
fn one_op(rec: &mut Recorder, session: &mut RemoteSession, rng: &mut Rng, accounts: &Accounts) {
    let n = accounts.balances.len() as u64;
    let kind = rng.below(10);
    if kind < 9 {
        let (class, (text, expect), rows) = if kind < 7 {
            ("point", accounts.point(rng.below(n)), 1)
        } else {
            (
                "bucket",
                accounts.bucket(rng.below(accounts.buckets())),
                crate::gen::BUCKET_ROWS,
            )
        };
        let t = Instant::now();
        let reply = match &mut rec.tracer {
            None => layers::remote_run(session, &text),
            Some(tracer) => {
                tracer.next_op();
                tracer.span("op", |tr| {
                    tr.span("server.roundtrip", |_| layers::remote_run(session, &text))
                })
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        rec.record(
            class,
            true,
            1,
            rows,
            ms,
            check(&expect, reply.and_then(last_response)),
        );
    } else {
        let (texts, expects): (Vec<_>, Vec<_>) =
            (0..PIPELINE).map(|_| accounts.point(rng.below(n))).unzip();
        let t = Instant::now();
        let replies = match &mut rec.tracer {
            None => layers::remote_pipeline(session, &texts),
            Some(tracer) => {
                tracer.next_op();
                tracer.span("op", |tr| {
                    tr.span("server.roundtrip", |_| {
                        layers::remote_pipeline(session, &texts)
                    })
                })
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = replies.and_then(|replies| {
            if replies.len() != expects.len() {
                return Err(format!("{} replies to {PIPELINE} requests", replies.len()));
            }
            replies
                .into_iter()
                .zip(&expects)
                .try_for_each(|(reply, expect)| check(expect, last_response(reply)))
        });
        rec.record(
            "pipelined",
            true,
            PIPELINE as u64,
            PIPELINE as u64,
            ms,
            outcome,
        );
    }
}
