//! exobench: the repository's benchmark. See README.md beside Cargo.toml.
//!
//! ```text
//! exobench run      [--workload W] [--seed N] [--seconds S] [--scale F]
//!                   [--trace [0|1]] [--runs N] [--out DIR]
//! exobench repeat   (same options; two sets of runs, then the comparison)
//! exobench compare  <a.json> <b.json>
//! exobench manifest (prints BENCHMARK.json)
//! ```

mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use run::Outcome;
use stats::Metric;
use workloads::{Env, Workload, WORKLOADS};

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    runs: usize,
    out: PathBuf,
}

fn default_out() -> PathBuf {
    // Inside the build directory, which the repository already ignores.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("exobench/target"));
    target.join("exobench-out")
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: gen::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        scale: 1.0,
        trace: false,
        runs: 1,
        out: default_out(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload '{name}'"))?;
                o.workloads = vec![w];
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--scale" => {
                o.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--runs" => {
                o.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => o.out = PathBuf::from(value("a directory")?),
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if !(o.seconds > 0.0 && o.scale > 0.0 && o.runs > 0) {
        return Err("--seconds, --scale and --runs must be positive".into());
    }
    Ok(o)
}

/// The runs of one workload, folded: a metric's value is the median over the
/// runs, with every run's value kept beside it.
fn fold(outcomes: &[Outcome]) -> Json {
    let fold_metrics = |pick: fn(&Outcome) -> &Vec<Metric>| {
        let first = pick(&outcomes[0]);
        Json::Obj(
            first
                .iter()
                .map(|m| {
                    if outcomes.len() == 1 {
                        return (m.name.clone(), m.to_json());
                    }
                    let values: Vec<f64> = outcomes
                        .iter()
                        .filter_map(|o| pick(o).iter().find(|x| x.name == m.name))
                        .map(|x| x.value)
                        .collect();
                    let mut folded = Metric::median(&m.name, m.unit, &values).to_json();
                    if let Json::Obj(pairs) = &mut folded {
                        let values = values.into_iter().map(Json::Num).collect();
                        pairs.push(("values".to_string(), Json::Arr(values)));
                    }
                    (m.name.clone(), folded)
                })
                .collect(),
        )
    };
    Json::obj([
        ("correct", Json::from(outcomes.iter().all(Outcome::correct))),
        (
            "attempted",
            Json::from(outcomes.iter().map(|o| o.attempted).sum::<u64>()),
        ),
        (
            "failed",
            Json::from(outcomes.iter().map(|o| o.failed).sum::<u64>()),
        ),
        ("metrics", fold_metrics(|o| &o.metrics)),
        ("detail", fold_metrics(|o| &o.detail)),
    ])
}

fn print_outcome(o: &Outcome, seed: u64) {
    eprintln!(
        "\n== {} (seed {seed}): {} operations attempted, {} failed ==",
        o.workload, o.attempted, o.failed
    );
    if let Some(why) = &o.first_failure {
        eprintln!("first failure: {why}");
    }
    let row = |m: &Metric| {
        eprintln!(
            "  {:<40} {:>16.4} {:<6} n={:<6} q1={:<14.4} q3={:.4}",
            m.name, m.value, m.unit, m.n, m.q1, m.q3
        )
    };
    o.metrics.iter().for_each(row);
    eprintln!("  -- detail (not in BENCHMARK.json)");
    o.detail.iter().for_each(row);
}

/// Run the selected workloads `runs` times (seeds `seed`, `seed + 1`, ...).
/// Returns the results document and, for a single run of a single workload,
/// its outcome (the driver's case).
fn run_set(o: &Options, label: &str) -> Result<(Json, Vec<Outcome>), String> {
    let data_dir = o.out.join(format!("data-{}", std::process::id()));
    let mut per_workload = Vec::new();
    let mut all = Vec::new();
    for w in &o.workloads {
        let mut outcomes = Vec::new();
        for r in 0..o.runs {
            let env = Env {
                seed: o.seed + r as u64,
                scale: o.scale,
                data_dir: data_dir.clone(),
            };
            let outcome = if o.trace {
                run::traced(w, &env, o.seconds, &o.out)
            } else {
                run::untraced(w, &env, o.seconds)
            };
            let _ = std::fs::remove_dir_all(&data_dir);
            let outcome = outcome.map_err(|e| format!("{}: {e}", w.name))?;
            print_outcome(&outcome, env.seed);
            outcomes.push(outcome);
        }
        per_workload.push((w.name.to_string(), fold(&outcomes)));
        all.extend(outcomes);
    }
    let doc = Json::obj([
        ("host", host::fingerprint(o.seed, o.scale, o.seconds)),
        ("trace", Json::from(o.trace)),
        ("runs", Json::from(o.runs)),
        ("workloads", Json::Obj(per_workload)),
    ]);
    eprintln!("\nhost: {}", doc.get("host").expect("just built"));
    let path = o.out.join(format!("{label}.json"));
    write_file(&path, &doc.pretty())?;
    eprintln!("results: {}", path.display());
    Ok((doc, all))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; `Ok(false)` when any row regressed.
fn report_comparison(a: &Json, b: &Json) -> Result<bool, String> {
    let rows = compare::compare(a, b)?;
    compare::print_table(&rows);
    println!(
        "{}",
        Json::Arr(rows.iter().map(compare::Row::to_json).collect())
    );
    Ok(rows
        .iter()
        .all(|r| r.verdict != compare::Verdict::Regressed))
}

fn real_main() -> Result<bool, String> {
    trace::epoch();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or_else(|| {
        format!(
            "usage: exobench run|repeat|compare|manifest (see README.md); \
             --seed defaults to {}, the documented alternate is {}",
            gen::DEFAULT_SEED,
            gen::ALT_SEED
        )
    })?;
    match cmd.as_str() {
        "manifest" => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        "compare" => match rest {
            [a, b] => report_comparison(&read_json(a)?, &read_json(b)?),
            _ => Err("usage: exobench compare <a.json> <b.json>".into()),
        },
        "repeat" => {
            let o = parse_options(rest)?;
            let (a, first) = run_set(&o, "repeat-a")?;
            let (b, second) = run_set(&o, "repeat-b")?;
            let correct = first.iter().chain(&second).all(Outcome::correct);
            Ok(report_comparison(&a, &b)? && correct)
        }
        "run" => {
            let o = parse_options(rest)?;
            let (doc, outcomes) = run_set(&o, if o.trace { "results-traced" } else { "results" })?;
            // The last line of standard output is the result: the contract's
            // four-key object for one run of one workload, else the document.
            match &outcomes[..] {
                [one] => println!("{}", one.contract_line()),
                _ => println!("{doc}"),
            }
            Ok(outcomes.iter().all(Outcome::correct))
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("exobench: wrong answers or a regression; see above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("exobench: {e}");
            ExitCode::from(2)
        }
    }
}
