//! `e2e_bench`: the repository's one end-to-end benchmark.
//!
//! ```text
//! e2e_bench --workload <adhoc_rerank|coarse_large|served_repeat|ingest_then_query>
//!           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! e2e_bench --selfcheck [--smoke]
//! ```
//!
//! A run prints two lines on standard output: a context object (seed, core
//! count, git commit, oracle time, ungated diagnostics), then — last — the
//! result object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the spans go to `<target>/e2e_bench/trace_<workload>.json`.
//! See `README.md` beside this package for what each workload and estimator
//! is for.

mod check;
mod estimators;
mod generator;
mod layers;
mod report;
mod trace;
mod workloads;

use generator::Workload;
use report::{number_object, result_line, MetricDef, Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Options, Outcome};

const USAGE: &str = "usage: e2e_bench --workload <adhoc_rerank|coarse_large|served_repeat|\
ingest_then_query> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
e2e_bench --selfcheck [--smoke]";

/// Seconds per run in `--selfcheck`: reduced repetitions, same op lists.
const SELFCHECK_SECONDS: u64 = 4;

enum Command {
    Run(Options),
    Selfcheck { smoke: bool },
}

/// Build artefacts, trace files and temporary stores all live under the
/// Cargo target directory, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("e2e_bench")
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let (mut smoke, mut selfcheck) = (false, false);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 60")?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--smoke" => smoke = true,
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if selfcheck {
        return Ok(Command::Selfcheck { smoke });
    }
    Ok(Command::Run(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        out_dir: out_dir(),
    }))
}

/// The commit the working directory is at, read straight from `.git` (the
/// benchmark starts no process); `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).unwrap_or_default(),
        None => head,
    };
    let commit = commit.trim();
    if commit.len() >= 7 && commit.chars().all(|c| c.is_ascii_hexdigit()) {
        commit.to_string()
    } else {
        "unknown".to_string()
    }
}

fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn context_line(opts: &Options, outcome: &Outcome) -> String {
    format!(
        "{{\"benchmark\": \"e2e_bench\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"smoke\": {}, \"git_commit\": \"{}\", \"failures\": \"{}\", \
         \"context\": {}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke,
        git_commit(),
        outcome.failures.describe(),
        number_object(outcome.context.iter().cloned()),
    )
}

/// Two runs of the same code and inputs must agree: exact metrics and
/// counters identically, timing metrics within their bound. Returns the
/// disagreements.
fn disagreements(
    table: &[MetricDef],
    first: &Values,
    second: &Values,
    timing: bool,
) -> Vec<String> {
    let mut found = Vec::new();
    for def in table {
        // `VmHWM` is the high-water mark of the whole process, and both runs
        // of a selfcheck share one: only the first measures its own peak.
        if def.name == "peak_rss_mb" {
            continue;
        }
        let (Some(a), Some(b)) = (first.get(def.name), second.get(def.name)) else {
            found.push(format!("{}: not measured", def.name));
            continue;
        };
        if def.exact && a != b {
            found.push(format!("{}: exact metric differs, {a} vs {b}", def.name));
        }
        if let (false, true, Some(bound)) = (def.exact, timing, def.bound) {
            if (a - b).abs() > bound * a.abs().max(b.abs()) {
                found.push(format!(
                    "{}: {a} vs {b} differ by more than the bound {bound}",
                    def.name
                ));
            }
        }
    }
    found
}

fn selfcheck(smoke: bool) -> Result<Vec<String>, String> {
    let mut found = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 1,
                seconds: SELFCHECK_SECONDS,
                trace,
                smoke,
                out_dir: out_dir(),
            };
            let first = workloads::run(&opts)?;
            let second = workloads::run(&opts)?;
            for outcome in [&first, &second] {
                if outcome.failures.total() > 0 {
                    found.push(format!(
                        "{} trace={trace}: failed ops: {}",
                        workload.name(),
                        outcome.failures.describe()
                    ));
                }
            }
            // Two rounds over tiny corpora time nothing worth comparing.
            let timing = !smoke;
            for line in disagreements(table(trace), &first.values, &second.values, timing) {
                found.push(format!("{} trace={trace}: {line}", workload.name()));
            }
            eprintln!(
                "selfcheck: {} trace={} done",
                workload.name(),
                u8::from(trace)
            );
        }
    }
    Ok(found)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("e2e_bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Run(opts) => {
            let line = workloads::run(&opts).and_then(|outcome| {
                let line = result_line(
                    table(opts.trace),
                    &outcome.values,
                    outcome.attempted.max(1),
                    outcome.failures.total(),
                )?;
                println!("{}", context_line(&opts, &outcome));
                Ok(line)
            });
            match line {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(message) => {
                    eprintln!("e2e_bench: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Selfcheck { smoke } => {
            match selfcheck(smoke) {
                Ok(found) if found.is_empty() => {
                    println!("selfcheck: every exact metric identical, every timing metric within its bound");
                    ExitCode::SUCCESS
                }
                Ok(found) => {
                    for line in &found {
                        eprintln!("selfcheck: {line}");
                    }
                    ExitCode::FAILURE
                }
                Err(message) => {
                    eprintln!("e2e_bench: {message}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Better;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    /// The text of the JSON array under `key`.
    fn array<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        &json[open + 1..close]
    }

    /// The value of `field` in one flat JSON object, quotes stripped.
    fn field(object: &str, field: &str) -> Option<String> {
        let at = object.find(&format!("\"{field}\""))?;
        let rest = object[at..].split_once(':')?.1.trim_start();
        let value = match rest.strip_prefix('"') {
            Some(quoted) => quoted.split('"').next()?,
            None => rest.split([',', '}']).next()?.trim(),
        };
        Some(value.to_string())
    }

    fn objects(array: &str) -> Vec<&str> {
        array
            .split('{')
            .skip(1)
            .map(|object| object.split('}').next().unwrap_or(""))
            .collect()
    }

    fn assert_table_matches(key: &str, table: &[MetricDef]) {
        let listed = objects(array(BENCHMARK_JSON, key));
        assert_eq!(listed.len(), table.len(), "{key}");
        for (object, def) in listed.iter().zip(table) {
            assert_eq!(field(object, "name").as_deref(), Some(def.name), "{key}");
            assert_eq!(
                field(object, "unit").as_deref(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                field(object, "better").as_deref(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            let bound = field(object, "bound").map(|b| b.parse::<f64>().expect("bound"));
            assert_eq!(bound, def.bound, "{}", def.name);
        }
    }

    #[test]
    fn benchmark_json_repeats_the_metric_tables_and_workloads() {
        assert_table_matches("end_to_end", &END_TO_END);
        assert_table_matches("per_layer", &PER_LAYER);
        let workloads: Vec<String> = objects(array(BENCHMARK_JSON, "workloads"))
            .iter()
            .filter_map(|object| field(object, "name"))
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
        assert!(BENCHMARK_JSON.contains("\"crates/lovo-bench/src/bin/e2e_bench\""));
    }

    #[test]
    fn smoke_runs_emit_every_metric_of_benchmark_json() {
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/e2e_bench_test");
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Options {
                    workload,
                    seed: 3,
                    seconds: 1,
                    trace,
                    smoke: true,
                    out_dir: out_dir.clone(),
                };
                let outcome =
                    workloads::run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert_eq!(
                    outcome.failures.total(),
                    0,
                    "{} trace={trace}: {}",
                    workload.name(),
                    outcome.failures.describe()
                );
                assert!(outcome.attempted >= 1);
                let line = result_line(table(trace), &outcome.values, outcome.attempted, 0)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                let key = if trace { "per_layer" } else { "end_to_end" };
                for object in objects(array(BENCHMARK_JSON, key)) {
                    let name = field(object, "name").expect("name");
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "{name}"
                    );
                    assert!(
                        line.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{} trace={trace} did not emit {name}",
                        workload.name()
                    );
                }
                if !trace {
                    // An end-to-end metric that reads 0 gates nothing.
                    for def in &END_TO_END {
                        assert!(
                            outcome.values.get(def.name).is_some_and(|v| v > 0.0),
                            "{} {} is not positive",
                            workload.name(),
                            def.name
                        );
                    }
                } else {
                    let trace_file = out_dir.join(format!("trace_{}.json", workload.name()));
                    let spans = std::fs::read_to_string(trace_file).expect("trace file");
                    // A tiny served round may be all cache hits, which have
                    // no engine call to decompose.
                    let root = match workload {
                        Workload::ServedRepeat => "\"name\": \"serve.submit",
                        _ => "\"name\": \"core.query_spec\"",
                    };
                    assert!(spans.contains(root), "{}", workload.name());
                    assert!(spans.contains("\"name\": \"core.ingest\""));
                }
            }
        }
        let _ = std::fs::remove_dir_all(out_dir);
    }

    #[test]
    fn selfcheck_flags_a_moved_exact_metric_and_a_timing_metric_out_of_bound() {
        let mut first = Values::default();
        for def in &END_TO_END {
            first.set(def.name, 100.0);
        }
        let mut second = first.clone();
        assert!(disagreements(&END_TO_END, &first, &second, true).is_empty());
        second.set("avep", 100.0001);
        second.set("query_ms", 105.0);
        let found = disagreements(&END_TO_END, &first, &second, true);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("avep"));
        second.set("query_ms", 200.0);
        assert_eq!(disagreements(&END_TO_END, &first, &second, true).len(), 2);
        assert_eq!(disagreements(&END_TO_END, &first, &second, false).len(), 1);
        assert!(END_TO_END
            .iter()
            .any(|d| d.better == Better::Higher && d.exact));
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "coarse_large", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--workload", "coarse_large", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seed", "4"])).is_err());
        let Ok(Command::Run(opts)) = parse_args(&args(&[
            "--workload",
            "served_repeat",
            "--seed",
            "9",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])) else {
            panic!("valid arguments were refused");
        };
        assert_eq!(
            (opts.workload, opts.seed, opts.seconds, opts.trace),
            (Workload::ServedRepeat, 9, 5, true)
        );
    }
}
