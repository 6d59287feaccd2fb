//! `cpbench` — the repository's pinned, two-clock benchmark.
//!
//! ```text
//! cpbench --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command gets)
//! cpbench [--seed N] [--out FILE]                         every workload, untraced and traced
//! cpbench --compare A.json B.json                         is B worse than A, metric by metric?
//! ```
//!
//! The last line of standard output of a run is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; everything above it is
//! for people. Exit codes: 0 correct, 1 a wrong answer (or `--compare` found
//! a regression), 2 usage error or pinning unavailable.
//!
//! It drives only the non-deprecated public API of the layer crates and
//! imports nothing from the `cp_bench` library. See README.md.

mod cell;
mod compare;
mod metrics;
mod micro;
mod pin;
mod pingpong;
mod run;
mod service;
mod spans;
mod spec;
mod stats;
mod workload;

use std::io::{BufRead, BufReader, Write};
use std::process::{ExitCode, Stdio};
use std::time::Instant;

use cp_trace::Json;

use run::{RunArgs, RunResult};
use spec::Spec;
use workload::Size;

const USAGE: &str = "usage:
  cpbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
          [--quick] [--allow-unpinned] [--out FILE]
  cpbench --compare A.json B.json

  --workload NAME   pingpong-small | pingpong-bulk | service-closed | service-open
                    (default: all four)
  --seed N          drives payload words, worker choice and arrival schedules (default 1)
  --seconds S       host-time budget of the timed passes (default: BENCHMARK.json's run_seconds)
  --trace 0|1       0: end-to-end metrics from untraced passes; 1: per-layer metrics from a
                    traced pass plus layer probes (default: both, one run each)
  --quick           tiny op counts: a smoke run whose numbers mean nothing
  --allow-unpinned  measure even when the child cannot be pinned to one CPU
  --out FILE        also write every run's result to FILE, for --compare";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    allow_unpinned: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    /// Internal: this process is the measuring child.
    child: bool,
    /// Internal: the parent's unpinned `des.switch` timing.
    unpinned_switch_ns: Option<f64>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => cli.quick = true,
            "--allow-unpinned" => cli.allow_unpinned = true,
            "--out" => cli.out = Some(value("a file name")?),
            "--compare" => cli.compare = Some((value("two files")?, value("two files")?)),
            "--child" => cli.child = true,
            "--unpinned-switch-ns" => {
                cli.unpinned_switch_ns = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--unpinned-switch-ns: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &cli.workload {
        if workload::by_name(w).is_none() {
            return Err(format!("no workload {w:?}"));
        }
    }
    Ok(cli)
}

/// The machine-readable result of a run: the last line of its output.
fn result_json(r: &RunResult) -> Json {
    let mut metrics = Json::obj();
    for m in &r.metrics {
        let mut entry = Json::obj();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        metrics.set(&m.name, entry);
    }
    let mut doc = Json::obj();
    doc.set("correct", r.correct());
    doc.set("attempted", r.tally.attempted);
    doc.set("failed", r.tally.failed);
    doc.set("metrics", metrics);
    doc
}

fn print_run(r: &RunResult, seed: u64, size: Size) {
    println!(
        "cpbench: workload {} seed {seed} trace {} size {} pinned: {}",
        r.workload,
        u8::from(r.trace),
        if size == Size::Full { "full" } else { "quick" },
        r.pinned
    );
    println!("why: {}", r.why);
    print!("{}", r.detail);
    println!(
        "  {:<38} {:>18}  unit",
        if r.trace {
            "per-layer metric"
        } else {
            "end-to-end metric"
        },
        "value"
    );
    for m in &r.metrics {
        println!("  {:<38} {:>18.6}  {}", m.name, m.value, m.unit);
    }
    println!(
        "  checked operations: {} attempted, {} failed",
        r.tally.attempted, r.tally.failed
    );
    for e in &r.errors {
        println!("  INCORRECT: {e}");
    }
    println!("{}", result_json(r).to_compact());
}

/// The measuring child: run, print, write the trace file.
fn child(cli: &Cli, spec: &Spec, started: Instant) -> ExitCode {
    let name = cli
        .workload
        .as_deref()
        .expect("the parent names a workload");
    let size = if cli.quick { Size::Quick } else { Size::Full };
    let result = run::run(RunArgs {
        workload: workload::by_name(name).expect("checked by parse_cli"),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(spec.run_seconds),
        trace: cli.trace.unwrap_or(false),
        size,
        unpinned_switch_ns: cli.unpinned_switch_ns,
        started,
    });
    if let Some((file, doc)) = &result.trace_file {
        if let Err(e) = std::fs::write(file, doc) {
            eprintln!("cpbench: cannot write {file}: {e}");
            return ExitCode::from(1);
        }
        println!("  spans written to {file}");
    }
    print_run(&result, cli.seed, size);
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run one child per (workload, trace mode), pinned to the first allowed
/// CPU, relaying its output; returns each child's result line.
fn parent(cli: &Cli) -> Result<(Vec<Json>, bool), String> {
    let cpu = pin::allowed_cpus().first().copied();
    let pin_to = cpu.filter(|&c| pin::can_pin(c));
    if pin_to.is_none() && !cli.allow_unpinned {
        return Err(
            "cannot pin the measuring child to one CPU (`taskset -c <cpu>` failed or \
             /proc/self/status has no Cpus_allowed_list). Unpinned host numbers swing 4x with \
             thread placement and are not reported; pass --allow-unpinned to run anyway."
                .to_string(),
        );
    }
    let workloads: Vec<String> = match &cli.workload {
        Some(w) => vec![w.clone()],
        None => workload::all().iter().map(|w| w.name.to_string()).collect(),
    };
    let traces: Vec<bool> = match cli.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let (mut results, mut all_ok) = (Vec::new(), true);
    for w in &workloads {
        for &trace in &traces {
            let mut args: Vec<String> = vec![
                "--child".into(),
                "--workload".into(),
                w.clone(),
                "--seed".into(),
                cli.seed.to_string(),
                "--trace".into(),
                u8::from(trace).to_string(),
            ];
            if let Some(s) = cli.seconds {
                args.extend(["--seconds".into(), s.to_string()]);
            }
            if cli.quick {
                args.push("--quick".into());
            }
            if trace {
                // Only this process, free to migrate, can take the unpinned
                // hand-off cost the pinning is justified by.
                let n = if cli.quick { 50 } else { 2_000 };
                args.extend([
                    "--unpinned-switch-ns".into(),
                    micro::des_switch(n, 0).host_ns.to_string(),
                ]);
            }
            let mut cmd = pin::child_command(pin_to, &args)
                .map_err(|e| format!("cannot locate this executable: {e}"))?;
            let mut child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start the measuring child: {e}"))?;
            let pipe = child.stdout.take().expect("stdout is piped");
            let mut last = String::new();
            let stdout = std::io::stdout();
            for line in BufReader::new(pipe).lines() {
                let line = line.map_err(|e| format!("reading the child's output: {e}"))?;
                let mut out = stdout.lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
                last = line;
            }
            let status = child
                .wait()
                .map_err(|e| format!("waiting for the measuring child: {e}"))?;
            all_ok &= status.success();
            if let Ok(mut doc) = Json::parse(&last) {
                doc.set("workload", w.as_str());
                doc.set("trace", u8::from(trace));
                doc.set("pinned", pin_to.is_some());
                results.push(doc);
            } else {
                all_ok = false;
                eprintln!(
                    "cpbench: run of {w} (trace {}) printed no result",
                    u8::from(trace)
                );
            }
        }
    }
    Ok((results, all_ok))
}

fn run_compare(spec: &Spec, a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| compare::parse_results(&t).map_err(|e| format!("{path}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (report, worse) = compare::compare(spec, &a, &b);
            print!("{report}");
            ExitCode::from(u8::from(worse))
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cpbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("cpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("cpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return run_compare(&spec, a, b);
    }
    if cli.child {
        return child(&cli, &spec, started);
    }
    let (results, all_ok) = match parent(&cli) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &cli.out {
        let mut doc = Json::obj();
        doc.set("schema", "cpbench/1");
        doc.set("seed", cli.seed);
        doc.set("size", if cli.quick { "quick" } else { "full" });
        doc.set("runs", results);
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            eprintln!("cpbench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_invocation_parses_and_bad_ones_do_not() {
        let cli = parse_cli(&strings(&[
            "--workload",
            "service-open",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("service-open"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (7, Some(20.0), Some(true))
        );
        assert!(parse_cli(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&strings(&["--trace", "2"])).is_err());
        assert!(parse_cli(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_cli(&strings(&["--seed"])).is_err());
        assert!(parse_cli(&strings(&["--frobnicate"])).is_err());
    }

    #[test]
    fn declared_names_are_well_formed_and_within_the_limits() {
        let spec = Spec::load().unwrap();
        let well_formed = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(well_formed(name), "{name:?}");
            assert!(seen.insert(name.clone()), "{name:?} is used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        // The workloads and their reasons are the program's own.
        let doc = Json::parse(spec::BENCHMARK_JSON).unwrap();
        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let text = |k| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (text("name"), text("why"))
            })
            .collect();
        let own: Vec<(String, String)> = workload::all()
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, own);
    }

    /// A `--quick` pass of every workload, untraced and traced, emits every
    /// name `BENCHMARK.json` declares — with its declared unit — and no
    /// other, and answers every operation correctly.
    #[test]
    fn a_quick_pass_emits_exactly_the_declared_metrics() {
        let spec = Spec::load().unwrap();
        for w in workload::all() {
            for (trace, declared) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
                let result = run::run(RunArgs {
                    workload: w.clone(),
                    seed: 1,
                    seconds: 1.0,
                    trace,
                    size: Size::Quick,
                    unpinned_switch_ns: None,
                    started: Instant::now(),
                });
                assert!(
                    result.correct(),
                    "{} trace {trace}: {:?}",
                    w.name,
                    result.errors
                );
                let emitted: BTreeSet<(String, String)> = result
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                let expected: BTreeSet<(String, String)> = declared
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.clone()))
                    .collect();
                let missing: Vec<_> = expected.difference(&emitted).collect();
                let extra: Vec<_> = emitted.difference(&expected).collect();
                assert!(
                    missing.is_empty() && extra.is_empty(),
                    "{} trace {trace}: missing {missing:?}, undeclared {extra:?}",
                    w.name
                );
                assert_eq!(
                    emitted.len(),
                    result.metrics.len(),
                    "a name is emitted twice"
                );
                let line = result_json(&result).to_compact();
                let doc = Json::parse(&line).unwrap();
                let Json::Obj(keys) = &doc else {
                    panic!("not an object")
                };
                assert_eq!(
                    keys.keys().map(String::as_str).collect::<Vec<_>>(),
                    ["attempted", "correct", "failed", "metrics"]
                );
                assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            }
        }
    }
}
