//! Seeded chaos campaign: randomized-but-reproducible fault injection
//! against the self-healing runtime.
//!
//! Each seed deterministically draws a recoverable-only fault plan
//! (message drops within the retry budget, link delays, duplicate
//! deliveries, supervised SPE crashes, bounded Co-Pilot stalls, Co-Pilot
//! kills covered by standby failover) and runs a fixed workload spanning
//! all five Table-I channel types under it. Every seed must complete,
//! produce output byte-identical to the fault-free golden run, and report
//! only incidents its plan explains. A failing seed is a complete bug
//! report: rerun with the same seed and intensity to replay the exact
//! fault timeline.
//!
//! Usage: `repro_chaos [--seeds N] [--intensity K] [--trace-out PATH]`
//! (defaults: 32 seeds, intensity 6). `--trace-out` additionally runs one
//! instrumented campaign on the first seed whose plan schedules a Co-Pilot
//! kill and writes its Chrome `trace_event` export (openable in
//! about://tracing or Perfetto, one lane per rank/SPE/Co-Pilot, with the
//! failover incidents marked) to PATH — CI uploads it as the
//! failure-debugging artifact.
//!
//! Exit status (the campaign contract): 0 when every seed passes, 3 on
//! findings, 2 on usage errors.

use cp_bench::cli::{parse_int_flag, parse_str_flag, unknown_flag};
use cp_bench::{chaos, golden_end_time, seed_with_failover, Campaign};
use cp_trace::Recorder;

const USAGE: &str = "repro_chaos [--seeds N] [--intensity K] [--trace-out PATH]";

fn main() {
    let mut n_seeds: u64 = 32;
    let mut intensity: u32 = 6;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => n_seeds = parse_int_flag(USAGE, "--seeds", args.next(), 1, 1_000_000),
            "--intensity" => {
                intensity = parse_int_flag(USAGE, "--intensity", args.next(), 0, 10_000) as u32
            }
            "--trace-out" => trace_out = Some(parse_str_flag(USAGE, "--trace-out", args.next())),
            other => unknown_flag(USAGE, other),
        }
    }

    println!(
        "chaos campaign: {n_seeds} seeds at intensity {intensity} \
         (golden run completes at {})\n",
        golden_end_time()
    );
    let mut campaign = Campaign::default();
    campaign.sweep(0..n_seeds, |seed| {
        chaos(seed, intensity, Recorder::disabled()).map(|r| r.to_string())
    });
    if let Some(path) = trace_out {
        // One campaign re-run instrumented, on a seed whose plan kills a
        // Co-Pilot so the trace shows the standby failover.
        let intensity = intensity.max(1);
        let seed = seed_with_failover(intensity);
        campaign.trace_artifact(&path, &format!("seed {seed}"), |rec| {
            chaos(seed, intensity, rec)
        });
    }
    campaign.finish(&format!(
        "all {n_seeds} seeds: completed, output byte-identical to the \
         fault-free run, every incident accounted for ✓"
    ));
}
