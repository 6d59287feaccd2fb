//! Seeded overload campaign: saturate bounded channels and check that
//! credit-based flow control degrades the run gracefully.
//!
//! Each seed deterministically draws a capacity, a burst three times that
//! capacity, and an overload policy (seeds rotate Block → Shed →
//! DeadlineDrop), then drives the fixed two-Cells-one-Xeon workload
//! through it. Every seed must complete, keep every bounded channel's
//! queue-depth high watermark at or below its capacity, shed exactly the
//! writes its policy promises (each surfacing as a distinct
//! `ErrorKind::Backpressure` with matching `Overload`/`MessageShed`
//! incidents), and deliver everything it accepted, in order. A failing
//! seed is a complete bug report: rerun with the same seed to replay it.
//!
//! Usage: `repro_overload [--seeds N] [--trace-out PATH]` (default: 32
//! seeds). `--trace-out` writes the Chrome `trace_event` export of one
//! shedding run — the artifact CI uploads when the campaign finds
//! something.
//!
//! Exit status (the campaign contract): 0 when every seed passes, 3 on
//! findings, 2 on usage errors.

use cp_bench::cli::{parse_int_flag, parse_str_flag, unknown_flag};
use cp_bench::{overload, Campaign};
use cp_trace::Recorder;

const USAGE: &str = "repro_overload [--seeds N] [--trace-out PATH]";

fn main() {
    let mut n_seeds: u64 = 32;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => n_seeds = parse_int_flag(USAGE, "--seeds", args.next(), 1, 1_000_000),
            "--trace-out" => trace_out = Some(parse_str_flag(USAGE, "--trace-out", args.next())),
            other => unknown_flag(USAGE, other),
        }
    }

    println!("overload campaign: {n_seeds} seeds (burst = 3x capacity on every bounded channel)\n");
    let mut campaign = Campaign::default();
    campaign.sweep(0..n_seeds, |seed| {
        overload(seed, Recorder::enabled()).map(|r| r.to_string())
    });
    if let Some(path) = trace_out {
        // Seed 1 rotates onto Shed: the interesting trace, with the
        // backpressure waits and shed incidents marked.
        campaign.trace_artifact(&path, "shedding seed 1", |rec| overload(1, rec));
    }
    campaign.finish(&format!(
        "all {n_seeds} seeds: completed, queues bounded by their capacity, \
         sheds exact and accounted, accepted messages delivered ✓"
    ));
}
