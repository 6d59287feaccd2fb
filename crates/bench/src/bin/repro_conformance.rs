//! Cross-backend conformance sweep for CI: run `--seeds N` seeded wiring
//! plans (see `cellpilot::conformance`) on the sim backend (the oracle)
//! and the native threads backend, diff every observable, and print the
//! native backend's wall-clock event/message rates.
//!
//! Usage: `repro_conformance [--seeds N] [--out DIR]`
//!
//! Exit status (the campaign contract): 0 when every seed agrees, 3 on
//! any divergence — with a replayable artifact written per diverging seed
//! (`conformance_seed_<seed>.txt` under `--out`, default `.`) carrying the
//! plan and both observation dumps — and 2 on usage errors.

use cp_bench::cli::{parse_int_flag, parse_str_flag, unknown_flag};
use cp_bench::{Campaign, Violation};
use cp_trace::Recorder;

use cellpilot::conformance::{diff, run_plan, WiringPlan};
use cellpilot::Backend;

const USAGE: &str = "repro_conformance [--seeds N] [--out DIR]";

fn main() {
    let mut seeds = 8u64;
    let mut out_dir = ".".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => seeds = parse_int_flag(USAGE, "--seeds", args.next(), 1, 4096),
            "--out" => out_dir = parse_str_flag(USAGE, "--out", args.next()),
            other => unknown_flag(USAGE, other),
        }
    }

    println!("cross-backend conformance — {seeds} seeded wiring plans, sim is the oracle\n");

    let mut native_wall = std::time::Duration::ZERO;
    let mut native_events = 0u64;
    let mut native_msgs = 0u64;
    let mut replays: Vec<(u64, String)> = Vec::new();

    let mut campaign = Campaign::default();
    campaign.sweep(0..seeds, |seed| {
        let plan = WiringPlan::from_seed(seed);
        let oracle = run_plan(&plan, Backend::Sim, Recorder::disabled());

        let recorder = Recorder::enabled();
        let t0 = std::time::Instant::now();
        let candidate = run_plan(&plan, Backend::Native, recorder.clone());
        native_wall += t0.elapsed();
        let snap = recorder.snapshot();
        native_events += snap.des.dispatches;
        native_msgs += snap.channel_types.iter().map(|c| c.writes).sum::<u64>();

        diff(&oracle, &candidate)
            .map(|()| {
                format!(
                    "seed {seed:>4}: agree ({} targets, {} observed channels)",
                    plan.targets.len(),
                    oracle.payloads.len()
                )
            })
            .map_err(|why| {
                replays.push((
                    seed,
                    format!(
                        "replay: WiringPlan::from_seed({seed})\n\nplan: {plan:#?}\n\n\
                         --- sim (oracle) ---\n{oracle}\n--- native (candidate) ---\n{candidate}\n\
                         --- divergence ---\n{why}\n"
                    ),
                ));
                Violation::at(seed)(why)
            })
    });
    for (seed, text) in replays {
        let path = format!("{out_dir}/conformance_seed_{seed}.txt");
        campaign.artifact(&path, &format!("replay of seed {seed}"), &text);
    }

    // Informational: how fast the native backend replays the sweep in
    // wall-clock terms.
    let wall_s = native_wall.as_secs_f64().max(1e-9);
    println!("\nnative backend rates over the sweep:");
    println!("  wall time     : {:>10.2} ms", wall_s * 1e3);
    println!("  events/sec    : {:>10.0}", native_events as f64 / wall_s);
    println!("  messages/sec  : {:>10.0}", native_msgs as f64 / wall_s);

    campaign.finish(&format!("verdict: all {seeds} seeds agree"));
}
