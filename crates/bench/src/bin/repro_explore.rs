//! Schedule-exploration demo: "it passed once" → "it passes under every
//! legal interleaving we tried".
//!
//! Runs the fault-replay scenario (a type-5 transfer riding out two
//! scripted link drops) under N distinct DES schedules — seed 0 is the
//! canonical FIFO tie-break, every other seed deterministically permutes
//! the dispatch order of same-timestamp events — and requires the
//! application outcome to be identical under all of them. Deadlock
//! *detection* must be schedule-independent too: a type-5 circular wait
//! aborts with the same diagnostic under every seed.
//!
//! Usage: `repro_explore [--seeds N]` (default 8 exploration seeds on top
//! of the FIFO baseline).
//!
//! Exit status (the campaign contract): 0 when every schedule agrees, 3 on
//! findings, 2 on usage errors.

use cp_bench::{deadlock_baseline, explore, Campaign};

fn main() {
    const USAGE: &str = "repro_explore [--seeds N]";
    let mut n_seeds: u64 = 8;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                n_seeds = cp_bench::cli::parse_int_flag(USAGE, "--seeds", args.next(), 1, 100_000)
            }
            other => cp_bench::cli::unknown_flag(USAGE, other),
        }
    }
    let schedules = n_seeds + 1;

    println!(
        "fault-replay scenario under {schedules} schedules (FIFO baseline + {n_seeds} permuted):\n"
    );
    let mut sum = 0;
    let mut campaign = Campaign::default();
    campaign.sweep(0..=n_seeds, |seed| {
        explore(seed).map(|s| {
            sum = s;
            format!("  seed {seed:>3}: completed=true sum={s}")
        })
    });
    campaign.finish(&format!(
        "outcome identical under all {schedules} schedules: completed=true, sum={sum} ✓\n\n\
         type-5 circular wait under the same schedules:\n\n  every seed: {}\n\n\
         detector verdict identical under all {schedules} schedules ✓",
        deadlock_baseline().unwrap_or_default()
    ));
}
