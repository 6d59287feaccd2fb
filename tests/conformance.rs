//! Cross-backend conformance: the sim backend is the oracle, the native
//! threads backend is the candidate. Two layers of evidence:
//!
//! 1. **Random wiring graphs** — proptest drives seeded [`WiringPlan`]s
//!    (mixed rank/SPE targets, one-sided and relay channels, multi-message
//!    FIFO traffic) through [`cellpilot::conformance::check_plan`], which
//!    runs the identical program on both backends and diffs the
//!    observables: per-channel payload FIFOs, incident categories, coarse
//!    outcome class, and process census.
//!
//! 2. **Every shipped example** — each example binary runs as a subprocess
//!    under `CP_BACKEND=sim` and `CP_BACKEND=native`; exit status and the
//!    sorted multiset of stdout lines must match. (Examples route anything
//!    timing- or schedule-dependent to stderr precisely so this holds.)
//!
//! What is deliberately *not* compared: timestamps (virtual vs wall
//! clock), dispatch counts, and cross-channel interleavings — the paper's
//! guarantees are per-channel FIFO and payload integrity, not a global
//! total order.

use cellpilot::conformance::{check_plan, check_saturated, WiringPlan};
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any seeded wiring graph observes identically on both backends.
    #[test]
    fn backends_agree_on_random_wirings(seed in any::<u64>()) {
        let plan = WiringPlan::from_seed(seed);
        let (oracle, candidate, verdict) = check_plan(&plan);
        prop_assert!(
            verdict.is_ok(),
            "seed {seed} diverged: {}\nplan: {plan:?}\n--- sim (oracle) ---\n{oracle}\n--- native ---\n{candidate}",
            verdict.unwrap_err(),
        );
    }
}

/// The overload campaign's workload, saturated past its capacity under
/// `Shed`, degrades identically on both backends: the reader is parked
/// during the burst, so exactly `burst - capacity` writes shed (each an
/// `ErrorKind::Backpressure`), and the payload FIFOs plus the
/// `overload`/`message-shed` incident multiset must match between sim and
/// native.
#[test]
fn backends_agree_on_a_saturated_channel() {
    let (oracle, candidate, verdict) = check_saturated();
    if let Err(why) = verdict {
        panic!("saturated channel diverged: {why}\n--- sim (oracle) ---\n{oracle}\n--- native ---\n{candidate}");
    }
    assert!(
        oracle.incidents.iter().any(|c| c == "message-shed"),
        "the scenario must actually shed, or it proves nothing"
    );
}

/// The full example suite, in dependency-crate order.
const EXAMPLES: &[&str] = &[
    "quickstart",
    "relay",
    "spe_farm",
    "heat_stencil",
    "mandelbrot_farm",
    "pipeline_overlay",
    "pilot_deadlock",
    "dacs_tour",
    "scatter_search",
];

/// `target/{profile}/examples`, derived from the test binary's own path
/// (`target/{profile}/deps/<test>-<hash>`).
fn examples_dir() -> Option<PathBuf> {
    let mut dir = std::env::current_exe().ok()?;
    dir.pop(); // test binary name
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.push("examples");
    dir.is_dir().then_some(dir)
}

/// Exit status plus the sorted multiset of stdout lines.
fn observe_example(bin: &PathBuf, backend: &str) -> (Option<i32>, Vec<String>) {
    let out = Command::new(bin)
        .env("CP_BACKEND", backend)
        .output()
        .unwrap_or_else(|e| panic!("spawning {} failed: {e}", bin.display()));
    let mut lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    lines.sort_unstable();
    (out.status.code(), lines)
}

#[test]
fn examples_agree_on_both_backends() {
    let Some(dir) = examples_dir() else {
        eprintln!(
            "conformance: SKIPPING example comparison — no examples/ dir \
             next to the test binary (run via `cargo test` so examples build)"
        );
        return;
    };
    let mut compared = 0usize;
    for name in EXAMPLES {
        let bin = dir.join(name);
        if !bin.is_file() {
            eprintln!(
                "conformance: SKIPPING example `{name}` — binary not built \
                 at {}",
                bin.display()
            );
            continue;
        }
        let (sim_status, sim_lines) = observe_example(&bin, "sim");
        let (nat_status, nat_lines) = observe_example(&bin, "native");
        assert_eq!(
            sim_status, nat_status,
            "example `{name}`: exit status diverged (sim {sim_status:?}, native {nat_status:?})"
        );
        assert_eq!(
            sim_lines, nat_lines,
            "example `{name}`: stdout line multiset diverged between backends"
        );
        compared += 1;
    }
    assert!(
        compared > 0,
        "conformance: no example binaries found in {} — the suite compared nothing",
        dir.display()
    );
    eprintln!(
        "conformance: {compared}/{} examples agree on both backends",
        EXAMPLES.len()
    );
}
