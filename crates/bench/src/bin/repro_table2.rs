//! Regenerate the paper's Table II: one-way latency (µs) of the five
//! channel types under CellPilot, hand-coded DMA, and hand-coded copy,
//! for 1-byte (`%b`) and 1600-byte (`%100Lf`) payloads.
//!
//! With `--ablate-one-sided` the SPE-read scenarios (types 2–5) are
//! re-measured over one-sided window-fabric channels and printed beside
//! the relay medians. Type 1 is rank↔rank and has no window to target.

use cp_bench::cellpilot_pingpong_one_sided;
use cp_bench::cli::{parse_int_flag, unknown_flag};

const USAGE: &str = "repro_table2 [--reps N] [--ablate-one-sided]";

fn main() {
    let mut reps: usize = 50;
    let mut ablate_one_sided = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => reps = parse_int_flag(USAGE, "--reps", args.next(), 1, 100_000) as usize,
            "--ablate-one-sided" => ablate_one_sided = true,
            other => unknown_flag(USAGE, other),
        }
    }

    println!("Reproducing Table II ({reps} timed repetitions per cell)...\n");
    let cells = cp_bench::measure_table2(reps);
    print!("{}", cp_bench::render_table2(&cells));
    println!();
    let mut worst: (f64, String) = (0.0, String::new());
    for c in &cells {
        let (p_cp, p_dma, p_copy) = c.paper();
        for (m, p, label) in [
            (c.cellpilot_us, p_cp, "CellPilot"),
            (c.dma_us, p_dma, "DMA"),
            (c.copy_us, p_copy, "Copy"),
        ] {
            let err = (m / p - 1.0).abs();
            if err > worst.0 {
                worst = (err, format!("type {} {}B {label}", c.chan_type, c.bytes));
            }
        }
    }
    println!(
        "Worst relative deviation from the paper: {:.0}% ({})",
        worst.0 * 100.0,
        worst.1
    );

    if ablate_one_sided {
        println!("\nOne-sided (window fabric) vs relay, CellPilot medians:");
        println!("  type   1B relay  1B 1-sided  1600B relay  1600B 1-sided  speedup");
        for ty in 2..=5u8 {
            let relay_us = |bytes: usize| {
                cells
                    .iter()
                    .find(|c| c.chan_type == ty && c.bytes == bytes)
                    .expect("Table II covers every type at 1 B and 1600 B")
                    .cellpilot_us
            };
            let relay_large = relay_us(1600);
            let small = cellpilot_pingpong_one_sided(ty, 1, reps).one_way_us;
            let large = cellpilot_pingpong_one_sided(ty, 1600, reps).one_way_us;
            println!(
                "  {:>4} {:>9.2} {:>11.2} {:>12.2} {:>14.2} {:>7.2}x",
                ty,
                relay_us(1),
                small,
                relay_large,
                large,
                relay_large / large,
            );
        }
    }
}
