//! Fault-replay demo: a type-5 (SPE → remote SPE) transfer under a
//! scripted `FaultPlan` that drops the first two Co-Pilot relay messages
//! on the node0 → node1 link (the scenario `repro_explore` and
//! `tests/fault_replay.rs` share, [`cp_bench::fault_replay`]). The
//! channel-level retry/backoff machinery rides out the drops transparently;
//! the run is executed twice and the traces are asserted byte-identical —
//! the whole point of scripting faults against the virtual clock instead of
//! wall time.

use cp_bench::fault_replay;

fn main() {
    println!("type-5 transfer with the first two relay messages dropped:\n");
    let (report_a, trace_a) = fault_replay(true, 0).expect("the faulted transfer recovers");
    let (report_b, trace_b) = fault_replay(true, 0).expect("the faulted transfer recovers");
    print!("{trace_a}");
    println!(
        "\ncompleted at virtual t = {:.1} us (healthy relay takes one attempt;",
        report_a.end_time.as_micros_f64()
    );
    println!("the drops cost two retry backoffs, visible in the timestamps above).");
    assert_eq!(trace_a, trace_b, "fault replay must be deterministic");
    assert_eq!(report_a.end_time, report_b.end_time);
    println!("\nreplayed: second run is byte-identical to the first ✓");
}
