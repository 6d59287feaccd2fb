//! Observability-layer integration tests: the metrics pin the paper's
//! routing claims (Table I).

use cellpilot::CellPilotOpts;
use cp_bench::cellpilot_pingpong_with;
use cp_bench::WARMUP;
use cp_trace::{MetricsSnapshot, Recorder};

fn traced_pingpong(chan_type: u8, bytes: usize, reps: usize) -> MetricsSnapshot {
    let rec = Recorder::enabled();
    let opts = CellPilotOpts::new().with_tracing(rec.clone());
    cellpilot_pingpong_with(chan_type, bytes, reps, opts);
    rec.snapshot()
}

/// Table I: a type-4 channel is a same-node SPE↔SPE pairing the Co-Pilot
/// serves with one local `memcpy` — nothing ever touches MPI, and no
/// proxy hop is recorded.
#[test]
fn type4_pingpong_moves_zero_mpi_payload_bytes() {
    let snap = traced_pingpong(4, 1600, 3);
    assert_eq!(
        snap.mpi.payload_bytes, 0,
        "a local type-4 run must not move any payload over MPI: {snap:?}"
    );
    let t4 = &snap.channel_types[3];
    assert_eq!(t4.chan_type, 4);
    let round_trips = (WARMUP + 3) as u64;
    assert_eq!(t4.writes, 2 * round_trips, "two writes per round trip");
    assert_eq!(t4.reads, 2 * round_trips);
    assert_eq!(t4.proxy_hops, 0, "type 4 is pure memcpy, no relay");
    assert!(t4.latency_us.median > 0.0);
}

/// Table I: a type-5 message is relayed by two Co-Pilots — the writer's
/// side forwards over MPI, the reader's side delivers into the local
/// store. Exactly two proxy hops per message.
#[test]
fn type5_pingpong_records_two_relay_hops_per_message() {
    let snap = traced_pingpong(5, 64, 3);
    let t5 = &snap.channel_types[4];
    assert_eq!(t5.chan_type, 5);
    let messages = 2 * (WARMUP + 3) as u64; // two messages per round trip
    assert_eq!(t5.writes, messages);
    assert_eq!(
        t5.proxy_hops,
        2 * messages,
        "every type-5 message crosses exactly two Co-Pilot hops: {snap:?}"
    );
    assert!(
        snap.mpi.payload_bytes > 0,
        "remote SPE↔SPE traffic rides MPI between the Co-Pilots"
    );
}
