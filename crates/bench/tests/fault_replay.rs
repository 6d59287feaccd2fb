//! The acceptance scenario behind `repro_faults`: a scripted link drop at
//! a fixed virtual time on a type-5 channel recovers through the retry
//! machinery, and replaying the identical plan yields a byte-identical
//! trace.

use cp_bench::fault_replay;

/// The drops engage (the faulted run is strictly slower than a healthy
/// one), yet the transfer succeeds — recovery is invisible to the
/// application.
#[test]
fn link_drops_recover_via_retry() {
    let (healthy, _) = fault_replay(false, 0).unwrap();
    let (faulted, _) = fault_replay(true, 0).unwrap();
    assert!(
        faulted.end_time > healthy.end_time,
        "retries must cost virtual time: faulted {} vs healthy {}",
        faulted.end_time,
        healthy.end_time
    );
}

/// Two runs of the same scripted scenario produce byte-identical rendered
/// traces and the same virtual end time.
#[test]
fn scripted_fault_replay_is_byte_identical() {
    let (report_a, trace_a) = fault_replay(true, 0).unwrap();
    let (report_b, trace_b) = fault_replay(true, 0).unwrap();
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b);
    assert_eq!(report_a.end_time, report_b.end_time);
    assert_eq!(report_a.incidents, report_b.incidents);
}
