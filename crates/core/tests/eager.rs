//! Eager small-message inlining: schedule effect, byte-identical goldens
//! above the threshold, and inline-vs-DMA payload-FIFO equivalence on
//! both execution backends.

use std::sync::{Arc, Mutex};

use cellpilot::{CellPilotConfig, CellPilotOpts, CpChannel, SpeProgram, CP_MAIN};
use cp_des::rng::SplitMix64;
use cp_des::{Backend, SimTime};
use cp_simnet::ClusterSpec;

/// One request/response ping carrying `words` payload words each way to
/// an echo SPE, with or without eager inlining on both channels. The
/// initiator is the main rank (type 2 out, type 3 back) or, with
/// `spe_initiator`, a second SPE on the same Cell node (type 4 both
/// ways). Returns the virtual completion time and the payload the
/// initiator read back.
fn ping(eager: bool, words: usize, rounds: usize, spe_initiator: bool) -> (SimTime, Vec<i32>) {
    let rec = cp_trace::Recorder::disabled();
    ping_with(eager, words, rounds, spe_initiator, rec)
}

fn ping_with(
    eager: bool,
    words: usize,
    rounds: usize,
    spe_initiator: bool,
    rec: cp_trace::Recorder,
) -> (SimTime, Vec<i32>) {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new().with_tracing(rec));
    let (req, rsp) = (CpChannel(0), CpChannel(1));
    let worker = SpeProgram::new("echo", 2048, move |spe, _, _| {
        for _ in 0..rounds {
            let v = spe.read_vec::<i32>(req).unwrap();
            let out: Vec<i32> = v.iter().map(|x| x + 1).collect();
            spe.write_slice(rsp, &out).unwrap();
        }
    });
    let got: Arc<Mutex<Vec<i32>>> = Arc::new(Mutex::new(Vec::new()));
    // The rank and SPE contexts share these calls but no trait.
    macro_rules! initiate {
        ($ctx:expr, $sink:expr) => {
            for _ in 0..rounds {
                let payload: Vec<i32> = (0..words as i32).collect();
                $ctx.write_slice(req, &payload).unwrap();
                *$sink.lock().unwrap() = $ctx.read_vec::<i32>(rsp).unwrap();
            }
        };
    }
    let wk = cfg.create_spe_process(&worker, CP_MAIN, 0).unwrap();
    let initiator = if spe_initiator {
        let sink = got.clone();
        let pinger = SpeProgram::new("ping", 2048, move |spe, _, _| initiate!(spe, sink));
        cfg.create_spe_process(&pinger, CP_MAIN, 1).unwrap()
    } else {
        CP_MAIN
    };
    let mut build = |from, to| {
        let b = cfg.channel(from, to);
        if eager { b.eager() } else { b }.build().unwrap()
    };
    assert_eq!((build(initiator, wk), build(wk, initiator)), (req, rsp));

    let sink = got.clone();
    let report = cfg
        .run(move |cp| {
            let _t = cp.run_my_spes();
            if !spe_initiator {
                initiate!(cp, sink)
            }
        })
        .unwrap();
    let v = got.lock().unwrap().clone();
    (report.end_time, v)
}

#[test]
fn eager_ping_is_faster_and_payload_identical() {
    // One i32 packs to 13 bytes (4-byte segment count, 1-byte dtype,
    // 4-byte length, 4 data bytes) — within the 16-byte mailbox budget.
    let (t_eager, v_eager) = ping(true, 1, 4, false);
    let (t_dma, v_dma) = ping(false, 1, 4, false);
    assert_eq!(v_eager, v_dma, "inline delivery must not change payloads");
    assert_eq!(v_eager, vec![1]);
    assert!(
        t_eager < t_dma,
        "a 13-byte ping must finish sooner with eager inlining: {t_eager} vs {t_dma}"
    );
}

#[test]
fn eager_at_least_halves_a_same_node_spe_to_spe_ping() {
    // Type 4 is where per-message Co-Pilot protocol cost, not MPI transit,
    // is the whole round trip (`cpbench` reads 113.3 vs 27.2 µs one way
    // at 1 B under the default costs). Differencing two run lengths
    // cancels SPE start-up.
    let round_trip = |eager: bool| {
        let (long, v) = ping(eager, 1, 9, true);
        let (short, _) = ping(eager, 1, 1, true);
        assert_eq!(v, vec![1]);
        (long - short).as_nanos() / 8
    };
    let (eager, dma) = (round_trip(true), round_trip(false));
    assert!(
        dma >= 2 * eager,
        "eager inlining must at least halve a 1-word type-4 ping: {eager} vs {dma} ns"
    );
}

/// Blank every value of the given numeric key (`"ts":…`, `"dur":…`) in a
/// Chrome-trace JSON string.
fn strip_times(seg: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let mut out = String::with_capacity(seg.len());
    let mut rest = seg;
    while let Some(i) = rest.find(&pat) {
        let key_end = i + pat.len();
        out.push_str(&rest[..key_end]);
        let tail = &rest[key_end..];
        let stop = tail.find([',', '}']).unwrap_or(tail.len());
        out.push('_');
        rest = &tail[stop..];
    }
    out.push_str(rest);
    out
}

/// A Chrome trace reduced to the byte-exact sequence of channel and
/// Co-Pilot operations — lanes, op names, channels, event order — with
/// timestamps and durations blanked and the DES kernel's scheduler
/// telemetry (queue-depth counters, `"cat":"des"`) dropped. Two runs
/// with equal digests took the same code path for every message. The
/// trailer after the event list is cut off first and kept as it is, so a
/// dropped last event does not take it along.
fn op_digest(trace: &str) -> String {
    let sep = ",{\"args\":";
    let (events, trailer) = trace.split_at(trace.rfind(']').expect("a trace event list"));
    let mut digest = events
        .split(sep)
        .filter(|seg| !seg.contains("\"cat\":\"des\""))
        .map(|seg| strip_times(&strip_times(seg, "ts"), "dur"))
        .collect::<Vec<_>>()
        .join(sep);
    digest.push_str(trailer);
    digest
}

#[test]
fn above_threshold_payloads_keep_the_dma_golden_digest() {
    // 8 i32s pack to 41 bytes — over the 16-byte inline budget — so even
    // on an eager channel every message takes the rendezvous DMA path.
    // The golden contract: the inline fast path is invisible when not
    // taken — payloads, completion semantics, and the operation sequence
    // (the timestamp-sanitized trace digest) are byte-identical. Virtual
    // end time may only move because posting a read on an eager channel
    // defers the reader-buffer setup to delivery; the data path itself
    // is the same.
    let rec_eager = cp_trace::Recorder::enabled();
    let rec_dma = cp_trace::Recorder::enabled();
    let (t_eager, v_eager) = ping_with(true, 8, 4, false, rec_eager.clone());
    let (t_dma, v_dma) = ping_with(false, 8, 4, false, rec_dma.clone());
    assert_eq!(v_eager, v_dma, "DMA fallback must not change payloads");
    assert_eq!(v_eager, (1..9).collect::<Vec<i32>>());
    assert_eq!(
        op_digest(&rec_eager.chrome_trace()),
        op_digest(&rec_dma.chrome_trace()),
        "above-threshold traffic must take the byte-exact DMA op sequence"
    );
    assert!(
        t_eager <= t_dma,
        "deferred reader-buffer setup can only shorten the schedule: {t_eager} vs {t_dma}"
    );
}

/// An SPE streams `count` seeded messages to the rank over one channel,
/// randomly mixing single-word payloads (13 bytes packed — inline when
/// eager) with multi-word ones (17+ bytes — always rendezvous DMA). The
/// rank returns every word it read, in arrival order, with each
/// message's length prepended so framing differences can't cancel out.
fn seeded_stream(eager: bool, seed: u64, count: usize, backend: Backend) -> Vec<i32> {
    let spec = ClusterSpec::two_cells_one_xeon();
    let opts = CellPilotOpts::new().with_backend(backend);
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let producer = SpeProgram::new("producer", 2048, move |spe, _, _| {
        let mut rng = SplitMix64(seed);
        for _ in 0..count {
            let words = 1 + rng.below(8) as usize;
            let payload: Vec<i32> = (0..words)
                .map(|_| (rng.next_u64() & 0xFFFF) as i32)
                .collect();
            spe.write_slice(CpChannel(0), &payload).unwrap();
        }
    });
    let wk = cfg.create_spe_process(&producer, CP_MAIN, 0).unwrap();
    let b = cfg.channel(wk, CP_MAIN);
    let chan = if eager { b.eager() } else { b }.build().unwrap();
    assert_eq!(chan.0, 0);

    let got: Arc<Mutex<Vec<i32>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = got.clone();
    cfg.run(move |cp| {
        let _t = cp.run_my_spes();
        let mut all = Vec::new();
        for _ in 0..count {
            let v = cp.read_vec::<i32>(chan).unwrap();
            all.push(v.len() as i32);
            all.extend_from_slice(&v);
        }
        *sink.lock().unwrap() = all;
    })
    .unwrap();
    let v = got.lock().unwrap().clone();
    v
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Property: for any seeded mix of inline-sized and DMA-sized
    /// messages on one channel, the reader observes the exact same word
    /// stream whether eager inlining is on (buffered inline sends
    /// interleaved with rendezvous transfers) or off (everything
    /// rendezvous) — on both execution backends.
    #[test]
    fn inline_and_dma_fifos_match_per_seed_on_both_backends(seed in 1u64..=1_000_000) {
        for backend in [Backend::Sim, Backend::Native] {
            let eager = seeded_stream(true, seed, 24, backend);
            let dma = seeded_stream(false, seed, 24, backend);
            proptest::prop_assert_eq!(
                &eager,
                &dma,
                "payload FIFO diverged (seed {}, backend {:?})",
                seed,
                backend
            );
            proptest::prop_assert!(!eager.is_empty());
        }
    }
}
