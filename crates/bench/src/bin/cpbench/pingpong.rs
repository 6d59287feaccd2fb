//! The ping-pong workloads: one client, one message in flight, every
//! channel type of the paper's Table I over each transport.
//!
//! Topology per type (on `ClusterSpec::two_cells_one_xeon()`, one rank per
//! node, default costs — the layout the paper's Table II was measured on):
//! type 1 PPE ↔ PPE across the wire, type 2 PPE ↔ local SPE, type 3 PPE ↔
//! remote SPE, type 4 SPE ↔ SPE on one Cell, type 5 SPE ↔ SPE across the
//! wire. The PPE initiates types 1–3 and an SPE types 4–5, as in the paper.

use std::sync::Arc;
use std::time::Instant;

use cellpilot::{
    CellPilot, CellPilotConfig, CellPilotOpts, CpChannel, CpError, PiValue, SpeCtx, SpeProgram,
    CP_MAIN,
};
use cp_des::{IncidentCategory, SimDuration, SimTime};
use cp_mpisim::LongDouble;
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};

use crate::cell::{lock, shared_probe, CellRun, Observe, SharedProbe};
use crate::spans::SpanSink;
use crate::stats::Rng;

/// Round trips run before the timed window opens: SPE load, Co-Pilot
/// spawn-up and first-touch effects end inside them.
pub const SIM_WARMUP: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Rendezvous relay through the Co-Pilots (the paper's mechanism).
    Relay,
    /// One-sided put into the reader's local-store window.
    OneSided,
    /// Relay with the payload inlined on the mailbox word (≤ 16 B packed).
    Eager,
}

impl Transport {
    pub fn label(self) -> &'static str {
        match self {
            Transport::Relay => "relay",
            Transport::OneSided => "onesided",
            Transport::Eager => "eager",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingPongCell {
    /// Table-I channel type, 1..=5.
    pub chan_type: u8,
    pub transport: Transport,
    pub bytes: usize,
    /// Kill node 0's Co-Pilot in mid-run (the workload's failover cell).
    pub failover: bool,
}

impl PingPongCell {
    pub const fn new(chan_type: u8, transport: Transport, bytes: usize) -> PingPongCell {
        PingPongCell {
            chan_type,
            transport,
            bytes,
            failover: false,
        }
    }

    /// `t5.relay.1600b`, `t2.eager.1b`, `t2.relay.1b.failover`, …
    pub fn name(&self) -> String {
        let size = match self.bytes {
            65_536 => "64k".to_string(),
            n => format!("{n}b"),
        };
        let tail = if self.failover { ".failover" } else { "" };
        format!(
            "t{}.{}.{size}{tail}",
            self.chan_type,
            self.transport.label()
        )
    }
}

/// The Pilot format of a payload size: Table II's `%b` and `%100Lf`, and a
/// fixed-count byte array for anything else (an SPE reader sizes its
/// local-store buffer from a fixed count; `%*` would cap it at 16 KB).
fn format_for(bytes: usize) -> String {
    match bytes {
        1 => "%b".to_string(),
        1600 => "%100Lf".to_string(),
        n => format!("%{n}b"),
    }
}

fn payload_for(bytes: usize, seed: u64) -> PiValue {
    let mut rng = Rng::new(seed, 0x9A71_0AD5 ^ bytes as u64);
    match bytes {
        1600 => PiValue::LongDouble(
            (0..100)
                .map(|_| LongDouble((rng.next_u64() >> 12) as f64))
                .collect(),
        ),
        n => PiValue::Byte((0..n).map(|_| rng.next_u64() as u8).collect()),
    }
}

/// Stamp the round number into the payload, so a stale or duplicated
/// message cannot pass the echo check.
fn stamp(value: &mut PiValue, base: &PiValue, round: usize) {
    match (value, base) {
        (PiValue::Byte(v), PiValue::Byte(b)) => v[0] = b[0] ^ round as u8,
        (PiValue::LongDouble(v), PiValue::LongDouble(b)) => {
            v[0] = LongDouble(b[0].0 + round as f64)
        }
        _ => unreachable!("ping-pong payloads are bytes or long doubles"),
    }
}

/// The two calls a ping-pong endpoint makes, on a rank or on an SPE.
trait Endpoint {
    fn now_ns(&self) -> u64;
    fn put(&self, chan: CpChannel, format: &str, values: &[PiValue]) -> Result<(), CpError>;
    fn get(&self, chan: CpChannel, format: &str) -> Result<Vec<PiValue>, CpError>;
}

impl Endpoint for CellPilot {
    fn now_ns(&self) -> u64 {
        self.ctx().now().as_nanos()
    }
    fn put(&self, chan: CpChannel, format: &str, values: &[PiValue]) -> Result<(), CpError> {
        self.write(chan, format, values)
    }
    fn get(&self, chan: CpChannel, format: &str) -> Result<Vec<PiValue>, CpError> {
        self.read(chan, format)
    }
}

impl Endpoint for SpeCtx {
    fn now_ns(&self) -> u64 {
        self.ctx().now().as_nanos()
    }
    fn put(&self, chan: CpChannel, format: &str, values: &[PiValue]) -> Result<(), CpError> {
        self.write(chan, format, values)
    }
    fn get(&self, chan: CpChannel, format: &str) -> Result<Vec<PiValue>, CpError> {
        self.read(chan, format)
    }
}

/// Everything both endpoints need, shared by the closures of one cell.
struct Plan {
    format: String,
    base: PiValue,
    rounds: usize,
    probe: SharedProbe,
    spans: Option<SpanSink>,
}

/// Channel 0 carries initiator → echoer, channel 1 the way back.
const PING: CpChannel = CpChannel(0);
const PONG: CpChannel = CpChannel(1);

fn initiate<E: Endpoint>(e: &E, plan: &Plan) {
    let mut value = plan.base.clone();
    for round in 0..plan.rounds {
        let timed = round.checked_sub(SIM_WARMUP);
        stamp(&mut value, &plan.base, round);
        let t0 = e.now_ns();
        if timed == Some(0) {
            let mut p = lock(&plan.probe);
            p.host_first = Some(Instant::now());
            p.sim_first_ns = t0;
        }
        if let (Some(op), Some(s)) = (timed, &plan.spans) {
            s.begin_root(op, t0);
        }
        e.put(PING, &plan.format, std::slice::from_ref(&value))
            .expect("ping-pong write");
        let t_written = e.now_ns();
        let back = e.get(PONG, &plan.format).expect("ping-pong read");
        let t1 = e.now_ns();
        let Some(op) = timed else { continue };
        if let Some(s) = &plan.spans {
            s.child("front_write", op, t0, t_written);
            s.child("collector_read", op, t_written, t1);
            s.end_root(op, t1);
        }
        let mut p = lock(&plan.probe);
        if back.len() != 1 || back[0] != value {
            p.wrong += 1;
        }
        p.lat_ns.push(t1 - t0);
        if round + 1 == plan.rounds {
            p.host_last = Some(Instant::now());
            p.sim_last_ns = t1;
        }
    }
}

fn echo<E: Endpoint>(e: &E, plan: &Plan) {
    for round in 0..plan.rounds {
        let v = e.get(PING, &plan.format).expect("echo read");
        let t_read = e.now_ns();
        e.put(PONG, &plan.format, &v).expect("echo write");
        if let (Some(op), Some(s)) = (round.checked_sub(SIM_WARMUP), &plan.spans) {
            s.child("worker_service", op, t_read, e.now_ns());
        }
    }
}

/// Configure one cell's processes and its two channels.
fn configure(cell: &PingPongCell, plan: &Arc<Plan>, opts: CellPilotOpts) -> CellPilotConfig {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let spe_echo = {
        let plan = plan.clone();
        SpeProgram::new("echo", 2048, move |spe, _, _| echo(spe, &plan))
    };
    let spe_ping = {
        let plan = plan.clone();
        SpeProgram::new("ping", 2048, move |spe, _, _| initiate(spe, &plan))
    };
    let transport = cell.transport;
    let chan = |cfg: &mut CellPilotConfig, from, to, spe_reader: bool| {
        let b = cfg.channel(from, to);
        let b = match transport {
            Transport::OneSided if spe_reader => b.one_sided(),
            Transport::Eager => b.eager(),
            _ => b,
        };
        b.build().expect("ping-pong channel");
    };
    let host_spes = |cp: &CellPilot, _: i32| cp.run_and_wait_my_spes();
    match cell.chan_type {
        1 => {
            let plan = plan.clone();
            let peer = cfg
                .create_process("echo-ppe", 0, move |cp, _| echo(cp, &plan))
                .expect("echo rank");
            chan(&mut cfg, CP_MAIN, peer, false);
            chan(&mut cfg, peer, CP_MAIN, false);
        }
        2 => {
            let spe = cfg
                .create_spe_process(&spe_echo, CP_MAIN, 0)
                .expect("echo SPE");
            chan(&mut cfg, CP_MAIN, spe, true);
            chan(&mut cfg, spe, CP_MAIN, false);
        }
        3 => {
            let parent = cfg
                .create_process("remote-parent", 0, host_spes)
                .expect("parent rank");
            let spe = cfg
                .create_spe_process(&spe_echo, parent, 0)
                .expect("echo SPE");
            chan(&mut cfg, CP_MAIN, spe, true);
            chan(&mut cfg, spe, CP_MAIN, false);
        }
        4 => {
            let a = cfg
                .create_spe_process(&spe_ping, CP_MAIN, 0)
                .expect("ping SPE");
            let b = cfg
                .create_spe_process(&spe_echo, CP_MAIN, 1)
                .expect("echo SPE");
            chan(&mut cfg, a, b, true);
            chan(&mut cfg, b, a, true);
        }
        5 => {
            let parent = cfg
                .create_process("remote-parent", 0, host_spes)
                .expect("parent rank");
            let a = cfg
                .create_spe_process(&spe_ping, CP_MAIN, 0)
                .expect("ping SPE");
            let b = cfg
                .create_spe_process(&spe_echo, parent, 0)
                .expect("echo SPE");
            chan(&mut cfg, a, b, true);
            chan(&mut cfg, b, a, true);
        }
        other => panic!("no channel type {other}"),
    }
    cfg
}

/// Virtual time of one healthy round trip, generously: places the
/// failover cell's kill near the middle of the run.
const FAILOVER_RTT_GUESS_US: u64 = 120;

/// Run one cell: `reps` timed round trips after [`SIM_WARMUP`] untimed ones.
/// Latency samples are **round-trip** virtual ns.
pub fn run(cell: &PingPongCell, seed: u64, reps: usize, obs: &Observe) -> CellRun {
    let started = Instant::now();
    let probe = shared_probe(reps, 0);
    let plan = Arc::new(Plan {
        format: format_for(cell.bytes),
        base: payload_for(cell.bytes, seed),
        rounds: SIM_WARMUP + reps,
        probe: probe.clone(),
        spans: obs.spans.clone(),
    });
    let mut opts = CellPilotOpts::new().with_tracing(obs.recorder.clone());
    if cell.failover {
        let kill_at =
            SimTime::ZERO + SimDuration::from_micros(reps as u64 * FAILOVER_RTT_GUESS_US / 2);
        opts = opts
            .with_faults(Arc::new(FaultPlan::new().kill_copilot(NodeId(0), kill_at)))
            .with_retry(RetryPolicy::default());
    }
    let cfg = configure(cell, &plan, opts);
    let findings = cfg.check();
    let configure_host_ns = started.elapsed().as_nanos() as u64;
    let main_initiates = cell.chan_type <= 3;
    let main_plan = plan.clone();
    let outcome = cfg.run(move |cp| {
        let spes = cp.run_my_spes();
        if main_initiates {
            initiate(cp, &main_plan);
        }
        for t in spes {
            cp.wait_spe(t);
        }
    });
    let mut run = CellRun::finish(reps, &probe, outcome, started, configure_host_ns);
    if let Some(d) = findings.iter().find(|d| d.is_error()) {
        run.failed = run.ops;
        run.error = Some(format!("cp-check rejects the wiring: {d}"));
    }
    if cell.failover {
        run.require_incidents(&[
            IncidentCategory::CopilotDeath,
            IncidentCategory::CopilotFailover,
        ]);
    } else {
        run.require_incidents(&[]);
    }
    run
}

const fn relay(t: u8, bytes: usize) -> PingPongCell {
    PingPongCell::new(t, Transport::Relay, bytes)
}
const fn one_sided(t: u8, bytes: usize) -> PingPongCell {
    PingPongCell::new(t, Transport::OneSided, bytes)
}
const fn eager(t: u8) -> PingPongCell {
    PingPongCell::new(t, Transport::Eager, 1)
}

/// `pingpong-small`: 1 B over every path — 13 steady cells.
pub const SMALL: [PingPongCell; 13] = [
    relay(1, 1),
    relay(2, 1),
    relay(3, 1),
    relay(4, 1),
    relay(5, 1),
    one_sided(2, 1),
    one_sided(3, 1),
    one_sided(4, 1),
    one_sided(5, 1),
    eager(2),
    eager(3),
    eager(4),
    eager(5),
];

/// `pingpong-bulk`: the paper's 1600 B (`%100Lf`) and 64 KB over the relay,
/// 1600 B one-sided — 14 steady cells. Eager never applies at these sizes.
pub const BULK: [PingPongCell; 14] = [
    relay(1, 1600),
    relay(2, 1600),
    relay(3, 1600),
    relay(4, 1600),
    relay(5, 1600),
    relay(1, 65_536),
    relay(2, 65_536),
    relay(3, 65_536),
    relay(4, 65_536),
    relay(5, 65_536),
    one_sided(2, 1600),
    one_sided(3, 1600),
    one_sided(4, 1600),
    one_sided(5, 1600),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_names_are_stable() {
        assert_eq!(relay(5, 1600).name(), "t5.relay.1600b");
        assert_eq!(relay(1, 65_536).name(), "t1.relay.64k");
        assert_eq!(eager(2).name(), "t2.eager.1b");
        assert_eq!(one_sided(4, 1).name(), "t4.onesided.1b");
    }

    #[test]
    fn every_path_echoes_and_repeats_bit_for_bit() {
        for cell in SMALL.iter().chain(BULK.iter()) {
            let a = run(cell, 3, 4, &Observe::default());
            assert!(a.ok(), "{}: {:?}", cell.name(), a.error);
            assert_eq!(a.lat_ns.len(), 4);
            let b = run(cell, 3, 4, &Observe::default());
            assert_eq!(
                (a.end_ns, a.dispatches),
                (b.end_ns, b.dispatches),
                "{}",
                cell.name()
            );
        }
    }

    #[test]
    fn spans_cover_each_round_trip() {
        let obs = Observe {
            spans: Some(SpanSink::with_capacity(64)),
            ..Observe::default()
        };
        let sink = obs.spans.clone().unwrap();
        sink.begin_cell(0, 5);
        let r = run(&relay(5, 1), 1, 5, &obs);
        assert!(r.ok(), "{:?}", r.error);
        let l = crate::spans::legs(&sink.of_cell(0), 5);
        assert_eq!(l.ops, 5);
        assert_eq!(l.residual_ns, 0);
        assert_eq!(l.total_ns, r.lat_ns.iter().sum::<u64>());
        assert!(l.worker_service_ns > 0 && l.req_inflight_ns > 0);
    }
}
