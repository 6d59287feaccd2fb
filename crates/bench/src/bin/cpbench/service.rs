//! The service workloads: a front tier on the commodity node sends
//! one-word requests at pools of four SPE workers, which answer
//! `x ^ REPLY_SALT`.
//!
//! The deployment mirrors `cp_bench::service` — the two-Cells-one-Xeon
//! cluster on a 3 µs / 1250 B/µs fabric with kernel-bypass MPI costs and
//! eager channels — so the closed routes reproduce
//! `BENCH_service_baseline.json`. It is rebuilt here from the layer crates'
//! public API because that module is due for a rewrite (ROADMAP item 2) and
//! a benchmark must not change with the code it judges.
//!
//! * **closed** — the front tier keeps one request outstanding and reads
//!   each reply itself, over three routes: front → worker → front
//!   (`type2-direct`), through a gateway SPE on the worker's Cell
//!   (`type4-local-hop`), or on the other Cell (`type5-remote-hop`).
//! * **open** — the front tier sends a seeded Poisson schedule at a fixed
//!   virtual rate whatever the replies do; one collector rank per worker
//!   reads that worker's replies in FIFO order, and latency is taken from
//!   the *intended* send time. Request channels hold 16 credits and block
//!   when they run out, so overload delays the generator and shows as
//!   lateness instead of unbounded queues.

use std::sync::Arc;
use std::time::Instant;

use cellpilot::{
    CellPilotConfig, CellPilotOpts, CpChannel, CpProcess, OverloadPolicy, SpeProgram, CP_MAIN,
};
use cp_des::{IncidentCategory, SimDuration, SimTime};
use cp_mpisim::MpiCosts;
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};

use crate::cell::{lock, shared_probe, CellRun, Observe, SharedProbe};
use crate::spans::SpanSink;
use crate::stats::{poisson_schedule, Arrival, Rng};

/// Workers per pool. Hop routes pair every worker with a gateway SPE, so 4
/// keeps the busiest layout (8 SPEs) inside one Cell node.
pub const POOL_WORKERS: usize = 4;

/// Requests served before the timed window opens.
pub const SIM_WARMUP: usize = 2;

/// In-flight bound of each open-loop request channel.
pub const REQUEST_CREDITS: usize = 16;

/// Workers answer `x` with `x ^ REPLY_SALT`: cheap to verify, impossible to
/// fake with an echo.
const REPLY_SALT: i32 = 0x2A5A_5A5A;

/// A negative word retires a worker.
const RETIRE: i32 = -1;

/// Placeholder operation number of a warm-up request.
const WARMUP_OP: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Type2Direct,
    Type4LocalHop,
    Type5RemoteHop,
}

impl Route {
    pub const ALL: [Route; 3] = [
        Route::Type2Direct,
        Route::Type4LocalHop,
        Route::Type5RemoteHop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::Type2Direct => "type2-direct",
            Route::Type4LocalHop => "type4-local-hop",
            Route::Type5RemoteHop => "type5-remote-hop",
        }
    }

    /// Channels per worker: request, (hop,) response.
    fn stride(self) -> usize {
        match self {
            Route::Type2Direct => 2,
            _ => 3,
        }
    }
}

fn service_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::two_cells_one_xeon();
    spec.net.wire_latency_us = 3.0;
    spec.net.wire_bytes_per_us = 1250.0;
    spec
}

fn service_opts(obs: &Observe) -> CellPilotOpts {
    let mut opts = CellPilotOpts::new().with_tracing(obs.recorder.clone());
    opts.mpi_costs = MpiCosts {
        ppe_sw_latency_us: 6.0,
        commodity_sw_latency_us: 3.0,
        ..MpiCosts::default()
    };
    opts
}

fn with_copilot_kill(opts: CellPilotOpts, at_us: u64) -> CellPilotOpts {
    let at = SimTime::ZERO + SimDuration::from_micros(at_us);
    opts.with_faults(Arc::new(FaultPlan::new().kill_copilot(NodeId(0), at)))
        .with_retry(RetryPolicy::default())
}

/// What the SPE programs share with the rank closures of one cell.
#[derive(Clone)]
struct Wiring {
    spans: Option<SpanSink>,
    /// Per worker, the operation numbers it serves in order; lets worker
    /// and gateway closures label their spans. Empty unless spans are on.
    ops_by_worker: Arc<Vec<Vec<usize>>>,
}

impl Wiring {
    /// Operation number of a worker's `nth` request, if it is a timed one.
    fn op_of(&self, worker: usize, nth: usize) -> Option<usize> {
        let op = *self.ops_by_worker.get(worker)?.get(nth)?;
        (op != WARMUP_OP).then_some(op)
    }
}

/// Pool member programs. SPE programs receive their first channel id as
/// `arg` (the process index, forwarded by `run_my_spes`).
fn worker_program(route: Route, w: Wiring) -> SpeProgram {
    let stride = route.stride();
    SpeProgram::new("svc-worker", 2048, move |spe, arg, _| {
        let base = arg as usize;
        let (req, rsp) = (CpChannel(base + stride - 2), CpChannel(base + stride - 1));
        let mut nth = 0;
        loop {
            let v = spe.read_vec::<i32>(req).expect("worker read");
            if v[0] < 0 {
                break;
            }
            let t_read = spe.ctx().now().as_nanos();
            spe.write_slice(rsp, &[v[0] ^ REPLY_SALT])
                .expect("worker write");
            if let Some(s) = &w.spans {
                if let Some(op) = w.op_of(base / stride, nth) {
                    s.child("worker_service", op, t_read, spe.ctx().now().as_nanos());
                }
            }
            nth += 1;
        }
    })
}

fn gateway_program(w: Wiring) -> SpeProgram {
    SpeProgram::new("svc-gateway", 2048, move |spe, arg, _| {
        let base = arg as usize;
        let (req, hop) = (CpChannel(base), CpChannel(base + 1));
        let mut nth = 0;
        loop {
            let v = spe.read_vec::<i32>(req).expect("gateway read");
            let t_read = spe.ctx().now().as_nanos();
            spe.write_slice(hop, &v).expect("gateway write");
            if v[0] < 0 {
                break;
            }
            if let Some(s) = &w.spans {
                if let Some(op) = w.op_of(base / 3, nth) {
                    s.child("gateway", op, t_read, spe.ctx().now().as_nanos());
                }
            }
            nth += 1;
        }
    })
}

/// Create the pool of `route` and its channels, `reader_of(w)` being the
/// rank that reads worker `w`'s replies. Channel ids come out as
/// `stride * w + {0 request, (1 hop,) last response}`.
fn build_pool(
    cfg: &mut CellPilotConfig,
    route: Route,
    front: CpProcess,
    ppe1: CpProcess,
    reader_of: &dyn Fn(usize) -> CpProcess,
    request_credits: Option<usize>,
    wiring: &Wiring,
) {
    let stride = route.stride();
    let worker = worker_program(route, wiring.clone());
    let gateway = gateway_program(wiring.clone());
    for w in 0..POOL_WORKERS {
        let base = (stride * w) as i32;
        let request = |cfg: &mut CellPilotConfig, to| {
            let b = cfg.channel(front, to).eager();
            match request_credits {
                Some(n) => b.capacity(n).overload_policy(OverloadPolicy::Block),
                None => b,
            }
            .build()
            .expect("request channel")
        };
        let first = match route {
            Route::Type2Direct => {
                let wk = cfg
                    .create_spe_process(&worker, CP_MAIN, base)
                    .expect("worker SPE");
                let req = request(cfg, wk);
                cfg.channel(wk, reader_of(w))
                    .eager()
                    .build()
                    .expect("response channel");
                req
            }
            Route::Type4LocalHop | Route::Type5RemoteHop => {
                let wk_parent = if route == Route::Type4LocalHop {
                    CP_MAIN
                } else {
                    ppe1
                };
                let gw = cfg
                    .create_spe_process(&gateway, CP_MAIN, base)
                    .expect("gateway SPE");
                let wk = cfg
                    .create_spe_process(&worker, wk_parent, base)
                    .expect("worker SPE");
                let req = request(cfg, gw);
                cfg.channel(gw, wk).eager().build().expect("hop channel");
                cfg.channel(wk, reader_of(w))
                    .eager()
                    .build()
                    .expect("response channel");
                req
            }
        };
        assert_eq!(first.0, stride * w, "pool channel ids follow the stride");
    }
}

/// Seeded closed-loop request stream: `(worker, word)` per request.
fn closed_requests(seed: u64, n: usize) -> Vec<(usize, i32)> {
    let mut rng = Rng::new(seed, 0x5EC7_1CE5);
    (0..n)
        .map(|_| {
            (
                rng.below(POOL_WORKERS as u64) as usize,
                (rng.next_u64() & 0x3FFF_FFFF) as i32,
            )
        })
        .collect()
}

fn ops_by_worker(assignment: impl Iterator<Item = usize>, warmup: usize) -> Vec<Vec<usize>> {
    let mut by = vec![Vec::new(); POOL_WORKERS];
    for (i, w) in assignment.enumerate() {
        // Warm-up requests occupy a slot in the worker's order but carry no
        // operation number.
        by[w].push(i.checked_sub(warmup).unwrap_or(WARMUP_OP));
    }
    by
}

/// Virtual time of one healthy closed-loop request, generously: places the
/// failover cell's kill near the middle of the run.
const CLOSED_RTT_GUESS_US: u64 = 60;

/// Configure one closed-loop cell; the front tier fills `probe`.
fn closed_config(
    route: Route,
    failover: bool,
    seed: u64,
    requests: usize,
    obs: &Observe,
    probe: &SharedProbe,
) -> CellPilotConfig {
    let stream = closed_requests(seed, SIM_WARMUP + requests);
    let wiring = Wiring {
        spans: obs.spans.clone(),
        ops_by_worker: Arc::new(if obs.spans.is_some() {
            ops_by_worker(stream.iter().map(|r| r.0), SIM_WARMUP)
        } else {
            Vec::new()
        }),
    };
    let mut opts = service_opts(obs);
    if failover {
        opts = with_copilot_kill(opts, requests as u64 * CLOSED_RTT_GUESS_US / 2);
    }
    let mut cfg = CellPilotConfig::one_rank_per_node(service_spec(), opts);
    // Rank placement follows creation order: CP_MAIN on Cell node 0,
    // "ppe1" on Cell node 1, "front" on the commodity node.
    let ppe1 = cfg
        .create_process("ppe1", 1, |cp, _| cp.run_and_wait_my_spes())
        .expect("ppe1 rank");
    let stride = route.stride();
    let (front_probe, spans) = (probe.clone(), obs.spans.clone());
    let front = cfg
        .create_process("front", 2, move |cp, _| {
            let now = || cp.ctx().now().as_nanos();
            for (i, &(worker, x)) in stream.iter().enumerate() {
                let timed = i.checked_sub(SIM_WARMUP);
                let base = stride * worker;
                let t0 = now();
                if timed == Some(0) {
                    let mut p = lock(&front_probe);
                    p.host_first = Some(Instant::now());
                    p.sim_first_ns = t0;
                }
                if let (Some(op), Some(s)) = (timed, &spans) {
                    s.begin_root(op, t0);
                }
                cp.write_slice(CpChannel(base), &[x]).expect("front write");
                let t_written = now();
                let v = cp
                    .read_vec::<i32>(CpChannel(base + stride - 1))
                    .expect("front read");
                let t1 = now();
                let Some(op) = timed else { continue };
                if let Some(s) = &spans {
                    s.child("front_write", op, t0, t_written);
                    s.child("collector_read", op, t_written, t1);
                    s.end_root(op, t1);
                }
                let mut p = lock(&front_probe);
                if v != [x ^ REPLY_SALT] {
                    p.wrong += 1;
                }
                p.lat_ns.push(t1 - t0);
                if i + 1 == stream.len() {
                    p.host_last = Some(Instant::now());
                    p.sim_last_ns = t1;
                }
            }
            for w in 0..POOL_WORKERS {
                cp.write_slice(CpChannel(stride * w), &[RETIRE])
                    .expect("retire");
            }
        })
        .expect("front rank");
    build_pool(&mut cfg, route, front, ppe1, &|_| front, None, &wiring);
    cfg
}

/// One closed-loop cell: `requests` timed requests over `route`, one
/// outstanding. With `failover`, node 0's Co-Pilot is killed in mid-run.
pub fn run_closed(
    route: Route,
    failover: bool,
    seed: u64,
    requests: usize,
    obs: &Observe,
) -> CellRun {
    let started = Instant::now();
    let probe = shared_probe(requests, POOL_WORKERS);
    let cfg = closed_config(route, failover, seed, requests, obs, &probe);
    let findings = cfg.check();
    let configure_host_ns = started.elapsed().as_nanos() as u64;
    let outcome = cfg.run(|cp| cp.run_and_wait_my_spes());
    let mut run = CellRun::finish(requests, &probe, outcome, started, configure_host_ns);
    conclude(&mut run, &findings, failover);
    run
}

/// Build the wiring of `route` and run `check()` over it, without running:
/// what `core.configure.host_us` times. Returns the number of findings.
pub fn configure_only(route: Route) -> usize {
    let probe = shared_probe(0, POOL_WORKERS);
    closed_config(route, false, 1, 64, &Observe::default(), &probe)
        .check()
        .len()
}

fn conclude(run: &mut CellRun, findings: &[cellpilot::Diagnostic], failover: bool) {
    if let Some(d) = findings.iter().find(|d| d.is_error()) {
        run.failed = run.ops;
        run.error = Some(format!("cp-check rejects the wiring: {d}"));
    }
    if failover {
        run.require_incidents(&[
            IncidentCategory::CopilotDeath,
            IncidentCategory::CopilotFailover,
        ]);
    } else {
        run.require_incidents(&[]);
    }
}

/// One open-loop cell on the `type2-direct` pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenCell {
    /// Offered rate, requests per virtual second.
    pub rate_per_s: u32,
    pub failover: bool,
}

impl OpenCell {
    pub fn name(&self) -> String {
        let tail = if self.failover { ".failover" } else { "" };
        format!("r{}k{tail}", self.rate_per_s / 1000)
    }
}

/// Virtual instant of the first intended send: every process is up and
/// parked in its first read well before it.
const OPEN_START_NS: u64 = 2_000_000;

/// Run one open-loop cell of `requests` timed requests (after one untimed
/// request per worker, sent at the very start).
///
/// Ranks: `CP_MAIN` (Cell node 0, parents the workers), `front` and one
/// collector per worker on the commodity node.
pub fn run_open(cell: &OpenCell, seed: u64, requests: usize, obs: &Observe) -> CellRun {
    let started = Instant::now();
    let probe = shared_probe(requests, POOL_WORKERS);
    // Four collectors fill the samples, each its own operations: kept in
    // schedule order (so the first and last quarter are the schedule's two
    // ends), with a placeholder for an operation no collector ever sees.
    lock(&probe).lat_ns = vec![u64::MAX; requests];
    let schedule: Arc<Vec<Arrival>> = Arc::new(poisson_schedule(
        seed,
        cell.rate_per_s as f64,
        requests,
        POOL_WORKERS,
    ));
    let wiring = Wiring {
        spans: obs.spans.clone(),
        ops_by_worker: Arc::new(if obs.spans.is_some() {
            // Each worker first serves one warm-up request.
            let mut by = vec![vec![WARMUP_OP]; POOL_WORKERS];
            for (op, a) in schedule.iter().enumerate() {
                by[a.worker].push(op);
            }
            by
        } else {
            Vec::new()
        }),
    };
    let mut opts = service_opts(obs);
    if cell.failover {
        // The middle of the schedule as offered, not as drawn: the same
        // instant for every seed, so every run sees the same takeover pause
        // (it depends on the kill's phase against the 200 µs heartbeat).
        let half_ns = (requests / 2) as f64 * 1e9 / cell.rate_per_s as f64;
        opts = with_copilot_kill(opts, (OPEN_START_NS + half_ns as u64) / 1000);
    }
    // Ranks 0 main (Cell 0), 1 front, 2.. collectors (commodity node).
    let mut placement = vec![NodeId(0), NodeId(2)];
    placement.extend([NodeId(2); POOL_WORKERS]);
    let mut cfg = CellPilotConfig::new(service_spec(), placement, opts);
    let stride = Route::Type2Direct.stride();

    let (front_probe, spans, sched) = (probe.clone(), obs.spans.clone(), schedule.clone());
    let front = cfg
        .create_process("front", 0, move |cp, _| {
            let ctx = cp.ctx();
            // One warm-up request per worker, before the schedule starts.
            for w in 0..POOL_WORKERS {
                cp.write_slice(CpChannel(stride * w), &[w as i32])
                    .expect("warm-up write");
            }
            let mut late_max = 0u64;
            for (op, a) in sched.iter().enumerate() {
                let due = OPEN_START_NS + a.due_ns;
                let now = ctx.now().as_nanos();
                if now < due {
                    ctx.advance(SimDuration::from_nanos(due - now));
                }
                let t_send = ctx.now().as_nanos();
                late_max = late_max.max(t_send - due);
                if op == 0 {
                    let mut p = lock(&front_probe);
                    p.host_first = Some(Instant::now());
                    p.sim_first_ns = due;
                }
                if let Some(s) = &spans {
                    s.begin_root(op, due);
                }
                cp.write_slice(CpChannel(stride * a.worker), &[a.word])
                    .expect("front write");
                if let Some(s) = &spans {
                    s.child("front_write", op, t_send, ctx.now().as_nanos());
                }
            }
            lock(&front_probe).gen_late_max_ns = late_max;
            for w in 0..POOL_WORKERS {
                cp.write_slice(CpChannel(stride * w), &[RETIRE])
                    .expect("retire");
            }
        })
        .expect("front rank");

    let mut collectors = Vec::with_capacity(POOL_WORKERS);
    for w in 0..POOL_WORKERS {
        let (coll_probe, spans, sched) = (probe.clone(), obs.spans.clone(), schedule.clone());
        let total = schedule.len();
        let c = cfg
            .create_process("collector", w as i32, move |cp, _| {
                let ctx = cp.ctx();
                let rsp = CpChannel(stride * w + 1);
                let warm = cp.read_vec::<i32>(rsp).expect("warm-up read");
                let mut wrong = u64::from(warm != [w as i32 ^ REPLY_SALT]);
                // This worker's requests, in the order it serves them.
                let mine = sched.iter().enumerate().filter(|(_, a)| a.worker == w);
                let mut lat = Vec::with_capacity(total / POOL_WORKERS + 64);
                let mut t_last = 0u64;
                for (op, a) in mine {
                    let t_call = ctx.now().as_nanos();
                    let v = cp.read_vec::<i32>(rsp).expect("collector read");
                    let t1 = ctx.now().as_nanos();
                    if v != [a.word ^ REPLY_SALT] {
                        wrong += 1;
                    }
                    if let Some(s) = &spans {
                        s.child("collector_read", op, t_call, t1);
                        s.end_root(op, t1);
                    }
                    lat.push((op, t1 - (OPEN_START_NS + a.due_ns)));
                    t_last = t1;
                }
                let mut p = lock(&coll_probe);
                p.wrong += wrong;
                p.per_worker[w] += lat.len() as u64;
                for (op, l) in lat {
                    p.lat_ns[op] = l;
                }
                // Collectors finish in virtual-time order, so the last one
                // to get here closes the timed window on both clocks.
                if p.sim_last_ns <= t_last {
                    p.sim_last_ns = t_last;
                    p.host_last = Some(Instant::now());
                }
            })
            .expect("collector rank");
        collectors.push(c);
    }
    build_pool(
        &mut cfg,
        Route::Type2Direct,
        front,
        CP_MAIN,
        &|w| collectors[w],
        Some(REQUEST_CREDITS),
        &wiring,
    );
    let findings = cfg.check();
    let configure_host_ns = started.elapsed().as_nanos() as u64;
    let outcome = cfg.run(|cp| cp.run_and_wait_my_spes());
    // Drop the placeholders, so `finish` counts those operations as missing.
    lock(&probe).lat_ns.retain(|&l| l != u64::MAX);
    let expected = {
        let mut per = vec![0u64; POOL_WORKERS];
        schedule.iter().for_each(|a| per[a.worker] += 1);
        per
    };
    let seen = lock(&probe).per_worker.clone();
    let mut run = CellRun::finish(requests, &probe, outcome, started, configure_host_ns);
    if run.error.is_none() && seen != expected {
        run.failed = run.ops;
        run.error = Some(format!(
            "exactly-once broken: replies per worker {seen:?}, requests {expected:?}"
        ));
    }
    conclude(&mut run, &findings, cell.failover);
    run
}

/// `service-open`'s ladder of offered rates, requests per virtual second.
pub const LADDER: [u32; 8] = [
    10_000, 20_000, 25_000, 30_000, 35_000, 40_000, 50_000, 60_000,
];

/// The rate whose p50 and p99 are the workload's headline latencies, and
/// at which the failover cell runs.
pub const REFERENCE_RATE: u32 = 20_000;

/// Rates up to this one sit below the knee at the seed commit; their
/// medians make up `sim_lat_us_gmean`. A fixed set, so the metric compares
/// across commits even when the knee moves.
pub const STEADY_MAX_RATE: u32 = 30_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_routes_answer_every_request_and_repeat() {
        for route in Route::ALL {
            let a = run_closed(route, false, 5, 24, &Observe::default());
            assert!(a.ok(), "{}: {:?}", route.name(), a.error);
            assert_eq!(a.lat_ns.len(), 24);
            let b = run_closed(route, false, 5, 24, &Observe::default());
            assert_eq!((a.end_ns, a.dispatches), (b.end_ns, b.dispatches));
        }
    }

    #[test]
    fn open_loop_is_exactly_once_and_measures_from_the_intended_send() {
        let cell = OpenCell {
            rate_per_s: 20_000,
            failover: false,
        };
        let a = run_open(&cell, 2, 200, &Observe::default());
        assert!(a.ok(), "{:?}", a.error);
        assert_eq!(a.lat_ns.len(), 200);
        // Queueing exists: not every request sees the same latency.
        let s = a.sorted_lat_ns();
        assert!(s[0] < s[199]);
        let b = run_open(&cell, 2, 200, &Observe::default());
        assert_eq!((a.end_ns, a.dispatches), (b.end_ns, b.dispatches));
        assert_eq!(a.lat_ns, b.lat_ns);
    }

    #[test]
    fn failover_cells_lose_nothing_and_log_exactly_the_takeover() {
        let open = OpenCell {
            rate_per_s: 20_000,
            failover: true,
        };
        let r = run_open(&open, 1, 400, &Observe::default());
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.incidents.len(), 2);
        let c = run_closed(Route::Type2Direct, true, 1, 200, &Observe::default());
        assert!(c.ok(), "{:?}", c.error);
    }

    #[test]
    fn open_loop_spans_partition_every_request() {
        let obs = Observe {
            spans: Some(SpanSink::with_capacity(1024)),
            ..Observe::default()
        };
        let sink = obs.spans.clone().unwrap();
        sink.begin_cell(0, 150);
        let cell = OpenCell {
            rate_per_s: 30_000,
            failover: false,
        };
        let r = run_open(&cell, 4, 150, &obs);
        assert!(r.ok(), "{:?}", r.error);
        let l = crate::spans::legs(&sink.of_cell(0), 150);
        assert_eq!(l.ops, 150);
        assert_eq!(l.residual_ns, 0);
        assert_eq!(l.total_ns, r.lat_ns.iter().sum::<u64>());
    }
}
