//! One measuring run: one workload, one seed, end-to-end or traced.
//!
//! A run sets up (several times; the median is `setup_s`), then either
//! repeats fixed-size *untraced* passes until `--seconds` are used and
//! reports the end-to-end metrics, or — `--trace 1` — makes one untraced and
//! one traced pass plus the layer probes and reports the per-layer metrics.
//! The two never mix: every end-to-end number comes from an untraced pass.

use std::time::Instant;

use cellpilot::baseline::{self, BaselineImpl};
use cp_des::IncidentCategory;
use cp_trace::{MetricsSnapshot, Recorder};

use crate::cell::{CellRun, Observe};
use crate::metrics::{
    self, cell_median_us, end_to_end, knee, ladder, HostSide, Metric, Pass, Tally, COUNT, HOST_NS,
    HOST_US, RATIO, SIM_US,
};
use crate::micro;
use crate::pin;
use crate::pingpong::{self, PingPongCell, Transport};
use crate::service::{self, Route};
use crate::spans::{self, SpanSink};
use crate::stats::{highest_percentile, ns_to_us, quantile_sorted};
use crate::workload::{self, run_cell, CellDef, Kind, Role, Size, Workload};

/// Set-ups per run at full size; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed passes per end-to-end run: at least this many (so every run also
/// checks that virtual results repeat), at most that many.
const MIN_PASSES: usize = 2;
const MAX_PASSES: usize = 9;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Host-time budget of the timed passes.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// `des.switch_unpinned.host_ns` as the unpinned parent measured it.
    pub unpinned_switch_ns: Option<f64>,
    /// When the measuring process started.
    pub started: Instant,
}

pub struct RunResult {
    pub workload: &'static str,
    pub why: &'static str,
    pub trace: bool,
    pub pinned: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed above the metrics.
    pub detail: String,
    /// Why the run is not correct; empty when it is.
    pub errors: Vec<String>,
    /// The span trace of a traced run, ready to be written.
    pub trace_file: Option<(String, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.tally.failed == 0
    }
}

/// Bookkeeping shared by every phase of a run.
#[derive(Default)]
struct Ledger {
    tally: Tally,
    errors: Vec<String>,
}

impl Ledger {
    fn note(&mut self, phase: &str, cell: &str, run: &CellRun) {
        self.tally.add(run);
        if let Some(e) = &run.error {
            self.errors.push(format!("{phase}, cell {cell}: {e}"));
        }
    }
}

fn set_up(w: &Workload, seed: u64, size: Size, ledger: &mut Ledger) {
    for def in &w.cells {
        let run = run_cell(def, seed, size.warmup_ops(def), &Observe::default(), 0);
        ledger.note("set-up", &def.name(), &run);
    }
}

fn untraced_pass(w: &Workload, seed: u64, size: Size, ledger: &mut Ledger) -> Pass {
    let cells = w
        .cells
        .iter()
        .map(|def| {
            let run = run_cell(def, seed, size.ops(def), &Observe::default(), 0);
            ledger.note("timed pass", &def.name(), &run);
            run
        })
        .collect();
    Pass { cells }
}

/// Counts a traced pass collects from `cp_trace::Recorder` snapshots.
#[derive(Debug, Default)]
struct TraceTotals {
    mpi_sends: u64,
    wire_bytes: u64,
    proxy_hops: u64,
    events: u64,
    queue_hwm: u64,
    backpressure_waits: u64,
    sheds: u64,
}

impl TraceTotals {
    fn add(&mut self, snap: &MetricsSnapshot, events: usize) {
        self.mpi_sends += snap.mpi.sends;
        self.wire_bytes += snap.mpi.wire_bytes;
        self.proxy_hops += snap.channel_types.iter().map(|c| c.proxy_hops).sum::<u64>();
        self.events += events as u64;
        let max = |m: &std::collections::BTreeMap<u32, u64>| m.values().copied().max().unwrap_or(0);
        let sum = |m: &std::collections::BTreeMap<u32, u64>| m.values().sum::<u64>();
        self.queue_hwm = self.queue_hwm.max(max(&snap.flow.queue_high_watermark));
        self.backpressure_waits += sum(&snap.flow.backpressure_waits);
        self.sheds += sum(&snap.flow.sheds);
    }
}

fn traced_pass(
    w: &Workload,
    seed: u64,
    size: Size,
    sink: &SpanSink,
    ledger: &mut Ledger,
) -> (Pass, TraceTotals) {
    let mut totals = TraceTotals::default();
    let cells = w
        .cells
        .iter()
        .enumerate()
        .map(|(i, def)| {
            // A recorder per cell: its event list is dropped with it.
            let obs = Observe {
                recorder: Recorder::enabled(),
                spans: Some(sink.clone()),
            };
            let run = run_cell(def, seed, size.ops(def), &obs, w.trace_base(i));
            totals.add(&obs.recorder.snapshot(), obs.recorder.events().len());
            ledger.note("traced pass", &def.name(), &run);
            run
        })
        .collect();
    (Pass { cells }, totals)
}

/// The ten Table II cells, measured by a short probe: what a service
/// workload states its cost model's error with.
fn table2_probe(seed: u64, size: Size, ledger: &mut Ledger) -> Vec<(u8, usize, f64)> {
    let reps = match size {
        Size::Full => 64,
        Size::Quick => 3,
    };
    metrics::PAPER_TABLE2_CELLPILOT_US
        .iter()
        .map(|&(t, bytes, _)| {
            let cell = PingPongCell::new(t, Transport::Relay, bytes);
            let run = pingpong::run(&cell, seed, reps, &Observe::default());
            ledger.note("Table II probe", &cell.name(), &run);
            let median = quantile_sorted(&run.sorted_lat_ns(), 0.5);
            (t, bytes, ns_to_us(median) * 0.5)
        })
        .collect()
}

fn cells_table(w: &Workload, pass: &Pass) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "  {:<26} {:>7} {:>12} {:>18} {:>12} {:>9} {:>10}\n",
        "cell", "ops", "median", "tail", "max", "disp/op", "host us/op"
    ));
    for (def, run) in w.cells.iter().zip(&pass.cells) {
        let sorted = run.sorted_lat_ns();
        if sorted.is_empty() {
            s.push_str(&format!("  {:<26} no samples\n", def.name()));
            continue;
        }
        let us = |ns: u64| ns_to_us(ns) * w.lat_scale;
        // A closed loop's samples are all alike, so a percentile beside its
        // median would say nothing; only open-loop and failover cells get one.
        let tail = match (def.role, &def.kind) {
            (Role::Failover, _) | (_, Kind::Open(_)) => highest_percentile(sorted.len())
                .map(|(label, q)| format!("{label} {:.3}", us(quantile_sorted(&sorted, q))))
                .unwrap_or_default(),
            _ => String::new(),
        };
        s.push_str(&format!(
            "  {:<26} {:>7} {:>12.3} {:>18} {:>12.3} {:>9.1} {:>10.1}\n",
            def.name(),
            run.ops,
            us(quantile_sorted(&sorted, 0.5)),
            tail,
            us(*sorted.last().expect("non-empty")),
            run.dispatches as f64 / run.ops.max(1) as f64,
            run.host_ns as f64 / 1e3 / run.ops.max(1) as f64,
        ));
    }
    s
}

fn ladder_table(w: &Workload, pass: &Pass) -> String {
    let rungs = ladder(w, pass);
    if rungs.is_empty() {
        return String::new();
    }
    let mut s = format!(
        "  {:<8} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}  sustains (p99 <= {} us, late <= {} us, q4 <= {} x q1)\n",
        "rate",
        "p50",
        "p99",
        "max",
        "gen late",
        "q1 mean",
        "q4 mean",
        metrics::KNEE_P99_LIMIT_NS / 1000,
        metrics::KNEE_LATE_LIMIT_NS / 1000,
        metrics::KNEE_BACKLOG_FACTOR,
    );
    for r in &rungs {
        s.push_str(&format!(
            "  {:<8} {:>9.1} {:>9.1} {:>10.1} {:>10.1} {:>9.1} {:>9.1}  {}\n",
            r.name,
            ns_to_us(r.p50_ns),
            ns_to_us(r.p99_ns),
            ns_to_us(r.max_ns),
            ns_to_us(r.late_max_ns),
            r.first_quarter_mean_ns / 1e3,
            r.last_quarter_mean_ns / 1e3,
            if r.sustains() { "yes" } else { "no" },
        ));
    }
    let (rate, ladder_rate) = knee(&rungs);
    s.push_str(&format!(
        "  knee: {rate:.0} req/s interpolated, {ladder_rate} req/s on the ladder\n"
    ));
    s
}

fn end_to_end_run(
    args: &RunArgs,
    setups_s: Vec<f64>,
    ledger: &mut Ledger,
) -> (Vec<Metric>, String) {
    let (w, seed, size) = (&args.workload, args.seed, args.size);
    // Only the first pass keeps its samples: every later one must repeat it
    // bit for bit, and holding them all would make peak RSS grow with the
    // number of passes a machine fits into the budget.
    let clock = Instant::now();
    let first = untraced_pass(w, seed, size, ledger);
    let mut last = clock.elapsed().as_secs_f64();
    let mut pass_rates = vec![first.host_ops_per_s()];
    loop {
        let n = pass_rates.len();
        let out_of_time = clock.elapsed().as_secs_f64() + last > args.seconds;
        if n >= MAX_PASSES || (n >= MIN_PASSES && (out_of_time || size == Size::Quick)) {
            break;
        }
        let t = Instant::now();
        let pass = untraced_pass(w, seed, size, ledger);
        last = t.elapsed().as_secs_f64();
        if pass.fingerprint() != first.fingerprint() {
            ledger.errors.push(format!(
                "pass {} did not reproduce pass 1's (end_time, dispatches) bit for bit",
                n + 1
            ));
        }
        pass_rates.push(pass.host_ops_per_s());
    }
    let first = &first;
    let table2 = match w.cells[0].kind {
        Kind::PingPong(_) => metrics::table2_cells(w, first),
        _ => table2_probe(seed, size, ledger),
    };
    let host = HostSide {
        setups_s,
        pass_rates,
        peak_rss_mb: pin::peak_rss_mb().unwrap_or(f64::NAN),
    };
    let metrics = end_to_end(w, first, &host, &table2, &ledger.tally);
    let mut detail = format!(
        "{} timed passes of {} checked ops; host ops/s per pass: {}\n",
        host.pass_rates.len(),
        first.ops(),
        host.pass_rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    detail.push_str(&cells_table(w, first));
    detail.push_str(&ladder_table(w, first));
    if !matches!(w.cells[0].kind, Kind::PingPong(_)) {
        detail.push_str(
            "  paper_err_pct: this workload's latencies are unvalidated (the paper has no \
             service numbers); the figure is the cost model's error on Table II, probed here\n",
        );
    }
    (metrics, detail)
}

/// What the probes of one workload's cells yield: per-cell virtual latency
/// and steady-state host time. At the workload under test these come from
/// its own untraced pass; for the other three, from a short probe — latency
/// of a closed-loop cell does not depend on how long it runs, and the
/// open-loop ladder is probed at full length.
fn probe_workload(
    w: &Workload,
    own: Option<&Pass>,
    seed: u64,
    size: Size,
    ledger: &mut Ledger,
) -> Vec<(CellDef, CellRun)> {
    w.cells
        .iter()
        .enumerate()
        .filter(|(_, d)| d.role != Role::Failover)
        .map(|(i, def)| {
            let run = match own {
                Some(pass) => pass.cells[i].clone(),
                None => {
                    let ops = match (size, &def.kind) {
                        (Size::Quick, _) | (Size::Full, Kind::Open(_)) => size.ops(def),
                        (Size::Full, Kind::PingPong(_)) => 256,
                        (Size::Full, Kind::Closed { .. }) => 2048,
                    };
                    let run = run_cell(def, seed, ops, &Observe::default(), 0);
                    ledger.note("layer probe", &def.name(), &run);
                    run
                }
            };
            (*def, run)
        })
        .collect()
}

/// Per-cell `core.*` metrics of one workload's probes.
fn cell_metrics(w: &Workload, probes: &[(CellDef, CellRun)], out: &mut Vec<Metric>) {
    for (def, run) in probes {
        let name = def.name();
        let ops = run.ops.max(1) as f64;
        let sorted = run.sorted_lat_ns();
        if sorted.is_empty() {
            continue;
        }
        let at = |q: f64| ns_to_us(quantile_sorted(&sorted, q)) * w.lat_scale;
        match def.kind {
            Kind::PingPong(c) => {
                out.push(Metric::new(format!("core.{name}.sim_us"), at(0.5), SIM_US));
                if c.transport == Transport::Relay && (c.bytes == 1 || c.bytes == 65_536) {
                    out.push(Metric::new(
                        format!("core.{name}.host_us"),
                        run.steady_host_ns as f64 / 1e3 / ops,
                        HOST_US,
                    ));
                }
            }
            Kind::Closed { route, .. } => {
                out.push(Metric::new(
                    format!("core.{}.p50.sim_us", route.name()),
                    at(0.5),
                    SIM_US,
                ));
                out.push(Metric::new(
                    format!("core.{}.host_ops_per_s", route.name()),
                    ops / (run.steady_host_ns as f64 / 1e9),
                    "op/s",
                ));
            }
            Kind::Open(_) => out.push(Metric::new(
                format!("core.{name}.p99.sim_us"),
                at(0.99),
                SIM_US,
            )),
        }
    }
}

/// `core.t<k>.overhead_vs_dma.sim_us`: CellPilot's 1 B relay latency minus
/// the hand-coded DMA transfer of `cellpilot::baseline` — the paper's
/// Co-Pilot overhead.
fn overhead_vs_dma(small: &[(CellDef, CellRun)], w: &Workload, size: Size, out: &mut Vec<Metric>) {
    let reps = match size {
        Size::Full => 50,
        Size::Quick => 3,
    };
    for (def, run) in small {
        let Kind::PingPong(c) = def.kind else {
            continue;
        };
        if c.transport != Transport::Relay || run.lat_ns.is_empty() {
            continue;
        }
        let dma = baseline::pingpong(c.chan_type, BaselineImpl::Dma, 1, reps).one_way_us;
        out.push(Metric::new(
            format!("core.t{}.overhead_vs_dma.sim_us", c.chan_type),
            cell_median_us(w, run) - dma,
            SIM_US,
        ));
    }
}

/// A short closed-loop run through a Co-Pilot kill, traced: how long the
/// node was without a Co-Pilot and how many heartbeats the run recorded.
fn failover_probe(seed: u64, size: Size, ledger: &mut Ledger, out: &mut Vec<Metric>) {
    let requests = match size {
        Size::Full => 512,
        Size::Quick => 64,
    };
    let obs = Observe {
        recorder: Recorder::enabled(),
        spans: None,
    };
    let run = service::run_closed(Route::Type2Direct, true, seed, requests, &obs);
    ledger.note("failover probe", "type2-direct.failover", &run);
    let at = |cat: IncidentCategory| {
        run.incidents
            .iter()
            .find(|i| i.category == cat)
            .map(|i| i.at.as_nanos())
    };
    let gap_ns = match (
        at(IncidentCategory::CopilotDeath),
        at(IncidentCategory::CopilotFailover),
    ) {
        (Some(death), Some(takeover)) => takeover.saturating_sub(death),
        _ => 0,
    };
    out.push(Metric::new(
        "simnet.failover_gap.sim_us",
        ns_to_us(gap_ns),
        SIM_US,
    ));
    out.push(Metric::new(
        "simnet.heartbeats.count",
        obs.recorder.snapshot().net.heartbeats as f64,
        COUNT,
    ));
}

fn traced_run(args: &RunArgs, ledger: &mut Ledger) -> (Vec<Metric>, String, (String, String)) {
    let (w, seed, size) = (&args.workload, args.seed, args.size);
    let ticks_before = pin::cpu_ticks();
    let untraced = untraced_pass(w, seed, size, ledger);
    let ticks_after = pin::cpu_ticks();

    let span_rows: usize = w.cells.iter().map(|d| 5 * size.ops(d)).sum();
    let sink = SpanSink::with_capacity(span_rows);
    let (traced, totals) = traced_pass(w, seed, size, &sink, ledger);
    if traced.fingerprint() != untraced.fingerprint() {
        ledger
            .errors
            .push("tracing perturbed the schedule: traced and untraced passes differ".to_string());
    }

    // The reference cell once more with spans only, for their own overhead.
    let reference = &w.cells[w.reference];
    let ref_ops = size.ops(reference);
    let spans_only = {
        let own = SpanSink::with_capacity(5 * ref_ops);
        let obs = Observe {
            recorder: Recorder::disabled(),
            spans: Some(own),
        };
        let run = run_cell(reference, seed, ref_ops, &obs, 0);
        ledger.note("span-overhead run", &reference.name(), &run);
        run
    };
    let legs = spans::legs(&sink.of_cell(w.trace_base(w.reference)), ref_ops);
    if legs.residual_ns != 0 || legs.ops != ref_ops as u64 {
        ledger.errors.push(format!(
            "spans of {} do not partition its operations: {} of {ref_ops} complete, residual {} ns",
            reference.name(),
            legs.ops,
            legs.residual_ns
        ));
    }

    let mut out = micro::all(size);
    out.push(Metric::new(
        "des.switch_unpinned.host_ns",
        args.unpinned_switch_ns
            .unwrap_or_else(|| micro::des_switch(2_000, 0).host_ns),
        HOST_NS,
    ));

    // Per-cell metrics: every workload's cells, under every workload.
    for other in workload::all() {
        let own = (other.name == w.name).then_some(&untraced);
        let probes = probe_workload(&other, own, seed, size, ledger);
        cell_metrics(&other, &probes, &mut out);
        if other.name == "pingpong-small" {
            overhead_vs_dma(&probes, &other, size, &mut out);
        }
    }
    failover_probe(seed, size, ledger, &mut out);

    // This workload's own counts and ratios.
    let ops = untraced.ops() as f64;
    let traced_ops = traced.ops() as f64;
    let per_op_us = |ns: u64| ns_to_us(ns) / legs.ops.max(1) as f64;
    let gen_late = w
        .steady()
        .map(|(i, _)| untraced.cells[i].gen_late_max_ns)
        .max()
        .unwrap_or(0);
    let sys_frac = match (ticks_before, ticks_after) {
        (Some(b), Some(a)) => pin::sys_fraction(b, a),
        _ => f64::NAN,
    };
    let own = [
        (
            "des.dispatches_per_op.count",
            untraced.dispatches() as f64 / ops,
            COUNT,
        ),
        (
            "des.host_us_per_dispatch",
            untraced.host_ns() as f64 / 1e3 / untraced.dispatches() as f64,
            HOST_US,
        ),
        ("des.sys_frac.ratio", sys_frac, RATIO),
        (
            "mpisim.sends_per_op.count",
            totals.mpi_sends as f64 / traced_ops,
            COUNT,
        ),
        (
            "mpisim.wire_bytes_per_op.count",
            totals.wire_bytes as f64 / traced_ops,
            COUNT,
        ),
        (
            "core.proxy_hops_per_op.count",
            totals.proxy_hops as f64 / traced_ops,
            COUNT,
        ),
        ("core.queue_hwm.count", totals.queue_hwm as f64, COUNT),
        (
            "core.backpressure_waits.count",
            totals.backpressure_waits as f64,
            COUNT,
        ),
        ("core.sheds.count", totals.sheds as f64, COUNT),
        (
            "core.leg.front_write.sim_us",
            per_op_us(legs.front_write_ns),
            SIM_US,
        ),
        (
            "core.leg.req_inflight.sim_us",
            per_op_us(legs.req_inflight_ns),
            SIM_US,
        ),
        (
            "core.leg.worker_service.sim_us",
            per_op_us(legs.worker_service_ns),
            SIM_US,
        ),
        (
            "core.leg.rsp_inflight.sim_us",
            per_op_us(legs.rsp_inflight_ns),
            SIM_US,
        ),
        (
            "core.leg.collector_read.sim_us",
            per_op_us(legs.collector_read_ns),
            SIM_US,
        ),
        (
            "core.leg_residual.sim_us",
            ns_to_us(legs.residual_ns.unsigned_abs()),
            SIM_US,
        ),
        (
            "trace.overhead.ratio",
            traced.host_ns() as f64 / untraced.host_ns() as f64,
            RATIO,
        ),
        (
            "trace.events_per_op.count",
            totals.events as f64 / traced_ops,
            COUNT,
        ),
        ("bench.gen_late.max.sim_us", ns_to_us(gen_late), SIM_US),
        (
            "bench.span_overhead.ratio",
            spans_only.host_ns as f64 / untraced.cells[w.reference].host_ns as f64,
            RATIO,
        ),
    ];
    out.extend(own.into_iter().map(|(n, v, u)| Metric::new(n, v, u)));

    let detail = format!(
        "one untraced and one traced pass of {} checked ops; {} spans recorded; legs at cell {} \
         (mean virtual us per op)\n{}",
        untraced.ops(),
        sink.len(),
        reference.name(),
        cells_table(w, &untraced)
    );
    let file = format!("cpbench-trace-{}.json", w.name);
    let doc = sink.to_json(w.name, &w.trace_cells()).to_compact();
    (out, detail, (file, doc))
}

pub fn run(args: RunArgs) -> RunResult {
    let mut ledger = Ledger::default();
    // Only an end-to-end run reports `setup_s`; one set-up warms a traced one.
    let repeats = match (args.size, args.trace) {
        (Size::Full, false) => SETUP_REPEATS,
        _ => 1,
    };
    let mut setups_s = Vec::with_capacity(repeats);
    for rep in 0..repeats {
        // The first set-up is timed from the start of the process.
        let t = if rep == 0 {
            args.started
        } else {
            Instant::now()
        };
        set_up(&args.workload, args.seed, args.size, &mut ledger);
        setups_s.push(t.elapsed().as_secs_f64());
    }
    let (metrics, detail, trace_file) = if args.trace {
        let (m, d, f) = traced_run(&args, &mut ledger);
        (m, d, Some(f))
    } else {
        let (m, d) = end_to_end_run(&args, setups_s, &mut ledger);
        (m, d, None)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            ledger
                .errors
                .push(format!("metric {} is not a number", m.name));
        }
    }
    RunResult {
        workload: args.workload.name,
        why: args.workload.why,
        trace: args.trace,
        pinned: pin::is_pinned(),
        tally: ledger.tally,
        metrics,
        detail,
        errors: ledger.errors,
        trace_file,
    }
}
