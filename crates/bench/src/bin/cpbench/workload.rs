//! The four workloads: which cells each runs, how many operations per
//! cell, and why the workload exists. Op counts are fixed (never a time
//! budget), so virtual-time results repeat exactly for a seed.

use crate::cell::{CellRun, Observe};
use crate::pingpong::{self, PingPongCell, Transport};
use crate::service::{self, OpenCell, Route};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    PingPong(PingPongCell),
    Closed { route: Route, failover: bool },
    Open(OpenCell),
}

/// What a cell contributes to the workload's end-to-end numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A healthy operating point: counts in `sim_lat_us_gmean`, in the
    /// pooled percentiles and in the closed-loop rate.
    Steady,
    /// An open-loop rate above the steady set: searched for the knee only.
    Ladder,
    /// The workload's cell with a Co-Pilot kill in mid-run.
    Failover,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellDef {
    pub kind: Kind,
    pub role: Role,
    /// Timed operations at full size.
    pub ops: usize,
    /// Independent simulations the operations are split over.
    pub runs: usize,
}

impl CellDef {
    pub fn name(&self) -> String {
        match &self.kind {
            Kind::PingPong(c) => c.name(),
            Kind::Closed { route, failover } => {
                let tail = if *failover { ".failover" } else { "" };
                format!("{}{tail}", route.name())
            }
            Kind::Open(c) => c.name(),
        }
    }

    pub fn is_failover(&self) -> bool {
        self.role == Role::Failover
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The op counts the benchmark is defined by.
    Full,
    /// Tiny op counts: exercises every code path and metric name in a
    /// second or two (unit tests, smoke runs). Its numbers mean nothing.
    Quick,
}

/// Operations of each cell's warm-up simulation during set-up.
pub const SETUP_WARMUP_OPS: usize = 1024;

impl Size {
    pub fn ops(self, def: &CellDef) -> usize {
        match self {
            Size::Full => def.ops,
            Size::Quick => match def.kind {
                Kind::Open(_) => 48 * def.runs,
                _ => 6,
            },
        }
    }

    pub fn warmup_ops(self, def: &CellDef) -> usize {
        match self {
            Size::Full => SETUP_WARMUP_OPS,
            Size::Quick => 4 * def.runs,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers the workload stresses and what it is for.
    pub why: &'static str,
    pub cells: Vec<CellDef>,
    /// Latency samples are multiplied by this before they are reported:
    /// 0.5 turns a ping-pong round trip into the one-way latency Table II
    /// quotes.
    pub lat_scale: f64,
    /// Index of the cell whose spans give the per-leg metrics and the span
    /// overhead.
    pub reference: usize,
}

/// Takeovers the open-loop failover cell spreads its requests over. One
/// takeover delays ~25 of 16 384 requests, which leaves p999 (16 samples
/// beyond) in the middle of one pause's arrivals: over 12 seeds it read
/// 293–1127 µs. Eight takeovers put ~200 requests in the tail and p999 near
/// its top, where it measures the pause rather than the arrival phase.
pub const OPEN_FAILOVER_RUNS: usize = 8;

fn pingpong_workload(
    name: &'static str,
    why: &'static str,
    cells: &[PingPongCell],
    ops: usize,
    failover: PingPongCell,
    reference: &str,
) -> Workload {
    let mut defs: Vec<CellDef> = cells
        .iter()
        .map(|c| CellDef {
            kind: Kind::PingPong(*c),
            role: Role::Steady,
            ops,
            runs: 1,
        })
        .collect();
    defs.push(CellDef {
        kind: Kind::PingPong(PingPongCell {
            failover: true,
            ..failover
        }),
        role: Role::Failover,
        ops,
        runs: 1,
    });
    workload(name, why, defs, 0.5, reference)
}

fn workload(
    name: &'static str,
    why: &'static str,
    cells: Vec<CellDef>,
    lat_scale: f64,
    reference: &str,
) -> Workload {
    let reference = cells
        .iter()
        .position(|d| d.name() == reference)
        .expect("reference cell exists");
    Workload {
        name,
        why,
        cells,
        lat_scale,
        reference,
    }
}

pub fn all() -> Vec<Workload> {
    let closed = |route, failover| CellDef {
        kind: Kind::Closed { route, failover },
        role: if failover {
            Role::Failover
        } else {
            Role::Steady
        },
        ops: 16_384,
        runs: 1,
    };
    let mut open: Vec<CellDef> = service::LADDER
        .iter()
        .map(|&rate_per_s| CellDef {
            kind: Kind::Open(OpenCell {
                rate_per_s,
                failover: false,
            }),
            role: if rate_per_s <= service::STEADY_MAX_RATE {
                Role::Steady
            } else {
                Role::Ladder
            },
            ops: 8192,
            runs: 1,
        })
        .collect();
    open.push(CellDef {
        kind: Kind::Open(OpenCell {
            rate_per_s: service::REFERENCE_RATE,
            failover: true,
        }),
        role: Role::Failover,
        ops: 16_384,
        runs: OPEN_FAILOVER_RUNS,
    });
    vec![
        pingpong_workload(
            "pingpong-small",
            "closed loop, 1 B over every path: per-message protocol cost (Co-Pilot dispatch, \
             mailbox, MPI software latency) is all of virtual time; bytes-side work does nothing",
            &pingpong::SMALL,
            6000,
            PingPongCell::new(2, Transport::Relay, 1),
            "t5.relay.1b",
        ),
        pingpong_workload(
            "pingpong-bulk",
            "same paths at 1600 B and 64 KB: wire bandwidth, MPI rendezvous, chunked DMA and \
             payload packing dominate; eager is bypassed, so a dispatch change predicts no change",
            &pingpong::BULK,
            4000,
            PingPongCell::new(2, Transport::Relay, 1600),
            "t5.relay.64k",
        ),
        workload(
            "service-closed",
            "one caller waiting for each reply over three routes: the Co-Pilot is always \
             idle on arrival, so pure path latency; host time is ~100 % DES hand-offs",
            Route::ALL
                .iter()
                .map(|&r| closed(r, false))
                .chain([closed(Route::Type2Direct, true)])
                .collect(),
            1.0,
            "type5-remote-hop",
        ),
        workload(
            "service-open",
            "independent users on a Poisson schedule at fixed rates: the only workload \
             where the Co-Pilot queues, credits bind and the takeover reaches a percentile",
            open,
            1.0,
            "r20k",
        ),
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Names of the trace file's cells: one per simulation.
    pub fn trace_cells(&self) -> Vec<String> {
        self.cells
            .iter()
            .flat_map(|d| {
                (0..d.runs).map(move |k| {
                    if d.runs == 1 {
                        d.name()
                    } else {
                        format!("{}#{k}", d.name())
                    }
                })
            })
            .collect()
    }

    /// Index in [`Workload::trace_cells`] of cell `i`'s first simulation.
    pub fn trace_base(&self, i: usize) -> usize {
        self.cells[..i].iter().map(|d| d.runs).sum()
    }

    pub fn steady(&self) -> impl Iterator<Item = (usize, &CellDef)> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, d)| d.role == Role::Steady)
    }

    pub fn failover_cell(&self) -> usize {
        self.cells
            .iter()
            .position(CellDef::is_failover)
            .expect("every workload has a failover cell")
    }
}

/// Run cell `def` with `ops` timed operations in total. `trace_base` is the
/// trace-file index of its first simulation (used only when spans are on).
pub fn run_cell(def: &CellDef, seed: u64, ops: usize, obs: &Observe, trace_base: usize) -> CellRun {
    let per_run = ops / def.runs;
    let mut total: Option<CellRun> = None;
    for k in 0..def.runs {
        if let Some(s) = &obs.spans {
            s.begin_cell(trace_base + k, per_run);
        }
        // Simulations of one cell draw from decorrelated streams.
        let sub_seed = seed.wrapping_add(0x9E37_79B9 * k as u64);
        let run = match &def.kind {
            Kind::PingPong(c) => pingpong::run(c, sub_seed, per_run, obs),
            Kind::Closed { route, failover } => {
                service::run_closed(*route, *failover, sub_seed, per_run, obs)
            }
            Kind::Open(c) => service::run_open(c, sub_seed, per_run, obs),
        };
        match &mut total {
            None => total = Some(run),
            Some(t) => t.absorb(run),
        }
    }
    total.expect("a cell has at least one simulation")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_shape() {
        let w = all();
        let names: Vec<_> = w.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "pingpong-small",
                "pingpong-bulk",
                "service-closed",
                "service-open"
            ]
        );
        let steady = |i: usize| w[i].steady().count();
        assert_eq!((steady(0), steady(1), steady(2)), (13, 14, 3));
        assert_eq!(w[3].cells.len(), 9);
        for wl in &w {
            assert_eq!(wl.cells.iter().filter(|d| d.is_failover()).count(), 1);
            assert!(wl.why.len() <= 200 && !wl.why.contains('\n'));
            assert_eq!(wl.trace_cells().len(), wl.trace_base(wl.cells.len()));
        }
        assert_eq!(w[3].cells[w[3].reference].name(), "r20k");
        assert_eq!(w[0].cells[w[0].reference].name(), "t5.relay.1b");
        // Open-loop cells keep at least 8 192 samples, the failover cell
        // enough for p999 to have ten samples beyond it.
        for d in &w[3].cells {
            assert!(d.ops >= 8192);
        }
        assert!(crate::stats::beyond(w[3].cells[8].ops, 0.999) >= 10);
    }

    #[test]
    fn a_split_cell_pools_its_simulations() {
        let w = by_name("service-open").unwrap();
        let def = w.cells[w.failover_cell()];
        let r = run_cell(&def, 1, 48 * def.runs, &Observe::default(), 0);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.lat_ns.len(), 48 * def.runs);
        assert_eq!(r.incidents.len(), 2 * def.runs);
    }
}
