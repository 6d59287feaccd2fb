//! The ten end-to-end metrics, computed from untraced passes only.
//!
//! Every metric is reported on every workload and is never 0. What a name
//! measures on each workload is written down in README.md; the short form:
//!
//! | metric | closed loops (ping-pong, service-closed) | service-open |
//! |---|---|---|
//! | `sim_lat_us_gmean` | geometric mean over steady cells of the cell's median latency | same, over the rates up to 30 k/s |
//! | `sim_lat_us_p50/p99` | percentiles of the pooled samples of all steady cells (median path, slowest path) | at the reference rate 20 k/s |
//! | `sim_knee_ops_s` | what one client sustains: timed ops per virtual second | offered rate at which p99 reaches 300 µs |
//! | `sim_failover_p999_us` | the one operation that spans the takeover (the failover cell's largest sample) | p999 over eight takeovers, 16 samples beyond |

use crate::cell::CellRun;
use crate::pingpong::Transport;
use crate::stats::{geometric_mean, mean_u64, median_f64, ns_to_us, quantile_sorted};
use crate::workload::{Kind, Role, Workload};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Units. Virtual-clock quantities carry a `sim_` unit so they cannot be
/// mistaken for (or compared with) host time.
pub const SIM_US: &str = "sim_us";
pub const SIM_OPS: &str = "sim_op/s";
pub const HOST_NS: &str = "ns";
pub const HOST_US: &str = "us";
pub const HOST_MS: &str = "ms";
pub const COUNT: &str = "count";
pub const RATIO: &str = "ratio";

/// Operations attempted and failed over everything a run executed: set-up
/// warm-ups, every pass and every probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, run: &CellRun) {
        self.attempted += run.ops;
        self.failed += run.failed;
    }

    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One pass over a workload: a result per cell, in the workload's order.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub cells: Vec<CellRun>,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }

    pub fn host_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.host_ns).sum()
    }

    pub fn dispatches(&self) -> u64 {
        self.cells.iter().map(|c| c.dispatches).sum()
    }

    /// Checked operations per host second.
    pub fn host_ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.host_ns() as f64 / 1e9)
    }

    /// What must repeat bit for bit between passes.
    pub fn fingerprint(&self) -> Vec<(u64, u64)> {
        self.cells
            .iter()
            .map(|c| (c.end_ns, c.dispatches))
            .collect()
    }
}

/// Limits that define the open-loop knee.
pub const KNEE_P99_LIMIT_NS: u64 = 300_000;
pub const KNEE_LATE_LIMIT_NS: u64 = 100_000;
/// No growing backlog: the last quarter of the schedule may be at most this
/// many times slower, on average, than the first.
pub const KNEE_BACKLOG_FACTOR: f64 = 2.0;

/// One rung of the open-loop ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct RateRow {
    pub name: String,
    pub rate_per_s: u32,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    pub late_max_ns: u64,
    pub first_quarter_mean_ns: f64,
    pub last_quarter_mean_ns: f64,
}

impl RateRow {
    pub fn of(name: String, rate_per_s: u32, run: &CellRun) -> RateRow {
        let sorted = run.sorted_lat_ns();
        let quarter = (run.lat_ns.len() / 4).max(1);
        RateRow {
            name,
            rate_per_s,
            p50_ns: quantile_sorted(&sorted, 0.5),
            p99_ns: quantile_sorted(&sorted, 0.99),
            max_ns: *sorted.last().expect("a rate cell has samples"),
            late_max_ns: run.gen_late_max_ns,
            // Samples are in schedule order, so these are its two ends.
            first_quarter_mean_ns: mean_u64(&run.lat_ns[..quarter]),
            last_quarter_mean_ns: mean_u64(&run.lat_ns[run.lat_ns.len() - quarter..]),
        }
    }

    pub fn sustains(&self) -> bool {
        self.p99_ns <= KNEE_P99_LIMIT_NS
            && self.late_max_ns <= KNEE_LATE_LIMIT_NS
            && self.last_quarter_mean_ns <= KNEE_BACKLOG_FACTOR * self.first_quarter_mean_ns
    }
}

/// The knee of a ladder in ascending rate order, as `(rate, ladder_rate)`.
///
/// `ladder_rate` is the highest rate that sustains with every lower rate
/// sustaining too. `rate` refines it: when the next rung fails on its p99,
/// the rate at which p99 crosses the limit is interpolated between the two
/// rungs (linear in rate, logarithmic in p99). A ladder step is 5–10 k/s, so
/// the bare ladder rate cannot see a 3 % change and flips a whole step when
/// a seed moves one rung's p99 across the limit; the interpolated rate moves
/// smoothly with both.
pub fn knee(ladder: &[RateRow]) -> (f64, u32) {
    let first_failing = ladder.iter().position(|r| !r.sustains());
    match first_failing {
        None => {
            let top = ladder.last().expect("a ladder has rungs").rate_per_s;
            (top as f64, top)
        }
        // Nothing sustains: the knee is below the ladder; report its foot.
        Some(0) => (ladder[0].rate_per_s as f64, ladder[0].rate_per_s),
        Some(i) => {
            let (lo, hi) = (&ladder[i - 1], &ladder[i]);
            let refined = if hi.p99_ns > KNEE_P99_LIMIT_NS && hi.p99_ns > lo.p99_ns {
                let f = (KNEE_P99_LIMIT_NS as f64 / lo.p99_ns as f64).ln()
                    / (hi.p99_ns as f64 / lo.p99_ns as f64).ln();
                lo.rate_per_s as f64 + f * (hi.rate_per_s - lo.rate_per_s) as f64
            } else {
                lo.rate_per_s as f64
            };
            (refined, lo.rate_per_s)
        }
    }
}

/// The paper's Table II, CellPilot column: `(channel type, bytes, µs)`.
/// The benchmark's own copy of the ten reference values.
pub const PAPER_TABLE2_CELLPILOT_US: [(u8, usize, f64); 10] = [
    (1, 1, 105.0),
    (2, 1, 59.0),
    (3, 1, 140.0),
    (4, 1, 112.0),
    (5, 1, 189.0),
    (1, 1600, 173.0),
    (2, 1600, 76.0),
    (3, 1600, 219.0),
    (4, 1600, 123.0),
    (5, 1600, 263.0),
];

/// Mean absolute percentage error of measured `(type, bytes, one-way µs)`
/// cells against Table II. Cells the table does not have are ignored.
pub fn paper_error_pct(measured: &[(u8, usize, f64)]) -> f64 {
    let errors: Vec<f64> = measured
        .iter()
        .filter_map(|&(t, bytes, us)| {
            PAPER_TABLE2_CELLPILOT_US
                .iter()
                .find(|r| r.0 == t && r.1 == bytes)
                .map(|r| (us - r.2).abs() / r.2 * 100.0)
        })
        .collect();
    assert!(!errors.is_empty(), "no cell has a paper reference");
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// The Table II cells a ping-pong pass measured itself: its relay cells at
/// the paper's two sizes, as `(type, bytes, median one-way µs)`.
pub fn table2_cells(w: &Workload, pass: &Pass) -> Vec<(u8, usize, f64)> {
    w.steady()
        .filter_map(|(i, d)| match d.kind {
            Kind::PingPong(c) if c.transport == Transport::Relay => {
                Some((c.chan_type, c.bytes, cell_median_us(w, &pass.cells[i])))
            }
            _ => None,
        })
        .collect()
}

pub fn cell_median_us(w: &Workload, run: &CellRun) -> f64 {
    ns_to_us(quantile_sorted(&run.sorted_lat_ns(), 0.5)) * w.lat_scale
}

/// The open-loop ladder of a pass, ascending (empty on closed workloads).
pub fn ladder(w: &Workload, pass: &Pass) -> Vec<RateRow> {
    w.cells
        .iter()
        .zip(&pass.cells)
        .filter_map(|(d, run)| match d.kind {
            Kind::Open(c) if d.role != Role::Failover => {
                Some(RateRow::of(d.name(), c.rate_per_s, run))
            }
            _ => None,
        })
        .collect()
}

/// Host-side inputs of the end-to-end metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSide {
    /// Set-up time of each repetition, seconds.
    pub setups_s: Vec<f64>,
    /// `host_ops_per_s` of each timed pass.
    pub pass_rates: Vec<f64>,
    pub peak_rss_mb: f64,
}

/// The ten end-to-end metrics of `w`, virtual ones from `pass` (any pass:
/// they repeat bit for bit), `paper_err_pct` from the Table II cells in
/// `table2`.
pub fn end_to_end(
    w: &Workload,
    pass: &Pass,
    host: &HostSide,
    table2: &[(u8, usize, f64)],
    tally: &Tally,
) -> Vec<Metric> {
    let scale = w.lat_scale;
    let steady: Vec<&CellRun> = w.steady().map(|(i, _)| &pass.cells[i]).collect();
    let medians: Vec<f64> = steady.iter().map(|r| cell_median_us(w, r)).collect();
    let failover = &pass.cells[w.failover_cell()];
    let failover_sorted = failover.sorted_lat_ns();
    let rungs = ladder(w, pass);

    let (p50_us, p99_us, knee_ops_s, failover_us) = if rungs.is_empty() {
        let mut pooled: Vec<u64> = steady
            .iter()
            .flat_map(|r| r.lat_ns.iter().copied())
            .collect();
        pooled.sort_unstable();
        let ops: u64 = steady.iter().map(|r| r.lat_ns.len() as u64).sum();
        let sim_s: f64 = steady.iter().map(|r| r.steady_sim_ns as f64 / 1e9).sum();
        (
            ns_to_us(quantile_sorted(&pooled, 0.5)) * scale,
            ns_to_us(quantile_sorted(&pooled, 0.99)) * scale,
            ops as f64 / sim_s,
            ns_to_us(*failover_sorted.last().expect("failover cell has samples")) * scale,
        )
    } else {
        let at_ref = rungs
            .iter()
            .find(|r| r.name == w.cells[w.reference].name())
            .expect("the reference rate is a rung of the ladder");
        (
            ns_to_us(at_ref.p50_ns),
            ns_to_us(at_ref.p99_ns),
            knee(&rungs).0,
            ns_to_us(quantile_sorted(&failover_sorted, 0.999)),
        )
    };

    vec![
        Metric::new("setup_s", median_f64(&host.setups_s), "s"),
        Metric::new("host_ops_per_s", median_f64(&host.pass_rates), "op/s"),
        Metric::new("host_peak_rss_mb", host.peak_rss_mb, "MB"),
        Metric::new("sim_lat_us_gmean", geometric_mean(&medians), SIM_US),
        Metric::new("sim_lat_us_p50", p50_us, SIM_US),
        Metric::new("sim_lat_us_p99", p99_us, SIM_US),
        Metric::new("sim_knee_ops_s", knee_ops_s, SIM_OPS),
        Metric::new("sim_failover_p999_us", failover_us, SIM_US),
        Metric::new("paper_err_pct", paper_error_pct(table2), "%"),
        Metric::new("ok_share", tally.ok_share(), RATIO),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: u32, p99_us: u64) -> RateRow {
        RateRow {
            name: format!("r{}k", rate / 1000),
            rate_per_s: rate,
            p50_ns: 60_000,
            p99_ns: p99_us * 1000,
            max_ns: p99_us * 2000,
            late_max_ns: 20_000,
            first_quarter_mean_ns: 70_000.0,
            last_quarter_mean_ns: 72_000.0,
        }
    }

    #[test]
    fn knee_is_interpolated_between_the_bracketing_rungs() {
        let ladder = [
            rung(10_000, 110),
            rung(20_000, 150),
            rung(30_000, 200),
            rung(40_000, 450),
            rung(50_000, 9000),
        ];
        let (rate, ladder_rate) = knee(&ladder);
        assert_eq!(ladder_rate, 30_000);
        // ln(300/200) / ln(450/200) = 0.5 exactly.
        assert!((rate - 35_000.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn knee_needs_every_lower_rung_and_every_criterion() {
        let mut ladder = vec![rung(10_000, 110), rung(20_000, 400), rung(30_000, 200)];
        assert_eq!(knee(&ladder).1, 10_000);
        ladder[1] = rung(20_000, 150);
        assert_eq!(knee(&ladder), (30_000.0, 30_000));
        // A growing backlog fails a rung whatever its p99.
        ladder[2].last_quarter_mean_ns = 200_000.0;
        assert_eq!(knee(&ladder), (20_000.0, 20_000));
        // So does a late generator.
        ladder[2] = rung(30_000, 200);
        ladder[2].late_max_ns = 150_000;
        assert_eq!(knee(&ladder).1, 20_000);
        ladder[0].p99_ns = 400_000;
        assert_eq!(knee(&ladder), (10_000.0, 10_000));
    }

    #[test]
    fn paper_error_reproduces_the_published_comparison() {
        // BENCH_baseline.json's 1 B column against Table II.
        let small = [
            (1, 1, 105.395),
            (2, 1, 59.249),
            (3, 1, 131.061),
            (4, 1, 113.338),
            (5, 1, 156.727),
        ];
        assert!((paper_error_pct(&small) - 5.09).abs() < 0.01);
        // A 64 KB cell has no reference and changes nothing.
        let mut with_extra = small.to_vec();
        with_extra.push((1, 65_536, 3285.0));
        assert_eq!(paper_error_pct(&with_extra), paper_error_pct(&small));
    }

    #[test]
    fn ok_share_is_one_until_something_fails() {
        let mut t = Tally::default();
        t.add(&CellRun {
            ops: 100,
            ..CellRun::default()
        });
        assert_eq!(t.ok_share(), 1.0);
        t.add(&CellRun {
            ops: 100,
            failed: 5,
            ..CellRun::default()
        });
        assert_eq!(t.ok_share(), 0.975);
    }
}
