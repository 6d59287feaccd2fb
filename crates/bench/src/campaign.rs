//! The one seeded-campaign driver behind `repro_chaos`, `repro_overload`,
//! `repro_conformance` and `repro_explore`.
//!
//! A campaign is a check per seed: each seed's run either passes, and the
//! driver prints the one line it returned, or yields a [`Violation`], and
//! the driver prints `FAILED: …` and counts a finding. Replay artifacts are
//! written whatever the sweep found — a failing CI run uploads them as
//! evidence. The exit contract is the same for every campaign: 0 when clean,
//! 3 on findings, and 2 on usage errors (see [`crate::cli`]).

use std::fmt;

use cp_des::IncidentCategory;
use cp_trace::Recorder;

/// A seed whose run broke one of its campaign's guarantees. The seed alone
/// replays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The generating seed.
    pub seed: u64,
    /// Which check failed, and how.
    pub detail: String,
}

impl Violation {
    /// Wrap a failed check's detail for `seed` — for `map_err`.
    pub fn at(seed: u64) -> impl Fn(String) -> Violation {
        move |detail| Violation { seed, detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {}: {}", self.seed, self.detail)
    }
}

impl std::error::Error for Violation {}

/// An incident tally as the campaign lines print it: `categoryxN`,
/// comma-separated.
pub(crate) fn render_tally(tally: &[(IncidentCategory, usize)]) -> String {
    let parts: Vec<String> = tally.iter().map(|(c, n)| format!("{c}x{n}")).collect();
    parts.join(", ")
}

/// Findings so far, and the exit status they imply.
#[derive(Debug, Default)]
pub struct Campaign {
    findings: usize,
}

impl Campaign {
    /// Run `check` on every seed in order, printing each passing seed's
    /// line and `FAILED: …` for each violation.
    pub fn sweep(
        &mut self,
        seeds: impl IntoIterator<Item = u64>,
        mut check: impl FnMut(u64) -> Result<String, Violation>,
    ) {
        for seed in seeds {
            match check(seed) {
                Ok(line) => println!("{line}"),
                Err(v) => self.fail(v),
            }
        }
    }

    /// Write `contents` to `path` as `what`. An artifact that cannot be
    /// written is itself a finding.
    pub fn artifact(&mut self, path: &str, what: &str, contents: &str) {
        match std::fs::write(path, contents) {
            Ok(()) => println!("wrote {what} to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                self.findings += 1;
            }
        }
    }

    /// Run `traced` with an enabled recorder and write its Chrome trace to
    /// `path`, whether or not the run held; a violation counts as a
    /// finding.
    pub fn trace_artifact<T>(
        &mut self,
        path: &str,
        what: &str,
        traced: impl FnOnce(Recorder) -> Result<T, Violation>,
    ) {
        let rec = Recorder::enabled();
        if let Err(v) = traced(rec.clone()) {
            self.fail(v);
        }
        self.artifact(
            path,
            &format!("Chrome trace of {what}"),
            &rec.chrome_trace(),
        );
    }

    /// 0 when nothing was found, 3 otherwise.
    fn exit_code(&self) -> i32 {
        if self.findings == 0 {
            0
        } else {
            3
        }
    }

    /// Print `summary` if the campaign is clean, or the finding count if
    /// not, and exit with 0 or 3 accordingly.
    pub fn finish(self, summary: &str) -> ! {
        if self.findings == 0 {
            println!("\n{summary}");
        } else {
            println!("\n{} finding(s)", self.findings);
        }
        std::process::exit(self.exit_code())
    }

    fn fail(&mut self, v: Violation) {
        println!("FAILED: {v}");
        self.findings += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_sweep_exits_0() {
        let mut campaign = Campaign::default();
        campaign.sweep(0..4, |seed| Ok(format!("seed {seed}")));
        assert_eq!(campaign.exit_code(), 0);
    }

    #[test]
    fn one_failing_seed_exits_3_and_still_writes_its_artifact() {
        let path = std::env::temp_dir().join(format!("cp-campaign-{}.txt", std::process::id()));
        let path = path.to_str().unwrap();
        let mut campaign = Campaign::default();
        campaign.sweep(0..4, |seed| {
            if seed == 2 {
                Err(Violation::at(seed)("broken".into()))
            } else {
                Ok(String::new())
            }
        });
        campaign.trace_artifact(path, "seed 2", |_| {
            Err::<(), _>(Violation::at(2)("broken".into()))
        });
        assert_eq!(campaign.exit_code(), 3);
        assert!(std::fs::read_to_string(path)
            .unwrap()
            .contains("traceEvents"));
        std::fs::remove_file(path).unwrap();
    }
}
