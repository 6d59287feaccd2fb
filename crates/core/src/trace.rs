//! Channel-operation trace: the run's op log (see [`cp_trace::OpEvent`])
//! rendered as an aligned text log with virtual timestamps — the
//! observability tool behind the Co-Pilot overhead analysis (paper §V:
//! "our current analysis is that all SPE-connected channel types are
//! paying some overhead for the Co-Pilot process"), and a debugging aid
//! for applications.
//!
//! Attach an enabled recorder with [`CellPilotOpts::with_tracing`], keep a
//! clone, and render [`cp_trace::Recorder::ops`] after the run — a run that
//! fails keeps the ops it completed. Every op carries the virtual time it
//! *completed* at, so consecutive ops on one process measure the legs of a
//! transfer.
//!
//! [`CellPilotOpts::with_tracing`]: crate::CellPilotOpts::with_tracing

use cp_trace::OpEvent;

/// Render an op log as an aligned log, one line per op.
pub fn render_trace(ops: &[OpEvent]) -> String {
    let mut s = String::new();
    for e in ops {
        s.push_str(&format!(
            "{:>12.3}us {:<24} {:<16} subject={:<4} {}B\n",
            e.ts_ns as f64 / 1_000.0,
            e.process,
            e.op.to_string(),
            e.subject,
            e.bytes
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_trace::{Op, Recorder};

    #[test]
    fn render_is_line_per_event() {
        let r = Recorder::enabled();
        r.record_op(1_500, &"main".into(), Some(Op::RunSpe), 2, 0, None);
        let out = render_trace(&r.ops());
        assert_eq!(
            out,
            "       1.500us main                     run-spe          subject=2    0B\n"
        );
    }
}
