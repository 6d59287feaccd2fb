//! Outside-in spans: the benchmark's own closures stamp the virtual clock
//! around each call into `cellpilot` and push one record here. The service
//! workloads have a front tier, gateways, workers and collectors; in a
//! ping-pong the initiator is both front tier and collector and the echoer
//! is the worker, so one set of names serves all four workloads.
//!
//! Only the traced pass records; end-to-end numbers never run with a sink.
//! Stamps are **virtual** time: inside a serialised DES a host-clock span
//! around a blocking call would measure every other process's turn.

use std::sync::{Arc, Mutex};

use cp_trace::Json;

/// Span names, in the order of the trace file's `names` table.
pub const NAMES: [&str; 5] = [
    "op",
    "front_write",
    "gateway",
    "worker_service",
    "collector_read",
];

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the run's cell list.
    pub cell: u16,
    /// Index into [`NAMES`].
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the buffer; `u32::MAX` for a root.
    pub parent: u32,
    /// Request / round-trip number inside the cell: spans of one operation
    /// share it.
    pub op: u32,
}

#[derive(Debug, Default)]
struct Buf {
    spans: Vec<Span>,
    /// Root span of each operation of the cell being recorded.
    roots: Vec<u32>,
    cell: u16,
}

/// Shared, pre-sized span buffer. Cloning shares the buffer. The lock is
/// never contended: the DES runs one simulated process at a time.
#[derive(Debug, Clone, Default)]
pub struct SpanSink {
    buf: Arc<Mutex<Buf>>,
}

fn name_index(name: &'static str) -> u16 {
    NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("span name {name:?} is not in spans::NAMES")) as u16
}

impl SpanSink {
    pub fn with_capacity(spans: usize) -> SpanSink {
        let sink = SpanSink::default();
        sink.lock().spans.reserve_exact(spans);
        sink
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buf> {
        self.buf.lock().expect("no span recorder panics mid-push")
    }

    /// Start recording cell number `cell` with `ops` operations.
    pub fn begin_cell(&self, cell: usize, ops: usize) {
        let mut b = self.lock();
        b.cell = cell as u16;
        b.roots.clear();
        b.roots.resize(ops, NO_PARENT);
    }

    /// Open the root span `op` of operation `op` at `start_ns`; its end is
    /// set by [`SpanSink::end_root`].
    pub fn begin_root(&self, op: usize, start_ns: u64) {
        let mut b = self.lock();
        let idx = b.spans.len() as u32;
        let cell = b.cell;
        b.spans.push(Span {
            cell,
            name: 0,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            op: op as u32,
        });
        b.roots[op] = idx;
    }

    pub fn end_root(&self, op: usize, end_ns: u64) {
        let mut b = self.lock();
        let idx = b.roots[op] as usize;
        b.spans[idx].end_ns = end_ns;
    }

    /// Record a finished child span of operation `op`.
    pub fn child(&self, name: &'static str, op: usize, start_ns: u64, end_ns: u64) {
        let mut b = self.lock();
        let (cell, parent) = (b.cell, b.roots[op]);
        b.spans.push(Span {
            cell,
            name: name_index(name),
            start_ns,
            end_ns,
            parent,
            op: op as u32,
        });
    }

    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// A copy of the spans of cell number `cell`.
    pub fn of_cell(&self, cell: usize) -> Vec<Span> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.cell as usize == cell)
            .copied()
            .collect()
    }

    /// The trace file: a names table, the cell names and one compact row
    /// `[cell, name, start_ns, end_ns, parent, op]` per span (`parent` is a
    /// row index, -1 for a root).
    pub fn to_json(&self, workload: &str, cells: &[String]) -> Json {
        let b = self.lock();
        let mut doc = Json::obj();
        doc.set("workload", workload);
        doc.set("clock", "virtual ns");
        doc.set(
            "fields",
            ["cell", "name", "start_ns", "end_ns", "parent", "op"]
                .iter()
                .map(|f| Json::from(*f))
                .collect::<Vec<_>>(),
        );
        doc.set(
            "names",
            NAMES.iter().map(|n| Json::from(*n)).collect::<Vec<_>>(),
        );
        doc.set(
            "cells",
            cells
                .iter()
                .map(|c| Json::from(c.as_str()))
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Json> = b
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    -1.0
                } else {
                    s.parent as f64
                };
                Json::Arr(vec![
                    Json::Num(s.cell as f64),
                    Json::Num(s.name as f64),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(parent),
                    Json::Num(s.op as f64),
                ])
            })
            .collect();
        doc.set("spans", rows);
        doc
    }
}

/// Summed per-operation legs of one cell, from its spans. The five
/// legs partition `[intended send, collector's read returned]`:
///
/// * `front_write` — intended send → the front tier's `write_slice`
///   returned (generator lateness and credit wait included);
/// * `req_inflight` — → the worker's `read_vec` returned;
/// * `worker_service` — → the worker's `write_slice` returned;
/// * `rsp_inflight` — → the collector is in `read_vec` for this reply (0
///   when it was already parked there: the collector's span is clipped to
///   start no earlier than the reply was written);
/// * `collector_read` — → that `read_vec` returned (the reply's transit
///   through Co-Pilot, MPI and wire happens inside this blocking call; only
///   in-program tracing can split it from the read-side software cost).
///
/// `residual_ns` is the summed total minus the summed legs; anything but 0
/// means a span was missing or out of order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Legs {
    pub ops: u64,
    pub front_write_ns: u64,
    pub req_inflight_ns: u64,
    pub worker_service_ns: u64,
    pub rsp_inflight_ns: u64,
    pub collector_read_ns: u64,
    pub total_ns: u64,
    pub residual_ns: i64,
}

pub fn legs(spans: &[Span], ops: usize) -> Legs {
    let find = |name: &'static str| {
        let idx = name_index(name);
        let mut by_op: Vec<Option<Span>> = vec![None; ops];
        for s in spans.iter().filter(|s| s.name == idx) {
            by_op[s.op as usize] = Some(*s);
        }
        by_op
    };
    let (root, front, worker, coll) = (
        find("op"),
        find("front_write"),
        find("worker_service"),
        find("collector_read"),
    );
    let mut l = Legs::default();
    let mut legs_sum: i128 = 0;
    for op in 0..ops {
        let (Some(r), Some(f), Some(w), Some(c)) = (root[op], front[op], worker[op], coll[op])
        else {
            // A missing span leaves its operation out of the legs but in
            // the residual, so the check fails loudly.
            if let Some(r) = root[op] {
                l.total_ns += r.end_ns - r.start_ns;
            }
            continue;
        };
        l.ops += 1;
        l.total_ns += r.end_ns - r.start_ns;
        let cuts = [
            r.start_ns,
            f.end_ns,
            w.start_ns,
            w.end_ns,
            c.start_ns.max(w.end_ns),
            c.end_ns,
        ];
        let d: Vec<i128> = cuts
            .windows(2)
            .map(|p| p[1] as i128 - p[0] as i128)
            .collect();
        legs_sum += d.iter().sum::<i128>();
        let pos = |v: i128| v.max(0) as u64;
        l.front_write_ns += pos(d[0]);
        l.req_inflight_ns += pos(d[1]);
        l.worker_service_ns += pos(d[2]);
        l.rsp_inflight_ns += pos(d[3]);
        l.collector_read_ns += pos(d[4]);
        if d.iter().any(|&v| v < 0) || c.end_ns != r.end_ns {
            // Out-of-order cut: force a non-zero residual.
            legs_sum -= 1;
        }
    }
    l.residual_ns = (l.total_ns as i128 - legs_sum) as i64;
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_root_and_legs_sum_to_the_total() {
        let sink = SpanSink::with_capacity(16);
        sink.begin_cell(3, 2);
        for (op, base) in [(0usize, 100u64), (1, 1000)] {
            sink.begin_root(op, base);
            sink.child("front_write", op, base + 5, base + 12);
            sink.child("worker_service", op, base + 40, base + 47);
            sink.child("collector_read", op, base + 47, base + 90);
            sink.end_root(op, base + 90);
        }
        let spans = sink.of_cell(3);
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[5].parent, 4);
        assert!(sink.of_cell(0).is_empty());
        let l = legs(&spans, 2);
        assert_eq!(l.ops, 2);
        assert_eq!(l.total_ns, 180);
        assert_eq!(l.front_write_ns, 24);
        assert_eq!(l.req_inflight_ns, 56);
        assert_eq!(l.worker_service_ns, 14);
        assert_eq!(l.rsp_inflight_ns, 0);
        assert_eq!(l.collector_read_ns, 86);
        assert_eq!(l.residual_ns, 0);
    }

    #[test]
    fn a_missing_span_shows_as_residual() {
        let sink = SpanSink::with_capacity(4);
        sink.begin_cell(0, 1);
        sink.begin_root(0, 0);
        sink.end_root(0, 50);
        assert_eq!(legs(&sink.of_cell(0), 1).residual_ns, 50);
    }

    #[test]
    fn trace_file_rows_are_compact() {
        let sink = SpanSink::with_capacity(2);
        sink.begin_cell(0, 1);
        sink.begin_root(0, 10);
        sink.child("front_write", 0, 10, 20);
        sink.end_root(0, 30);
        let doc = sink.to_json("w", &["c0".to_string()]);
        let rows = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].to_compact(), "[0,0,10,30,-1,0]");
        assert_eq!(rows[1].to_compact(), "[0,1,10,20,0,0]");
    }
}
