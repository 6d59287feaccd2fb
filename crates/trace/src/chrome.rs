//! Chrome `trace_event` export.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) that
//! `about://tracing` and Perfetto load directly. Everything runs under one
//! synthetic process (`pid` 1); each recorder lane becomes one thread
//! (`tid` = lane id) named via `thread_name` metadata, so the viewer shows
//! one horizontal track per rank/SPE/Co-Pilot. Timestamps are microseconds
//! of *virtual* time.

use crate::json::Json;
use crate::recorder::{Event, Phase};

/// Synthetic process id every lane lives under.
const PID: u64 = 1;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Render lanes + events as a Chrome `trace_event` JSON document.
pub fn chrome_trace(lanes: &[String], events: &[Event]) -> String {
    let mut list: Vec<Json> = Vec::with_capacity(lanes.len() + events.len());
    for (tid, lane) in lanes.iter().enumerate() {
        let mut meta = Json::obj();
        meta.set("ph", "M");
        meta.set("pid", PID);
        meta.set("tid", tid as u64);
        meta.set("name", "thread_name");
        let mut args = Json::obj();
        args.set("name", lane.as_str());
        meta.set("args", args);
        list.push(meta);
    }
    for event in events {
        let mut o = Json::obj();
        o.set("pid", PID);
        o.set("tid", u64::from(event.lane));
        o.set("ts", us(event.ts_ns));
        o.set("cat", event.category);
        o.set("name", event.name.as_str());
        let mut args = Json::obj();
        match event.phase {
            Phase::Complete => {
                o.set("ph", "X");
                o.set("dur", us(event.dur_ns));
            }
            Phase::Instant => {
                o.set("ph", "i");
                // "t" scopes the instant marker to its thread (lane).
                o.set("s", "t");
            }
            Phase::Counter => {
                o.set("ph", "C");
                args.set("value", event.value);
            }
        }
        if let Some(detail) = &event.detail {
            args.set("detail", detail.as_str());
        }
        o.set("args", args);
        list.push(o);
    }
    let mut root = Json::obj();
    root.set("traceEvents", list);
    root.set("displayTimeUnit", "ms");
    let mut out = root.to_compact();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn export_is_valid_trace_event_json() {
        let r = Recorder::enabled();
        let main = r.lane("main");
        r.span(main, "channel", "write c0 (type 5)", 1_000, 189_000);
        r.record_incident(50_000, "copilot1", "copilot-failover", "x");
        r.counter(r.lane("kernel"), "des", "queue depth", 2_000, 7.0);
        let text = r.chrome_trace();
        let doc = Json::parse(&text).expect("chrome export must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 thread_name metadata records + 3 events.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
        for ph in ["X", "i", "C"] {
            assert!(phases.contains(&ph), "missing phase {ph}");
        }
        // The span's timestamp and duration are µs of virtual time.
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(189.0));
        // Lane names travel via thread_name metadata.
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("copilot1"));
    }

    #[test]
    fn disabled_recorder_exports_an_empty_trace() {
        let text = Recorder::default().chrome_trace();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
