//! The configure-time wiring verifier: CP001–CP014 over a
//! [`WiringGraph`].

use crate::diag::{CheckCode, Diagnostic, Severity};
use crate::graph::{GraphBundleUsage, GraphEndpoint, WiringGraph};
use std::collections::BTreeMap;

fn ep(g: &WiringGraph, p: usize) -> Vec<String> {
    match g.processes.get(p) {
        Some(proc_) => vec![proc_.at.to_string()],
        None => Vec::new(),
    }
}

fn pname(g: &WiringGraph, p: usize) -> String {
    match g.processes.get(p) {
        Some(proc_) => format!("'{}'", proc_.name),
        None => format!("#{p}"),
    }
}

/// Which rendezvous machinery serves a channel type: MPI rank↔rank (1),
/// Co-Pilot proxying to one SPE side (2, 3), or SPE↔SPE pairing (4, 5).
/// Bundles whose members span the SPE-pairing class and any other class
/// have no single completion order and draw [`CheckCode::Cp008`].
fn rendezvous_class(chan_type: u8) -> u8 {
    match chan_type {
        1 => 0,
        2 | 3 => 1,
        _ => 2,
    }
}

/// Lint the full process/channel/bundle graph. Diagnostics come out in a
/// deterministic order: per-process checks first, then per-channel,
/// per-node, and per-bundle checks, each in index order.
pub fn verify(g: &WiringGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Per-process placement checks: CP004 (nonexistent rank), CP005
    // (nonexistent Cell node), CP010 (slot collision).
    let mut slot_owner: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (i, p) in g.processes.iter().enumerate() {
        match p.at {
            GraphEndpoint::Rank { rank, .. } => {
                if rank >= g.ranks {
                    out.push(Diagnostic::new(
                        CheckCode::Cp004,
                        Severity::Error,
                        format!(
                            "process {} placed on nonexistent rank {rank} ({} ranks configured)",
                            pname(g, i),
                            g.ranks
                        ),
                        vec![p.at.to_string()],
                    ));
                }
            }
            GraphEndpoint::Spe { node, slot } => {
                if !g.cell_nodes.contains_key(&node) {
                    out.push(Diagnostic::new(
                        CheckCode::Cp005,
                        Severity::Error,
                        format!(
                            "SPE process {} placed on node {node}, which is not a Cell node",
                            pname(g, i)
                        ),
                        vec![p.at.to_string()],
                    ));
                }
                if let Some(&prev) = slot_owner.get(&(node, slot)) {
                    out.push(Diagnostic::new(
                        CheckCode::Cp010,
                        Severity::Error,
                        format!(
                            "SPE processes {} and {} are both bound to the same slot",
                            pname(g, prev),
                            pname(g, i)
                        ),
                        vec![p.at.to_string()],
                    ));
                } else {
                    slot_owner.insert((node, slot), i);
                }
            }
        }
    }

    // Per-channel checks: CP001/CP002 (orphan ends), CP004 (endpoint on a
    // nonexistent process), CP009 (self-channel), CP007 (SPE endpoint on
    // a node without a Co-Pilot).
    for (c, ch) in g.channels.iter().enumerate() {
        for (end, label) in [(ch.writer, "writer"), (ch.reader, "reader")] {
            if let Some(p) = end {
                if p >= g.processes.len() {
                    out.push(Diagnostic::new(
                        CheckCode::Cp004,
                        Severity::Error,
                        format!("channel {c} {label} references nonexistent process #{p}"),
                        Vec::new(),
                    ));
                }
            }
        }
        match ch.writer {
            None => out.push(Diagnostic::new(
                CheckCode::Cp001,
                Severity::Error,
                format!("channel {c} is never written: it has no writer endpoint"),
                ch.reader.map(|p| ep(g, p)).unwrap_or_default(),
            )),
            Some(w) => {
                if ch.reader == Some(w) {
                    out.push(Diagnostic::new(
                        CheckCode::Cp009,
                        Severity::Error,
                        format!("channel {c} connects process {} to itself", pname(g, w)),
                        ep(g, w),
                    ));
                }
            }
        }
        if ch.reader.is_none() {
            out.push(Diagnostic::new(
                CheckCode::Cp002,
                Severity::Error,
                format!("channel {c} is never read: it has no reader endpoint"),
                ch.writer.map(|p| ep(g, p)).unwrap_or_default(),
            ));
        }
        if let Some(t) = g.channel_type(c) {
            if t >= 2 {
                for p in [ch.writer, ch.reader].into_iter().flatten() {
                    if let Some(GraphEndpoint::Spe { node, slot }) =
                        g.processes.get(p).map(|pr| pr.at)
                    {
                        if !g.copilot_nodes.contains(&node) {
                            out.push(Diagnostic::new(
                                CheckCode::Cp007,
                                Severity::Error,
                                format!(
                                    "type-{t} channel {c} routes through node {node}, \
                                     which has no Co-Pilot to proxy SPE traffic",
                                    t = t,
                                ),
                                vec![GraphEndpoint::Spe { node, slot }.to_string()],
                            ));
                        }
                    }
                }
            }
        }
    }

    // Per-node occupancy: CP006 (slot oversubscription).
    for (&node, &capacity) in &g.cell_nodes {
        let slots: Vec<usize> = g
            .processes
            .iter()
            .filter_map(|p| match p.at {
                GraphEndpoint::Spe { node: n, slot } if n == node => Some(slot),
                _ => None,
            })
            .collect();
        let mut distinct = slots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let max_slot = distinct.last().copied();
        if distinct.len() > capacity || max_slot.is_some_and(|s| s >= capacity) {
            let worst = max_slot.unwrap_or(0);
            out.push(Diagnostic::new(
                CheckCode::Cp006,
                Severity::Error,
                format!(
                    "node {node} oversubscribed: {} SPE slots used (highest slot {worst}), \
                     {capacity} SPEs available",
                    distinct.len()
                ),
                vec![GraphEndpoint::Spe { node, slot: worst }.to_string()],
            ));
        }
    }

    // Per-bundle checks: CP003 (direction mismatch vs the common
    // endpoint), CP008 (incompatible rendezvous classes).
    for (b, bundle) in g.bundles.iter().enumerate() {
        let mut classes: Vec<u8> = Vec::new();
        let mut types: Vec<u8> = Vec::new();
        for &c in &bundle.channels {
            let Some(ch) = g.channels.get(c) else {
                continue;
            };
            let held = match bundle.usage {
                GraphBundleUsage::Broadcast => ch.writer,
                GraphBundleUsage::Gather => ch.reader,
            };
            if held != Some(bundle.common) {
                let side = match bundle.usage {
                    GraphBundleUsage::Broadcast => "written",
                    GraphBundleUsage::Gather => "read",
                };
                let mut endpoints = ep(g, bundle.common);
                if let Some(h) = held {
                    endpoints.extend(ep(g, h));
                }
                out.push(Diagnostic::new(
                    CheckCode::Cp003,
                    Severity::Error,
                    format!(
                        "{} bundle {b}: member channel {c} is not {side} by the \
                         common endpoint {}",
                        bundle.usage,
                        pname(g, bundle.common)
                    ),
                    endpoints,
                ));
            }
            if let Some(t) = g.channel_type(c) {
                types.push(t);
                classes.push(rendezvous_class(t));
            }
        }
        classes.sort_unstable();
        classes.dedup();
        if classes.contains(&2) && classes.len() > 1 {
            types.sort_unstable();
            types.dedup();
            out.push(Diagnostic::new(
                CheckCode::Cp008,
                Severity::Warning,
                format!(
                    "{} bundle {b} mixes incompatible channel types {{{}}}: \
                     SPE↔SPE pairing and rank-side rendezvous have no common \
                     completion order",
                    bundle.usage,
                    types
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
                ep(g, bundle.common),
            ));
        }
    }

    // One-sided checks, appended after the classic groups so existing
    // diagnostic orderings are unchanged: per-channel CP012 (one-sided
    // channel without a usable window), then per-window CP011
    // (duplicate/overlapping registration) and CP012 (stray or
    // wrong-direction window), each in index order.
    for (c, ch) in g.channels.iter().enumerate() {
        if !ch.one_sided {
            continue;
        }
        let reader_at = ch.reader.and_then(|p| g.processes.get(p)).map(|p| p.at);
        match reader_at {
            Some(GraphEndpoint::Spe { node, slot }) => {
                let has_window = g
                    .windows
                    .iter()
                    .any(|w| w.chan == c && w.node == node && w.slot == slot);
                if !has_window {
                    out.push(Diagnostic::new(
                        CheckCode::Cp012,
                        Severity::Error,
                        format!(
                            "one-sided channel {c} has no window registered in its \
                             reader's local store: puts would target unregistered memory"
                        ),
                        vec![GraphEndpoint::Spe { node, slot }.to_string()],
                    ));
                }
            }
            Some(at @ GraphEndpoint::Rank { .. }) => {
                out.push(Diagnostic::new(
                    CheckCode::Cp012,
                    Severity::Error,
                    format!(
                        "one-sided channel {c} is read at {at}: windows live in SPE \
                         local stores, so the reader must be an SPE process"
                    ),
                    vec![at.to_string()],
                ));
            }
            // No reader at all: CP002 already covers the orphan.
            None => {}
        }
    }
    for (i, w) in g.windows.iter().enumerate() {
        for prev in &g.windows[..i] {
            if prev.chan == w.chan
                || (prev.node == w.node
                    && prev.slot == w.slot
                    && u64::from(prev.start) < u64::from(w.start) + u64::from(w.len)
                    && u64::from(w.start) < u64::from(prev.start) + u64::from(prev.len))
            {
                let how = if prev.chan == w.chan {
                    format!("duplicates channel {}'s window", w.chan)
                } else {
                    format!("overlaps channel {}'s window", prev.chan)
                };
                out.push(Diagnostic::new(
                    CheckCode::Cp011,
                    Severity::Error,
                    format!(
                        "window [{:#x}..{:#x}) for channel {} {how}",
                        w.start,
                        u64::from(w.start) + u64::from(w.len),
                        w.chan
                    ),
                    vec![GraphEndpoint::Spe {
                        node: w.node,
                        slot: w.slot,
                    }
                    .to_string()],
                ));
                break;
            }
        }
        let one_sided = g.channels.get(w.chan).is_some_and(|ch| ch.one_sided);
        if !one_sided {
            out.push(Diagnostic::new(
                CheckCode::Cp012,
                Severity::Error,
                format!(
                    "window [{:#x}..{:#x}) registered for channel {}, which is not \
                     a one-sided channel: nothing will ever put into it",
                    w.start,
                    u64::from(w.start) + u64::from(w.len),
                    w.chan
                ),
                vec![GraphEndpoint::Spe {
                    node: w.node,
                    slot: w.slot,
                }
                .to_string()],
            ));
        }
    }

    // Flow-control checks (CP013), appended after every other group so
    // existing diagnostic orderings are unchanged. Both halves are
    // warnings — backpressure configuration is advice, never an abort.
    // An inert policy (non-Block with no capacity) is always flagged; the
    // unbounded-channel advisory only fires in strict mode and only once
    // the application has opted into flow control by bounding at least
    // one channel, so capacity-free configurations stay silent.
    let any_bounded = g.channel_flow.values().any(|f| f.capacity.is_some());
    for (c, ch) in g.channels.iter().enumerate() {
        let flow = g.channel_flow.get(&c);
        let capacity = flow.and_then(|f| f.capacity);
        let blocks = flow.map(|f| f.blocks).unwrap_or(true);
        let endpoints = ch.writer.map(|p| ep(g, p)).unwrap_or_default();
        if !blocks && capacity.is_none() {
            out.push(Diagnostic::new(
                CheckCode::Cp013,
                Severity::Warning,
                format!(
                    "channel {c} declares a non-blocking overload policy but no \
                     capacity: the policy is inert (an unbounded channel never sheds)"
                ),
                endpoints.clone(),
            ));
        }
        if g.flow_strict && any_bounded && capacity.is_none() {
            out.push(Diagnostic::new(
                CheckCode::Cp013,
                Severity::Warning,
                format!(
                    "channel {c} is unbounded while other channels declare a \
                     capacity: an overloaded writer can grow its queue without limit"
                ),
                endpoints,
            ));
        }
    }

    // Coalescing checks (CP014), appended after the CP013 group so
    // existing diagnostic orderings are unchanged: a warning per bundle
    // whose coalescing batch a member channel's capacity can never
    // accumulate (inert, never unsafe), in index order.
    for (&b, &batch) in &g.bundle_coalesce {
        let Some(bundle) = g.bundles.get(b) else {
            continue;
        };
        for &c in &bundle.channels {
            let capacity = g.channel_flow.get(&c).and_then(|f| f.capacity);
            if let Some(cap) = capacity {
                if cap < batch {
                    out.push(Diagnostic::new(
                        CheckCode::Cp014,
                        Severity::Warning,
                        format!(
                            "bundle {b} coalesces in batches of {batch}, but member \
                             channel {c} is bounded at capacity {cap}: a full batch \
                             can never accumulate (the writer backpressures first)"
                        ),
                        ep(g, bundle.common),
                    ));
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WiringGraph {
        let mut g = WiringGraph::new(3);
        g.add_cell_node(0, 8);
        g.add_cell_node(1, 8);
        g.add_copilot(0);
        g.add_copilot(1);
        g
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_graph_has_no_diagnostics() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let xeon = g.add_rank_process("xeon", 1, 2);
        let s0a = g.add_spe_process("s0a", 0, 0);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let c1 = g.add_channel(main, xeon);
        let c2 = g.add_channel(main, s0a);
        let c3 = g.add_channel(main, s1a);
        g.add_channel(xeon, s1a);
        g.add_channel(s1a, s0a);
        g.add_bundle(GraphBundleUsage::Broadcast, &[c1, c2, c3], main);
        assert_eq!(verify(&g), Vec::new());
    }

    #[test]
    fn orphan_channel_draws_cp001_and_cp002() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        g.add_half_channel(None, Some(main));
        g.add_half_channel(Some(main), None);
        g.add_half_channel(None, None);
        assert_eq!(codes(&verify(&g)), vec!["CP001", "CP002", "CP001", "CP002"]);
    }

    #[test]
    fn misplaced_processes_draw_cp004_and_cp005() {
        let mut g = base();
        g.add_rank_process("ghost", 7, 0);
        g.add_spe_process("lost", 9, 0);
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP004", "CP005"]);
        assert_eq!(d[0].endpoints, vec!["rank 7"]);
        assert_eq!(d[1].endpoints, vec!["spe(9,0)"]);
    }

    #[test]
    fn oversubscription_draws_cp006() {
        let mut g = base();
        for slot in 0..9 {
            g.add_spe_process(&format!("w{slot}"), 0, slot);
        }
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP006"]);
        assert_eq!(d[0].endpoints, vec!["spe(0,8)"]);
    }

    #[test]
    fn missing_copilot_route_draws_cp007() {
        let mut g = WiringGraph::new(2);
        g.add_cell_node(0, 8);
        g.add_cell_node(1, 8);
        g.add_copilot(0); // node 1 has no Co-Pilot
        let xeon = g.add_rank_process("xeon", 1, 2);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let s0a = g.add_spe_process("s0a", 0, 0);
        g.add_channel(xeon, s1a); // type 3, node 1 unrouted
        g.add_channel(s0a, s1a); // type 5, node 1 unrouted
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP007", "CP007"]);
        assert!(d[0].message.contains("type-3"));
        assert!(d[1].message.contains("type-5"));
        assert_eq!(d[1].endpoints, vec!["spe(1,0)"]);
    }

    #[test]
    fn direction_mismatch_and_self_channel() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let xeon = g.add_rank_process("xeon", 1, 2);
        let good = g.add_channel(main, xeon);
        let backwards = g.add_channel(xeon, main);
        g.add_bundle(GraphBundleUsage::Broadcast, &[good, backwards], main);
        g.add_half_channel(Some(main), Some(main));
        assert_eq!(codes(&verify(&g)), vec!["CP009", "CP003"]);
    }

    #[test]
    fn slot_collision_draws_cp010() {
        let mut g = base();
        g.add_spe_process("a", 0, 0);
        g.add_spe_process("b", 0, 0);
        assert_eq!(codes(&verify(&g)), vec!["CP010"]);
    }

    #[test]
    fn one_sided_channel_with_window_is_clean() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let c = g.add_channel(main, s1a); // type 3
        g.mark_one_sided(c);
        g.add_window(c, 1, 0, 0x400, 2048);
        assert_eq!(verify(&g), Vec::new());
    }

    #[test]
    fn overlapping_and_duplicate_windows_draw_cp011() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let s1b = g.add_spe_process("s1b", 1, 1);
        let c0 = g.add_channel(main, s1a);
        let c1 = g.add_channel(main, s1b);
        g.mark_one_sided(c0);
        g.mark_one_sided(c1);
        g.add_window(c0, 1, 0, 0x400, 2048);
        g.add_window(c1, 1, 1, 0x400, 2048); // other SPE: fine
        g.add_window(c1, 1, 1, 0x800, 64); // same channel again: duplicate
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP011"]);
        assert!(d[0].message.contains("duplicates"), "{}", d[0].message);
        // Overlap on the same SPE (distinct channels) is also CP011.
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let s1b = g.add_spe_process("s1b", 1, 1);
        let c0 = g.add_channel(main, s1a);
        let c1 = g.add_channel(main, s1b);
        g.mark_one_sided(c0);
        g.mark_one_sided(c1);
        g.add_window(c0, 1, 0, 0x400, 2048);
        g.add_window(c1, 1, 0, 0xbff, 64); // last byte of c0's window
        let d = verify(&g);
        // The misplaced window also leaves c1 without one in its own
        // reader's store, so CP012 precedes the CP011 overlap.
        assert_eq!(codes(&d), vec!["CP012", "CP011"]);
        assert!(d[1].message.contains("overlaps"), "{}", d[1].message);
        assert_eq!(d[1].endpoints, vec!["spe(1,0)"]);
    }

    #[test]
    fn unregistered_or_wrong_direction_window_draws_cp012() {
        // One-sided channel with no window at all.
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let c = g.add_channel(main, s1a);
        g.mark_one_sided(c);
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP012"]);
        assert!(d[0].message.contains("no window"), "{}", d[0].message);
        // One-sided channel read by a rank: wrong direction.
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let c = g.add_channel(s1a, main);
        g.mark_one_sided(c);
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP012"]);
        assert!(d[0].message.contains("rank 0"), "{}", d[0].message);
        // Window registered for a channel that never puts one-sided.
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let c = g.add_channel(main, s1a);
        g.add_window(c, 1, 0, 0x400, 2048);
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP012"]);
        assert!(d[0].message.contains("not"), "{}", d[0].message);
    }

    #[test]
    fn inert_overload_policy_draws_cp013() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let xeon = g.add_rank_process("xeon", 1, 2);
        let c = g.add_channel(main, xeon);
        g.set_channel_flow(c, None, false); // Shed policy, no capacity
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP013"]);
        assert!(!d[0].is_error(), "CP013 is a warning");
        assert!(d[0].message.contains("inert"), "{}", d[0].message);
        assert_eq!(d[0].endpoints, vec!["rank 0"]);
    }

    #[test]
    fn unbounded_channel_advisory_needs_strict_and_a_bounded_peer() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let xeon = g.add_rank_process("xeon", 1, 2);
        let bounded = g.add_channel(main, xeon);
        let unbounded = g.add_channel(xeon, main);
        g.set_channel_flow(bounded, Some(8), true);
        g.set_channel_flow(unbounded, None, true);
        // Not strict: silent.
        assert_eq!(verify(&g), Vec::new());
        // Strict with a bounded peer: the unbounded channel is flagged.
        g.set_flow_strict(true);
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP013"]);
        assert!(d[0].message.contains("unbounded"), "{}", d[0].message);
        assert_eq!(d[0].endpoints, vec!["rank 1"]);
        // Strict but nothing bounded anywhere: still silent — an
        // application that never opted into flow control is untouched.
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let xeon = g.add_rank_process("xeon", 1, 2);
        let c = g.add_channel(main, xeon);
        g.set_channel_flow(c, None, true);
        g.set_flow_strict(true);
        assert_eq!(verify(&g), Vec::new());
    }

    #[test]
    fn coalesce_batch_above_member_capacity_draws_cp014() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let s0a = g.add_spe_process("s0a", 0, 0);
        let s0b = g.add_spe_process("s0b", 0, 1);
        let c0 = g.add_channel(main, s0a);
        let c1 = g.add_channel(main, s0b);
        g.set_channel_flow(c0, Some(4), true);
        g.set_channel_flow(c1, Some(64), true);
        let b = g.add_bundle(GraphBundleUsage::Broadcast, &[c0, c1], main);
        g.set_bundle_coalesce(b, 4); // batch == capacity: fine
        assert_eq!(verify(&g), Vec::new());
        g.set_bundle_coalesce(b, 16); // c0 can never hold a full batch
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP014"]);
        assert!(!d[0].is_error(), "CP014 is a warning");
        assert!(d[0].message.contains("channel 0"), "{}", d[0].message);
        // Unbounded members never warn.
        g.set_channel_flow(c0, None, true);
        g.set_channel_flow(c1, None, true);
        assert_eq!(verify(&g), Vec::new());
    }

    #[test]
    fn cp014_orders_after_cp013_group() {
        let mut g = base();
        let main = g.add_rank_process("main", 0, 0);
        let s0a = g.add_spe_process("s0a", 0, 0);
        let s0b = g.add_spe_process("s0b", 0, 1);
        let c0 = g.add_channel(main, s0a);
        let c1 = g.add_channel(main, s0b);
        g.set_channel_flow(c0, Some(4), true);
        g.set_channel_flow(c1, None, false); // inert policy: CP013
        let b = g.add_bundle(GraphBundleUsage::Broadcast, &[c0, c1], main);
        g.set_bundle_coalesce(b, 16); // c0 never holds a batch: CP014
        assert_eq!(codes(&verify(&g)), vec!["CP013", "CP014"]);
    }

    #[test]
    fn mixed_bundle_draws_cp008_warning() {
        let mut g = base();
        let s0a = g.add_spe_process("s0a", 0, 0);
        let s0b = g.add_spe_process("s0b", 0, 1);
        let xeon = g.add_rank_process("xeon", 1, 2);
        let pair = g.add_channel(s0a, s0b); // type 4
        let remote = g.add_channel(s0a, xeon); // type 3
        g.add_bundle(GraphBundleUsage::Broadcast, &[pair, remote], s0a);
        let d = verify(&g);
        assert_eq!(codes(&d), vec!["CP008"]);
        assert!(!d[0].is_error(), "CP008 is a warning");
        assert!(d[0].message.contains("{3,4}"));
    }
}
