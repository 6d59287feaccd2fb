//! Golden-file pinning of every diagnostic `cp-check` can emit.
//!
//! The codes and rendered messages are a stable contract: CI greps for
//! them, the `SimReport` incident stream carries them verbatim, and users
//! write tooling against them. One minimal scenario per code is verified
//! and the full catalogue's rendering is compared byte for byte against
//! `tests/golden/diagnostics.txt`. On a deliberate wording change,
//! regenerate with `BLESS=1 cargo test -p cp-check --test golden`.

use cp_check::{render, CheckCode, Diagnostic, GraphBundleUsage, RelayCostModel, WiringGraph};
use cp_trace::{HbEvent, HbOp};

/// Three ranks, Cell nodes 0 and 1 (8 SPEs each, both with Co-Pilots),
/// node 2 a commodity host — the `two_cells_one_xeon` shape.
fn base() -> WiringGraph {
    let mut g = WiringGraph::new(3);
    g.add_cell_node(0, 8);
    g.add_cell_node(1, 8);
    g.add_copilot(0);
    g.add_copilot(1);
    g
}

/// One minimal trigger per wiring code, in code order. Each entry is the
/// code the scenario must draw and the full diagnostic list it draws
/// (exactly the expected codes, nothing else).
fn wiring_catalogue() -> Vec<(CheckCode, Vec<Diagnostic>)> {
    let mut out = Vec::new();

    // CP001: a channel nobody writes.
    let mut g = base();
    let main = g.add_rank_process("main", 0, 0);
    g.add_half_channel(None, Some(main));
    out.push((CheckCode::Cp001, cp_check::verify(&g)));

    // CP002: a channel nobody reads.
    let mut g = base();
    let main = g.add_rank_process("main", 0, 0);
    g.add_half_channel(Some(main), None);
    out.push((CheckCode::Cp002, cp_check::verify(&g)));

    // CP003: a broadcast member written by someone other than the common
    // endpoint.
    let mut g = base();
    let main = g.add_rank_process("main", 0, 0);
    let xeon = g.add_rank_process("xeon", 1, 2);
    let good = g.add_channel(main, xeon);
    let backwards = g.add_channel(xeon, main);
    g.add_bundle(GraphBundleUsage::Broadcast, &[good, backwards], main);
    out.push((CheckCode::Cp003, cp_check::verify(&g)));

    // CP004: a process on a rank the cluster does not have.
    let mut g = base();
    g.add_rank_process("ghost", 7, 0);
    out.push((CheckCode::Cp004, cp_check::verify(&g)));

    // CP005: an SPE process on a node that is not a Cell.
    let mut g = base();
    g.add_spe_process("lost", 2, 0);
    out.push((CheckCode::Cp005, cp_check::verify(&g)));

    // CP006: nine SPE processes on an eight-SPE node.
    let mut g = base();
    for slot in 0..9 {
        g.add_spe_process(&format!("farm#{slot}"), 0, slot);
    }
    out.push((CheckCode::Cp006, cp_check::verify(&g)));

    // CP007: SPE traffic routed through a node with no Co-Pilot.
    let mut g = base();
    g.copilot_nodes.remove(&1);
    let xeon = g.add_rank_process("xeon", 1, 2);
    let s1a = g.add_spe_process("s1a", 1, 0);
    g.add_channel(xeon, s1a);
    out.push((CheckCode::Cp007, cp_check::verify(&g)));

    // CP008 (warning): a bundle mixing SPE↔SPE pairing with a rank-side
    // rendezvous.
    let mut g = base();
    let s0a = g.add_spe_process("s0a", 0, 0);
    let s0b = g.add_spe_process("s0b", 0, 1);
    let xeon = g.add_rank_process("xeon", 1, 2);
    let pair = g.add_channel(s0a, s0b);
    let remote = g.add_channel(s0a, xeon);
    g.add_bundle(GraphBundleUsage::Broadcast, &[pair, remote], s0a);
    out.push((CheckCode::Cp008, cp_check::verify(&g)));

    // CP009: a process talking to itself over a channel.
    let mut g = base();
    let main = g.add_rank_process("main", 0, 0);
    g.add_half_channel(Some(main), Some(main));
    out.push((CheckCode::Cp009, cp_check::verify(&g)));

    // CP010: two SPE processes bound to the same slot.
    let mut g = base();
    g.add_spe_process("a", 0, 0);
    g.add_spe_process("b", 0, 0);
    out.push((CheckCode::Cp010, cp_check::verify(&g)));

    // CP014 (warning): a coalescing batch a bounded member channel can
    // never accumulate.
    let mut g = base();
    let main = g.add_rank_process("main", 0, 0);
    let s0a = g.add_spe_process("s0a", 0, 0);
    let s0b = g.add_spe_process("s0b", 0, 1);
    let c0 = g.add_channel(main, s0a);
    let c1 = g.add_channel(main, s0b);
    g.set_channel_flow(c1, Some(4), true);
    let b = g.add_bundle(GraphBundleUsage::Broadcast, &[c0, c1], main);
    g.set_bundle_coalesce(b, 16);
    out.push((CheckCode::Cp014, cp_check::verify(&g)));

    // CP201 (warning): a two-hop cycle on which both channels are
    // Block-bounded.
    let mut g = base();
    let main = g.add_rank_process("main", 0, 0);
    let xeon = g.add_rank_process("xeon", 1, 2);
    let fwd = g.add_channel(main, xeon);
    let back = g.add_channel(xeon, main);
    g.set_channel_flow(fwd, Some(1), true);
    g.set_channel_flow(back, Some(4), true);
    out.push((CheckCode::Cp201, cp_check::analyze(&g)));

    // CP202 (warning): a same-node SPE ring whose pairing dispatch cost
    // blows the Co-Pilot's service budget.
    let mut g = base();
    let mut ring = Vec::new();
    for slot in 0..8 {
        ring.push(g.add_spe_process(&format!("ring#{slot}"), 0, slot));
    }
    for i in 0..8 {
        g.add_channel(ring[i], ring[(i + 1) % 8]);
    }
    g.set_relay_costs(RelayCostModel {
        dispatch_us: 37.0,
        pair_poll_us: 20.0,
        eager_dispatch_us: 5.0,
        service_budget_us: 400.0,
    });
    out.push((CheckCode::Cp202, cp_check::analyze(&g)));

    // CP203 (advice): a channel promising mailbox-sized payloads, left
    // non-eager.
    let mut g = base();
    let main = g.add_rank_process("main", 0, 0);
    let s0a = g.add_spe_process("s0a", 0, 0);
    let small = g.add_channel(main, s0a);
    g.set_channel_max_payload(small, 8);
    out.push((CheckCode::Cp203, cp_check::analyze(&g)));

    // CP204: a coalesced bundle over a one-sided member, and an eager
    // threshold on a one-sided channel — both fence-unsatisfiable.
    let mut g = base();
    let main = g.add_rank_process("main", 0, 0);
    let s0a = g.add_spe_process("s0a", 0, 0);
    let s0b = g.add_spe_process("s0b", 0, 1);
    let put = g.add_channel(main, s0a);
    g.mark_one_sided(put);
    g.add_window(put, 0, 0, 0x100, 256);
    let b = g.add_bundle(GraphBundleUsage::Broadcast, &[put], main);
    g.set_bundle_coalesce(b, 4);
    let inline = g.add_channel(main, s0b);
    g.mark_one_sided(inline);
    g.add_window(inline, 0, 1, 0x100, 256);
    g.set_channel_eager(inline, 8);
    out.push((CheckCode::Cp204, cp_check::analyze(&g)));

    out
}

/// The race detector's CP101 on an unfenced MFC get/put pair.
fn race_catalogue() -> Vec<Diagnostic> {
    let issue = |ts: u64, put: bool, tag: u32| HbEvent {
        actor: "spu0".into(),
        ts_ns: ts,
        op: HbOp::DmaIssue {
            node: 0,
            spe: 0,
            put,
            tag,
            ls_start: 0x100,
            len: 256,
        },
    };
    cp_check::detect_races(&[
        issue(100, false, 0),
        issue(200, true, 1),
        HbEvent {
            actor: "spu0".into(),
            ts_ns: 300,
            op: HbOp::DmaWait {
                node: 0,
                spe: 0,
                mask: 0b11,
            },
        },
    ])
}

#[test]
fn every_code_renders_as_pinned_in_the_golden_file() {
    let mut all: Vec<Diagnostic> = Vec::new();
    for (want, diags) in wiring_catalogue() {
        assert!(
            diags.iter().any(|d| d.code == want),
            "scenario for {want:?} did not draw it: {diags:?}"
        );
        assert!(
            diags.iter().all(|d| d.code == want),
            "scenario for {want:?} drew extra codes: {diags:?}"
        );
        all.extend(diags);
    }
    let races = race_catalogue();
    assert!(
        races.iter().all(|d| d.code == CheckCode::Cp101) && !races.is_empty(),
        "race scenario must draw exactly CP101: {races:?}"
    );
    all.extend(races);

    let mut rendered = render(&all);
    rendered.push('\n');
    assert!(
        rendered.contains("advice[CP203]"),
        "the advice severity tier must be pinned by the golden file"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/diagnostics.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(path).expect("golden file committed");
    assert_eq!(
        rendered, golden,
        "diagnostic rendering drifted from tests/golden/diagnostics.txt \
         (BLESS=1 to regenerate after a deliberate change)"
    );
}

/// The machine-readable code strings are part of the same contract as the
/// rendering.
#[test]
fn code_strings_are_stable() {
    let pinned = [
        (CheckCode::Cp001, "CP001"),
        (CheckCode::Cp002, "CP002"),
        (CheckCode::Cp003, "CP003"),
        (CheckCode::Cp004, "CP004"),
        (CheckCode::Cp005, "CP005"),
        (CheckCode::Cp006, "CP006"),
        (CheckCode::Cp007, "CP007"),
        (CheckCode::Cp008, "CP008"),
        (CheckCode::Cp009, "CP009"),
        (CheckCode::Cp010, "CP010"),
        (CheckCode::Cp014, "CP014"),
        (CheckCode::Cp101, "CP101"),
        (CheckCode::Cp201, "CP201"),
        (CheckCode::Cp202, "CP202"),
        (CheckCode::Cp203, "CP203"),
        (CheckCode::Cp204, "CP204"),
    ];
    for (code, s) in pinned {
        assert_eq!(code.as_str(), s);
    }
}
