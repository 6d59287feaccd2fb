//! The host ledger: what a channel operation costs the host, counted
//! exactly rather than timed. For 1 B round trips over every channel type
//! and transport, 64 KiB relay round trips over every channel type, and
//! one broadcast to three remote SPEs, it pins the heap allocations and
//! allocated bytes (a counting global allocator around `System`), how many
//! of those allocations are payload-sized (64 KiB or more), the kernel's
//! dispatches and its thread hand-offs.
//!
//! Each figure is the 200-round run minus the 100-round run, so the cost of
//! configuring, launching and tearing down a cluster cancels and what is
//! left is the cost of 100 rounds. Every figure is deterministic: the same
//! on any host and in debug and release builds.
//!
//! The allocator counts every thread in the process, so this binary holds
//! exactly one test and the simulation is the only thing running.

use cellpilot::{
    CellPilotConfig, CellPilotOpts, ChannelBuilder, CpBundleUsage, CpChannel, PiValue, SpeProgram,
    CP_MAIN,
};
use cp_des::SimReport;
use cp_simnet::ClusterSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `System`, counting each allocation (a `realloc` counts as one) and the
/// bytes it asks for.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static BULK_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The size from which an allocation counts as payload-sized: a copy of
/// a bulk row's 64 KiB payload, packed or not.
const BULK: usize = 64 * 1024;

fn count(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    if size >= BULK {
        BULK_ALLOCS.fetch_add(1, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What 100 rounds of a scenario cost the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    allocs: u64,
    bytes: u64,
    /// Allocations of at least [`BULK`] bytes.
    bulk_allocs: u64,
    dispatches: u64,
    handoffs: u64,
}

/// Run `scenario` for `rounds` rounds: its allocations and bytes, and its
/// report's dispatches and hand-offs.
fn run(scenario: &dyn Fn(usize) -> SimReport, rounds: usize) -> Ledger {
    let counters = || [&ALLOCS, &BYTES, &BULK_ALLOCS].map(|c| c.load(Relaxed));
    let before = counters();
    let report = scenario(rounds);
    let after = counters();
    Ledger {
        allocs: after[0] - before[0],
        bytes: after[1] - before[1],
        bulk_allocs: after[2] - before[2],
        dispatches: report.dispatches,
        handoffs: report.handoffs,
    }
}

/// The 200-round run minus the 100-round run.
fn ledger(scenario: &dyn Fn(usize) -> SimReport) -> Ledger {
    let short = run(scenario, 100);
    let long = run(scenario, 200);
    Ledger {
        allocs: long.allocs - short.allocs,
        bytes: long.bytes - short.bytes,
        bulk_allocs: long.bulk_allocs - short.bulk_allocs,
        dispatches: long.dispatches - short.dispatches,
        handoffs: long.handoffs - short.handoffs,
    }
}

/// The 1 B message of round `r`.
fn byte(r: usize) -> Vec<PiValue> {
    bytes(r, 1)
}

/// The `n`-byte message of round `r`.
fn bytes(r: usize, n: usize) -> Vec<PiValue> {
    vec![PiValue::Byte(vec![r as u8; n])]
}

/// The Pilot format of an `n`-byte message.
fn format_for(n: usize) -> &'static str {
    match n {
        1 => "%b",
        BULK => "%65536b",
        other => panic!("no format for {other} B"),
    }
}

#[derive(Debug, Clone, Copy)]
enum Transport {
    /// Through the Co-Pilots (or plain MPI between ranks).
    Relay,
    /// Both legs eager: payloads ride the mailbox word.
    Eager,
    /// Every leg an SPE reads is one-sided; a rank's leg stays relayed.
    OneSided,
}

fn cfg() -> CellPilotConfig {
    CellPilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), CellPilotOpts::default())
}

/// One leg of a round trip over `transport`.
fn leg(b: ChannelBuilder<'_>, transport: Transport, spe_reader: bool) -> ChannelBuilder<'_> {
    match transport {
        Transport::Relay => b,
        Transport::Eager => b.eager(),
        Transport::OneSided if spe_reader => b.one_sided(),
        Transport::OneSided => b,
    }
}

/// `rounds` round trips of `n`-byte messages over channel type
/// `chan_type`: channel 0 carries the ping, channel 1 the echo. Types 1–3
/// ping from the main rank, types 4 and 5 from an SPE.
fn pingpong(chan_type: u8, transport: Transport, n: usize, rounds: usize) -> SimReport {
    let mut cfg = cfg();
    let fmt = format_for(n);
    let echo = SpeProgram::new("echo", 2048, move |spe, _, _| {
        for _ in 0..rounds {
            let v = spe.read(CpChannel(0), fmt).unwrap();
            spe.write(CpChannel(1), fmt, &v).unwrap();
        }
    });
    let ping = SpeProgram::new("ping", 2048, move |spe, _, _| {
        for r in 0..rounds {
            spe.write(CpChannel(0), fmt, &bytes(r, n)).unwrap();
            assert_eq!(spe.read(CpChannel(1), fmt).unwrap(), bytes(r, n));
        }
    });
    let remote_parent = |cfg: &mut CellPilotConfig| {
        cfg.create_process("remote-parent", 0, |cp, _| cp.run_and_wait_my_spes())
            .unwrap()
    };
    let (from, to) = match chan_type {
        1 => {
            let worker = cfg
                .create_process("echo", 0, move |cp, _| {
                    for _ in 0..rounds {
                        let v = cp.read(CpChannel(0), fmt).unwrap();
                        cp.write(CpChannel(1), fmt, &v).unwrap();
                    }
                })
                .unwrap();
            (CP_MAIN, worker)
        }
        2 => (CP_MAIN, cfg.create_spe_process(&echo, CP_MAIN, 0).unwrap()),
        3 => {
            let parent = remote_parent(&mut cfg);
            (CP_MAIN, cfg.create_spe_process(&echo, parent, 0).unwrap())
        }
        4 => (
            cfg.create_spe_process(&ping, CP_MAIN, 0).unwrap(),
            cfg.create_spe_process(&echo, CP_MAIN, 1).unwrap(),
        ),
        5 => {
            let parent = remote_parent(&mut cfg);
            (
                cfg.create_spe_process(&ping, CP_MAIN, 0).unwrap(),
                cfg.create_spe_process(&echo, parent, 0).unwrap(),
            )
        }
        other => panic!("no channel type {other}"),
    };
    let out = leg(cfg.channel(from, to), transport, chan_type >= 2)
        .build()
        .unwrap();
    leg(cfg.channel(to, from), transport, chan_type >= 4)
        .build()
        .unwrap();
    assert_eq!(cfg.channel_kind(out).unwrap().type_number(), chan_type);
    cfg.run(move |cp| {
        let tasks = cp.run_my_spes();
        if chan_type <= 3 {
            for r in 0..rounds {
                cp.write(CpChannel(0), fmt, &bytes(r, n)).unwrap();
                assert_eq!(cp.read(CpChannel(1), fmt).unwrap(), bytes(r, n));
            }
        }
        for t in tasks {
            cp.wait_spe(t);
        }
    })
    .unwrap()
}

/// `rounds` 1 B broadcasts from the main rank to three SPEs on the remote
/// Cell — one multicast envelope to their Co-Pilot per round — each SPE
/// acknowledging on its own relay channel before the next round.
fn broadcast(rounds: usize) -> SimReport {
    const SPES: usize = 3;
    let mut cfg = cfg();
    let member = SpeProgram::new("member", 2048, move |spe, _, _| {
        let i = spe.index() as usize;
        for r in 0..rounds {
            assert_eq!(spe.read(CpChannel(i), "%b").unwrap(), byte(r));
            spe.write(CpChannel(SPES + i), "%b", &byte(r)).unwrap();
        }
    });
    let parent = cfg
        .create_process("remote-parent", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let spes: Vec<_> = (0..SPES)
        .map(|i| cfg.create_spe_process(&member, parent, i as i32).unwrap())
        .collect();
    let down: Vec<_> = spes
        .iter()
        .map(|&s| cfg.channel(CP_MAIN, s).build().unwrap())
        .collect();
    for &s in &spes {
        cfg.channel(s, CP_MAIN).build().unwrap();
    }
    let bundle = cfg.create_bundle(CpBundleUsage::Broadcast, &down).unwrap();
    cfg.run(move |cp| {
        for r in 0..rounds {
            cp.broadcast(bundle, "%b", &byte(r)).unwrap();
            for i in 0..SPES {
                assert_eq!(cp.read(CpChannel(SPES + i), "%b").unwrap(), byte(r));
            }
        }
    })
    .unwrap()
}

/// One row of the ledger: its name and what 100 rounds cost.
type Row = (&'static str, Ledger);

const fn row(
    name: &'static str,
    allocs: u64,
    bytes: u64,
    bulk_allocs: u64,
    dispatches: u64,
    handoffs: u64,
) -> Row {
    (
        name,
        Ledger {
            allocs,
            bytes,
            bulk_allocs,
            dispatches,
            handoffs,
        },
    )
}

/// The round trips measured: a name, a channel type, a transport and the
/// payload size in bytes.
const PINGPONGS: [(&str, u8, Transport, usize); 18] = [
    ("type 1 relay", 1, Transport::Relay, 1),
    ("type 2 relay", 2, Transport::Relay, 1),
    ("type 2 eager", 2, Transport::Eager, 1),
    ("type 2 one-sided", 2, Transport::OneSided, 1),
    ("type 3 relay", 3, Transport::Relay, 1),
    ("type 3 eager", 3, Transport::Eager, 1),
    ("type 3 one-sided", 3, Transport::OneSided, 1),
    ("type 4 relay", 4, Transport::Relay, 1),
    ("type 4 eager", 4, Transport::Eager, 1),
    ("type 4 one-sided", 4, Transport::OneSided, 1),
    ("type 5 relay", 5, Transport::Relay, 1),
    ("type 5 eager", 5, Transport::Eager, 1),
    ("type 5 one-sided", 5, Transport::OneSided, 1),
    ("type 1 relay 64 KiB", 1, Transport::Relay, BULK),
    ("type 2 relay 64 KiB", 2, Transport::Relay, BULK),
    ("type 3 relay 64 KiB", 3, Transport::Relay, BULK),
    ("type 4 relay 64 KiB", 4, Transport::Relay, BULK),
    ("type 5 relay 64 KiB", 5, Transport::Relay, BULK),
];

/// Per 100 rounds. A change that moves a row on purpose states the
/// predicted delta first, then re-pins the row. Two of a 64 KiB row's
/// payload-sized allocations per round are the test's own: the ping value
/// and the echo it is compared with.
const PINNED: [Row; 19] = [
    row("type 1 relay", 2602, 624640, 0, 1000, 200),
    row("type 2 relay", 2602, 459840, 0, 2900, 200),
    row("type 2 eager", 2602, 459840, 0, 2600, 200),
    row("type 2 one-sided", 2601, 415920, 0, 2100, 200),
    row("type 3 relay", 2602, 459840, 0, 3000, 200),
    row("type 3 eager", 2602, 459840, 0, 2500, 200),
    row("type 3 one-sided", 2601, 415920, 0, 2100, 200),
    row("type 4 relay", 2000, 274000, 0, 3800, 200),
    row("type 4 eager", 2200, 276000, 0, 3200, 200),
    row("type 4 one-sided", 2600, 339200, 0, 1600, 200),
    row("type 5 relay", 2602, 295040, 0, 5000, 200),
    row("type 5 eager", 2602, 295040, 0, 4000, 200),
    row("type 5 one-sided", 2600, 339200, 0, 1600, 200),
    row("type 1 relay 64 KiB", 3402, 39995864, 600, 1400, 200),
    row("type 2 relay 64 KiB", 3502, 39835064, 600, 3500, 200),
    row("type 3 relay 64 KiB", 3502, 39835064, 600, 3500, 200),
    row("type 4 relay 64 KiB", 2000, 26488000, 400, 4000, 200),
    row("type 5 relay 64 KiB", 3602, 39674264, 600, 5600, 200),
    // One allocation of the 26 B envelope per fanned-out channel fewer
    // than a fan-out that copied the whole envelope (11 102 / 1 192 752).
    row("broadcast to 3 remote SPEs", 8202, 1161052, 0, 7500, 1200),
];

#[test]
fn host_ledger_per_100_rounds() {
    // One round first, so that what the process sets up once, on its
    // first simulation, falls in no row.
    pingpong(1, Transport::Relay, 1, 1);
    let mut measured: Vec<Row> = PINGPONGS
        .iter()
        .map(|&(name, chan_type, t, n)| (name, ledger(&|r| pingpong(chan_type, t, n, r))))
        .collect();
    measured.push(("broadcast to 3 remote SPEs", ledger(&broadcast)));
    let table: String = measured
        .iter()
        .map(|(name, l)| {
            format!(
                "    row({name:?}, {}, {}, {}, {}, {}),\n",
                l.allocs, l.bytes, l.bulk_allocs, l.dispatches, l.handoffs
            )
        })
        .collect();
    assert_eq!(measured, PINNED, "the ledger moved; measured:\n{table}");
}
