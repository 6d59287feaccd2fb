//! Observability demo: a traced type-5 transfer, printing every protocol
//! leg with its virtual timestamp — the measured counterpart of the
//! architecture guide's walkthrough (`cellpilot::guide`).

use cellpilot::{render_trace, CellPilotConfig, CellPilotOpts, CpChannel, SpeProgram, CP_MAIN};
use cp_pilot::PiValue;
use cp_simnet::ClusterSpec;
use cp_trace::Recorder;

fn main() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let rec = Recorder::enabled();
    let opts = CellPilotOpts::new().with_tracing(rec.clone());
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let sender = SpeProgram::new("sender", 2048, |spe, _, _| {
        spe.write(CpChannel(0), "%100d", &[PiValue::Int32((0..100).collect())])
            .unwrap();
    });
    let receiver = SpeProgram::new("receiver", 2048, |spe, _, _| {
        let _ = spe.read(CpChannel(0), "%100d").unwrap();
    });
    let parent = cfg
        .create_process("parent", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let a = cfg.create_spe_process(&sender, CP_MAIN, 0).unwrap();
    let b = cfg.create_spe_process(&receiver, parent, 0).unwrap();
    let chan = cfg.channel(a, b).build().unwrap();
    println!(
        "one {} transfer of 400 bytes, traced:\n",
        cfg.channel_kind(chan).unwrap()
    );
    let report = cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap();
    print!("{}", render_trace(&rec.ops()));
    println!(
        "\ncompleted at virtual t = {:.1} us ({} processes, {} dispatches, {} of them thread hand-offs)",
        report.end_time.as_micros_f64(),
        report.processes,
        report.dispatches,
        report.handoffs
    );
    println!("(spe-write completes only after its Co-Pilot's MPI send; spe-read only");
    println!("after the remote Co-Pilot deposits into the local store.)");
}
