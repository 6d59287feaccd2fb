//! The configuration phase: declaring the static process/channel
//! architecture, then launching the execution phase.
//!
//! Mirrors Pilot's two-phase model. `PilotConfig` plays the role of the
//! code between `PI_Configure` and `PI_StartAll`: it creates processes
//! (each bound to an MPI rank and a function), channels between process
//! pairs, and bundles. [`PilotConfig::run`] is `PI_StartAll`: every process
//! begins executing its function, rank 0 (`PI_MAIN`) runs the supplied
//! `main` closure, and when every function has returned the application
//! synchronizes on an internal barrier and the simulation ends
//! (`PI_StopMain`).

use crate::endpoint::{finishers, PilotCosts};
use crate::error::PilotError;
use crate::runtime::Pilot;
use crate::service::{self, DlEndpoint};
use crate::table::{BundleUsage, PiBundle, PiChannel, PiProcess, ProcessEntry, Tables};
use cp_des::{Backend, SimDuration, SimError, SimReport};
use cp_mpisim::{MpiCosts, MpiWorld};
use cp_native::Runner;
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};
use cp_trace::Recorder;
use std::sync::Arc;

/// Options for a Pilot application (the `-pisvc=` command-line options).
///
/// Construct either field-style (`PilotOpts { deadlock_detection: true,
/// ..Default::default() }`) or with the chainable `with_*` builders:
///
/// ```
/// use cp_pilot::PilotOpts;
/// use cp_des::SimDuration;
/// use cp_trace::Recorder;
///
/// let opts = PilotOpts::new()
///     .with_deadlock_service()
///     .with_tracing(Recorder::enabled())
///     .with_channel_timeout(SimDuration::from_millis(5));
/// assert!(opts.deadlock_detection);
/// assert!(opts.tracing.is_enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PilotOpts {
    /// Enable the deadlock-detection service (`-pisvc=d`). Consumes one
    /// MPI process.
    pub deadlock_detection: bool,
    /// The run's observability recorder, disabled by default. An enabled
    /// one is Pilot's call log (`-pisvc=c`): every channel call lands in
    /// its op log ([`Recorder::ops`]) with its virtual timestamp, beside
    /// the MPI and kernel metrics. Recording never consumes virtual time.
    pub tracing: Recorder,
    /// Pilot-layer cost model.
    pub costs: PilotCosts,
    /// MPI-layer cost model.
    pub mpi_costs: MpiCosts,
    /// Per-channel read deadline: a `PI_Read` that waits longer than this
    /// (virtual time) fails with [`PilotError::Timeout`] instead of
    /// blocking forever. `None` (the default) blocks indefinitely.
    pub channel_timeout: Option<SimDuration>,
    /// Fault-injection plan the underlying fabric runs under; `None` means
    /// a fault-free fabric.
    pub faults: Option<Arc<FaultPlan>>,
    /// Retransmission policy senders use against injected message loss.
    pub retry: RetryPolicy,
    /// Schedule-exploration seed for the DES kernel: `0` (the default) is
    /// the canonical FIFO schedule; a nonzero seed deterministically
    /// permutes same-timestamp event ordering (see
    /// [`cp_des::Simulation::set_schedule_seed`]).
    pub schedule_seed: u64,
    /// Run the `cp-check` wiring verifier over the configured architecture
    /// before launching, aborting the run on any error-severity finding
    /// ([`cp_des::SimError::Aborted`] naming every diagnostic).
    pub strict_checks: bool,
    /// Lint-engine policy over the `cp-check` findings: per-code
    /// [`cp_check::LintLevel`]s, endpoint-scoped suppressions and a
    /// baseline. Applied by [`PilotConfig::check`], so an `Allow`ed,
    /// suppressed or baselined finding never aborts a strict run; a
    /// `Deny`ed one always does.
    pub lint_config: cp_check::LintConfig,
    /// Execution substrate: the deterministic DES kernel
    /// ([`Backend::Sim`], the default) or free-running OS threads
    /// ([`Backend::Native`]). The program body is identical on both; the
    /// native backend rejects fault plans (sim-only) and ignores
    /// `schedule_seed` (the OS schedules the threads).
    pub backend: Backend,
}

impl PilotOpts {
    /// Default options; identical to `PilotOpts::default()`, reads better
    /// at the head of a builder chain.
    pub fn new() -> PilotOpts {
        PilotOpts::default()
    }

    /// Enable the deadlock-detection service (consumes one MPI process).
    pub fn with_deadlock_service(mut self) -> PilotOpts {
        self.deadlock_detection = true;
        self
    }

    /// Record the run on `recorder` (keep a clone to read it back, a
    /// failed run included).
    pub fn with_tracing(mut self, recorder: Recorder) -> PilotOpts {
        self.tracing = recorder;
        self
    }

    /// Fail `PI_Read`s that wait longer than `deadline` of virtual time.
    pub fn with_channel_timeout(mut self, deadline: SimDuration) -> PilotOpts {
        self.channel_timeout = Some(deadline);
        self
    }

    /// Run the fabric under the given fault-injection plan.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> PilotOpts {
        self.faults = Some(plan);
        self
    }

    /// Override the sender-side retransmission policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> PilotOpts {
        self.retry = retry;
        self
    }

    /// Run under an alternative (but still deterministic) DES schedule.
    pub fn with_schedule_seed(mut self, seed: u64) -> PilotOpts {
        self.schedule_seed = seed;
        self
    }

    /// Abort before launching if the `cp-check` wiring verifier finds an
    /// error in the configured architecture.
    pub fn with_strict_checks(mut self) -> PilotOpts {
        self.strict_checks = true;
        self
    }

    /// Apply a lint-engine policy ([`cp_check::LintConfig`]) over the
    /// `cp-check` findings: remap per-code levels, suppress a code at an
    /// endpoint, or exempt a committed baseline.
    pub fn with_lint_config(mut self, lint_config: cp_check::LintConfig) -> PilotOpts {
        self.lint_config = lint_config;
        self
    }

    /// Select the execution substrate (see [`PilotOpts::backend`]).
    pub fn with_backend(mut self, backend: Backend) -> PilotOpts {
        self.backend = backend;
        self
    }

    /// Select the substrate from the `CP_BACKEND` environment variable
    /// (`native` selects OS threads; anything else, or unset, the sim) —
    /// how the conformance harness runs one binary on both backends.
    pub fn with_backend_from_env(mut self) -> PilotOpts {
        self.backend = Backend::from_env();
        self
    }
}

type ProcBody = Box<dyn FnOnce(&Pilot, i32) + Send>;

/// A Pilot application under configuration.
pub struct PilotConfig {
    spec: ClusterSpec,
    placement: Vec<NodeId>,
    opts: PilotOpts,
    tables: Tables,
    bodies: Vec<Option<ProcBody>>,
    next_rank: usize,
}

impl PilotConfig {
    /// Begin configuring an application on the given cluster, with
    /// `placement[rank]` naming the node each MPI rank runs on (the
    /// `mpirun` host file).
    pub fn new(spec: ClusterSpec, placement: Vec<NodeId>, opts: PilotOpts) -> PilotConfig {
        assert!(!placement.is_empty(), "need at least one rank for PI_MAIN");
        let mut tables = Tables::default();
        tables.decls.add_process("main".into());
        tables.processes.push(ProcessEntry { rank: 0, index: 0 });
        if opts.deadlock_detection {
            assert!(
                placement.len() >= 2,
                "deadlock detection consumes one MPI process"
            );
            tables.detector_rank = Some(placement.len() - 1);
        }
        PilotConfig {
            spec,
            placement,
            opts,
            tables,
            bodies: vec![None],
            next_rank: 1,
        }
    }

    /// Convenience: one MPI rank per cluster node.
    pub fn one_rank_per_node(spec: ClusterSpec, opts: PilotOpts) -> PilotConfig {
        let placement = (0..spec.nodes.len()).map(NodeId).collect();
        PilotConfig::new(spec, placement, opts)
    }

    /// How many more processes can still be created (what `PI_Configure`'s
    /// return value lets applications compute — essential for "writing
    /// scalable applications that utilize every available processor").
    pub fn processes_available(&self) -> usize {
        let limit = self.placement.len() - usize::from(self.opts.deadlock_detection);
        limit - self.next_rank
    }

    /// `PI_CreateProcess`: bind `f` to the next MPI rank. `index` is passed
    /// to `f` so one function body can serve many processes.
    pub fn create_process<F>(
        &mut self,
        name: &str,
        index: i32,
        f: F,
    ) -> Result<PiProcess, PilotError>
    where
        F: FnOnce(&Pilot, i32) + Send + 'static,
    {
        if self.processes_available() == 0 {
            return Err(PilotError::TooManyProcesses {
                available: self.placement.len(),
            });
        }
        let rank = self.next_rank;
        self.next_rank += 1;
        let id = PiProcess(self.tables.decls.add_process(name.into()));
        self.tables.processes.push(ProcessEntry { rank, index });
        self.bodies.push(Some(Box::new(f)));
        Ok(id)
    }

    /// `PI_CreateChannel`: a unidirectional channel from `from` to `to`.
    pub fn create_channel(
        &mut self,
        from: PiProcess,
        to: PiProcess,
    ) -> Result<PiChannel, PilotError> {
        self.tables.decls.add_channel(from.0, to.0).map(PiChannel)
    }

    /// `PI_CreateBundle`: group channels sharing a common endpoint for a
    /// collective usage. For [`BundleUsage::Broadcast`] the common endpoint
    /// is the single writer; for `Gather`/`Select` it is the single reader.
    pub fn create_bundle(
        &mut self,
        usage: BundleUsage,
        channels: &[PiChannel],
    ) -> Result<PiBundle, PilotError> {
        let members: Vec<usize> = channels.iter().map(|c| c.0).collect();
        self.tables.decls.add_bundle(usage, &members).map(PiBundle)
    }

    /// Run the `cp-check` configure-time passes — the wiring verifier and
    /// the progress analyzer — over the architecture configured so far.
    /// The typed API already rules the dangling-endpoint and
    /// bundle-mismatch defects out by construction, so a well-formed
    /// Pilot configuration comes out clean; the passes are the same ones
    /// CellPilot configurations run, and harnesses can call this directly
    /// to lint without launching. The configured
    /// [`PilotOpts::lint_config`] is applied before returning.
    pub fn check(&self) -> Vec<cp_check::Diagnostic> {
        let mut g = cp_check::WiringGraph::new(self.placement.len());
        for (p, e) in self.tables.processes.iter().enumerate() {
            g.add_rank_process(self.tables.decls.name(p), e.rank, self.placement[e.rank].0);
        }
        self.tables.decls.wire(&mut g);
        let mut diags = cp_check::verify(&g);
        diags.extend(cp_check::analyze(&g));
        self.opts.lint_config.apply(diags)
    }

    /// `PI_StartAll` + `PI_StopMain`: run the execution phase to
    /// completion. `main` runs as `PI_MAIN` on rank 0.
    pub fn run<M>(self, main: M) -> Result<SimReport, SimError>
    where
        M: FnOnce(&Pilot) + Send + 'static,
    {
        if self.opts.strict_checks {
            let lints = self.check();
            if lints.iter().any(|d| d.is_error()) {
                return Err(SimError::Aborted {
                    pid: 0,
                    name: "cp-check".into(),
                    message: cp_check::render(&lints),
                });
            }
        }
        if self.opts.backend == Backend::Native && self.opts.faults.is_some() {
            return Err(SimError::Aborted {
                pid: 0,
                name: "pilot-config".into(),
                message: "fault injection is sim-only: fault plans script virtual-time events \
                          the native backend has no clock for (run with Backend::Sim)"
                    .into(),
            });
        }
        let PilotConfig {
            spec,
            placement,
            opts,
            tables,
            bodies,
            next_rank: _,
        } = self;
        let cluster = spec.build();
        let faults = opts
            .faults
            .clone()
            .unwrap_or_else(|| Arc::new(FaultPlan::new()));
        let world = MpiWorld::with_faults(
            cluster,
            placement,
            opts.mpi_costs.clone(),
            faults,
            opts.retry,
        );
        world.set_recorder(opts.tracing.clone());
        let tables = Arc::new(tables);
        let mut sim = Runner::for_backend(opts.backend);
        sim.set_schedule_seed(opts.schedule_seed);
        sim.set_recorder(opts.tracing.clone());
        // Application processes.
        for (pidx, body) in bodies.into_iter().enumerate() {
            let entry = &tables.processes[pidx];
            let rank = entry.rank;
            let index = entry.index;
            let name = tables.decls.name(pidx).clone();
            let tables = tables.clone();
            let costs = opts.costs.clone();
            match body {
                None => {
                    // PI_MAIN — handled below to keep `main`'s distinct type.
                    debug_assert_eq!(pidx, 0);
                }
                Some(f) => {
                    let rec = opts.tracing.clone();
                    let deadline = opts.channel_timeout;
                    world.launch(&mut sim, rank, &name, move |comm| {
                        let pilot = Pilot::new(comm, tables, costs, PiProcess(pidx), rec, deadline);
                        f(&pilot, index);
                        pilot.finish();
                    });
                }
            }
        }
        {
            let tables2 = tables.clone();
            let costs = opts.costs.clone();
            let rec = opts.tracing.clone();
            let deadline = opts.channel_timeout;
            world.launch(&mut sim, 0, "main", move |comm| {
                let pilot = Pilot::new(comm, tables2, costs, PiProcess(0), rec, deadline);
                main(&pilot);
                pilot.finish();
            });
        }
        // Deadlock-detection service.
        if let Some(det_rank) = tables.detector_rank {
            let ranks = tables.processes.iter().map(|p| p.rank);
            let expected = finishers(world.fault_plan(), ranks);
            let tables = tables.clone();
            world.launch_async(&mut sim, det_rank, "pilot-deadlock-svc", move |comm| {
                service::detector(comm, expected, move |ep| match ep {
                    DlEndpoint::Rank(r) => tables.name_of_rank(*r),
                    other => other.to_string(),
                })
            });
        }
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PilotConfig {
        PilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), PilotOpts::default())
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_placement_panics() {
        let _ = PilotConfig::new(
            ClusterSpec::two_cells_one_xeon(),
            Vec::new(),
            PilotOpts::default(),
        );
    }

    #[test]
    #[should_panic(expected = "consumes one MPI process")]
    fn detection_needs_two_ranks() {
        let opts = PilotOpts {
            deadlock_detection: true,
            ..Default::default()
        };
        let _ = PilotConfig::new(
            ClusterSpec::two_cells_one_xeon(),
            vec![cp_simnet::NodeId(0)],
            opts,
        );
    }

    #[test]
    fn process_limit_follows_rank_count() {
        let mut c = cfg(); // 3 nodes -> 3 ranks -> main + 2 processes
        assert_eq!(c.processes_available(), 2);
        c.create_process("a", 0, |_, _| {}).unwrap();
        c.create_process("b", 1, |_, _| {}).unwrap();
        assert_eq!(c.processes_available(), 0);
        assert!(matches!(
            c.create_process("c", 2, |_, _| {}),
            Err(PilotError::TooManyProcesses { .. })
        ));
    }

    #[test]
    fn detection_service_consumes_a_rank() {
        let opts = PilotOpts {
            deadlock_detection: true,
            ..Default::default()
        };
        let c = PilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), opts);
        assert_eq!(c.processes_available(), 1);
    }

    #[test]
    fn self_channel_rejected() {
        let mut c = cfg();
        let a = c.create_process("a", 0, |_, _| {}).unwrap();
        assert_eq!(
            c.create_channel(a, a),
            Err(PilotError::SelfChannel).map(|_: PiChannel| unreachable!())
        );
    }

    #[test]
    fn bundle_requires_common_endpoint() {
        let mut c = cfg();
        let a = c.create_process("a", 0, |_, _| {}).unwrap();
        let b = c.create_process("b", 1, |_, _| {}).unwrap();
        let ch1 = c.create_channel(crate::PI_MAIN, a).unwrap();
        let ch2 = c.create_channel(crate::PI_MAIN, b).unwrap();
        let ch3 = c.create_channel(a, b).unwrap();
        // Broadcast from PI_MAIN: ok.
        let bun = c
            .create_bundle(BundleUsage::Broadcast, &[ch1, ch2])
            .unwrap();
        assert_eq!(bun, PiBundle(0));
        // ch3's writer is not PI_MAIN.
        assert!(matches!(
            c.create_bundle(BundleUsage::Broadcast, &[ch1, ch3]),
            Err(PilotError::ChannelAlreadyBundled(_)) | Err(PilotError::BundleCommonEndpoint)
        ));
        // Empty bundle.
        assert!(matches!(
            c.create_bundle(BundleUsage::Select, &[]),
            Err(PilotError::EmptyBundle)
        ));
    }

    #[test]
    fn strict_checks_pass_a_well_formed_config() {
        let mut c = PilotConfig::one_rank_per_node(
            ClusterSpec::two_cells_one_xeon(),
            PilotOpts::new().with_strict_checks(),
        );
        let a = c
            .create_process("a", 0, |p, _| {
                let v = p.read(crate::PiChannel(0), "%d").unwrap();
                assert_eq!(v.len(), 1);
            })
            .unwrap();
        let _b = c.create_process("b", 1, |_, _| {}).unwrap();
        let ch = c.create_channel(crate::PI_MAIN, a).unwrap();
        assert!(c.check().is_empty(), "{:?}", c.check());
        c.run(move |p| {
            p.write(ch, "%d", &[crate::PiValue::from(7i32)]).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn native_backend_runs_the_same_program() {
        // The exact program from strict_checks_pass_a_well_formed_config,
        // with only the backend changed: same declarations, same bodies.
        let mut c = PilotConfig::one_rank_per_node(
            ClusterSpec::two_cells_one_xeon(),
            PilotOpts::new().with_backend(Backend::Native),
        );
        let a = c
            .create_process("a", 0, |p, _| {
                let v = p.read(crate::PiChannel(0), "%d").unwrap();
                assert_eq!(v[0], crate::PiValue::from(7i32));
            })
            .unwrap();
        let _b = c.create_process("b", 1, |_, _| {}).unwrap();
        let ch = c.create_channel(crate::PI_MAIN, a).unwrap();
        c.run(move |p| {
            p.write(ch, "%d", &[crate::PiValue::from(7i32)]).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn native_backend_with_deadlock_service() {
        // The dlsvc detector polls with timed waits; a clean program must
        // terminate (EV_FINISH from every endpoint retires the service).
        let opts = PilotOpts::new()
            .with_deadlock_service()
            .with_backend(Backend::Native);
        let mut c = PilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), opts);
        let a = c
            .create_process("echo", 0, |p, _| {
                let v = p.read(crate::PiChannel(0), "%d").unwrap();
                p.write(crate::PiChannel(1), "%d", &v).unwrap();
            })
            .unwrap();
        let c_out = c.create_channel(crate::PI_MAIN, a).unwrap();
        let c_back = c.create_channel(a, crate::PI_MAIN).unwrap();
        assert_eq!(c_out, crate::PiChannel(0));
        assert_eq!(c_back, crate::PiChannel(1));
        c.run(move |p| {
            p.write(c_out, "%d", &[crate::PiValue::from(41i32)])
                .unwrap();
            let v = p.read(c_back, "%d").unwrap();
            assert_eq!(v[0], crate::PiValue::from(41i32));
        })
        .unwrap();
    }

    #[test]
    fn native_backend_rejects_fault_plans() {
        let opts = PilotOpts::new()
            .with_faults(Arc::new(FaultPlan::new()))
            .with_backend(Backend::Native);
        let c = PilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), opts);
        match c.run(|_| {}) {
            Err(SimError::Aborted { message, .. }) => assert!(message.contains("sim-only")),
            other => panic!("expected sim-only abort, got {other:?}"),
        }
    }

    #[test]
    fn bundle_rejects_a_channel_listed_twice() {
        let mut c = cfg();
        let a = c.create_process("a", 0, |_, _| {}).unwrap();
        let ch = c.create_channel(a, crate::PI_MAIN).unwrap();
        assert_eq!(
            c.create_bundle(BundleUsage::Gather, &[ch, ch]),
            Err(PilotError::ChannelAlreadyBundled(ch.0))
        );
        // The rejected bundle left the channel free.
        assert_eq!(c.create_bundle(BundleUsage::Gather, &[ch]), Ok(PiBundle(0)));
    }

    #[test]
    fn channel_cannot_join_two_bundles() {
        let mut c = cfg();
        let a = c.create_process("a", 0, |_, _| {}).unwrap();
        let b = c.create_process("b", 1, |_, _| {}).unwrap();
        let ch1 = c.create_channel(a, crate::PI_MAIN).unwrap();
        let ch2 = c.create_channel(b, crate::PI_MAIN).unwrap();
        c.create_bundle(BundleUsage::Gather, &[ch1, ch2]).unwrap();
        assert!(matches!(
            c.create_bundle(BundleUsage::Select, &[ch1]),
            Err(PilotError::ChannelAlreadyBundled(_))
        ));
    }
}
