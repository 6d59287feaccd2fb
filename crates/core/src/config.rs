//! The CellPilot configuration phase.
//!
//! Identical in spirit to Pilot's (the paper: "if a programmer has already
//! learned how to use Pilot on a conventional cluster, learning a couple
//! more API functions for the SPE is a small matter"). The two additions
//! are [`CellPilotConfig::create_spe_process`] (`PI_CreateSPE`) and, in the
//! runtime, `CellPilot::run_spe` (`PI_RunSPE`). SPE processes are not
//! launched automatically by `run` — they stay dormant until their parent
//! PPE process starts them during its own execution phase, "completely in
//! keeping with the idea that SPEs have limited memory and may need to be
//! loaded and reloaded".

use crate::collective::CpBundle;
use crate::copilot;
use crate::costs::CellPilotCosts;
use crate::error::CpError;
use crate::flow::{FlowControl, OverloadPolicy};
use crate::location::{classify, ChannelMode, CpChannel, CpProcess, Location};
use crate::program::SpeProgram;
use crate::runtime::{AppShared, CellPilot};
use crate::tables::{CoalescePolicy, CpChanEntry, CpProcEntry, CpTables, NodeShared, ProcKind};
use cp_des::{Backend, Incident, IncidentCategory, SimDuration, SimError, SimReport};
use cp_mpisim::{MpiCosts, MpiWorld};
use cp_native::Runner;
use cp_pilot::{BundleUsage, PilotCosts, PilotError};
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};
use cp_trace::Recorder;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Options for a CellPilot application.
///
/// Construct either field-style (`CellPilotOpts { deadlock_detection:
/// true, ..Default::default() }`) or with the chainable `with_*` builders:
///
/// ```
/// use cellpilot::CellPilotOpts;
/// use cp_des::SimDuration;
/// use cp_trace::Recorder;
///
/// let opts = CellPilotOpts::new()
///     .with_tracing(Recorder::enabled())
///     .with_channel_timeout(SimDuration::from_millis(10));
/// assert!(opts.tracing.is_enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CellPilotOpts {
    /// CellPilot-layer cost model.
    pub costs: CellPilotCosts,
    /// Pilot-layer (rank-side) cost model.
    pub pilot_costs: PilotCosts,
    /// MPI-layer cost model.
    pub mpi_costs: MpiCosts,
    /// Per-channel read deadline for rank-side reads: a read that waits
    /// longer than this (virtual time) fails with [`PilotError::Timeout`]
    /// instead of blocking forever. `None` (the default) blocks
    /// indefinitely.
    pub channel_timeout: Option<SimDuration>,
    /// Fault-injection plan the simulated cluster runs under; `None` means
    /// a healthy cluster.
    pub faults: Option<Arc<FaultPlan>>,
    /// Retransmission policy senders use against injected message loss.
    pub retry: RetryPolicy,
    /// Enable the deadlock-detection service (consumes one extra MPI
    /// process). Ranks report their own channel waits; Co-Pilots report on
    /// behalf of their SPEs, so circular waits on every channel type (1–5)
    /// abort with a diagnostic naming the full cycle.
    pub deadlock_detection: bool,
    /// Schedule-exploration seed for the DES kernel: `0` (the default) is
    /// the canonical FIFO schedule; a nonzero seed deterministically
    /// permutes same-timestamp event ordering (see
    /// [`cp_des::Simulation::set_schedule_seed`]).
    pub schedule_seed: u64,
    /// Restart crashed SPE work functions instead of failing their
    /// channels; `None` (the default) keeps fail-stop semantics.
    pub supervision: Option<SupervisionPolicy>,
    /// Cluster-wide observability recorder (see [`cp_trace::Recorder`]),
    /// the one tracing switch. Disabled by default; attach an enabled
    /// recorder with [`CellPilotOpts::with_tracing`] to collect spans,
    /// Chrome-trace events and a [`cp_trace::MetricsSnapshot`] across the
    /// DES kernel, the MPI layer, the interconnect and every CellPilot
    /// channel operation, plus the op log [`crate::render_trace`] renders.
    /// Recording never consumes virtual time, so enabling it does not
    /// perturb the schedule.
    pub tracing: Recorder,
    /// Run the `cp-check` static passes: the configure-time wiring
    /// verifier (findings become [`cp_des::IncidentCategory::WiringLint`]
    /// incidents) and the happens-before DMA race detector (findings
    /// become [`cp_des::IncidentCategory::DmaRace`] incidents). Neither
    /// pass consumes virtual time.
    pub checks: bool,
    /// Escalate wiring-verifier *errors* to a pre-run abort
    /// ([`cp_des::SimError::Aborted`] naming every finding) instead of
    /// incidents. Implies [`CellPilotOpts::checks`].
    pub strict_checks: bool,
    /// Lint-engine policy over the `cp-check` findings: per-code
    /// [`cp_check::LintLevel`]s, endpoint-scoped suppressions and a
    /// baseline. Applied by [`CellPilotConfig::check`] before findings
    /// reach strict-abort or incident reporting, so an `Allow`ed,
    /// suppressed or baselined finding never aborts a strict run; a
    /// `Deny`ed one always does. Default: the identity (natural
    /// severities, nothing suppressed).
    pub lint_config: cp_check::LintConfig,
    /// Abort the run with [`cp_des::SimError::TimeLimitExceeded`] once
    /// virtual time passes this bound — the harness knob for
    /// demonstrating progress hazards (a CP201 credit-deadlock cycle
    /// livelocks virtual time rather than exhausting the event queue, so
    /// only a time limit can catch it). `None` (the default) never
    /// limits. Sim-only; ignored on the native backend.
    pub time_limit: Option<SimDuration>,
    /// Execution substrate: the deterministic DES kernel
    /// ([`Backend::Sim`], the default) or free-running OS threads
    /// ([`Backend::Native`]). The program body and the configure-time
    /// wiring verifier are identical on both. Native rejects fault plans
    /// and supervision (their faults are scripted in virtual time) and
    /// ignores `schedule_seed`; the CP101 DMA race detector is likewise
    /// sim-only — its happens-before timestamps are only meaningful under
    /// the virtual clock.
    pub backend: Backend,
}

impl CellPilotOpts {
    /// Default options; identical to `CellPilotOpts::default()`, reads
    /// better at the head of a builder chain.
    pub fn new() -> CellPilotOpts {
        CellPilotOpts::default()
    }

    /// Fail rank-side reads that wait longer than `deadline` of virtual
    /// time.
    pub fn with_channel_timeout(mut self, deadline: SimDuration) -> CellPilotOpts {
        self.channel_timeout = Some(deadline);
        self
    }

    /// Run the simulated cluster under the given fault-injection plan.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> CellPilotOpts {
        self.faults = Some(plan);
        self
    }

    /// Override the sender-side retransmission policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> CellPilotOpts {
        self.retry = retry;
        self
    }

    /// Enable the deadlock-detection service (consumes one extra MPI
    /// process).
    pub fn with_deadlock_service(mut self) -> CellPilotOpts {
        self.deadlock_detection = true;
        self
    }

    /// Run under an alternative (but still deterministic) DES schedule.
    pub fn with_schedule_seed(mut self, seed: u64) -> CellPilotOpts {
        self.schedule_seed = seed;
        self
    }

    /// Restart crashed SPE work functions under `policy` instead of
    /// failing their channels.
    pub fn with_supervision(mut self, policy: SupervisionPolicy) -> CellPilotOpts {
        self.supervision = Some(policy);
        self
    }

    /// Attach an observability [`Recorder`] to the run. Pass
    /// [`Recorder::enabled`] and keep a clone: after the run — failed
    /// runs included — [`Recorder::snapshot`] yields the aggregated
    /// metrics, [`Recorder::chrome_trace`] a Chrome `trace_event` JSON
    /// export and [`Recorder::ops`] the op log.
    pub fn with_tracing(mut self, recorder: Recorder) -> CellPilotOpts {
        self.tracing = recorder;
        self
    }

    /// Run the `cp-check` wiring verifier and DMA race detector, reporting
    /// findings as `wiring-lint` / `dma-race` incidents in the
    /// [`SimReport`].
    pub fn with_checks(mut self) -> CellPilotOpts {
        self.checks = true;
        self
    }

    /// Like [`CellPilotOpts::with_checks`], but wiring-verifier errors
    /// abort before the run starts (races are always post-run findings and
    /// never abort).
    pub fn with_strict_checks(mut self) -> CellPilotOpts {
        self.checks = true;
        self.strict_checks = true;
        self
    }

    /// Apply a lint-engine policy ([`cp_check::LintConfig`]) over the
    /// `cp-check` findings: remap per-code levels, suppress a code at an
    /// endpoint, or exempt a committed baseline.
    pub fn with_lint_config(mut self, lint_config: cp_check::LintConfig) -> CellPilotOpts {
        self.lint_config = lint_config;
        self
    }

    /// Abort the run once virtual time passes `limit` (sim-only; see
    /// [`CellPilotOpts::time_limit`]).
    pub fn with_time_limit(mut self, limit: SimDuration) -> CellPilotOpts {
        self.time_limit = Some(limit);
        self
    }

    /// Select the execution substrate (see [`CellPilotOpts::backend`]).
    pub fn with_backend(mut self, backend: Backend) -> CellPilotOpts {
        self.backend = backend;
        self
    }

    /// Select the substrate from the `CP_BACKEND` environment variable
    /// (`native` selects OS threads; anything else, or unset, the sim) —
    /// how the conformance harness runs one example binary on both
    /// backends without recompiling.
    pub fn with_backend_from_env(mut self) -> CellPilotOpts {
        self.backend = Backend::from_env();
        self
    }
}

/// How the runtime reacts when a supervised SPE work function crashes
/// (a scripted [`FaultPlan::crash_spe`] fault firing mid-kernel).
///
/// With supervision enabled the crashed SPE process is restarted in place
/// up to [`SupervisionPolicy::max_restarts`] times from its last
/// acknowledged channel operation: the runtime keeps a lightweight
/// checkpoint cursor (an op journal) per supervised SPE, replays the
/// already-acknowledged operations without re-issuing them to the
/// Co-Pilot, and resumes live execution — so peers observe every message
/// exactly once and final results are byte-identical to a fault-free run.
/// Exhausting the budget abandons the process and degrades its channels to
/// the unsupervised `PeerLost` behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionPolicy {
    /// Restarts allowed per SPE process before it is abandoned.
    pub max_restarts: u32,
    /// Virtual time between a crash and the restarted attempt (modelling
    /// the Co-Pilot reloading the SPE image).
    pub restart_delay: SimDuration,
}

impl Default for SupervisionPolicy {
    fn default() -> SupervisionPolicy {
        SupervisionPolicy {
            max_restarts: 2,
            restart_delay: SimDuration::from_micros(50),
        }
    }
}

type RankBody = Box<dyn FnOnce(&CellPilot, i32) + Send>;

/// A CellPilot application under configuration.
pub struct CellPilotConfig {
    spec: ClusterSpec,
    placement: Vec<NodeId>,
    opts: CellPilotOpts,
    /// The declarations and CellPilot's columns; the launch ranks are
    /// filled in by `run`.
    tables: CpTables,
    bodies: Vec<Option<RankBody>>,
    next_rank: usize,
    spe_slots: HashMap<NodeId, usize>,
}

impl CellPilotConfig {
    /// Begin configuring on `spec`, with `placement[rank]` naming the node
    /// of each application MPI rank (rank 0 = `CP_MAIN`). One Co-Pilot
    /// rank per Cell node is added automatically.
    pub fn new(spec: ClusterSpec, placement: Vec<NodeId>, opts: CellPilotOpts) -> CellPilotConfig {
        assert!(!placement.is_empty(), "need at least one rank for CP_MAIN");
        for n in &placement {
            assert!(n.0 < spec.nodes.len(), "placement names missing node {n}");
        }
        let mut cfg = CellPilotConfig {
            spec,
            placement,
            opts,
            tables: CpTables::default(),
            bodies: Vec::new(),
            next_rank: 1,
            spe_slots: HashMap::new(),
        };
        cfg.add_process(
            "main".into(),
            CpProcEntry {
                location: Location::Rank {
                    rank: 0,
                    node: cfg.placement[0],
                },
                index: 0,
                kind: ProcKind::Rank,
            },
            None,
        );
        cfg
    }

    /// Declare a process with CellPilot columns `entry` and, for a rank
    /// process, its `body`.
    fn add_process(
        &mut self,
        name: Arc<str>,
        entry: CpProcEntry,
        body: Option<RankBody>,
    ) -> CpProcess {
        self.tables.processes.push(entry);
        self.bodies.push(body);
        CpProcess(self.tables.decls.add_process(name))
    }

    /// Convenience: one application rank per cluster node.
    pub fn one_rank_per_node(spec: ClusterSpec, opts: CellPilotOpts) -> CellPilotConfig {
        let placement = (0..spec.nodes.len()).map(NodeId).collect();
        CellPilotConfig::new(spec, placement, opts)
    }

    /// Rank processes still creatable.
    pub fn processes_available(&self) -> usize {
        self.placement.len() - self.next_rank
    }

    /// `PI_CreateProcess`: a regular Pilot process on the next MPI rank.
    pub fn create_process<F>(&mut self, name: &str, index: i32, f: F) -> Result<CpProcess, CpError>
    where
        F: FnOnce(&CellPilot, i32) + Send + 'static,
    {
        if self.processes_available() == 0 {
            return Err(PilotError::TooManyProcesses {
                available: self.placement.len(),
            }
            .into());
        }
        let rank = self.next_rank;
        self.next_rank += 1;
        let entry = CpProcEntry {
            location: Location::Rank {
                rank,
                node: self.placement[rank],
            },
            index,
            kind: ProcKind::Rank,
        };
        Ok(self.add_process(name.into(), entry, Some(Box::new(f))))
    }

    /// `PI_CreateSPE`: an SPE process associated with `program`, parented
    /// by (and co-resident with) the PPE process `parent`. Dormant until
    /// the parent calls `run_spe` during execution.
    pub fn create_spe_process(
        &mut self,
        program: &SpeProgram,
        parent: CpProcess,
        index: i32,
    ) -> Result<CpProcess, CpError> {
        let pe = self
            .tables
            .processes
            .get(parent.0)
            .ok_or(PilotError::NoSuchProcess(parent.0))?;
        let node = match pe.location {
            Location::Rank { node, .. } => node,
            Location::Spe { .. } => {
                return Err(CpError::BadSpeParent {
                    parent: parent.0,
                    reason: "an SPE process cannot parent another SPE process".into(),
                })
            }
        };
        if !self.spec.nodes[node.0].is_cell() {
            return Err(CpError::BadSpeParent {
                parent: parent.0,
                reason: format!("{node} is not a Cell node"),
            });
        }
        let slot = self.spe_slots.entry(node).or_insert(0);
        let my_slot = *slot;
        *slot += 1;
        let entry = CpProcEntry {
            location: Location::Spe {
                node,
                slot: my_slot,
            },
            index,
            kind: ProcKind::Spe {
                program: program.clone(),
                parent,
            },
        };
        let name = format!("{}#{}", program.name(), index).into();
        Ok(self.add_process(name, entry, None))
    }

    /// Begin declaring a unidirectional channel between any two processes,
    /// whatever their locations — the single entry point for every Table-I
    /// type and both transports. Finish with [`ChannelBuilder::build`] (or
    /// [`ChannelBuilder::typed`] for an element-typed handle):
    ///
    /// ```no_run
    /// # fn demo(cfg: &mut cellpilot::CellPilotConfig,
    /// #         a: cellpilot::CpProcess, s: cellpilot::CpProcess)
    /// #         -> Result<(), cellpilot::CpError> {
    /// let relay = cfg.channel(a, s).build()?; // rendezvous (default)
    /// let fast = cfg.channel(a, s).one_sided().build()?; // window fabric
    /// let typed = cfg.channel(a, s).one_sided().typed::<f64>()?;
    /// # Ok(()) }
    /// ```
    pub fn channel(&mut self, from: CpProcess, to: CpProcess) -> ChannelBuilder<'_> {
        ChannelBuilder {
            cfg: self,
            from,
            to,
            mode: ChannelMode::Rendezvous,
            window: None,
            capacity: None,
            policy: OverloadPolicy::Block,
            eager: None,
            max_payload: None,
        }
    }

    #[allow(clippy::too_many_arguments)] // one field per builder knob
    fn finish_channel(
        &mut self,
        from: CpProcess,
        to: CpProcess,
        mode: ChannelMode,
        window: Option<(u32, u32)>,
        capacity: Option<usize>,
        policy: OverloadPolicy,
        eager: Option<usize>,
        max_payload: Option<usize>,
    ) -> Result<CpChannel, CpError> {
        let id = CpChannel(self.tables.decls.check_channel(from.0, to.0)?);
        let (fe, te) = (&self.tables.processes[from.0], &self.tables.processes[to.0]);
        let kind = classify(fe.location, te.location);
        if mode == ChannelMode::OneSided && !te.location.is_spe() {
            return Err(CpError::WindowMisuse {
                channel: id.0,
                detail: format!(
                    "one-sided channels land data in the reader's local store, \
                     but reader '{}' is rank-resident",
                    self.tables.name(to.0)
                ),
            });
        }
        if window.is_some() && mode != ChannelMode::OneSided {
            return Err(CpError::WindowMisuse {
                channel: id.0,
                detail: "window_at is only meaningful for one-sided channels \
                         (add .one_sided())"
                    .into(),
            });
        }
        if let Some((_, len)) = window {
            if len == 0 {
                return Err(CpError::WindowMisuse {
                    channel: id.0,
                    detail: "window length must be nonzero".into(),
                });
            }
        }
        let inline_max = crate::protocol::EAGER_INLINE_MAX;
        let bad_option = match (capacity, eager) {
            (Some(0), _) => Some(
                "capacity must be nonzero (a zero-credit channel can never accept a write)".into(),
            ),
            (_, Some(0)) => Some(
                "eager threshold must be nonzero (a zero-byte threshold inlines nothing: \
                 leave eager off)"
                    .into(),
            ),
            (_, Some(n)) if n > inline_max => Some(format!(
                "eager threshold of {n} bytes exceeds the {inline_max} one mailbox exchange carries"
            )),
            _ => None,
        };
        if let Some(detail) = bad_option {
            return Err(CpError::BadChannelOption {
                channel: id.0,
                detail,
            });
        }
        self.tables.decls.add_channel(from.0, to.0)?;
        self.tables.channels.push(CpChanEntry {
            kind,
            mode,
            window,
            capacity,
            policy,
            eager,
            max_payload,
        });
        Ok(id)
    }

    /// `PI_CreateBundle` (extension): group channels sharing a common
    /// endpoint — which may be a rank *or an SPE process* — for a
    /// collective usage. For broadcast the common endpoint is the single
    /// writer; for gather and select it is the single reader. Checked as
    /// Pilot's [`cp_pilot::DeclTable::add_bundle`] checks it.
    pub fn create_bundle(
        &mut self,
        usage: BundleUsage,
        channels: &[CpChannel],
    ) -> Result<CpBundle, CpError> {
        let members: Vec<usize> = channels.iter().map(|c| c.0).collect();
        let id = self.tables.decls.add_bundle(usage, &members)?;
        self.tables.coalesce.push(None);
        Ok(CpBundle(id))
    }

    /// Enable **vectored coalescing** on a broadcast bundle: consecutive
    /// small writes made through [`crate::CellPilot::coalescer`] are
    /// buffered and flushed as one batched wire envelope per destination
    /// Co-Pilot, either when `max_batch` writes have accumulated or when
    /// the oldest buffered write is `deadline_us` microseconds old (checked
    /// at the next write or explicit flush — the coalescer holds no
    /// timers).
    pub fn coalesce_bundle(
        &mut self,
        b: CpBundle,
        max_batch: usize,
        deadline_us: f64,
    ) -> Result<(), CpError> {
        // Coalescing batches the common writer's outgoing traffic.
        let op = "coalesce_bundle";
        self.tables
            .decls
            .bundle_op(b.0, op, BundleUsage::Broadcast, None)?;
        let misuse = |detail: &str| PilotError::BundleMisuse {
            bundle: b.0,
            detail: format!("{op}: {detail}"),
        };
        if max_batch == 0 {
            return Err(misuse("batch size must be nonzero").into());
        }
        if deadline_us.is_nan() || deadline_us <= 0.0 {
            return Err(misuse("deadline must be positive").into());
        }
        self.tables.coalesce[b.0] = Some(CoalescePolicy {
            max_batch,
            deadline_us,
        });
        Ok(())
    }

    /// The Table-I classification of a configured channel.
    pub fn channel_kind(&self, c: CpChannel) -> Option<crate::location::ChannelKind> {
        self.tables.channels.get(c.0).map(|e| e.kind)
    }

    /// The transport mode of a configured channel (rendezvous relay or
    /// one-sided window fabric).
    pub fn channel_mode(&self, c: CpChannel) -> Option<ChannelMode> {
        self.tables.channels.get(c.0).map(|e| e.mode)
    }

    /// Number of channels configured so far.
    pub fn channel_count(&self) -> usize {
        self.tables.channels.len()
    }

    /// Number of processes configured so far (including `CP_MAIN` and SPE
    /// processes).
    pub fn process_count(&self) -> usize {
        self.tables.processes.len()
    }

    /// The configured name of a process.
    pub fn process_name(&self, p: CpProcess) -> Option<&str> {
        (p.0 < self.process_count()).then(|| &**self.tables.name(p.0))
    }

    /// Summarize the configured architecture: one `(name, location
    /// description, channel count as writer, as reader)` row per process —
    /// handy for logging what `PI_StartAll` is about to launch.
    pub fn architecture_summary(&self) -> Vec<(String, String, usize, usize)> {
        let channels = self.tables.decls.channels();
        self.tables
            .processes
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let loc = match e.location {
                    Location::Rank { rank, node } => format!("rank {rank} on {node}"),
                    Location::Spe { node, slot } => format!("SPE process {slot} on {node}"),
                };
                let writes = channels.iter().filter(|c| c.from == i).count();
                let reads = channels.iter().filter(|c| c.to == i).count();
                (self.tables.name(i).to_string(), loc, writes, reads)
            })
            .collect()
    }

    /// Run the `cp-check` configure-time passes — the wiring verifier and
    /// the progress analyzer — over the architecture configured so far.
    /// The typed API already rules much of the CP0xx catalogue out by
    /// construction (dangling endpoints, self-channels, bundle-common
    /// mismatches), so what can surface here is what only a whole-graph
    /// view sees — SPE slot oversubscription (CP006), bundles mixing
    /// rendezvous classes (CP008) — plus the CP2xx progress hazards:
    /// credit-deadlock cycles of Block-bounded channels (CP201), Co-Pilot
    /// relay saturation against
    /// [`CellPilotCosts::copilot_service_budget_us`] (CP202),
    /// eager-inlining advice on channels with a small
    /// [`ChannelBuilder::max_payload`] promise (CP203), and
    /// fence-unsatisfiable one-sided configs (CP204). The configured
    /// [`CellPilotOpts::lint_config`] is applied before returning, so
    /// `Allow`ed, suppressed and baselined findings are already gone and
    /// `Deny`ed ones arrive as errors. Called automatically by `run` when
    /// [`CellPilotOpts::checks`] is set; public so harnesses can lint
    /// without running.
    pub fn check(&self) -> Vec<cp_check::Diagnostic> {
        let mut g = cp_check::WiringGraph::new(self.placement.len());
        for (i, kind) in self.spec.nodes.iter().enumerate() {
            if let cp_simnet::NodeKind::Cell { spes } = kind {
                g.add_cell_node(i, *spes);
                // The runtime launches one Co-Pilot per Cell node, so
                // every Cell node can proxy SPE traffic.
                g.add_copilot(i);
            }
        }
        for (p, e) in self.tables.processes.iter().enumerate() {
            let name = self.tables.name(p);
            match e.location {
                Location::Rank { rank, node } => {
                    g.add_rank_process(name, rank, node.0);
                }
                Location::Spe { node, slot } => {
                    g.add_spe_process(name, node.0, slot);
                }
            }
        }
        self.tables.decls.wire(&mut g);
        // Flow-control declarations for the CP013 lint. Strict runs opt
        // into the unbounded-channel advisory (it is only a warning, never
        // an abort).
        g.set_flow_strict(self.opts.strict_checks);
        for (i, c) in self.tables.channels.iter().enumerate() {
            g.set_channel_flow(
                i,
                c.capacity,
                c.policy == crate::flow::OverloadPolicy::Block,
            );
        }
        // Eager thresholds for CP202–CP204, payload promises for the CP203
        // advisory.
        for (i, c) in self.tables.channels.iter().enumerate() {
            if let Some(threshold) = c.eager {
                g.set_channel_eager(i, threshold);
            }
            if let Some(bound) = c.max_payload {
                g.set_channel_max_payload(i, bound);
            }
        }
        // The CP202 relay-saturation estimate runs against this config's
        // cost model and service budget.
        g.set_relay_costs(cp_check::RelayCostModel {
            dispatch_us: self.opts.costs.copilot_dispatch_us,
            pair_poll_us: self.opts.costs.copilot_pair_poll_us,
            eager_dispatch_us: self.opts.costs.copilot_eager_dispatch_us,
            service_budget_us: self.opts.costs.copilot_service_budget_us,
        });
        // One-sided channels and their windows. Explicit `window_at`
        // placements are declared verbatim (CP011 catches user-chosen
        // overlaps); runtime-allocated windows get synthetic stacked
        // placements high above any plausible explicit offset — the
        // allocator cannot overlap by construction, and CP012 still sees
        // that the reader has a window.
        const AUTO_WINDOW_BASE: u32 = 0x1000_0000;
        let mut auto_next: HashMap<(usize, usize), u32> = HashMap::new();
        for (i, c) in self.tables.channels.iter().enumerate() {
            if c.mode != ChannelMode::OneSided {
                continue;
            }
            g.mark_one_sided(i);
            if let Location::Spe { node, slot } =
                self.tables.processes[self.tables.ends(i).to].location
            {
                let len = c
                    .window
                    .map(|(_, l)| l)
                    .unwrap_or(self.opts.costs.spe_read_buffer as u32);
                let start = match c.window {
                    Some((s, _)) => s,
                    None => {
                        let next = auto_next.entry((node.0, slot)).or_insert(AUTO_WINDOW_BASE);
                        let s = *next;
                        *next += len;
                        s
                    }
                };
                g.add_window(i, node.0, slot, start, len);
            }
        }
        for (i, policy) in self.tables.coalesce.iter().enumerate() {
            if let Some(cp) = policy {
                g.set_bundle_coalesce(i, cp.max_batch);
            }
        }
        let mut diags = cp_check::verify(&g);
        diags.extend(cp_check::analyze(&g));
        self.opts.lint_config.apply(diags)
    }

    /// `PI_StartAll` + `PI_StopMain`: run the execution phase.
    pub fn run<M>(self, main: M) -> Result<SimReport, SimError>
    where
        M: FnOnce(&CellPilot) + Send + 'static,
    {
        let lints = if self.opts.checks {
            self.check()
        } else {
            Vec::new()
        };
        if self.opts.strict_checks && lints.iter().any(|d| d.is_error()) {
            return Err(SimError::Aborted {
                pid: 0,
                name: "cp-check".into(),
                message: cp_check::render(&lints),
            });
        }
        if self.opts.backend == Backend::Native
            && (self.opts.faults.is_some() || self.opts.supervision.is_some())
        {
            return Err(SimError::Aborted {
                pid: 0,
                name: "cellpilot-config".into(),
                message: "fault injection and supervision are sim-only: fault plans script \
                          virtual-time events the native backend has no clock for \
                          (run with Backend::Sim)"
                    .into(),
            });
        }
        let CellPilotConfig {
            spec,
            mut placement,
            opts,
            mut tables,
            bodies,
            next_rank: _,
            spe_slots: _,
        } = self;
        // The race detector consumes the happens-before stream: piggyback
        // on the observability recorder when one is attached, otherwise
        // record on a private one so enabling checks needs no tracing.
        let hb_rec = if opts.checks {
            if opts.tracing.is_enabled() {
                opts.tracing.clone()
            } else {
                Recorder::enabled()
            }
        } else {
            Recorder::disabled()
        };
        let cluster = spec.build();
        let faults = opts
            .faults
            .clone()
            .unwrap_or_else(|| Arc::new(FaultPlan::new()));
        // One Co-Pilot rank per Cell node, appended after the app ranks.
        // BTreeMap: Co-Pilot spawn order (and hence pid assignment) must be
        // deterministic for run-to-run reproducibility.
        let mut copilot_ranks = BTreeMap::new();
        for (i, hw) in cluster.nodes.iter().enumerate() {
            if hw.kind.is_cell() {
                copilot_ranks.insert(NodeId(i), placement.len());
                placement.push(NodeId(i));
            }
        }
        // A standby Co-Pilot rank for each node whose primary the fault
        // plan kills, appended after the primaries. Healthy runs (and the
        // golden traces recovery is measured against) allocate none.
        let mut standby_ranks = BTreeMap::new();
        for &node in copilot_ranks.keys() {
            if faults.copilot_kill_of(node).is_some() {
                standby_ranks.insert(node, placement.len());
                placement.push(node);
            }
        }
        // The deadlock-detection service, if enabled, takes one more rank
        // after the Co-Pilots. It is pure bookkeeping, so its host node
        // does not matter; node 0 always exists.
        let detector_rank = if opts.deadlock_detection {
            let r = placement.len();
            placement.push(NodeId(0));
            Some(r)
        } else {
            None
        };
        tables.copilot_ranks = copilot_ranks.clone();
        tables.standby_ranks = standby_ranks.clone();
        tables.detector_rank = detector_rank;
        let tables = Arc::new(tables);
        let mut node_shared = HashMap::new();
        for (i, hw) in cluster.nodes.iter().enumerate() {
            if let Some(cell) = &hw.cell {
                let ns = NodeShared::new(cell.clone());
                if opts.tracing.is_enabled() {
                    ns.hb.set_recorder(opts.tracing.clone());
                }
                if hb_rec.is_enabled() {
                    ns.cell.set_recorder(hb_rec.clone());
                    ns.set_hb_recorder(hb_rec.clone());
                }
                node_shared.insert(NodeId(i), ns);
            }
        }
        let shared = Arc::new(AppShared {
            flow: FlowControl::new(tables.channels.iter().map(|c| c.capacity)),
            tables: tables.clone(),
            cluster: cluster.clone(),
            fabric: cp_simnet::WindowFabric::new(),
            put_seqs: Mutex::new(HashMap::new()),
            node_shared,
            costs: opts.costs.clone(),
            pilot_costs: opts.pilot_costs.clone(),
            running_spes: Mutex::new(HashSet::new()),
            channel_timeout: opts.channel_timeout,
            faults: faults.clone(),
            supervision: opts.supervision,
            failed_spes: Mutex::new(HashSet::new()),
            journals: Mutex::new(HashMap::new()),
            copilot_route: Mutex::new(copilot_ranks.clone()),
            recorder: opts.tracing.clone(),
        });
        let world = MpiWorld::with_faults(
            cluster,
            placement,
            opts.mpi_costs.clone(),
            faults,
            opts.retry,
        );
        world.set_recorder(opts.tracing.clone());
        let mut sim = Runner::for_backend(opts.backend);
        sim.set_schedule_seed(opts.schedule_seed);
        if let Some(limit) = opts.time_limit {
            sim.set_time_limit(cp_des::SimTime(limit.as_nanos()));
        }
        sim.set_recorder(opts.tracing.clone());
        // Application rank processes.
        for (pidx, body) in bodies.into_iter().enumerate() {
            let Some(f) = body else { continue };
            let entry = &tables.processes[pidx];
            let Location::Rank { rank, .. } = entry.location else {
                unreachable!("bodies exist only for rank processes")
            };
            let name = tables.name(pidx).clone();
            let index = entry.index;
            let shared = shared.clone();
            world.launch(&mut sim, rank, &name, move |comm| {
                let cp = CellPilot::new(comm, shared, CpProcess(pidx));
                f(&cp, index);
                cp.finish();
            });
        }
        // Main.
        {
            let shared = shared.clone();
            world.launch(&mut sim, 0, "main", move |comm| {
                // Non-strict wiring findings surface as incidents before
                // the application body runs, stamped at t=0.
                for d in &lints {
                    comm.ctx()
                        .report_incident(IncidentCategory::WiringLint, &d.to_string());
                }
                let cp = CellPilot::new(comm, shared, CpProcess(0));
                main(&cp);
                cp.finish();
            });
        }
        // Co-Pilots.
        for (node, rank) in copilot_ranks {
            let (w, s) = (world.clone(), shared.clone());
            world.launch_async(&mut sim, rank, &format!("copilot{}", node.0), move |comm| {
                copilot::copilot_body(comm, w, s, node)
            });
        }
        // Standby Co-Pilots (only for nodes with a scripted primary kill).
        for (node, rank) in standby_ranks {
            let (w, s) = (world.clone(), shared.clone());
            let name = format!("copilot{}-standby", node.0);
            world.launch_async(&mut sim, rank, &name, move |comm| {
                copilot::standby_body(comm, w, s, node)
            });
        }
        // Deadlock-detection service.
        if let Some(det_rank) = tables.detector_rank {
            let expected = cp_pilot::finishers(&shared.faults, tables.app_ranks());
            world.launch_async(&mut sim, det_rank, "cp-deadlock-svc", move |comm| {
                cp_pilot::detector(comm, expected, |ep| ep.to_string())
            });
        }
        let mut report = sim.run()?;
        // Post-run race analysis over the recorded happens-before stream.
        // Races never abort, even in strict mode: they are findings about
        // the run that just completed. Sim-only (CP101): the detector
        // orders accesses by virtual timestamps, which the native backend
        // does not have — wall-clock stamps would fabricate orderings.
        if hb_rec.is_enabled() && opts.backend == Backend::Sim {
            for d in cp_check::detect_races(&hb_rec.hb_events()) {
                report.incidents.push(Incident {
                    at: report.end_time,
                    process: "cp-check".into(),
                    category: IncidentCategory::DmaRace,
                    detail: d.to_string(),
                });
            }
        }
        Ok(report)
    }
}

/// In-progress channel declaration returned by [`CellPilotConfig::channel`]
/// — the unified construction API covering every Table-I endpoint pairing
/// and both transports.
///
/// Defaults to [`ChannelMode::Rendezvous`] (the Co-Pilot relay every
/// channel supports). Switch to the one-sided window fabric with
/// [`ChannelBuilder::one_sided`], optionally pinning the reader-side
/// window placement with [`ChannelBuilder::window_at`], and finish with
/// [`ChannelBuilder::build`] or [`ChannelBuilder::typed`].
#[must_use = "a ChannelBuilder does nothing until .build() or .typed()"]
pub struct ChannelBuilder<'a> {
    cfg: &'a mut CellPilotConfig,
    from: CpProcess,
    to: CpProcess,
    mode: ChannelMode,
    window: Option<(u32, u32)>,
    capacity: Option<usize>,
    policy: OverloadPolicy,
    eager: Option<usize>,
    max_payload: Option<usize>,
}

impl ChannelBuilder<'_> {
    /// Select the transport mode explicitly.
    pub fn kind(mut self, mode: ChannelMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `.kind(ChannelMode::OneSided)`: writes land directly
    /// in a window of the reading SPE's EA-mapped local store over the
    /// window fabric — one hop, no Co-Pilot relay buffering. The reader
    /// must be an SPE process.
    pub fn one_sided(self) -> Self {
        self.kind(ChannelMode::OneSided)
    }

    /// Pin the one-sided window to an explicit local-store placement
    /// `(ls_offset, len)` instead of letting the runtime allocate it.
    /// Explicit placements are checked for overlap by the `cp-check`
    /// wiring verifier (CP011).
    pub fn window_at(mut self, ls_offset: u32, len: u32) -> Self {
        self.window = Some((ls_offset, len));
        self
    }

    /// Bound the channel to at most `max_in_flight` undrained messages.
    ///
    /// A write that would exceed the bound engages the channel's
    /// [`OverloadPolicy`] (default [`OverloadPolicy::Block`]: the sender
    /// waits for the reader to drain a message and return a send credit).
    /// The bound covers the whole pipeline — relay queues, mailboxes, the
    /// one-sided window fabric — not any single hop. Unbounded without
    /// this call. `max_in_flight` must be nonzero.
    ///
    /// ```no_run
    /// # fn demo(cfg: &mut cellpilot::CellPilotConfig,
    /// #         a: cellpilot::CpProcess, s: cellpilot::CpProcess)
    /// #         -> Result<(), cellpilot::CpError> {
    /// use cellpilot::OverloadPolicy;
    /// let bounded = cfg.channel(a, s)
    ///     .capacity(8)                          // ≤ 8 messages in flight
    ///     .overload_policy(OverloadPolicy::Shed) // senders shed when full
    ///     .build()?;
    /// # Ok(()) }
    /// ```
    pub fn capacity(mut self, max_in_flight: usize) -> Self {
        self.capacity = Some(max_in_flight);
        self
    }

    /// Select what a sender does when the channel is at its
    /// [`ChannelBuilder::capacity`] (default [`OverloadPolicy::Block`]).
    /// Meaningless without a capacity — the `cp-check` wiring verifier
    /// flags that combination as CP013.
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable **eager inlining** at the default threshold (the mailbox-word
    /// capacity, `EAGER_INLINE_MAX` = 16 bytes): packed
    /// payloads at or below the threshold ride the existing mailbox/control
    /// word instead of a separate DMA round trip, cutting per-message
    /// protocol cost for small messages. Off by default — existing
    /// channels keep their rendezvous schedules byte-identical.
    ///
    /// Wire-seq exactly-once dedup and credit accounting are unaffected:
    /// eager transfers acquire and release the same credits and dedup
    /// state as rendezvous ones.
    pub fn eager(self) -> Self {
        let t = crate::protocol::EAGER_INLINE_MAX;
        self.eager_threshold(t)
    }

    /// Declare the largest packed payload (bytes) the application will
    /// ever send on this channel. Purely an analysis hint: the `cp-check`
    /// progress analyzer's CP203 advisory keys off it (a channel that
    /// always fits the mailbox inline capacity but is left non-eager is
    /// paying a DMA round trip per message for nothing). The runtime does
    /// not enforce the bound.
    pub fn max_payload(mut self, bytes: usize) -> Self {
        self.max_payload = Some(bytes);
        self
    }

    /// Enable eager inlining with an explicit byte threshold, from 1 to
    /// `EAGER_INLINE_MAX` (16, what one mailbox exchange carries):
    /// [`ChannelBuilder::build`] rejects any other value with an
    /// [`crate::ErrorKind::Config`] error.
    pub fn eager_threshold(mut self, threshold: usize) -> Self {
        self.eager = Some(threshold);
        self
    }

    /// Validate and register the channel.
    ///
    /// Consumes the builder, so a declaration cannot be registered twice
    /// — build-after-build is a compile error, not a runtime one:
    ///
    /// ```compile_fail
    /// # use cellpilot::{CellPilotConfig, CellPilotOpts, CP_MAIN};
    /// # use cp_simnet::ClusterSpec;
    /// let mut cfg = CellPilotConfig::one_rank_per_node(
    ///     ClusterSpec::two_cells_one_xeon(),
    ///     CellPilotOpts::default(),
    /// );
    /// let peer = cfg.create_process("peer", 0, |_, _| {}).unwrap();
    /// let b = cfg.channel(CP_MAIN, peer);
    /// let first = b.build();
    /// let second = b.build(); // error: use of moved value `b`
    /// ```
    pub fn build(self) -> Result<CpChannel, CpError> {
        self.cfg.finish_channel(
            self.from,
            self.to,
            self.mode,
            self.window,
            self.capacity,
            self.policy,
            self.eager,
            self.max_payload,
        )
    }

    /// Validate and register the channel, returning an element-typed
    /// handle whose [`crate::CellPilot::send`]/[`crate::CellPilot::recv`]
    /// (and the SPE-side equivalents) fix the element type at compile
    /// time.
    pub fn typed<T: cp_pilot::PiScalar>(self) -> Result<TypedChannel<T>, CpError> {
        Ok(TypedChannel {
            chan: self.build()?,
            _elem: std::marker::PhantomData,
        })
    }
}

/// An element-typed channel handle from [`ChannelBuilder::typed`]: the
/// same [`CpChannel`] underneath, plus a compile-time element type so
/// `send`/`recv` cannot disagree about the payload scalar.
pub struct TypedChannel<T> {
    chan: CpChannel,
    _elem: std::marker::PhantomData<fn() -> T>,
}

impl<T> Clone for TypedChannel<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TypedChannel<T> {}

impl<T> std::fmt::Debug for TypedChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TypedChannel({})", self.chan.0)
    }
}

impl<T> TypedChannel<T> {
    /// The untyped channel handle underneath.
    pub fn channel(&self) -> CpChannel {
        self.chan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::ChannelKind;

    fn cfg() -> CellPilotConfig {
        CellPilotConfig::one_rank_per_node(
            ClusterSpec::two_cells_one_xeon(),
            CellPilotOpts::default(),
        )
    }

    #[test]
    fn spe_parent_must_be_on_cell_node() {
        let mut c = cfg();
        let _a = c.create_process("ppe1", 0, |_, _| {}).unwrap(); // node 1 (Cell)
        let xeon = c.create_process("xeon", 0, |_, _| {}).unwrap(); // node 2
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        match c.create_spe_process(&prog, xeon, 0) {
            Err(CpError::BadSpeParent { reason, .. }) => {
                assert!(reason.contains("not a Cell node"))
            }
            other => panic!("expected BadSpeParent, got {other:?}"),
        }
    }

    #[test]
    fn spe_cannot_parent_spe() {
        let mut c = cfg();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s1 = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        assert!(matches!(
            c.create_spe_process(&prog, s1, 1),
            Err(CpError::BadSpeParent { .. })
        ));
    }

    #[test]
    fn channels_classified_at_creation() {
        let mut c = cfg();
        let ppe1 = c.create_process("ppe1", 0, |_, _| {}).unwrap(); // node1
        let xeon = c.create_process("xeon", 0, |_, _| {}).unwrap(); // node2
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s_main = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap(); // node0
        let s_main2 = c.create_spe_process(&prog, crate::CP_MAIN, 1).unwrap(); // node0
        let s_ppe1 = c.create_spe_process(&prog, ppe1, 0).unwrap(); // node1

        let t1 = c.channel(crate::CP_MAIN, ppe1).build().unwrap();
        let t2 = c.channel(crate::CP_MAIN, s_main).build().unwrap();
        let t3 = c.channel(xeon, s_main2).build().unwrap();
        let t4 = c.channel(s_main, s_main2).build().unwrap();
        let t5 = c.channel(s_main, s_ppe1).build().unwrap();
        assert_eq!(c.channel_kind(t1), Some(ChannelKind::Type1));
        assert_eq!(c.channel_kind(t2), Some(ChannelKind::Type2));
        assert_eq!(c.channel_kind(t3), Some(ChannelKind::Type3));
        assert_eq!(c.channel_kind(t4), Some(ChannelKind::Type4));
        assert_eq!(c.channel_kind(t5), Some(ChannelKind::Type5));
        // Every channel defaults to the rendezvous relay.
        for t in [t1, t2, t3, t4, t5] {
            assert_eq!(c.channel_mode(t), Some(ChannelMode::Rendezvous));
        }
    }

    #[test]
    fn builder_constructs_one_sided_channels() {
        let mut c = cfg();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        let ch = c.channel(crate::CP_MAIN, s).one_sided().build().unwrap();
        assert_eq!(c.channel_mode(ch), Some(ChannelMode::OneSided));
        assert_eq!(c.channel_kind(ch), Some(ChannelKind::Type2));
        let typed = c
            .channel(crate::CP_MAIN, s)
            .one_sided()
            .typed::<f64>()
            .unwrap();
        assert_eq!(c.channel_mode(typed.channel()), Some(ChannelMode::OneSided));
    }

    #[test]
    fn one_sided_reader_must_be_an_spe() {
        let mut c = cfg();
        let ppe1 = c.create_process("ppe1", 0, |_, _| {}).unwrap();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        match c.channel(s, ppe1).one_sided().build() {
            Err(CpError::WindowMisuse { detail, .. }) => {
                assert!(detail.contains("rank-resident"), "{detail}")
            }
            other => panic!("expected WindowMisuse, got {other:?}"),
        }
    }

    #[test]
    fn window_at_requires_one_sided_and_nonzero_len() {
        let mut c = cfg();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        assert!(matches!(
            c.channel(crate::CP_MAIN, s).window_at(0, 256).build(),
            Err(CpError::WindowMisuse { .. })
        ));
        assert!(matches!(
            c.channel(crate::CP_MAIN, s)
                .one_sided()
                .window_at(0, 0)
                .build(),
            Err(CpError::WindowMisuse { .. })
        ));
        let ch = c
            .channel(crate::CP_MAIN, s)
            .one_sided()
            .window_at(4096, 256)
            .build()
            .unwrap();
        assert_eq!(c.channel_mode(ch), Some(ChannelMode::OneSided));
    }

    #[test]
    fn builder_negative_paths_have_stable_error_kinds() {
        // Downstream code dispatches on `CpError::kind()`, not the variant
        // — every builder misuse must keep classifying as Config.
        let mut c = cfg();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        let ppe1 = c.create_process("ppe1", 0, |_, _| {}).unwrap();
        let cases: [Result<CpChannel, CpError>; 3] = [
            // one-sided with a rank-resident reader
            c.channel(s, ppe1).one_sided().build(),
            // window placement on a rendezvous channel
            c.channel(crate::CP_MAIN, s).window_at(0, 256).build(),
            // zero-length window
            c.channel(crate::CP_MAIN, s)
                .one_sided()
                .window_at(0, 0)
                .build(),
        ];
        for (i, case) in cases.into_iter().enumerate() {
            let err = case.expect_err("case {i} must be rejected");
            assert!(
                matches!(err, CpError::WindowMisuse { .. }),
                "case {i}: expected WindowMisuse, got {err:?}"
            );
            assert_eq!(err.kind(), crate::ErrorKind::Config, "case {i}");
        }
        // Misuse does not consume a channel id: the next declaration still
        // gets id 0.
        assert_eq!(c.channel(crate::CP_MAIN, s).build().unwrap(), CpChannel(0));
    }

    /// Build a main-to-SPE channel with `option` set: it fails as a
    /// Config error whose text is `text`, and consumes no channel id.
    fn assert_bad_option(option: impl FnOnce(ChannelBuilder) -> ChannelBuilder, text: &str) {
        let mut c = cfg();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        let err = option(c.channel(crate::CP_MAIN, s)).build().unwrap_err();
        assert!(matches!(err, CpError::BadChannelOption { channel: 0, .. }));
        assert_eq!(err.kind(), crate::ErrorKind::Config);
        assert_eq!(err.to_string(), text);
        assert_eq!(c.channel(crate::CP_MAIN, s).build().unwrap(), CpChannel(0));
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert_bad_option(
            |b| b.capacity(0),
            "channel 0: invalid option: capacity must be nonzero (a zero-credit \
             channel can never accept a write)",
        );
    }

    #[test]
    fn zero_eager_threshold_is_rejected() {
        assert_bad_option(
            |b| b.eager_threshold(0),
            "channel 0: invalid option: eager threshold must be nonzero (a \
             zero-byte threshold inlines nothing: leave eager off)",
        );
    }

    #[test]
    fn eager_threshold_above_the_mailbox_is_rejected() {
        assert_bad_option(
            |b| b.eager_threshold(crate::protocol::EAGER_INLINE_MAX + 1),
            "channel 0: invalid option: eager threshold of 17 bytes exceeds the 16 \
             one mailbox exchange carries",
        );
        // The bounds themselves hold.
        let mut c = cfg();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        for n in [1, crate::protocol::EAGER_INLINE_MAX] {
            c.channel(crate::CP_MAIN, s)
                .eager_threshold(n)
                .build()
                .unwrap();
        }
    }

    #[test]
    fn check_flags_overlapping_explicit_windows() {
        let mut c = cfg();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        let ppe1 = c.create_process("ppe1", 0, |_, _| {}).unwrap();
        c.channel(crate::CP_MAIN, s)
            .one_sided()
            .window_at(4096, 512)
            .build()
            .unwrap();
        c.channel(ppe1, s)
            .one_sided()
            .window_at(4300, 512)
            .build()
            .unwrap();
        let diags = c.check();
        assert!(
            diags.iter().any(|d| d.code.as_str() == "CP011"),
            "expected CP011 among {diags:?}"
        );
    }

    #[test]
    fn check_is_clean_for_auto_allocated_windows() {
        let mut c = cfg();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        let ppe1 = c.create_process("ppe1", 0, |_, _| {}).unwrap();
        c.channel(crate::CP_MAIN, s).one_sided().build().unwrap();
        c.channel(ppe1, s).one_sided().build().unwrap();
        assert!(c.check().is_empty(), "{:?}", c.check());
    }

    #[test]
    fn introspection_reports_the_architecture() {
        let mut c = cfg();
        let ppe1 = c.create_process("worker", 0, |_, _| {}).unwrap();
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = c.create_spe_process(&prog, crate::CP_MAIN, 0).unwrap();
        c.channel(crate::CP_MAIN, ppe1).build().unwrap();
        c.channel(s, ppe1).build().unwrap();
        assert_eq!(c.process_count(), 3);
        assert_eq!(c.channel_count(), 2);
        assert_eq!(c.process_name(ppe1), Some("worker"));
        assert_eq!(c.process_name(CpProcess(99)), None);
        let rows = c.architecture_summary();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "main");
        assert!(rows[0].1.contains("rank 0"));
        assert_eq!((rows[0].2, rows[0].3), (1, 0));
        assert!(rows[2].1.contains("SPE process 0"));
        assert_eq!((rows[1].2, rows[1].3), (0, 2), "worker reads both channels");
    }

    #[test]
    fn rejected_bundle_marks_no_channel() {
        let mut c = cfg();
        let a = c.create_process("a", 0, |_, _| {}).unwrap();
        let b = c.create_process("b", 0, |_, _| {}).unwrap();
        let c1 = c.channel(crate::CP_MAIN, a).build().unwrap();
        let c2 = c.channel(crate::CP_MAIN, b).build().unwrap();
        let usage = BundleUsage::Broadcast;
        assert_eq!(c.create_bundle(usage, &[c2]), Ok(CpBundle(0)));
        let bundled = |ch: CpChannel| Err(CpError::Pilot(PilotError::ChannelAlreadyBundled(ch.0)));
        assert_eq!(c.create_bundle(usage, &[c1, c2]), bundled(c2));
        assert_eq!(c.create_bundle(usage, &[c1, c1]), bundled(c1));
        // Neither rejected bundle left c1 marked.
        assert_eq!(c.create_bundle(usage, &[c1]), Ok(CpBundle(1)));
    }

    #[test]
    fn rank_exhaustion() {
        let mut c = cfg();
        c.create_process("a", 0, |_, _| {}).unwrap();
        c.create_process("b", 0, |_, _| {}).unwrap();
        assert!(matches!(
            c.create_process("c", 0, |_, _| {}),
            Err(CpError::Pilot(PilotError::TooManyProcesses { .. }))
        ));
        // But SPE processes are unlimited by ranks.
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        for i in 0..10 {
            c.create_spe_process(&prog, crate::CP_MAIN, i).unwrap();
        }
    }
}
