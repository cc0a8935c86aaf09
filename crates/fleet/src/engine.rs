//! The fleet engine: epoch-synchronized execution over N nodes with a
//! bounded-admission front door and a fault-tolerant routing loop.
//!
//! # Determinism rules
//!
//! Two runs of the same configuration are byte-identical because:
//!
//! 1. **Routing is sequential.** All routing decisions happen on the
//!    coordinator at epoch boundaries, in trace order, against node
//!    views snapshotted in `NodeId` order.
//! 2. **Node stepping is independent.** Between boundaries each node
//!    advances its own `System` to the same horizon, one node after
//!    another in `NodeId` order; nodes share no state, and each has its
//!    own telemetry hub.
//! 3. **Merging is ordered.** Summaries and the fleet journal are
//!    assembled in `NodeId` order; timestamps are simulation-time only.
//! 4. **Faults are coordinator-side.** The [`NodeFaultPlan`] is sampled
//!    on the coordinator at boundaries (fixed draw count per node per
//!    epoch), health observation and re-dispatch run sequentially there
//!    too, and a node's dead/stalled flags only change at boundaries —
//!    so the failure schedule, the fencing sequence, and every
//!    re-dispatch decision are a function of the seed alone.
//!
//! # Boundary order
//!
//! At each epoch boundary the coordinator runs, in this order: health
//! observation (heartbeats from the step that just ended, fencing and
//! draining dead nodes), fault firing (new crashes/stalls/degrades),
//! re-dispatch of drained jobs, then new arrivals. A run with no fault
//! plan (or an all-zero one) takes exactly the pre-resilience path:
//! every resilience hook is a no-op and the results are bit-identical.

use crate::health::{HealthConfig, HealthState, HealthTransition, NodeFaultKind, NodeFaultPlan};
use crate::node::{Node, NodeConfig, NodeId, NodeSummary, NodeView};
use crate::redispatch::{CompletionLedger, JobId, RedispatchQueue, RedispatchStats, TrackedJob};
use crate::routing::{HealthGated, JobView, RoutingPolicy};
use avfs_core::daemon::DaemonStats;
use avfs_sim::time::{SimDuration, SimTime};
use avfs_telemetry::{Telemetry, TraceKind, Value};
use avfs_workloads::{IntensityClass, WorkloadTrace};
use std::collections::BTreeSet;

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The nodes, in `NodeId` order.
    pub nodes: Vec<NodeConfig>,
    /// Epoch length: arrivals are admitted at epoch boundaries and all
    /// nodes synchronize on the boundary clock.
    pub epoch: SimDuration,
    /// When true, the coordinator and every node get a telemetry hub and
    /// the run exports a merged fleet journal.
    pub telemetry: bool,
    /// Node-failure schedule; `None` (or an all-zero plan) reproduces
    /// the failure-free engine bit for bit.
    pub fault_plan: Option<NodeFaultPlan>,
    /// Thresholds of the per-node health machine.
    pub health: HealthConfig,
    /// Boundaries a drained job may fail to find a node before it is
    /// shed as exhausted.
    pub retry_budget: u32,
    /// When true, the run records an [`EpochAudit`] at every boundary
    /// (the per-epoch conservation ledger the proptests assert).
    pub audit: bool,
}

impl FleetConfig {
    /// A fleet over the given nodes with 1 s epochs, telemetry off, and
    /// no fault injection.
    pub fn new(nodes: Vec<NodeConfig>) -> Self {
        FleetConfig {
            nodes,
            epoch: SimDuration::from_secs(1),
            telemetry: false,
            fault_plan: None,
            health: HealthConfig::default(),
            retry_budget: 3,
            audit: false,
        }
    }
}

/// Front-door admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Jobs that reached the front door.
    pub submitted: u64,
    /// Jobs admitted to some node.
    pub admitted: u64,
    /// Jobs shed because the chosen node (or every node) was at its
    /// admission bound.
    pub shed_full: u64,
    /// Jobs shed because the policy declined or named an unknown,
    /// fenced, or excluded node.
    pub shed_unroutable: u64,
}

impl AdmissionStats {
    /// Total jobs shed.
    pub fn shed(&self) -> u64 {
        self.shed_full + self.shed_unroutable
    }
}

/// Why one front-door job was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShedReason {
    Declined,
    UnknownNode,
    Full,
    Fenced,
    Origin,
}

impl ShedReason {
    fn label(self) -> &'static str {
        match self {
            ShedReason::Declined => "declined",
            ShedReason::UnknownNode => "unknown-node",
            ShedReason::Full => "full",
            ShedReason::Fenced => "fenced",
            ShedReason::Origin => "origin",
        }
    }
}

/// Node-fault events the engine actually applied (the plan may emit
/// events for already-dead nodes; those are ignored and not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppliedFaults {
    /// Nodes crashed (permanently dead).
    pub crashes: u64,
    /// Stall windows opened.
    pub stalls: u64,
    /// Nodes degraded (chip pessimized, descriptor re-characterized).
    pub degrades: u64,
}

impl AppliedFaults {
    /// Total applied fault events.
    pub fn total(&self) -> u64 {
        self.crashes + self.stalls + self.degrades
    }
}

/// One epoch boundary's conservation ledger, recorded when
/// [`FleetConfig::audit`] is on — after routing, before stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochAudit {
    /// Which boundary.
    pub epoch: u64,
    /// Front-door jobs submitted so far.
    pub submitted: u64,
    /// Front-door jobs admitted so far.
    pub admitted: u64,
    /// Front-door jobs shed so far.
    pub shed: u64,
    /// Jobs completed on some node so far.
    pub completed: u64,
    /// Jobs currently live on nodes (stranded jobs on a drained dead
    /// node are counted in `queued` instead).
    pub live_on_nodes: u64,
    /// Jobs awaiting re-dispatch.
    pub queued: u64,
    /// Drained jobs shed as exhausted so far.
    pub exhausted: u64,
}

impl EpochAudit {
    /// The per-epoch conservation invariant: every admitted job is
    /// completed, live somewhere, queued for re-dispatch, or exhausted.
    pub fn holds(&self) -> bool {
        self.admitted == self.completed + self.live_on_nodes + self.queued + self.exhausted
    }
}

/// A cluster of simulated nodes behind one admission front door.
#[derive(Debug)]
pub struct Fleet {
    nodes: Vec<Node>,
    epoch: SimDuration,
    telemetry: Telemetry,
    plan: Option<NodeFaultPlan>,
    health_cfg: HealthConfig,
    retry_budget: u32,
    audit: bool,
    queue: RedispatchQueue,
    redispatch: RedispatchStats,
    faults: AppliedFaults,
    admitted_ids: BTreeSet<u64>,
    exhausted_ids: BTreeSet<u64>,
    next_job: u64,
    audits: Vec<EpochAudit>,
    /// Reused routing-view buffer: `try_place` runs once per routed job
    /// (plus once per queued job per boundary), so the view set is
    /// rebuilt in place instead of collected fresh each time.
    view_scratch: Vec<NodeView>,
}

impl Fleet {
    /// Starts a [`FleetBuilder`] — the blessed construction path:
    ///
    /// ```
    /// use avfs_fleet::{Fleet, NodeConfig, NodeKind};
    ///
    /// let fleet = Fleet::builder()
    ///     .node(NodeConfig::new(NodeKind::XGene2, 42))
    ///     .node(NodeConfig::new(NodeKind::XGene3, 43))
    ///     .build();
    /// assert_eq!(fleet.len(), 2);
    /// ```
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            config: FleetConfig::new(Vec::new()),
        }
    }

    /// Builds the fleet: every node gets its own chip, driver, seed, and
    /// (when enabled) telemetry hub; drivers observe their first monitor
    /// tick immediately.
    fn from_config(config: &FleetConfig) -> Self {
        let coordinator = if config.telemetry {
            Telemetry::hub()
        } else {
            Telemetry::null()
        };
        let nodes = config
            .nodes
            .iter()
            .enumerate()
            .map(|(i, nc)| {
                let id = NodeId(u16::try_from(i).unwrap_or(u16::MAX));
                let tel = if config.telemetry {
                    Telemetry::hub()
                } else {
                    Telemetry::null()
                };
                Node::build(id, nc, tel)
            })
            .collect();
        Fleet {
            nodes,
            epoch: config.epoch,
            telemetry: coordinator,
            plan: config.fault_plan.clone(),
            health_cfg: config.health,
            retry_budget: config.retry_budget,
            audit: config.audit,
            queue: RedispatchQueue::new(),
            redispatch: RedispatchStats::default(),
            faults: AppliedFaults::default(),
            admitted_ids: BTreeSet::new(),
            exhausted_ids: BTreeSet::new(),
            next_job: 0,
            audits: Vec::new(),
            view_scratch: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Runs the trace through the front door to completion and returns
    /// the cluster summary. Consumes the fleet: nodes are single-run,
    /// like [`avfs_sched::System`].
    ///
    /// Arrivals are admitted at the first epoch boundary at or after
    /// their trace timestamp, in trace order; between boundaries every
    /// live node advances independently, in `NodeId` order. The run ends once all arrivals are routed, the
    /// re-dispatch queue is empty, and no failed node still holds
    /// undrained or parked work; surviving nodes then drain to idle.
    pub fn run(mut self, trace: &WorkloadTrace, policy: &mut dyn RoutingPolicy) -> FleetSummary {
        let mut gate = HealthGated::new(policy);
        let mut stats = AdmissionStats::default();
        let mut now = SimTime::ZERO;
        let mut next = 0usize;
        let mut epoch_no: u64 = 0;

        loop {
            self.observe_health(epoch_no);
            self.fire_faults(epoch_no);
            self.drain_redispatch(&mut gate);

            // Route everything due at this boundary, in trace order.
            while next < trace.arrivals.len() && trace.arrivals[next].at <= now {
                let a = &trace.arrivals[next];
                next += 1;
                let id = JobId(self.next_job);
                self.next_job += 1;
                self.route_one(
                    JobView::of(id, a.bench, a.threads, a.scale),
                    &mut gate,
                    &mut stats,
                );
            }
            if self.audit {
                self.record_audit(epoch_no, &stats);
            }
            if next >= trace.arrivals.len() && self.queue.is_empty() && !self.any_pending() {
                break;
            }
            now += self.epoch;
            epoch_no += 1;
            Self::step_all(&mut self.nodes, now);
        }

        // All work routed or accounted: drain surviving nodes to idle.
        Self::drain_all(&mut self.nodes);
        let policy_name = gate.name();
        let routed_to_fenced = gate.rejections();
        self.finish(policy_name, routed_to_fenced, stats)
    }

    /// One front-door routing decision: place, admit, and trace — or
    /// shed through the single counted-and-traced shed path.
    fn route_one(
        &mut self,
        job: JobView,
        gate: &mut HealthGated<&mut dyn RoutingPolicy>,
        stats: &mut AdmissionStats,
    ) {
        stats.submitted += 1;
        match self.try_place(&job, None, gate) {
            Ok(id) => {
                let tracked = TrackedJob {
                    id: job.id,
                    bench: job.bench,
                    threads: job.threads,
                    scale: job.scale,
                    generation: 0,
                    retries_left: self.retry_budget,
                    origin: None,
                };
                self.admit(id, &job, tracked);
                stats.admitted += 1;
                self.admitted_ids.insert(job.id.0);
                let class_label = class_label(job.class);
                self.telemetry.trace(TraceKind::FleetRoute, || {
                    vec![
                        ("node", Value::U64(u64::from(id.0))),
                        ("bench", Value::Str(job.bench.name())),
                        ("threads", Value::U64(job.threads as u64)),
                        ("class", Value::Str(class_label)),
                    ]
                });
            }
            Err(reason) => self.shed(stats, reason, &job),
        }
    }

    /// Consults the gated policy against the (optionally
    /// origin-excluded) view set and validates the choice. Pure with
    /// respect to admission: the caller admits or sheds.
    fn try_place(
        &mut self,
        job: &JobView,
        exclude: Option<NodeId>,
        gate: &mut HealthGated<&mut dyn RoutingPolicy>,
    ) -> Result<NodeId, ShedReason> {
        let mut views = std::mem::take(&mut self.view_scratch);
        views.clear();
        views.extend(
            self.nodes
                .iter()
                .filter(|n| Some(n.id) != exclude)
                .map(Node::view),
        );
        let placed = Self::place_against(&self.nodes, job, exclude, gate, &views);
        self.view_scratch = views;
        placed
    }

    /// The routing decision proper, against a prepared view set.
    fn place_against(
        nodes: &[Node],
        job: &JobView,
        exclude: Option<NodeId>,
        gate: &mut HealthGated<&mut dyn RoutingPolicy>,
        views: &[NodeView],
    ) -> Result<NodeId, ShedReason> {
        match gate.route(job, views) {
            None => Err(ShedReason::Declined),
            Some(id) if id.index() >= nodes.len() => Err(ShedReason::UnknownNode),
            Some(id) if Some(id) == exclude => Err(ShedReason::Origin),
            Some(id) => match views.iter().find(|v| v.id == id) {
                // The gate re-picks fenced choices; this only fires for a
                // policy that names a fenced node against a fenced-free
                // view set — never admitted, always counted.
                Some(v) if !v.routable() => Err(ShedReason::Fenced),
                Some(v) if v.has_space() => Ok(id),
                Some(_) => Err(ShedReason::Full),
                None => Err(ShedReason::UnknownNode),
            },
        }
    }

    /// Admits one tracked job to `id`: injects the arrival and records
    /// the pid → job mapping the exactly-once ledger closes over.
    fn admit(&mut self, id: NodeId, job: &JobView, tracked: TrackedJob) {
        let node = &mut self.nodes[id.index()];
        let pid = node.system.inject_arrival(
            &mut node.st,
            node.driver.as_dyn_mut(),
            tracked.bench,
            tracked.threads,
            tracked.scale,
        );
        node.admitted += 1;
        match job.class {
            IntensityClass::CpuIntensive => node.cpu_jobs += 1,
            IntensityClass::MemoryIntensive => node.mem_jobs += 1,
        }
        node.jobs.insert(pid, tracked);
    }

    /// The *single* front-door shed path: the counter bump and the
    /// FleetShed trace are emitted together, so the journal and the
    /// summary can never disagree about what was shed.
    fn shed(&mut self, stats: &mut AdmissionStats, reason: ShedReason, job: &JobView) {
        match reason {
            ShedReason::Full => stats.shed_full += 1,
            _ => stats.shed_unroutable += 1,
        }
        let class_label = class_label(job.class);
        let label = reason.label();
        self.telemetry.trace(TraceKind::FleetShed, || {
            vec![
                ("bench", Value::Str(job.bench.name())),
                ("class", Value::Str(class_label)),
                ("reason", Value::Str(label)),
            ]
        });
    }

    /// Feeds every node's heartbeat (did it step through the epoch that
    /// just ended?) to its health machine; fencing a *dead* node drains
    /// its stranded jobs into the re-dispatch queue.
    fn observe_health(&mut self, epoch: u64) {
        if epoch == 0 {
            // No epoch has elapsed yet: nothing to observe.
            return;
        }
        for i in 0..self.nodes.len() {
            let beat = !self.nodes[i].missed_last;
            let nid = u64::from(self.nodes[i].id.0);
            match self.nodes[i].health.observe(beat, &self.health_cfg) {
                Some(HealthTransition::Fenced) => {
                    self.telemetry.trace(TraceKind::NodeFenced, || {
                        vec![("node", Value::U64(nid)), ("epoch", Value::U64(epoch))]
                    });
                }
                Some(HealthTransition::Recovered) => {
                    self.telemetry.trace(TraceKind::NodeRecovered, || {
                        vec![("node", Value::U64(nid)), ("epoch", Value::U64(epoch))]
                    });
                }
                _ => {}
            }
            // Keyed on the *state*, not the Fenced transition: a node
            // that crashes while already fenced (e.g. mid-stall) never
            // re-fires the transition but still has to drain.
            if self.nodes[i].dead
                && !self.nodes[i].drained
                && self.nodes[i].health.state() == HealthState::Fenced
            {
                let stranded = self.nodes[i].stranded_jobs(self.retry_budget);
                self.nodes[i].drained = true;
                self.nodes[i].drained_count = stranded.len() as u64;
                for tracked in stranded {
                    self.redispatch.drained += 1;
                    let jid = tracked.id.0;
                    let generation = u64::from(tracked.generation);
                    self.telemetry.trace(TraceKind::JobRedispatch, || {
                        vec![
                            ("job", Value::U64(jid)),
                            ("from", Value::U64(nid)),
                            ("generation", Value::U64(generation)),
                            ("outcome", Value::Str("drained")),
                        ]
                    });
                    self.queue.push(tracked);
                }
            }
        }
    }

    /// Fires this boundary's node-fault events. Events for already-dead
    /// nodes are ignored; repeat stalls/degrades on the same node are
    /// idempotent.
    fn fire_faults(&mut self, epoch: u64) {
        let Some(plan) = self.plan.as_mut() else {
            return;
        };
        let events = plan.events_at(epoch, self.nodes.len());
        for (id, kind) in events {
            if self.nodes[id.index()].dead {
                continue;
            }
            match kind {
                NodeFaultKind::Crash => {
                    self.nodes[id.index()].dead = true;
                    self.faults.crashes += 1;
                }
                NodeFaultKind::Stall { epochs } => {
                    if self.nodes[id.index()].stall_remaining == 0 {
                        self.nodes[id.index()].stall_remaining = epochs;
                        self.faults.stalls += 1;
                    }
                }
                NodeFaultKind::Degrade => {
                    if !self.nodes[id.index()].degraded {
                        self.nodes[id.index()].apply_degrade();
                        self.faults.degrades += 1;
                        let nid = u64::from(id.0);
                        self.telemetry.trace(TraceKind::NodeDegraded, || {
                            vec![("node", Value::U64(nid)), ("epoch", Value::U64(epoch))]
                        });
                    }
                }
            }
        }
    }

    /// Attempts to re-place every drained job, excluding its failed
    /// origin. Placement failures burn one retry; at zero the job is
    /// shed as exhausted (counted and traced, never silently dropped).
    fn drain_redispatch(&mut self, gate: &mut HealthGated<&mut dyn RoutingPolicy>) {
        if self.queue.is_empty() {
            return;
        }
        for mut tracked in self.queue.take_all() {
            let job = JobView::of(tracked.id, tracked.bench, tracked.threads, tracked.scale);
            match self.try_place(&job, tracked.origin, gate) {
                Ok(id) => {
                    tracked.generation += 1;
                    self.redispatch.reassigned += 1;
                    self.redispatch.max_generation =
                        self.redispatch.max_generation.max(tracked.generation);
                    let jid = tracked.id.0;
                    let from = tracked.origin.map_or(u64::MAX, |o| u64::from(o.0));
                    let to = u64::from(id.0);
                    let generation = u64::from(tracked.generation);
                    self.admit(id, &job, tracked);
                    self.telemetry.trace(TraceKind::JobRedispatch, || {
                        vec![
                            ("job", Value::U64(jid)),
                            ("from", Value::U64(from)),
                            ("to", Value::U64(to)),
                            ("generation", Value::U64(generation)),
                            ("outcome", Value::Str("reassigned")),
                        ]
                    });
                }
                Err(_) if tracked.retries_left == 0 => {
                    self.redispatch.exhausted += 1;
                    self.exhausted_ids.insert(tracked.id.0);
                    let jid = tracked.id.0;
                    let generation = u64::from(tracked.generation);
                    self.telemetry.trace(TraceKind::JobRedispatch, || {
                        vec![
                            ("job", Value::U64(jid)),
                            ("generation", Value::U64(generation)),
                            ("outcome", Value::Str("exhausted")),
                        ]
                    });
                }
                Err(_) => {
                    tracked.retries_left -= 1;
                    self.queue.push(tracked);
                }
            }
        }
    }

    /// Whether some failed node still holds work the run must wait for:
    /// a dead node not yet fenced-and-drained, or a stalled node whose
    /// parked jobs will complete once it returns.
    fn any_pending(&self) -> bool {
        self.nodes.iter().any(|n| {
            if n.dead {
                !n.drained && n.has_stranded()
            } else if n.stall_remaining > 0 {
                n.has_stranded()
            } else {
                false
            }
        })
    }

    /// Records this boundary's conservation ledger.
    fn record_audit(&mut self, epoch: u64, stats: &AdmissionStats) {
        let completed: u64 = self
            .nodes
            .iter()
            .map(|n| n.st.metrics().completed.len() as u64)
            .sum();
        let live_on_nodes: u64 = self
            .nodes
            .iter()
            .map(|n| {
                if n.dead && n.drained {
                    // Stranded jobs moved to the queue; the frozen
                    // simulator still reports them live.
                    0
                } else {
                    n.live_jobs() as u64
                }
            })
            .sum();
        self.audits.push(EpochAudit {
            epoch,
            submitted: stats.submitted,
            admitted: stats.admitted,
            shed: stats.shed(),
            completed,
            live_on_nodes,
            queued: self.queue.len() as u64,
            exhausted: self.redispatch.exhausted,
        });
    }

    /// Steps every live node to `horizon`, in `NodeId` order. Dead and
    /// stalled nodes miss the step — the heartbeat signal the
    /// coordinator's health machine consumes.
    fn step_all(nodes: &mut [Node], horizon: SimTime) {
        for n in nodes {
            if n.dead {
                n.missed_last = true;
            } else if n.stall_remaining > 0 {
                n.stall_remaining -= 1;
                n.missed_last = true;
            } else {
                n.step_to(horizon);
                n.missed_last = false;
            }
        }
    }

    /// Drains every surviving node to idle. Dead nodes stay frozen; a
    /// node still inside a stall window here has no live jobs (the run
    /// loop waits otherwise) and stays parked.
    fn drain_all(nodes: &mut [Node]) {
        for n in nodes {
            if !n.dead && n.stall_remaining == 0 {
                n.drain();
            }
        }
    }

    /// Finalizes node metrics, closes the exactly-once ledger, and
    /// assembles the summary in id order.
    fn finish(
        self,
        policy: &'static str,
        routed_to_fenced: u64,
        stats: AdmissionStats,
    ) -> FleetSummary {
        let mut summary = FleetSummary {
            policy,
            admission: stats,
            completed: 0,
            cluster_energy_j: 0.0,
            cluster_makespan: SimDuration::ZERO,
            migrations: 0,
            voltage_changes: 0,
            failures: 0,
            unsafe_time_s: 0.0,
            daemon: DaemonStats::default(),
            nodes: Vec::with_capacity(self.nodes.len()),
            journal: None,
            routed_to_fenced,
            redispatch: self.redispatch,
            faults: self.faults,
            duplicate_completions: 0,
            lost_jobs: 0,
            audits: self.audits,
        };
        let mut ledger = CompletionLedger::new();
        let admitted_ids = self.admitted_ids;
        let exhausted_ids = self.exhausted_ids;
        let mut journal = String::new();
        let coordinator_journal = self.telemetry.export_jsonl();
        for mut node in self.nodes {
            let metrics = node.system.finish_run(node.st);
            for rec in &metrics.completed {
                if let Some(tracked) = node.jobs.get(&rec.pid) {
                    ledger.record(tracked.id);
                }
            }
            summary.completed += metrics.completed.len() as u64;
            summary.cluster_energy_j += metrics.energy_j;
            summary.cluster_makespan = summary.cluster_makespan.max(metrics.makespan);
            summary.migrations += metrics.migrations;
            summary.voltage_changes += metrics.voltage_changes;
            summary.failures += metrics.failures;
            summary.unsafe_time_s += metrics.unsafe_time_s;
            let daemon = node.driver.stats();
            if let Some(ds) = &daemon {
                add_stats(&mut summary.daemon, ds);
            }
            if let Some(tagged) = node
                .telemetry
                .with_hub(|h| h.export_jsonl_tagged("node", u64::from(node.id.0)))
            {
                journal.push_str(&tagged);
            }
            summary.nodes.push(NodeSummary {
                id: node.id,
                kind: node.kind,
                cores: node.kind.cores(),
                admitted: node.admitted,
                completed: metrics.completed.len() as u64,
                cpu_jobs: node.cpu_jobs,
                mem_jobs: node.mem_jobs,
                metrics,
                daemon,
                health: node.health.state(),
                fenced_epochs: node.health.fenced_epochs(),
                dead: node.dead,
                degraded: node.degraded,
                drained_jobs: node.drained_count,
            });
        }
        summary.duplicate_completions = ledger.duplicates();
        summary.lost_jobs = ledger.lost(&admitted_ids, &exhausted_ids);
        if let Some(cj) = coordinator_journal {
            summary.journal = Some(format!("{cj}{journal}"));
        }
        summary
    }
}

/// Builder for [`Fleet`] — the single blessed construction path.
///
/// Starts from [`FleetConfig::new`]'s defaults (1 s epochs, telemetry
/// off, no faults); every knob has a setter, and
/// [`config`](FleetBuilder::config) swaps in a prepared configuration
/// wholesale.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    config: FleetConfig,
}

impl FleetBuilder {
    /// Replaces the node list.
    #[must_use]
    pub fn nodes(mut self, nodes: Vec<NodeConfig>) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Appends one node.
    #[must_use]
    pub fn node(mut self, node: NodeConfig) -> Self {
        self.config.nodes.push(node);
        self
    }

    /// Sets the epoch length.
    #[must_use]
    pub fn epoch(mut self, epoch: SimDuration) -> Self {
        self.config.epoch = epoch;
        self
    }

    /// Enables or disables telemetry hubs and the merged journal.
    #[must_use]
    pub fn telemetry(mut self, on: bool) -> Self {
        self.config.telemetry = on;
        self
    }

    /// Installs a node-failure schedule.
    #[must_use]
    pub fn fault_plan(mut self, plan: NodeFaultPlan) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Sets the per-node health-machine thresholds.
    #[must_use]
    pub fn health(mut self, health: HealthConfig) -> Self {
        self.config.health = health;
        self
    }

    /// Sets the re-dispatch retry budget.
    #[must_use]
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.config.retry_budget = budget;
        self
    }

    /// Enables or disables per-epoch conservation audits.
    #[must_use]
    pub fn audit(mut self, on: bool) -> Self {
        self.config.audit = on;
        self
    }

    /// Replaces the whole configuration (setters called afterwards
    /// still apply on top).
    #[must_use]
    pub fn config(mut self, config: FleetConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the fleet.
    pub fn build(self) -> Fleet {
        Fleet::from_config(&self.config)
    }
}

/// Stable label for a job's intensity class.
fn class_label(class: IntensityClass) -> &'static str {
    match class {
        IntensityClass::CpuIntensive => "cpu",
        IntensityClass::MemoryIntensive => "memory",
    }
}

/// Field-by-field accumulation of daemon counters.
fn add_stats(acc: &mut DaemonStats, s: &DaemonStats) {
    acc.invocations += s.invocations;
    acc.plans += s.plans;
    acc.pins += s.pins;
    acc.voltage_raises += s.voltage_raises;
    acc.voltage_lowers += s.voltage_lowers;
    acc.deferred_pins += s.deferred_pins;
    acc.mailbox_faults += s.mailbox_faults;
    acc.retries += s.retries;
    acc.backoff_us += s.backoff_us;
    acc.safe_mode_entries += s.safe_mode_entries;
    acc.safe_mode_exits += s.safe_mode_exits;
    acc.watchdog_fires += s.watchdog_fires;
    acc.droop_emergencies += s.droop_emergencies;
}

/// Cluster-level aggregation of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// The routing policy that produced this run.
    pub policy: &'static str,
    /// Front-door admission counters.
    pub admission: AdmissionStats,
    /// Jobs completed across all nodes.
    pub completed: u64,
    /// Total energy across all nodes, J.
    pub cluster_energy_j: f64,
    /// Longest per-node makespan (cluster drain time).
    pub cluster_makespan: SimDuration,
    /// Total migrations across nodes.
    pub migrations: u64,
    /// Total committed voltage changes across nodes.
    pub voltage_changes: u64,
    /// Total injected failures across nodes.
    pub failures: u64,
    /// Total unsafe rail time across nodes, seconds.
    pub unsafe_time_s: f64,
    /// Aggregated daemon decision/recovery counters (zeros for
    /// baseline-only fleets).
    pub daemon: DaemonStats,
    /// Per-node summaries, in `NodeId` order.
    pub nodes: Vec<NodeSummary>,
    /// Merged fleet journal (coordinator first, then nodes in id order,
    /// each line tagged `"node":<id>`); `None` when telemetry was off.
    pub journal: Option<String>,
    /// Fenced-node choices the [`HealthGated`] circuit breaker rejected
    /// (typed [`crate::FleetError::RoutedToFencedNode`]) and re-picked.
    pub routed_to_fenced: u64,
    /// Re-dispatch counters (drained / reassigned / exhausted /
    /// max generation).
    pub redispatch: RedispatchStats,
    /// Node-fault events the engine applied.
    pub faults: AppliedFaults,
    /// Completions beyond the first of any JobId (must be zero:
    /// exactly-once).
    pub duplicate_completions: u64,
    /// Admitted jobs that neither completed nor exhausted their retry
    /// budget (must be zero: nothing is ever silently lost).
    pub lost_jobs: u64,
    /// Per-epoch conservation ledgers (empty unless
    /// [`FleetConfig::audit`] was on).
    pub audits: Vec<EpochAudit>,
}

impl FleetSummary {
    /// Conservation check: every submitted job is accounted for — shed
    /// at the front door, completed exactly once somewhere, or shed as
    /// exhausted after its failed node was drained. Re-dispatched jobs
    /// are admitted once per generation at node level, which the
    /// `reassigned` counter reconciles.
    pub fn conserves_jobs(&self) -> bool {
        let a = &self.admission;
        let node_admitted: u64 = self.nodes.iter().map(|n| n.admitted).sum();
        a.submitted == a.admitted + a.shed()
            && node_admitted == a.admitted + self.redispatch.reassigned
            && a.admitted == self.completed + self.redispatch.exhausted
            && self.lost_jobs == 0
            && self.duplicate_completions == 0
    }

    /// Every recorded epoch audit that fails its conservation invariant.
    pub fn failed_audits(&self) -> Vec<EpochAudit> {
        self.audits.iter().filter(|a| !a.holds()).copied().collect()
    }

    /// Cluster energy savings vs a baseline run, percent.
    pub fn energy_savings_vs(&self, base: &FleetSummary) -> f64 {
        if base.cluster_energy_j <= 0.0 {
            return 0.0;
        }
        (1.0 - self.cluster_energy_j / base.cluster_energy_j) * 100.0
    }

    /// Cluster makespan penalty vs a baseline run, percent (negative
    /// means faster).
    pub fn time_penalty_vs(&self, base: &FleetSummary) -> f64 {
        let b = base.cluster_makespan.as_secs_f64();
        if b <= 0.0 {
            return 0.0;
        }
        (self.cluster_makespan.as_secs_f64() / b - 1.0) * 100.0
    }

    /// A deterministic digest of everything observable in the summary
    /// (floats rendered via `to_bits`, nodes in id order). Two runs are
    /// byte-identical iff their fingerprints (and journals) match.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + 160 * self.nodes.len());
        let a = &self.admission;
        let r = &self.redispatch;
        let f = &self.faults;
        let _ = write!(
            out,
            "policy={} submitted={} admitted={} shed_full={} shed_unroutable={} \
             completed={} energy={:016x} makespan_ns={} migrations={} vchanges={} \
             failures={} unsafe={:016x} daemon=[{}] fenced_picks={} drained={} \
             reassigned={} exhausted={} maxgen={} crashes={} stalls={} degrades={} \
             lost={} dups={}",
            self.policy,
            a.submitted,
            a.admitted,
            a.shed_full,
            a.shed_unroutable,
            self.completed,
            self.cluster_energy_j.to_bits(),
            self.cluster_makespan.as_nanos(),
            self.migrations,
            self.voltage_changes,
            self.failures,
            self.unsafe_time_s.to_bits(),
            self.daemon,
            self.routed_to_fenced,
            r.drained,
            r.reassigned,
            r.exhausted,
            r.max_generation,
            f.crashes,
            f.stalls,
            f.degrades,
            self.lost_jobs,
            self.duplicate_completions,
        );
        for n in &self.nodes {
            let _ = write!(
                out,
                "\n{} kind={} admitted={} completed={} cpu={} mem={} energy={:016x} \
                 makespan_ns={} migrations={} vchanges={} unsafe={:016x} health={} \
                 fenced_epochs={} dead={} degraded={} drained={}",
                n.id,
                n.kind,
                n.admitted,
                n.completed,
                n.cpu_jobs,
                n.mem_jobs,
                n.metrics.energy_j.to_bits(),
                n.metrics.makespan.as_nanos(),
                n.metrics.migrations,
                n.metrics.voltage_changes,
                n.metrics.unsafe_time_s.to_bits(),
                n.health,
                n.fenced_epochs,
                n.dead,
                n.degraded,
                n.drained_jobs,
            );
        }
        out
    }
}

impl avfs_sched::Report for FleetSummary {
    /// Delegates to the inherent digest (kept inherent so callers
    /// without the trait in scope keep working).
    fn fingerprint(&self) -> String {
        FleetSummary::fingerprint(self)
    }
}
