//! Distributed batch exploration: a fault-tolerant shard coordinator.
//!
//! `sunmap batch` shards a manifest across threads; this module shards
//! it across *processes*. A coordinator owns the manifest's job order
//! and leases contiguous job ranges to workers over the shared
//! [`crate::frame`] codec (schema `sunmap-shard/1`); workers compute
//! each leased job through the same deterministic
//! [`crate::batch`] path and stream result lines back. The coordinator
//! feeds accepted lines through an in-order delivery cursor, so the
//! assembled `batch.jsonl` is **byte-identical to a single-process
//! run** — and, composed with [`crate::batch::plan_resume`], a killed
//! coordinator resumes to identical bytes too.
//!
//! # Wire protocol (`sunmap-shard/1`)
//!
//! | op | direction | fields |
//! |----|-----------|--------|
//! | `hello` | worker → coordinator | `name`, `fingerprint` |
//! | `lease` | coordinator → worker | `lease`, `start`, `end` |
//! | `result` | worker → coordinator | `lease`, `job`, `line` |
//! | `heartbeat` | worker → coordinator | — |
//! | `drain` | coordinator → worker | — |
//!
//! `fingerprint` is [`crate::batch::manifest_fingerprint`]: a worker
//! that expanded a different manifest is drained before it can lease a
//! single job. Job indices are global manifest positions, so static
//! `--shard k/n` splits, coordinated leases and `--resume` all agree
//! on what job *k* means.
//!
//! # Failure model
//!
//! Workers crash, stall and get restarted; frames can be delayed,
//! reordered, duplicated or dropped by the transport shims around a
//! dying peer. The coordinator holds exactly one source of truth — the
//! manifest order — and treats everything else as soft state:
//!
//! - **lease timeouts**: a range not fully reported within the lease
//!   timeout is requeued with exponential backoff; after a bounded
//!   number of attempts the run fails loudly rather than spinning.
//! - **death detection**: a worker that misses heartbeats past the
//!   heartbeat timeout (or whose connection drops) is declared dead
//!   and its leased ranges requeue immediately.
//! - **idempotence**: results are keyed by job id. A duplicate (the
//!   original worker was slow, not dead) is byte-compared against the
//!   accepted line and deduped; a *divergent* duplicate would mean the
//!   deterministic mapping produced two different answers and is a
//!   hard error.
//! - **graceful drain**: `SIGTERM` stops granting, lets in-flight
//!   leases finish, and leaves a clean line prefix that `--resume`
//!   extends to the exact uninterrupted bytes.
//!
//! Both endpoints are IO-free state machines —
//! [`Coordinator::step`] / [`ShardWorker::step`] map one event to a
//! list of actions — driven in production by the thin socket shims
//! [`run_coordinator`] / [`run_worker`] and in tests by the seeded
//! chaos harness in [`crate::shard_sim`], which proves byte-identity
//! under injected faults for every seed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::batch::{run_job, BatchJob};
use crate::frame::{read_frame_draining, write_frame};
use crate::json::Json;
use crate::metrics::ShardCounters;
use crate::request::LruLibraryCache;
use crate::serve::{claim_daemon_slot, POLL_INTERVAL, SHUTDOWN};
use sunmap_sim::sweep::json_string;

/// The wire schema identifier carried by every shard frame (defined in
/// [`crate::schema`] with the rest of the wire-schema registry).
pub use crate::schema::SHARD_SCHEMA;

/// A coordinator-assigned connection identity. Transport-level: a
/// restarted worker process is a *new* `WorkerId` even if it reuses
/// its `hello` name.
pub type WorkerId = u64;

/// One `sunmap-shard/1` frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMsg {
    /// Worker → coordinator: announce readiness. `fingerprint` must
    /// match the coordinator's manifest or the worker is drained.
    Hello {
        /// Operator-chosen worker name (diagnostics only).
        name: String,
        /// [`crate::batch::manifest_fingerprint`] of the worker's
        /// expanded job list.
        fingerprint: String,
    },
    /// Coordinator → worker: compute global jobs `start..end`.
    Lease {
        /// Unique lease id (never reused within a run).
        lease: u64,
        /// First global job index, inclusive.
        start: usize,
        /// Past-the-end global job index.
        end: usize,
    },
    /// Worker → coordinator: one computed JSONL line.
    Result {
        /// The lease this job was computed under.
        lease: u64,
        /// Global job index.
        job: usize,
        /// The rendered `sunmap-batch/1` line (no trailing newline).
        line: String,
    },
    /// Worker → coordinator: liveness signal while computing or idle.
    Heartbeat,
    /// Coordinator → worker: no more work; exit once idle.
    Drain,
}

impl ShardMsg {
    /// Renders the frame payload.
    pub fn to_json(&self) -> String {
        match self {
            ShardMsg::Hello { name, fingerprint } => format!(
                "{{\"schema\":\"{SHARD_SCHEMA}\",\"op\":\"hello\",\"name\":{},\
                 \"fingerprint\":{}}}",
                json_string(name),
                json_string(fingerprint)
            ),
            ShardMsg::Lease { lease, start, end } => format!(
                "{{\"schema\":\"{SHARD_SCHEMA}\",\"op\":\"lease\",\"lease\":{lease},\
                 \"start\":{start},\"end\":{end}}}"
            ),
            ShardMsg::Result { lease, job, line } => format!(
                "{{\"schema\":\"{SHARD_SCHEMA}\",\"op\":\"result\",\"lease\":{lease},\
                 \"job\":{job},\"line\":{}}}",
                json_string(line)
            ),
            ShardMsg::Heartbeat => {
                format!("{{\"schema\":\"{SHARD_SCHEMA}\",\"op\":\"heartbeat\"}}")
            }
            ShardMsg::Drain => format!("{{\"schema\":\"{SHARD_SCHEMA}\",\"op\":\"drain\"}}"),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a wrong `schema`, an unknown `op` or missing
    /// fields, as a human-readable message.
    pub fn parse(payload: &str) -> Result<ShardMsg, String> {
        let v = Json::parse(payload).map_err(|e| format!("not JSON: {e}"))?;
        match v.get("schema").and_then(Json::as_str) {
            Some(SHARD_SCHEMA) => {}
            other => return Err(format!("schema {other:?}, expected {SHARD_SCHEMA}")),
        }
        let index = |key: &str| -> Result<u64, String> {
            let n = v
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric '{key}'"))?;
            if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
                Ok(n as u64)
            } else {
                Err(format!("'{key}' is not a non-negative integer"))
            }
        };
        let string = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string '{key}'"))
        };
        match v.get("op").and_then(Json::as_str) {
            Some("hello") => Ok(ShardMsg::Hello {
                name: string("name")?,
                fingerprint: string("fingerprint")?,
            }),
            Some("lease") => Ok(ShardMsg::Lease {
                lease: index("lease")?,
                start: index("start")? as usize,
                end: index("end")? as usize,
            }),
            Some("result") => Ok(ShardMsg::Result {
                lease: index("lease")?,
                job: index("job")? as usize,
                line: string("line")?,
            }),
            Some("heartbeat") => Ok(ShardMsg::Heartbeat),
            Some("drain") => Ok(ShardMsg::Drain),
            other => Err(format!(
                "unknown op {other:?} (valid: hello, lease, result, heartbeat, drain)"
            )),
        }
    }
}

/// Tuning and identity for a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// First global job index to dispatch (`> 0` when resuming).
    pub first_job: usize,
    /// Total jobs in the manifest; the coordinator dispatches
    /// `first_job..total_jobs`.
    pub total_jobs: usize,
    /// Jobs per lease.
    pub grain: usize,
    /// A lease not fully reported within this window is requeued.
    pub lease_timeout_ms: u64,
    /// A worker silent for this long is declared dead.
    pub heartbeat_timeout_ms: u64,
    /// Attempts per range before the run fails loudly.
    pub max_attempts: u32,
    /// [`crate::batch::manifest_fingerprint`] of the job list.
    pub fingerprint: String,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            first_job: 0,
            total_jobs: 0,
            grain: 2,
            lease_timeout_ms: 60_000,
            heartbeat_timeout_ms: 30_000,
            max_attempts: 5,
            fingerprint: String::new(),
        }
    }
}

/// An input to [`Coordinator::step`]. The machine never reads a clock:
/// time only advances through `Tick`, which is what makes the chaos
/// simtest deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordEvent {
    /// A transport connection appeared.
    Connected {
        /// The shim-assigned connection identity.
        worker: WorkerId,
    },
    /// A frame arrived from a connection.
    Frame {
        /// Sender.
        worker: WorkerId,
        /// Raw frame payload.
        payload: String,
    },
    /// A connection went away (EOF, reset, write failure).
    Disconnected {
        /// The vanished connection.
        worker: WorkerId,
    },
    /// The clock advanced; timeouts are evaluated against `now_ms`.
    Tick {
        /// Milliseconds since the run started (monotone).
        now_ms: u64,
    },
    /// Begin a graceful drain (`SIGTERM`): stop granting, finish
    /// in-flight leases, then finish.
    Drain,
}

/// An output of [`Coordinator::step`], executed by the shim (or the
/// simtest's virtual transport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordAction {
    /// Write a frame to a worker connection.
    Send {
        /// Recipient.
        worker: WorkerId,
        /// Frame payload.
        payload: String,
    },
    /// Append this job's line to the output — emitted strictly in
    /// global job order, which is the byte-identity guarantee.
    Deliver {
        /// Global job index.
        job: usize,
        /// The `sunmap-batch/1` line (no trailing newline).
        line: String,
    },
    /// Close a worker connection.
    Close {
        /// The connection to close.
        worker: WorkerId,
    },
    /// The run is complete (all jobs delivered, or the drain settled).
    Finished,
    /// The run failed irrecoverably (divergent duplicate, protocol
    /// violation, or a range out of retries).
    Fatal {
        /// What went wrong.
        message: String,
    },
}

#[derive(Debug)]
struct PendingRange {
    start: usize,
    end: usize,
    /// Failed issues so far (0 for a fresh range).
    attempt: u32,
    /// Backoff gate: not leased before this instant.
    ready_at_ms: u64,
}

#[derive(Debug)]
struct Lease {
    worker: WorkerId,
    remaining: BTreeSet<usize>,
    attempt: u32,
    deadline_ms: u64,
}

#[derive(Debug)]
struct WorkerInfo {
    ready: bool,
    last_seen_ms: u64,
    lease: Option<u64>,
}

/// The coordinator state machine: owns the manifest order, leases
/// ranges, arbitrates duplicates and delivers lines in job order. Pure
/// state — all IO lives in [`run_coordinator`] or the simtest.
#[derive(Debug)]
pub struct Coordinator {
    config: CoordConfig,
    now_ms: u64,
    next_lease: u64,
    pending: VecDeque<PendingRange>,
    leases: BTreeMap<u64, Lease>,
    workers: BTreeMap<WorkerId, WorkerInfo>,
    /// Accepted lines, retained for duplicate byte-comparison.
    completed: BTreeMap<usize, String>,
    next_deliver: usize,
    counters: ShardCounters,
    draining: bool,
    done: bool,
    fatal: bool,
}

impl Coordinator {
    /// A fresh coordinator for `config.first_job..config.total_jobs`,
    /// pre-split into grain-sized pending ranges.
    pub fn new(config: CoordConfig) -> Coordinator {
        let grain = config.grain.max(1);
        let mut pending = VecDeque::new();
        let mut start = config.first_job;
        while start < config.total_jobs {
            let end = (start + grain).min(config.total_jobs);
            pending.push_back(PendingRange {
                start,
                end,
                attempt: 0,
                ready_at_ms: 0,
            });
            start = end;
        }
        let next_deliver = config.first_job;
        Coordinator {
            config,
            now_ms: 0,
            next_lease: 0,
            pending,
            leases: BTreeMap::new(),
            workers: BTreeMap::new(),
            completed: BTreeMap::new(),
            next_deliver,
            counters: ShardCounters::default(),
            draining: false,
            done: false,
            fatal: false,
        }
    }

    /// The robustness counters accumulated so far.
    pub fn counters(&self) -> &ShardCounters {
        &self.counters
    }

    /// Jobs delivered so far (global cursor position).
    pub fn delivered_through(&self) -> usize {
        self.next_deliver
    }

    /// Advances the machine by one event.
    pub fn step(&mut self, event: CoordEvent) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        if self.done || self.fatal {
            return actions;
        }
        match event {
            CoordEvent::Connected { worker } => {
                self.workers.insert(
                    worker,
                    WorkerInfo {
                        ready: false,
                        last_seen_ms: self.now_ms,
                        lease: None,
                    },
                );
            }
            CoordEvent::Frame { worker, payload } => self.on_frame(worker, &payload, &mut actions),
            CoordEvent::Disconnected { worker } => {
                if let Some(info) = self.workers.remove(&worker) {
                    if info.ready {
                        self.counters.worker_deaths += 1;
                    }
                    if let Some(lease) = info.lease {
                        self.requeue_lease(lease, true, &mut actions);
                    }
                    self.grant_ready(&mut actions);
                }
            }
            CoordEvent::Tick { now_ms } => {
                self.now_ms = self.now_ms.max(now_ms);
                self.expire_workers(&mut actions);
                self.expire_leases(&mut actions);
                self.grant_ready(&mut actions);
            }
            CoordEvent::Drain => {
                if !self.draining {
                    self.draining = true;
                    // Pending ranges will not run in this process;
                    // `--resume` recomputes them to identical bytes.
                    self.pending.clear();
                    let idle: Vec<WorkerId> = self
                        .workers
                        .iter()
                        .filter(|(_, info)| info.lease.is_none())
                        .map(|(&id, _)| id)
                        .collect();
                    for worker in idle {
                        self.dismiss(worker, &mut actions);
                    }
                }
            }
        }
        self.check_done(&mut actions);
        actions
    }

    fn on_frame(&mut self, worker: WorkerId, payload: &str, actions: &mut Vec<CoordAction>) {
        let known = if let Some(info) = self.workers.get_mut(&worker) {
            info.last_seen_ms = self.now_ms;
            true
        } else {
            false
        };
        let msg = match ShardMsg::parse(payload) {
            Ok(msg) => msg,
            Err(e) => {
                self.fail(format!("bad frame from worker {worker}: {e}"), actions);
                return;
            }
        };
        match msg {
            ShardMsg::Hello { fingerprint, .. } => {
                if !known {
                    return; // raced its own death; nothing to grant
                }
                if fingerprint != self.config.fingerprint || self.draining {
                    // Wrong manifest (or nothing left): send it away
                    // before it can lease a single job.
                    self.dismiss(worker, actions);
                    return;
                }
                self.workers.get_mut(&worker).expect("known").ready = true;
                self.try_grant(worker, actions);
            }
            ShardMsg::Heartbeat => {}
            ShardMsg::Result { lease, job, line } => {
                // Results are accepted even from connections already
                // declared dead — idempotence by job id is the point.
                self.on_result(lease, job, line, actions);
            }
            ShardMsg::Lease { .. } | ShardMsg::Drain => {
                self.fail(
                    format!("worker {worker} sent a coordinator-only op"),
                    actions,
                );
            }
        }
    }

    fn on_result(&mut self, lease: u64, job: usize, line: String, actions: &mut Vec<CoordAction>) {
        if job < self.config.first_job || job >= self.config.total_jobs {
            self.fail(
                format!(
                    "result for job {job} outside the dispatch window {}..{}",
                    self.config.first_job, self.config.total_jobs
                ),
                actions,
            );
            return;
        }
        match self.completed.get(&job) {
            Some(accepted) if *accepted == line => {
                self.counters.duplicate_results += 1;
                return;
            }
            Some(_) => {
                // The mapping is deterministic; two different lines for
                // one job id means corrupted state, not a slow worker.
                self.fail(
                    format!("divergent duplicate result for job {job}; aborting"),
                    actions,
                );
                return;
            }
            None => {}
        }
        self.completed.insert(job, line);
        self.counters.jobs_completed += 1;
        while let Some(line) = self.completed.get(&self.next_deliver) {
            actions.push(CoordAction::Deliver {
                job: self.next_deliver,
                line: line.clone(),
            });
            self.next_deliver += 1;
        }
        let finished_lease = match self.leases.get_mut(&lease) {
            Some(state) => {
                state.remaining.remove(&job);
                state.remaining.is_empty()
            }
            None => false, // lease already timed out; result still counted
        };
        if finished_lease {
            let state = self.leases.remove(&lease).expect("present above");
            let known = match self.workers.get_mut(&state.worker) {
                Some(info) => {
                    if info.lease == Some(lease) {
                        info.lease = None;
                    }
                    true
                }
                None => false,
            };
            if known {
                if self.draining {
                    self.dismiss(state.worker, actions);
                } else {
                    self.try_grant(state.worker, actions);
                }
            }
        }
    }

    /// Declares workers dead that have been silent past the heartbeat
    /// timeout, requeueing their leases immediately.
    fn expire_workers(&mut self, actions: &mut Vec<CoordAction>) {
        let timeout = self.config.heartbeat_timeout_ms;
        let dead: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|(_, info)| self.now_ms.saturating_sub(info.last_seen_ms) > timeout)
            .map(|(&id, _)| id)
            .collect();
        for worker in dead {
            let info = self.workers.remove(&worker).expect("collected above");
            if info.ready {
                self.counters.worker_deaths += 1;
            }
            actions.push(CoordAction::Close { worker });
            if let Some(lease) = info.lease {
                self.requeue_lease(lease, true, actions);
            }
        }
    }

    /// Requeues leases past their deadline with exponential backoff.
    fn expire_leases(&mut self, actions: &mut Vec<CoordAction>) {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.deadline_ms <= self.now_ms)
            .map(|(&id, _)| id)
            .collect();
        for lease in expired {
            self.requeue_lease(lease, false, actions);
        }
    }

    /// Returns a lease's unreported jobs to the pending queue — or
    /// fails the run when the range is out of attempts. `death`
    /// requeues are immediate; timeout requeues back off
    /// exponentially in the lease timeout.
    fn requeue_lease(&mut self, lease: u64, death: bool, actions: &mut Vec<CoordAction>) {
        let Some(state) = self.leases.remove(&lease) else {
            return;
        };
        if let Some(info) = self.workers.get_mut(&state.worker) {
            if info.lease == Some(lease) {
                info.lease = None;
            }
        }
        // Jobs completed under another lease id need no recompute.
        let remaining: Vec<usize> = state
            .remaining
            .iter()
            .copied()
            .filter(|job| !self.completed.contains_key(job))
            .collect();
        if remaining.is_empty() || self.draining {
            return;
        }
        if state.attempt >= self.config.max_attempts {
            self.fail(
                format!(
                    "jobs {:?} failed after {} attempts; giving up",
                    remaining, state.attempt
                ),
                actions,
            );
            return;
        }
        if death {
            self.counters.ranges_requeued += 1;
        } else {
            self.counters.lease_retries += 1;
        }
        let ready_at_ms = if death {
            self.now_ms
        } else {
            let shift = u32::min(state.attempt.saturating_sub(1), 6);
            self.now_ms
                .saturating_add(self.config.lease_timeout_ms.saturating_mul(1 << shift))
        };
        // Remaining jobs may be non-contiguous when reordered results
        // landed out of order; requeue each contiguous run.
        let mut run_start = remaining[0];
        let mut prev = remaining[0];
        let push = |start: usize, end: usize, pending: &mut VecDeque<PendingRange>| {
            pending.push_back(PendingRange {
                start,
                end,
                attempt: state.attempt,
                ready_at_ms,
            });
        };
        for &job in &remaining[1..] {
            if job != prev + 1 {
                push(run_start, prev + 1, &mut self.pending);
                run_start = job;
            }
            prev = job;
        }
        push(run_start, prev + 1, &mut self.pending);
    }

    /// Grants pending ranges to every idle ready worker.
    fn grant_ready(&mut self, actions: &mut Vec<CoordAction>) {
        let idle: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|(_, info)| info.ready && info.lease.is_none())
            .map(|(&id, _)| id)
            .collect();
        for worker in idle {
            self.try_grant(worker, actions);
        }
    }

    /// Leases the first backoff-ready pending range to `worker`, if
    /// the worker is idle and such a range exists.
    fn try_grant(&mut self, worker: WorkerId, actions: &mut Vec<CoordAction>) {
        if self.done || self.fatal || self.draining {
            return;
        }
        let Some(info) = self.workers.get_mut(&worker) else {
            return;
        };
        if !info.ready || info.lease.is_some() {
            return;
        }
        let Some(index) = self
            .pending
            .iter()
            .position(|range| range.ready_at_ms <= self.now_ms)
        else {
            return;
        };
        let range = self.pending.remove(index).expect("position just found");
        let lease = self.next_lease;
        self.next_lease += 1;
        info.lease = Some(lease);
        self.leases.insert(
            lease,
            Lease {
                worker,
                remaining: (range.start..range.end).collect(),
                attempt: range.attempt + 1,
                deadline_ms: self.now_ms.saturating_add(self.config.lease_timeout_ms),
            },
        );
        self.counters.leases_granted += 1;
        actions.push(CoordAction::Send {
            worker,
            payload: ShardMsg::Lease {
                lease,
                start: range.start,
                end: range.end,
            }
            .to_json(),
        });
    }

    /// Sends a worker away: drain frame, close, forget.
    fn dismiss(&mut self, worker: WorkerId, actions: &mut Vec<CoordAction>) {
        actions.push(CoordAction::Send {
            worker,
            payload: ShardMsg::Drain.to_json(),
        });
        actions.push(CoordAction::Close { worker });
        self.workers.remove(&worker);
    }

    fn fail(&mut self, message: String, actions: &mut Vec<CoordAction>) {
        if !self.fatal {
            self.fatal = true;
            actions.push(CoordAction::Fatal { message });
        }
    }

    /// Emits `Finished` once everything is delivered — or, during a
    /// drain, once the last in-flight lease settles.
    fn check_done(&mut self, actions: &mut Vec<CoordAction>) {
        if self.done || self.fatal {
            return;
        }
        let all_delivered = self.next_deliver >= self.config.total_jobs;
        if all_delivered || (self.draining && self.leases.is_empty()) {
            self.done = true;
            let everyone: Vec<WorkerId> = self.workers.keys().copied().collect();
            for worker in everyone {
                self.dismiss(worker, actions);
            }
            actions.push(CoordAction::Finished);
        }
    }
}

/// An input to [`ShardWorker::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEvent {
    /// The connection to the coordinator is up.
    Start,
    /// A frame arrived from the coordinator.
    Frame {
        /// Raw frame payload.
        payload: String,
    },
    /// The shim finished computing a job (response to
    /// [`WorkerAction::Compute`]).
    Computed {
        /// Global job index.
        job: usize,
        /// The rendered `sunmap-batch/1` line.
        line: String,
    },
    /// The clock advanced (drives heartbeats).
    Tick {
        /// Milliseconds since the worker started (monotone).
        now_ms: u64,
    },
    /// The coordinator connection went away.
    ConnectionClosed,
}

/// An output of [`ShardWorker::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerAction {
    /// Write a frame to the coordinator.
    Send {
        /// Frame payload.
        payload: String,
    },
    /// Compute one job and feed the line back as
    /// [`WorkerEvent::Computed`].
    Compute {
        /// Global job index.
        job: usize,
    },
    /// Stop the worker. `error` is `None` for a clean drain/finish.
    Exit {
        /// The failure, if this exit is one.
        error: Option<String>,
    },
}

/// The worker state machine: announces itself, computes leased jobs
/// strictly in lease order, heartbeats while alive, and exits when
/// drained. Pure state — all IO lives in [`run_worker`] or the
/// simtest.
#[derive(Debug)]
pub struct ShardWorker {
    name: String,
    fingerprint: String,
    heartbeat_interval_ms: u64,
    now_ms: u64,
    last_beat_ms: u64,
    /// Leased jobs not yet reported, in lease order; the head is the
    /// job currently computing (when `computing`).
    queue: VecDeque<(u64, usize)>,
    computing: bool,
    /// Whether the coordinator has demonstrably heard our `hello` (a
    /// lease or drain arrived). Until then every heartbeat re-sends
    /// it, so a lossy transport cannot strand the worker unleased.
    introduced: bool,
    draining: bool,
    exited: bool,
}

impl ShardWorker {
    /// A fresh worker that will introduce itself as `name` with the
    /// given manifest fingerprint and heartbeat every
    /// `heartbeat_interval_ms`.
    pub fn new(name: &str, fingerprint: &str, heartbeat_interval_ms: u64) -> ShardWorker {
        ShardWorker {
            name: name.to_string(),
            fingerprint: fingerprint.to_string(),
            heartbeat_interval_ms: heartbeat_interval_ms.max(1),
            now_ms: 0,
            last_beat_ms: 0,
            queue: VecDeque::new(),
            computing: false,
            introduced: false,
            draining: false,
            exited: false,
        }
    }

    /// Advances the machine by one event.
    pub fn step(&mut self, event: WorkerEvent) -> Vec<WorkerAction> {
        let mut actions = Vec::new();
        if self.exited {
            return actions;
        }
        match event {
            WorkerEvent::Start => actions.push(WorkerAction::Send {
                payload: ShardMsg::Hello {
                    name: self.name.clone(),
                    fingerprint: self.fingerprint.clone(),
                }
                .to_json(),
            }),
            WorkerEvent::Frame { payload } => self.on_frame(&payload, &mut actions),
            WorkerEvent::Computed { job, line } => self.on_computed(job, line, &mut actions),
            WorkerEvent::Tick { now_ms } => {
                self.now_ms = self.now_ms.max(now_ms);
                if self.now_ms.saturating_sub(self.last_beat_ms) >= self.heartbeat_interval_ms {
                    self.last_beat_ms = self.now_ms;
                    if !self.introduced {
                        actions.push(WorkerAction::Send {
                            payload: ShardMsg::Hello {
                                name: self.name.clone(),
                                fingerprint: self.fingerprint.clone(),
                            }
                            .to_json(),
                        });
                    }
                    actions.push(WorkerAction::Send {
                        payload: ShardMsg::Heartbeat.to_json(),
                    });
                }
            }
            WorkerEvent::ConnectionClosed => {
                // Idle disconnect is how a finished coordinator says
                // goodbye when its drain frame raced the close.
                let error = (!self.queue.is_empty())
                    .then(|| "coordinator hung up with jobs still leased".to_string());
                self.exit(error, &mut actions);
            }
        }
        actions
    }

    fn on_frame(&mut self, payload: &str, actions: &mut Vec<WorkerAction>) {
        let msg = match ShardMsg::parse(payload) {
            Ok(msg) => msg,
            Err(e) => {
                self.exit(Some(format!("bad frame from coordinator: {e}")), actions);
                return;
            }
        };
        match msg {
            ShardMsg::Lease { lease, start, end } => {
                self.introduced = true;
                // A re-grant can arrive while an earlier (timed-out)
                // lease is still computing; queue behind it.
                for job in start..end {
                    self.queue.push_back((lease, job));
                }
                if !self.computing {
                    if let Some(&(_, job)) = self.queue.front() {
                        self.computing = true;
                        actions.push(WorkerAction::Compute { job });
                    }
                }
            }
            ShardMsg::Drain => {
                self.introduced = true;
                self.draining = true;
                if self.queue.is_empty() && !self.computing {
                    self.exit(None, actions);
                }
            }
            ShardMsg::Hello { .. } | ShardMsg::Result { .. } | ShardMsg::Heartbeat => {
                self.exit(
                    Some("coordinator sent a worker-only op".to_string()),
                    actions,
                );
            }
        }
    }

    fn on_computed(&mut self, job: usize, line: String, actions: &mut Vec<WorkerAction>) {
        let Some(&(lease, head)) = self.queue.front() else {
            self.exit(
                Some(format!("computed job {job} with empty queue")),
                actions,
            );
            return;
        };
        if head != job {
            self.exit(
                Some(format!("computed job {job} but head of queue is {head}")),
                actions,
            );
            return;
        }
        self.queue.pop_front();
        actions.push(WorkerAction::Send {
            payload: ShardMsg::Result { lease, job, line }.to_json(),
        });
        if let Some(&(_, next)) = self.queue.front() {
            actions.push(WorkerAction::Compute { job: next });
        } else {
            self.computing = false;
            if self.draining {
                self.exit(None, actions);
            }
        }
    }

    fn exit(&mut self, error: Option<String>, actions: &mut Vec<WorkerAction>) {
        if !self.exited {
            self.exited = true;
            actions.push(WorkerAction::Exit { error });
        }
    }
}

/// What a finished coordinator reports.
#[derive(Debug)]
pub struct CoordinatorSummary {
    /// Jobs delivered by this run (excludes any resumed prefix).
    pub jobs_delivered: usize,
    /// Final robustness counters (schema `sunmap-shard-metrics/1`).
    pub counters: ShardCounters,
    /// Whether the run ended in a `SIGTERM` drain rather than
    /// completing the manifest.
    pub drained: bool,
}

/// Runs a [`Coordinator`] over real TCP until the manifest completes
/// or a `SIGTERM` drain settles. `on_ready` fires once with the bound
/// address; `on_line(job, line)` receives lines strictly in global job
/// order and returns whether to keep going (`false` cancels, like
/// [`crate::batch::run_batch`]).
///
/// # Errors
///
/// Bind failures, fatal protocol errors (divergent duplicates, ranges
/// out of retries) and a cancelling sink, as human-readable messages.
pub fn run_coordinator<F>(
    config: CoordConfig,
    listen: &str,
    on_ready: F,
    mut on_line: impl FnMut(usize, &str) -> bool,
) -> Result<CoordinatorSummary, String>
where
    F: FnOnce(SocketAddr),
{
    let _daemon_slot = claim_daemon_slot();
    #[cfg(unix)]
    crate::serve::install_sigterm_handler();
    let listener =
        TcpListener::bind(listen).map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set non-blocking accept: {e}"))?;

    let first_job = config.first_job;
    let mut machine = Coordinator::new(config);
    let started = Instant::now();
    let reader_stop = AtomicBool::new(false);
    let (event_tx, event_rx) = mpsc::channel::<CoordEvent>();
    let mut writers: BTreeMap<WorkerId, TcpStream> = BTreeMap::new();
    let mut next_worker: WorkerId = 0;
    let mut drain_sent = false;
    let mut finished = false;
    let mut drained = false;
    let mut fatal: Option<String> = None;
    let mut cancelled = false;

    on_ready(addr);
    thread::scope(|scope| {
        let mut queue: VecDeque<CoordEvent> = VecDeque::new();
        queue.push_back(CoordEvent::Tick { now_ms: 0 });
        'run: loop {
            // Accept every waiting connection, then drain one event.
            // WouldBlock and real accept errors alike fall through to
            // the event loop and retry next pass.
            while let Ok((mut stream, _peer)) = listener.accept() {
                let worker = next_worker;
                next_worker += 1;
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                let _ = stream.set_nodelay(true);
                match stream.try_clone() {
                    Ok(writer) => {
                        writers.insert(worker, writer);
                    }
                    Err(_) => continue,
                }
                let tx = event_tx.clone();
                let stop = &reader_stop;
                scope.spawn(move || {
                    while let Ok(Some(payload)) = read_frame_draining(&mut stream, stop, None) {
                        if tx.send(CoordEvent::Frame { worker, payload }).is_err() {
                            return;
                        }
                    }
                    let _ = tx.send(CoordEvent::Disconnected { worker });
                });
                queue.push_back(CoordEvent::Connected { worker });
            }
            if queue.is_empty() {
                match event_rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(event) => queue.push_back(event),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("we hold a sender"),
                }
                while let Ok(event) = event_rx.try_recv() {
                    queue.push_back(event);
                }
                let now_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
                queue.push_back(CoordEvent::Tick { now_ms });
            }
            if !drain_sent && SHUTDOWN.load(Ordering::SeqCst) {
                drain_sent = true;
                drained = true;
                queue.push_front(CoordEvent::Drain);
            }
            while let Some(event) = queue.pop_front() {
                for action in machine.step(event) {
                    match action {
                        CoordAction::Send { worker, payload } => {
                            let failed = match writers.get_mut(&worker) {
                                Some(stream) => write_frame(stream, &payload).is_err(),
                                None => false, // already closed
                            };
                            if failed {
                                writers.remove(&worker);
                                queue.push_back(CoordEvent::Disconnected { worker });
                            }
                        }
                        CoordAction::Deliver { job, line } => {
                            if !on_line(job, &line) {
                                cancelled = true;
                                break 'run;
                            }
                        }
                        CoordAction::Close { worker } => {
                            if let Some(stream) = writers.remove(&worker) {
                                let _ = stream.shutdown(std::net::Shutdown::Both);
                            }
                        }
                        CoordAction::Finished => finished = true,
                        CoordAction::Fatal { message } => fatal = Some(message),
                    }
                }
                if finished || fatal.is_some() {
                    break 'run;
                }
            }
        }
        reader_stop.store(true, Ordering::SeqCst);
        for (_, stream) in writers.iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        drop(listener);
    });
    if let Some(message) = fatal {
        return Err(message);
    }
    if cancelled {
        return Err("output sink cancelled the run".to_string());
    }
    Ok(CoordinatorSummary {
        jobs_delivered: machine.delivered_through() - first_job,
        counters: machine.counters().clone(),
        drained,
    })
}

/// What a finished worker reports.
#[derive(Debug)]
pub struct WorkerSummary {
    /// Jobs this worker computed and reported.
    pub jobs_computed: usize,
}

/// Runs a [`ShardWorker`] over real TCP against `jobs` — the **full**
/// global job list of the same manifest the coordinator loaded (lease
/// indices index into it directly) — until drained or disconnected.
///
/// # Errors
///
/// Connection failures, protocol violations, and a coordinator that
/// hangs up while jobs are still leased.
pub fn run_worker(
    jobs: &[BatchJob],
    fingerprint: &str,
    name: &str,
    connect: &str,
    heartbeat_interval_ms: u64,
) -> Result<WorkerSummary, String> {
    let mut stream =
        TcpStream::connect(connect).map_err(|e| format!("cannot connect to {connect}: {e}"))?;
    stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .map_err(|e| format!("cannot arm read timeout: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    let mut read_half = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;

    let mut machine = ShardWorker::new(name, fingerprint, heartbeat_interval_ms);
    let started = Instant::now();
    let reader_stop = AtomicBool::new(false);
    let (event_tx, event_rx) = mpsc::channel::<WorkerEvent>();
    let (compute_tx, compute_rx) = mpsc::channel::<usize>();
    let mut computed = 0usize;
    let mut outcome: Result<(), String> = Ok(());

    thread::scope(|scope| {
        let reader_tx = event_tx.clone();
        let stop = &reader_stop;
        scope.spawn(move || {
            while let Ok(Some(payload)) = read_frame_draining(&mut read_half, stop, None) {
                if reader_tx.send(WorkerEvent::Frame { payload }).is_err() {
                    return;
                }
            }
            let _ = reader_tx.send(WorkerEvent::ConnectionClosed);
        });
        // Jobs compute off the event loop so heartbeats keep flowing
        // under a long mapping.
        let compute_out = event_tx.clone();
        scope.spawn(move || {
            let mut cache = LruLibraryCache::new(usize::MAX);
            for job in compute_rx {
                let line = run_job(&jobs[job], &mut cache);
                if compute_out
                    .send(WorkerEvent::Computed { job, line })
                    .is_err()
                {
                    return;
                }
            }
        });

        let mut queue: VecDeque<WorkerEvent> = VecDeque::new();
        queue.push_back(WorkerEvent::Start);
        'run: loop {
            if queue.is_empty() {
                match event_rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(event) => queue.push_back(event),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("we hold a sender"),
                }
                let now_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
                queue.push_back(WorkerEvent::Tick { now_ms });
            }
            while let Some(event) = queue.pop_front() {
                if matches!(event, WorkerEvent::Computed { .. }) {
                    computed += 1;
                }
                for action in machine.step(event) {
                    match action {
                        WorkerAction::Send { payload } => {
                            if write_frame(&mut stream, &payload).is_err() {
                                queue.push_back(WorkerEvent::ConnectionClosed);
                            }
                        }
                        WorkerAction::Compute { job } => {
                            if job >= jobs.len() {
                                outcome = Err(format!(
                                    "leased job {job} but the manifest has {} jobs \
                                     (fingerprint mismatch?)",
                                    jobs.len()
                                ));
                                break 'run;
                            }
                            compute_tx.send(job).expect("compute thread alive");
                        }
                        WorkerAction::Exit { error } => {
                            if let Some(message) = error {
                                outcome = Err(message);
                            }
                            break 'run;
                        }
                    }
                }
            }
        }
        reader_stop.store(true, Ordering::SeqCst);
        let _ = stream.shutdown(std::net::Shutdown::Both);
        drop(compute_tx);
    });
    outcome.map(|()| WorkerSummary {
        jobs_computed: computed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{manifest_fingerprint, run_batch, BatchManifest};

    fn payload_of(action: &CoordAction) -> &str {
        match action {
            CoordAction::Send { payload, .. } => payload,
            other => panic!("expected Send, got {other:?}"),
        }
    }

    #[test]
    fn messages_round_trip_including_awkward_lines() {
        let msgs = [
            ShardMsg::Hello {
                name: "w-1".to_string(),
                fingerprint: "abc-4".to_string(),
            },
            ShardMsg::Lease {
                lease: 7,
                start: 10,
                end: 14,
            },
            ShardMsg::Result {
                lease: 7,
                job: 10,
                line: "{\"schema\":\"sunmap-batch/1\",\"job\":\"a\\\"b|1\"}".to_string(),
            },
            ShardMsg::Heartbeat,
            ShardMsg::Drain,
        ];
        for msg in msgs {
            let wire = msg.to_json();
            assert_eq!(ShardMsg::parse(&wire).unwrap(), msg, "{wire}");
        }
        assert!(ShardMsg::parse("{\"op\":\"lease\"}").is_err(), "no schema");
        assert!(
            ShardMsg::parse("{\"schema\":\"sunmap-shard/1\",\"op\":\"warp\"}").is_err(),
            "unknown op"
        );
        assert!(
            ShardMsg::parse(
                "{\"schema\":\"sunmap-shard/1\",\"op\":\"lease\",\"lease\":-1,\
                             \"start\":0,\"end\":1}"
            )
            .is_err(),
            "negative index"
        );
    }

    fn test_config(total: usize, grain: usize) -> CoordConfig {
        CoordConfig {
            total_jobs: total,
            grain,
            lease_timeout_ms: 100,
            heartbeat_timeout_ms: 300,
            max_attempts: 3,
            fingerprint: "fp-test".to_string(),
            ..CoordConfig::default()
        }
    }

    fn hello(worker: WorkerId) -> CoordEvent {
        CoordEvent::Frame {
            worker,
            payload: ShardMsg::Hello {
                name: format!("w{worker}"),
                fingerprint: "fp-test".to_string(),
            }
            .to_json(),
        }
    }

    fn result(worker: WorkerId, lease: u64, job: usize) -> CoordEvent {
        CoordEvent::Frame {
            worker,
            payload: ShardMsg::Result {
                lease,
                job,
                line: format!("line-{job}"),
            }
            .to_json(),
        }
    }

    #[test]
    fn happy_path_delivers_in_order_and_finishes() {
        let mut c = Coordinator::new(test_config(4, 2));
        assert!(c.step(CoordEvent::Connected { worker: 0 }).is_empty());
        let granted = c.step(hello(0));
        assert_eq!(granted.len(), 1);
        assert!(payload_of(&granted[0]).contains("\"start\":0"));
        // Results for the first lease, deliberately out of order: job 1
        // is buffered until job 0 lands.
        assert!(c.step(result(0, 0, 1)).is_empty());
        let actions = c.step(result(0, 0, 0));
        assert!(matches!(&actions[0], CoordAction::Deliver { job: 0, .. }));
        assert!(matches!(&actions[1], CoordAction::Deliver { job: 1, .. }));
        // Completing the lease grants the next range immediately.
        assert!(payload_of(&actions[2]).contains("\"start\":2"));
        c.step(result(0, 1, 2));
        let finale = c.step(result(0, 1, 3));
        assert!(finale.iter().any(|a| matches!(a, CoordAction::Finished)));
        assert_eq!(c.counters().jobs_completed, 4);
        assert_eq!(c.counters().leases_granted, 2);
        assert_eq!(c.counters().worker_deaths, 0);
    }

    #[test]
    fn equal_duplicates_dedup_and_divergent_duplicates_are_fatal() {
        let mut c = Coordinator::new(test_config(2, 2));
        c.step(CoordEvent::Connected { worker: 0 });
        c.step(hello(0));
        c.step(result(0, 0, 0));
        assert!(c.step(result(0, 0, 0)).is_empty(), "equal dup is silent");
        assert_eq!(c.counters().duplicate_results, 1);
        let divergent = CoordEvent::Frame {
            worker: 0,
            payload: ShardMsg::Result {
                lease: 0,
                job: 0,
                line: "something else".to_string(),
            }
            .to_json(),
        };
        let actions = c.step(divergent);
        assert!(
            actions.iter().any(
                |a| matches!(a, CoordAction::Fatal { message } if message.contains("divergent"))
            ),
            "{actions:?}"
        );
    }

    #[test]
    fn dead_worker_requeues_and_a_range_out_of_retries_is_fatal() {
        let mut c = Coordinator::new(test_config(2, 2));
        // Three workers in sequence, each dying with the lease held:
        // attempts 1..=3, and max_attempts = 3 makes the fourth grant
        // impossible.
        for worker in 0..3u64 {
            c.step(CoordEvent::Connected { worker });
            let granted = c.step(hello(worker));
            assert_eq!(granted.len(), 1, "worker {worker} gets the range");
            let actions = c.step(CoordEvent::Disconnected { worker });
            if worker < 2 {
                assert!(actions.is_empty(), "requeued silently");
            } else {
                assert!(
                    actions
                        .iter()
                        .any(|a| matches!(a, CoordAction::Fatal { message } if message.contains("giving up"))),
                    "{actions:?}"
                );
            }
        }
        assert_eq!(c.counters().worker_deaths, 3);
        assert_eq!(c.counters().ranges_requeued, 2);
    }

    #[test]
    fn lease_timeout_backs_off_then_reissues() {
        let mut c = Coordinator::new(test_config(2, 2));
        c.step(CoordEvent::Connected { worker: 0 });
        c.step(hello(0));
        // Past the lease deadline: the range requeues with backoff but
        // worker 0 (still alive, now idle) cannot take it until the
        // backoff expires.
        let actions = c.step(CoordEvent::Tick { now_ms: 101 });
        assert!(actions.is_empty(), "backoff gates the re-grant");
        assert_eq!(c.counters().lease_retries, 1);
        let actions = c.step(CoordEvent::Tick { now_ms: 202 });
        assert_eq!(actions.len(), 1, "backoff expired: re-granted");
        assert!(payload_of(&actions[0]).contains("\"lease\":1"));
        // The original (timed-out) lease's late results still count.
        let finale = c.step(result(0, 0, 1));
        assert!(finale.is_empty(), "job 1 buffered behind job 0");
        let finale = c.step(result(0, 1, 0));
        assert!(finale.iter().any(|a| matches!(a, CoordAction::Finished)));
    }

    #[test]
    fn silent_worker_is_declared_dead_by_heartbeat_timeout() {
        let mut c = Coordinator::new(test_config(2, 2));
        c.step(CoordEvent::Connected { worker: 0 });
        c.step(hello(0));
        let actions = c.step(CoordEvent::Tick { now_ms: 301 });
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, CoordAction::Close { worker: 0 })),
            "{actions:?}"
        );
        assert_eq!(c.counters().worker_deaths, 1);
        // A heartbeat after the clock advanced resets the deadline.
        let mut c = Coordinator::new(test_config(2, 2));
        c.step(CoordEvent::Connected { worker: 0 });
        c.step(hello(0));
        c.step(CoordEvent::Tick { now_ms: 250 });
        c.step(CoordEvent::Frame {
            worker: 0,
            payload: ShardMsg::Heartbeat.to_json(),
        });
        let actions = c.step(CoordEvent::Tick { now_ms: 301 });
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, CoordAction::Close { .. })),
            "{actions:?}"
        );
        assert_eq!(c.counters().worker_deaths, 0);
    }

    #[test]
    fn mismatched_fingerprint_is_dismissed_before_leasing() {
        let mut c = Coordinator::new(test_config(2, 2));
        c.step(CoordEvent::Connected { worker: 0 });
        let actions = c.step(CoordEvent::Frame {
            worker: 0,
            payload: ShardMsg::Hello {
                name: "stranger".to_string(),
                fingerprint: "some-other-manifest".to_string(),
            }
            .to_json(),
        });
        assert!(payload_of(&actions[0]).contains("\"op\":\"drain\""));
        assert!(matches!(actions[1], CoordAction::Close { worker: 0 }));
        assert_eq!(c.counters().leases_granted, 0);
    }

    #[test]
    fn drain_finishes_after_inflight_leases_settle() {
        let mut c = Coordinator::new(test_config(6, 2));
        c.step(CoordEvent::Connected { worker: 0 });
        c.step(hello(0)); // leased 0..2
        let actions = c.step(CoordEvent::Drain);
        assert!(
            !actions.iter().any(|a| matches!(a, CoordAction::Finished)),
            "lease 0 still in flight: {actions:?}"
        );
        c.step(result(0, 0, 0));
        let actions = c.step(result(0, 0, 1));
        assert!(
            actions.iter().any(|a| matches!(a, CoordAction::Finished)),
            "{actions:?}"
        );
        // Jobs 0..2 delivered; 2..6 left for --resume.
        assert_eq!(c.delivered_through(), 2);
    }

    #[test]
    fn worker_machine_computes_sequentially_and_drains_clean() {
        let mut w = ShardWorker::new("w0", "fp-test", 50);
        let actions = w.step(WorkerEvent::Start);
        assert!(matches!(&actions[0], WorkerAction::Send { payload } if payload.contains("hello")));
        let actions = w.step(WorkerEvent::Frame {
            payload: ShardMsg::Lease {
                lease: 0,
                start: 3,
                end: 5,
            }
            .to_json(),
        });
        assert_eq!(actions, vec![WorkerAction::Compute { job: 3 }]);
        let actions = w.step(WorkerEvent::Computed {
            job: 3,
            line: "l3".to_string(),
        });
        assert!(
            matches!(&actions[0], WorkerAction::Send { payload } if payload.contains("\"job\":3"))
        );
        assert_eq!(actions[1], WorkerAction::Compute { job: 4 });
        // Drain mid-compute: finish the queue first, then exit clean.
        assert!(w
            .step(WorkerEvent::Frame {
                payload: ShardMsg::Drain.to_json(),
            })
            .is_empty());
        let actions = w.step(WorkerEvent::Computed {
            job: 4,
            line: "l4".to_string(),
        });
        assert!(matches!(&actions[0], WorkerAction::Send { .. }));
        assert_eq!(actions[1], WorkerAction::Exit { error: None });
        // Heartbeats fire on the interval.
        let mut w = ShardWorker::new("w0", "fp-test", 50);
        w.step(WorkerEvent::Start);
        assert!(w.step(WorkerEvent::Tick { now_ms: 20 }).is_empty());
        let actions = w.step(WorkerEvent::Tick { now_ms: 60 });
        // Not yet introduced, so the beat re-sends the hello first.
        assert!(matches!(&actions[0], WorkerAction::Send { payload } if payload.contains("hello")));
        assert!(
            matches!(&actions[1], WorkerAction::Send { payload } if payload.contains("heartbeat"))
        );
    }

    /// End-to-end over real TCP, in process: a coordinator and two
    /// workers assemble the exact bytes a single-process run produces.
    #[test]
    fn tcp_shims_reproduce_the_single_process_bytes() {
        let manifest = BatchManifest::parse(
            "app dsp\nobjective power\nobjective delay\nrouting MP\nrouting DO\ncapacity 1000\n",
        )
        .unwrap();
        let jobs = manifest.jobs().unwrap();
        let fingerprint = manifest_fingerprint(&jobs);
        let mut oracle = Vec::new();
        run_batch(&jobs, 1, |_, line| {
            oracle.push(line.to_string());
            true
        });

        let config = CoordConfig {
            total_jobs: jobs.len(),
            grain: 1,
            fingerprint: fingerprint.clone(),
            ..CoordConfig::default()
        };
        let (addr_tx, addr_rx) = mpsc::channel();
        let mut delivered: Vec<(usize, String)> = Vec::new();
        thread::scope(|scope| {
            let coordinator = scope.spawn(|| {
                run_coordinator(
                    config,
                    "127.0.0.1:0",
                    |addr| addr_tx.send(addr).expect("report addr"),
                    |job, line| {
                        delivered.push((job, line.to_string()));
                        true
                    },
                )
            });
            let addr = addr_rx.recv().expect("coordinator comes up").to_string();
            let workers: Vec<_> = (0..2)
                .map(|i| {
                    let (jobs, fp, addr) = (&jobs, &fingerprint, addr.clone());
                    scope.spawn(move || run_worker(jobs, fp, &format!("w{i}"), &addr, 1_000))
                })
                .collect();
            let summary = coordinator.join().expect("no panic").expect("clean finish");
            assert_eq!(summary.jobs_delivered, jobs.len());
            assert_eq!(summary.counters.jobs_completed as usize, jobs.len());
            let mut computed = 0;
            for worker in workers {
                computed += worker
                    .join()
                    .expect("no panic")
                    .expect("clean exit")
                    .jobs_computed;
            }
            assert_eq!(computed, jobs.len(), "no job computed twice");
        });
        let lines: Vec<String> = delivered.iter().map(|(_, l)| l.clone()).collect();
        let order: Vec<usize> = delivered.iter().map(|(j, _)| *j).collect();
        assert_eq!(order, (0..jobs.len()).collect::<Vec<_>>(), "in order");
        assert_eq!(lines, oracle, "byte-identical to the single-process run");
    }
}
