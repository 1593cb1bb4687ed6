//! The daemon: a worker pool draining a job queue against the shared
//! per-model engines, plus connection handlers speaking the frame
//! protocol over TCP or stdin/stdout.
//!
//! Jobs outlive connections. A submit auto-subscribes the submitting
//! connection, but the job keeps running (and buffering events) if that
//! connection dies; any later connection can `Attach` and catch up.
//! Shutdown — by request or SIGTERM — cancels running jobs at their next
//! step boundary, drains the pool, and flushes every model's cache to its
//! sidecar file so the next daemon starts warm.
//!
//! Hardening (see [`crate::faults`] for the chaos harness that tests it):
//!
//! * Worker panics are caught per job: the job emits `Failed{diagnostic}`
//!   and the worker moves on; every registry/server lock uses the
//!   poison-recovering idiom ([`maestro::lock_recovering`]).
//! * Per-job deadlines: a job whose `deadline_ms` expires is stopped at
//!   its next step boundary and reports its best-so-far outcome marked
//!   degraded — a partial answer, not an error. Cancelled/shutdown jobs
//!   reuse the same best-so-far path.
//! * Admission control: submits beyond [`ServerConfig::max_active`]
//!   queued+running jobs get `Rejected{retry_after_ms}` instead of an
//!   unbounded queue.
//! * Corrupt sidecars are salvaged and quarantined at warm-load instead
//!   of aborting the warm start.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use confuciux::{HwProblem, JobSpec, SearchCheckpoint, SearchError, SearchOutcome, TwoStageRunner};
use maestro::{lock_recovering, CacheLoad};

use crate::faults::{FaultInjector, FaultPlan};
use crate::protocol::{poll_frame, write_frame, Event, FrameError, Polled, Request};
use crate::registry::{JobStatus, Registry};

/// How long blocking polls (frame reads, queue receives, accept retries)
/// wait before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Write timeout on daemon TCP streams: a peer that stops draining its
/// socket stalls only its own writer thread, and only this long, instead
/// of wedging it forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running jobs concurrently.
    pub workers: usize,
    /// Directory for per-model cache sidecars (`<model>.cache.jsonl`).
    /// `None` disables persistence.
    pub sidecar_dir: Option<PathBuf>,
    /// Seconds between periodic sidecar flushes (also flushed once more
    /// on shutdown).
    pub flush_secs: u64,
    /// Admission bound: submits while this many jobs are already queued
    /// or running get `Rejected{retry_after_ms}` instead of growing the
    /// queue without limit.
    pub max_active: usize,
    /// Deterministic fault schedule (no-op by default); see
    /// [`crate::faults`].
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            sidecar_dir: None,
            flush_secs: 30,
            max_active: 64,
            faults: FaultPlan::default(),
        }
    }
}

/// What became of a submit under admission control.
enum Submission {
    Accepted(u64),
    Rejected { retry_after_ms: u64 },
}

struct Inner {
    registry: Registry,
    config: ServerConfig,
    queue: Mutex<mpsc::Sender<u64>>,
    shutdown: Arc<AtomicBool>,
    faults: Arc<FaultInjector>,
}

impl Inner {
    /// Validates a job and, if the active-job bound admits it, enqueues
    /// it. Over-limit submits are rejected with a retry hint scaled to
    /// the backlog per worker — no job is created.
    fn submit(&self, spec: JobSpec) -> Result<Submission, SearchError> {
        spec.validate()?;
        let active = self.registry.active_jobs();
        if active >= self.config.max_active {
            let workers = self.config.workers.max(1) as u64;
            let backlog = active as u64 + 1;
            let retry_after_ms = (250 * (backlog + workers - 1) / workers).clamp(100, 10_000);
            return Ok(Submission::Rejected { retry_after_ms });
        }
        let id = self.registry.insert(spec);
        lock_recovering(&self.queue)
            .send(id)
            .map_err(|_| SearchError::Unsupported("daemon is shutting down".to_string()))?;
        Ok(Submission::Accepted(id))
    }

    /// Re-enqueues a cancelled/failed/degraded job to continue from the
    /// checkpoint taken at its last cancel or deadline stop, or from its
    /// spec when it has none (a panicked first run, or a stage-1 agent
    /// without state saving). Either way the result is bit-identical to
    /// an uninterrupted run. Resumes bypass admission control: the job
    /// was already admitted once and still holds its slot in the registry.
    fn resume(&self, id: u64) -> Result<(), String> {
        let accepted = self.registry.with_job(id, |state| {
            let resumable = matches!(
                state.status,
                JobStatus::Cancelled | JobStatus::Failed | JobStatus::Degraded
            );
            if resumable {
                state.status = JobStatus::Queued;
            }
            resumable
        });
        match accepted {
            None => Err(format!("unknown job {id}")),
            Some(false) => Err(format!(
                "job {id} is not resumable (must be cancelled/failed/degraded)"
            )),
            Some(true) => {
                if let Some(flag) = self.registry.cancel_flag(id) {
                    flag.store(false, Ordering::Relaxed);
                }
                lock_recovering(&self.queue)
                    .send(id)
                    .map_err(|_| "daemon is shutting down".to_string())
            }
        }
    }

    fn sidecar_path(&self, model: &str) -> Option<PathBuf> {
        self.config
            .sidecar_dir
            .as_ref()
            .map(|dir| dir.join(format!("{model}.cache.jsonl")))
    }

    /// Writes every model's cache to its sidecar file.
    fn flush_sidecars(&self) {
        for (model, engine) in self.registry.engines_snapshot() {
            if let Some(path) = self.sidecar_path(&model) {
                match engine.save_cache_file(&path) {
                    Ok(()) => self.faults.maybe_corrupt_sidecar(&path),
                    Err(e) => {
                        eprintln!("confuciux-server: sidecar flush for {model} failed: {e}")
                    }
                }
            }
        }
    }
}

/// The search daemon. Construct with [`Server::new`], then drive it with
/// [`Server::serve_listener`] (TCP) or [`Server::serve_stdio`]; both
/// return once the shutdown flag is set and the final sidecar flush is
/// done.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    pub fn new(config: ServerConfig) -> Self {
        let (tx, rx) = mpsc::channel::<u64>();
        let faults = Arc::new(FaultInjector::new(config.faults.clone()));
        if !faults.plan().is_noop() {
            eprintln!("confuciux-server: fault plan armed: {}", faults.plan());
        }
        let inner = Arc::new(Inner {
            registry: Registry::new(),
            config,
            queue: Mutex::new(tx),
            shutdown: Arc::new(AtomicBool::new(false)),
            faults,
        });
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..inner.config.workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                let rx = rx.clone();
                thread::spawn(move || worker_loop(&inner, &rx))
            })
            .collect();
        let flusher = inner.config.sidecar_dir.is_some().then(|| {
            let inner = inner.clone();
            thread::spawn(move || flusher_loop(&inner))
        });
        Server {
            inner,
            workers: Mutex::new(workers),
            flusher: Mutex::new(flusher),
        }
    }

    /// The flag that stops the daemon; share it with a signal handler to
    /// make SIGTERM a graceful shutdown.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.inner.shutdown.clone()
    }

    /// Accepts connections until shutdown, then drains workers and
    /// flushes sidecars. Returns the bound address via `addr_tx` style —
    /// use `listener.local_addr()` before calling if you bound port 0.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !self.inner.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let inner = self.inner.clone();
                    conns.push(thread::spawn(move || handle_tcp_conn(inner, stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(POLL_INTERVAL / 2);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for conn in conns {
            let _ = conn.join();
        }
        self.finish();
        Ok(())
    }

    /// Binds `addr` and serves it; returns the actual bound address
    /// (useful with port 0) through the callback before blocking.
    pub fn serve_addr(&self, addr: &str, on_bound: impl FnOnce(SocketAddr)) -> std::io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        self.serve_listener(listener)
    }

    /// Serves one session over stdin/stdout (the process-child transport),
    /// then shuts the daemon down when the session ends.
    pub fn serve_stdio(&self) {
        serve_connection(&self.inner, std::io::stdin(), std::io::stdout(), None);
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.finish();
    }

    /// Joins workers and the flusher, then performs the final sidecar
    /// flush.
    fn finish(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for worker in lock_recovering(&self.workers).drain(..) {
            let _ = worker.join();
        }
        if let Some(flusher) = lock_recovering(&self.flusher).take() {
            let _ = flusher.join();
        }
        self.inner.flush_sidecars();
    }
}

fn worker_loop(inner: &Arc<Inner>, rx: &Arc<Mutex<mpsc::Receiver<u64>>>) {
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let next = lock_recovering(rx).recv_timeout(POLL_INTERVAL);
        match next {
            Ok(id) => run_job(inner, id),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn flusher_loop(inner: &Arc<Inner>) {
    let period = Duration::from_secs(inner.config.flush_secs.max(1));
    let mut since_flush = Duration::ZERO;
    while !inner.shutdown.load(Ordering::Relaxed) {
        thread::sleep(POLL_INTERVAL);
        since_flush += POLL_INTERVAL;
        if since_flush >= period {
            inner.flush_sidecars();
            since_flush = Duration::ZERO;
        }
    }
}

/// Builds the job's problem over the model family's shared engine,
/// creating (and warm-loading from the sidecar, if present) the engine on
/// first use. Sidecar loading is tolerant: a corrupt file is quarantined
/// to `<name>.corrupt` and its valid prefix salvaged — a torn flush must
/// never keep the daemon from serving the model.
fn build_problem(inner: &Inner, spec: &JobSpec) -> Result<HwProblem, SearchError> {
    let model = dnn_models::by_name(&spec.model)
        .ok_or_else(|| SearchError::InvalidSpec(format!("unknown model `{}`", spec.model)))?;
    let canonical = model.name().to_string();
    if let Some(engine) = inner.registry.engine_for(&canonical) {
        return spec.build_shared(engine);
    }
    let problem = spec.build()?;
    if let Some(path) = inner.sidecar_path(&canonical) {
        if path.exists() {
            match problem.engine_handle().load_cache_file_salvaging(&path) {
                Ok(CacheLoad::Clean { entries }) => {
                    eprintln!("confuciux-server: warmed {canonical} with {entries} sidecar entries")
                }
                Ok(CacheLoad::Salvaged {
                    entries,
                    lines_dropped,
                    quarantined,
                }) => eprintln!(
                    "confuciux-server: sidecar for {canonical} was corrupt: salvaged {entries} \
                     entries, dropped {lines_dropped} lines, quarantined to {}",
                    quarantined.display()
                ),
                Err(e) => eprintln!("confuciux-server: sidecar load for {canonical} failed: {e}"),
            }
        }
    }
    inner
        .registry
        .register_engine(&canonical, problem.engine_handle());
    Ok(problem)
}

fn fail_job(inner: &Inner, id: u64, error: String) {
    inner
        .registry
        .with_job(id, |state| state.status = JobStatus::Failed);
    inner.registry.publish(id, |seq| Event::Failed {
        job: id,
        seq,
        error,
    });
}

/// Records a job's terminal status, outcome and resume point in the
/// registry. `checkpoint` replaces whatever the job held before.
fn settle(
    inner: &Inner,
    id: u64,
    status: JobStatus,
    outcome: &SearchOutcome,
    checkpoint: Option<SearchCheckpoint>,
) {
    inner.registry.with_job(id, |state| {
        state.status = status;
        state.outcome = Some(outcome.clone());
        state.checkpoint = checkpoint;
    });
    if status == JobStatus::Done {
        inner.registry.retire_done(id);
    }
}

/// Renders a caught panic payload for a `Failed{diagnostic}` event.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job on the calling worker thread. Panics inside the search —
/// injected or genuine — are caught here: the job fails with a
/// diagnostic, the worker survives to take the next job, and the
/// poison-recovering locks keep the registry usable for everyone else.
fn run_job(inner: &Arc<Inner>, id: u64) {
    let Some(job) = inner.registry.job(id) else {
        return;
    };
    let (spec, resume_from) = {
        let mut state = lock_recovering(&job);
        if state.status != JobStatus::Queued {
            return;
        }
        state.status = JobStatus::Running;
        (state.spec.clone(), state.checkpoint.clone())
    };
    inner
        .registry
        .publish(id, |seq| Event::Started { job: id, seq });
    let drove = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drive_job(inner, id, &spec, resume_from)
    }));
    if let Err(payload) = drove {
        fail_job(
            inner,
            id,
            format!("worker panicked: {}", panic_message(payload.as_ref())),
        );
    }
}

/// Steps the job's runner to completion, deadline expiry, or
/// cancellation, publishing progress along the way. Every early stop goes
/// through the same best-so-far path ([`TwoStageRunner::partial_result`]):
/// the difference between a deadline, a cancel, and a shutdown is only
/// the terminal status and event, never the quality of the answer.
///
/// The runner is checkpointed only where the job can later be resumed:
/// once at a cancel or deadline stop, both of which land on a step
/// boundary. A shutdown stop saves nothing (the in-memory registry dies
/// with the process), and a finished job drops its checkpoint.
fn drive_job(inner: &Arc<Inner>, id: u64, spec: &JobSpec, resume_from: Option<SearchCheckpoint>) {
    let problem = match build_problem(inner, spec) {
        Ok(p) => p,
        Err(e) => return fail_job(inner, id, e.to_string()),
    };
    let mut runner = match &resume_from {
        Some(checkpoint) => match TwoStageRunner::resume(&problem, checkpoint) {
            Ok(r) => r,
            Err(e) => return fail_job(inner, id, format!("resume failed: {e}")),
        },
        None => TwoStageRunner::new(&problem, &spec.two_stage_config(), spec.seed),
    };
    let stats_base = problem.eval_stats();
    let cancel = inner
        .registry
        .cancel_flag(id)
        .expect("every registered job has a cancel flag");
    // The deadline window restarts on resume: it bounds how long a worker
    // is held per run, not the job's cumulative lifetime.
    let deadline = spec.deadline();
    let started = Instant::now();
    let mut step: u64 = 0;

    loop {
        if cancel.load(Ordering::Relaxed) || inner.shutdown.load(Ordering::Relaxed) {
            let cancelled = cancel.load(Ordering::Relaxed);
            let reason = if cancelled {
                "cancelled"
            } else {
                "daemon shutdown"
            };
            let outcome = runner.partial_result().outcome().into_degraded(reason);
            // Stage-1 agents without state saving yield no checkpoint;
            // resuming such a job restarts it from its spec.
            let checkpoint = if cancelled {
                runner.checkpoint().ok()
            } else {
                None
            };
            settle(inner, id, JobStatus::Cancelled, &outcome, checkpoint);
            inner
                .registry
                .publish(id, |seq| Event::Cancelled { job: id, seq });
            return;
        }
        if deadline.is_some_and(|limit| started.elapsed() >= limit) {
            let reason = format!("deadline {}ms expired", spec.deadline_ms.unwrap_or(0));
            let outcome = runner
                .partial_result()
                .outcome()
                .into_degraded(reason.clone());
            settle(
                inner,
                id,
                JobStatus::Degraded,
                &outcome,
                runner.checkpoint().ok(),
            );
            inner.registry.publish(id, |seq| Event::Degraded {
                job: id,
                seq,
                reason,
                outcome,
            });
            return;
        }
        inner.faults.maybe_panic_worker(step);
        let more = runner.step();
        step += 1;
        let stats = problem.eval_stats().since(stats_base);
        inner.registry.publish(id, |seq| Event::Progress {
            job: id,
            seq,
            epochs: runner.global_epochs_done(),
            evaluations: runner.fine_evaluations_done(),
            best_cost_bits: runner.best_cost_so_far().map(f64::to_bits),
            stats,
        });
        if !more {
            break;
        }
    }

    let outcome = runner
        .result()
        .expect("step() returned false, so the runner is done")
        .outcome();
    settle(inner, id, JobStatus::Done, &outcome, None);
    inner.registry.publish(id, |seq| Event::Done {
        job: id,
        seq,
        outcome,
    });
}

fn handle_tcp_conn(inner: Arc<Inner>, stream: TcpStream) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // A peer that stops draining its socket must stall only its own
    // writer thread, and only briefly — not wedge it forever.
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    // Hard-close hook for the drop_conn fault: shutting down both
    // directions makes the drop visible to the client as a real torn
    // TCP session, not a polite EOF.
    let kill = stream.try_clone().ok().map(|s| {
        Box::new(move || {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }) as Box<dyn FnOnce() + Send>
    });
    serve_connection(&inner, stream, writer, kill);
}

/// Speaks the protocol on one connection: a writer thread drains the
/// event channel (which the registry's publishers also feed) while this
/// thread reads requests. The writer thread is also where write-side
/// faults act: `delay_write` before each frame, `drop_conn` (via `kill`)
/// after the configured frame count.
fn serve_connection<R: Read, W: Write + Send + 'static>(
    inner: &Arc<Inner>,
    mut reader: R,
    mut writer: W,
    kill: Option<Box<dyn FnOnce() + Send>>,
) {
    let (tx, rx) = mpsc::channel::<Event>();
    let conn_done = Arc::new(AtomicBool::new(false));
    let writer_done = conn_done.clone();
    let faults = inner.faults.clone();
    let writer_thread = thread::spawn(move || {
        let mut kill = kill;
        let mut frames_written: u64 = 0;
        loop {
            match rx.recv_timeout(POLL_INTERVAL) {
                Ok(event) => {
                    faults.delay_write();
                    if write_frame(&mut writer, &event).is_err() {
                        return;
                    }
                    frames_written += 1;
                    if faults.should_drop_conn(frames_written) {
                        if let Some(kill) = kill.take() {
                            kill();
                        }
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if writer_done.load(Ordering::Relaxed) {
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    });

    loop {
        match poll_frame::<_, Request>(&mut reader) {
            Ok(Polled::Frame(request)) => {
                if handle_request(inner, &tx, request) {
                    break;
                }
            }
            Ok(Polled::Closed) => break,
            Ok(Polled::Idle) => {
                if inner.shutdown.load(Ordering::Relaxed) {
                    let _ = tx.send(Event::ShuttingDown);
                    break;
                }
            }
            // Framing survived; report and keep the connection.
            Err(FrameError::Malformed(message)) => {
                let _ = tx.send(Event::Error { message });
            }
            // Stream out of sync or broken; nothing more to salvage.
            Err(_) => break,
        }
    }
    // Give the writer a moment to drain queued events, then stop it. The
    // registry still holds subscriber clones of `tx`; those get pruned on
    // their next failed send.
    drop(tx);
    conn_done.store(true, Ordering::Relaxed);
    let _ = writer_thread.join();
}

/// Executes one request; returns `true` when the connection should close.
fn handle_request(inner: &Arc<Inner>, tx: &mpsc::Sender<Event>, request: Request) -> bool {
    match request {
        Request::Ping => {
            let _ = tx.send(Event::Pong);
        }
        Request::Submit { spec } => match inner.submit(spec) {
            Ok(Submission::Accepted(job)) => {
                let _ = tx.send(Event::Submitted { job });
                // The worker may start publishing between submit() and
                // here; a bare subscribe() would drop those events. Attach
                // from seq 0 instead — it replays the gap atomically.
                let _ = inner.registry.attach(job, 0, tx.clone());
            }
            Ok(Submission::Rejected { retry_after_ms }) => {
                let _ = tx.send(Event::Rejected { retry_after_ms });
            }
            Err(e) => {
                let _ = tx.send(Event::Error {
                    message: e.to_string(),
                });
            }
        },
        Request::Attach { job, from_seq } => {
            if inner.registry.attach(job, from_seq, tx.clone()).is_none() {
                let _ = tx.send(Event::Error {
                    message: format!("unknown job {job}"),
                });
            }
        }
        Request::Cancel { job } => {
            if !inner.registry.cancel(job) {
                let _ = tx.send(Event::Error {
                    message: format!("unknown job {job}"),
                });
            }
        }
        Request::Resume { job } => {
            // Snapshot the seq horizon before re-enqueueing, so the attach
            // below replays exactly the resumed run's events (racing the
            // worker like Submit does) and none of the previous run's.
            let from_seq = inner
                .registry
                .with_job(job, |state| state.events_emitted())
                .unwrap_or(0);
            match inner.resume(job) {
                Ok(()) => {
                    let _ = tx.send(Event::Submitted { job });
                    let _ = inner.registry.attach(job, from_seq, tx.clone());
                }
                Err(message) => {
                    let _ = tx.send(Event::Error { message });
                }
            }
        }
        Request::Jobs => {
            let _ = tx.send(Event::JobList {
                jobs: inner.registry.summaries(),
            });
        }
        Request::Stats => {
            let (jobs_total, jobs_running, jobs_evicted, engines, cache_entries) =
                inner.registry.stats();
            let _ = tx.send(Event::ServerStats {
                jobs_total,
                jobs_running,
                jobs_evicted,
                engines,
                cache_entries,
            });
        }
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::Relaxed);
            let _ = tx.send(Event::ShuttingDown);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RETAINED_DONE_JOBS;
    use confuciux::JobBudget;

    fn spec(global_epochs: usize, seed: u64) -> JobSpec {
        let mut spec = JobSpec::paper_default("tiny_cnn");
        spec.budget = JobBudget {
            global_epochs,
            fine_evaluations: 150,
        };
        spec.seed = seed;
        spec
    }

    /// Reads `events` until one matches `stop`, failing on a `Failed`.
    fn wait_for(events: &mpsc::Receiver<Event>, stop: impl Fn(&Event) -> bool) {
        loop {
            let event = events
                .recv_timeout(Duration::from_secs(120))
                .expect("job event");
            if let Event::Failed { error, .. } = &event {
                panic!("job failed: {error}");
            }
            if stop(&event) {
                return;
            }
        }
    }

    fn submit(inner: &Inner, spec: JobSpec) -> (u64, mpsc::Receiver<Event>) {
        let Ok(Submission::Accepted(id)) = inner.submit(spec) else {
            panic!("submit was not accepted");
        };
        let (tx, rx) = mpsc::channel();
        inner.registry.attach(id, 0, tx);
        (id, rx)
    }

    fn has_checkpoint(inner: &Inner, id: u64) -> bool {
        inner
            .registry
            .with_job(id, |state| state.checkpoint.is_some())
            .unwrap()
    }

    #[test]
    fn forgotten_done_jobs_are_unknown_to_attach_and_resume() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let inner = &server.inner;
        let outcome = SearchOutcome {
            algorithm: "test".to_string(),
            best: None,
            best_cost_bits: None,
            epochs: 0,
            evaluations: 0,
            trace_fnv: 0,
            eval_stats: maestro::EvalStats::default(),
            wall_nanos: 0,
            degraded: None,
        };
        // Registered without queueing, then settled as a worker would.
        for _ in 0..=RETAINED_DONE_JOBS {
            let id = inner.registry.insert(spec(30, 3));
            settle(inner, id, JobStatus::Done, &outcome, None);
        }
        assert!(inner.registry.job(1).is_none());
        assert!(inner.registry.job(2).is_some());

        let (tx, rx) = mpsc::channel();
        for request in [
            Request::Attach {
                job: 1,
                from_seq: 0,
            },
            Request::Resume { job: 1 },
        ] {
            assert!(!handle_request(inner, &tx, request));
            let reply: Vec<Event> = rx.try_iter().collect();
            assert_eq!(
                reply,
                vec![Event::Error {
                    message: "unknown job 1".to_string()
                }]
            );
        }
        handle_request(inner, &tx, Request::Stats);
        let Ok(Event::ServerStats {
            jobs_total,
            jobs_evicted,
            ..
        }) = rx.try_recv()
        else {
            panic!("no stats reply");
        };
        assert_eq!(jobs_total, RETAINED_DONE_JOBS as u64 + 1);
        assert_eq!(jobs_evicted, 1);
        server.finish();
    }

    #[test]
    fn finished_jobs_keep_no_checkpoint_and_cannot_resume() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let inner = &server.inner;

        // A job that runs straight through never holds a checkpoint.
        let (straight, events) = submit(inner, spec(30, 3));
        wait_for(&events, |e| matches!(e, Event::Done { .. }));
        assert!(!has_checkpoint(inner, straight));

        // A cancelled job holds the checkpoint taken at its stop...
        let (resumed, events) = submit(inner, spec(60, 4));
        wait_for(&events, |e| matches!(e, Event::Progress { .. }));
        assert!(inner.registry.cancel(resumed));
        wait_for(&events, |e| matches!(e, Event::Cancelled { .. }));
        assert!(has_checkpoint(inner, resumed));
        // ...and drops it once the resumed run reaches `Done`.
        inner.resume(resumed).unwrap();
        wait_for(&events, |e| matches!(e, Event::Done { .. }));
        assert!(!has_checkpoint(inner, resumed));

        for id in [straight, resumed] {
            let error = inner.resume(id).unwrap_err();
            assert!(error.contains("not resumable"), "{error}");
        }
        server.finish();
    }
}
