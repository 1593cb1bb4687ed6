//! In-memory state of the daemon: jobs, their event rings, and the shared
//! per-model evaluation engines.
//!
//! Jobs are detached from connections: a client may submit, disconnect,
//! and later [`Registry::attach`] from a fresh connection to replay the
//! buffered events and keep streaming. Replay and subscription happen
//! under the same job lock that publishers hold, so an attaching client
//! never sees events out of order or duplicated.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use confuciux::{JobSpec, SearchCheckpoint, SearchOutcome};
use maestro::{lock_recovering, EvalEngine};

use crate::protocol::{Event, JobSummary};

/// Buffered events kept per job for reconnect catch-up. Oldest events are
/// dropped first once the ring is full; `Attach` from a sequence that was
/// evicted simply replays what remains.
pub const EVENT_RING_CAP: usize = 4096;

/// Finished ([`JobStatus::Done`]) jobs kept for `Attach` and `Jobs`. Older
/// ones are forgotten, oldest first, so a long-running daemon's memory
/// stays bounded; `Attach`/`Resume` on a forgotten id answer "unknown job".
/// Failed, cancelled and degraded jobs are never forgotten: they can still
/// be resumed.
pub const RETAINED_DONE_JOBS: usize = 256;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    Queued,
    Running,
    Done,
    /// Stopped early (deadline expired) with a usable best-so-far
    /// outcome — a terminal success state, not a failure.
    Degraded,
    Failed,
    Cancelled,
}

impl JobStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Degraded => "degraded",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// True for jobs that still hold (or will hold) a worker: queued or
    /// running. What admission control counts against its bound.
    pub fn is_active(&self) -> bool {
        matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Everything the daemon remembers about one job.
pub struct JobState {
    pub spec: JobSpec,
    pub status: JobStatus,
    /// Ring of the most recent events, each carrying its own `seq`.
    ring: VecDeque<Event>,
    /// Sequence number the next event will get.
    next_seq: u64,
    /// Live event streams; pruned when a send fails (client gone).
    subscribers: Vec<mpsc::Sender<Event>>,
    /// Resume point taken at the job's last cancel or deadline stop.
    /// `None` before any such stop, after a stop whose stage-1 agent
    /// cannot save its state, and once the job is [`JobStatus::Done`];
    /// a resume without one restarts the job from its spec.
    pub checkpoint: Option<SearchCheckpoint>,
    /// Final summary, once [`JobStatus::Done`].
    pub outcome: Option<SearchOutcome>,
}

impl JobState {
    fn new(spec: JobSpec) -> Self {
        JobState {
            spec,
            status: JobStatus::Queued,
            ring: VecDeque::new(),
            next_seq: 0,
            subscribers: Vec::new(),
            checkpoint: None,
            outcome: None,
        }
    }

    pub fn events_emitted(&self) -> u64 {
        self.next_seq
    }
}

/// Shared registry of jobs and per-model engines.
#[derive(Default)]
pub struct Registry {
    jobs: Mutex<HashMap<u64, Arc<Mutex<JobState>>>>,
    next_job: AtomicU64,
    /// One cancel flag per job, reachable without the job lock so a
    /// `Cancel` request never waits behind a stepping worker.
    cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    /// One shared evaluation engine per model family, keyed by the
    /// model's canonical name — the daemon's cross-job memo cache.
    engines: Mutex<HashMap<String, Arc<EvalEngine>>>,
    /// Ids of finished jobs, oldest first; see [`RETAINED_DONE_JOBS`].
    done: Mutex<VecDeque<u64>>,
    /// Finished jobs forgotten so far.
    evicted: AtomicU64,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a new job and returns its id.
    pub fn insert(&self, spec: JobSpec) -> u64 {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let state = Arc::new(Mutex::new(JobState::new(spec)));
        lock_recovering(&self.jobs).insert(id, state);
        lock_recovering(&self.cancels).insert(id, Arc::new(AtomicBool::new(false)));
        id
    }

    pub fn job(&self, id: u64) -> Option<Arc<Mutex<JobState>>> {
        lock_recovering(&self.jobs).get(&id).cloned()
    }

    pub fn cancel_flag(&self, id: u64) -> Option<Arc<AtomicBool>> {
        lock_recovering(&self.cancels).get(&id).cloned()
    }

    /// Requests cancellation; `false` for unknown jobs.
    pub fn cancel(&self, id: u64) -> bool {
        match self.cancel_flag(id) {
            Some(flag) => {
                flag.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Records that job `id` reached [`JobStatus::Done`], and forgets the
    /// oldest finished jobs beyond [`RETAINED_DONE_JOBS`]: their state,
    /// events and cancel flag. Call it after releasing the job's lock.
    pub fn retire_done(&self, id: u64) {
        let mut done = lock_recovering(&self.done);
        done.push_back(id);
        while done.len() > RETAINED_DONE_JOBS {
            let Some(old) = done.pop_front() else { break };
            let mut jobs = lock_recovering(&self.jobs);
            let finished = jobs
                .get(&old)
                .is_some_and(|job| lock_recovering(job).status == JobStatus::Done);
            if finished {
                jobs.remove(&old);
                drop(jobs);
                lock_recovering(&self.cancels).remove(&old);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Stamps the next sequence number onto `make`'s event, buffers it,
    /// and fans it out to live subscribers — all under the job lock.
    pub fn publish(&self, id: u64, make: impl FnOnce(u64) -> Event) {
        let Some(job) = self.job(id) else { return };
        let mut state = lock_recovering(&job);
        let seq = state.next_seq;
        state.next_seq += 1;
        let event = make(seq);
        if state.ring.len() == EVENT_RING_CAP {
            state.ring.pop_front();
        }
        state.ring.push_back(event.clone());
        state
            .subscribers
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Subscribes `tx` to a job's future events (no replay).
    pub fn subscribe(&self, id: u64, tx: mpsc::Sender<Event>) -> bool {
        match self.job(id) {
            Some(job) => {
                lock_recovering(&job).subscribers.push(tx);
                true
            }
            None => false,
        }
    }

    /// Reconnect catch-up: sends an [`Event::Attached`] header, replays
    /// every buffered event with `seq >= from_seq` into `tx`, and
    /// subscribes it for live events — all atomically with respect to
    /// [`Registry::publish`], so the client sees no gap and no duplicate
    /// between replayed and live events. Returns the number of events
    /// replayed, or `None` for an unknown job.
    pub fn attach(&self, id: u64, from_seq: u64, tx: mpsc::Sender<Event>) -> Option<u64> {
        let job = self.job(id)?;
        let mut state = lock_recovering(&job);
        let replay: Vec<Event> = state
            .ring
            .iter()
            .filter(|e| e.job_seq().is_some_and(|(_, seq)| seq >= from_seq))
            .cloned()
            .collect();
        let replayed = replay.len() as u64;
        let _ = tx.send(Event::Attached {
            job: id,
            from_seq,
            replayed,
        });
        for event in replay {
            if tx.send(event).is_err() {
                break;
            }
        }
        state.subscribers.push(tx);
        Some(replayed)
    }

    /// Runs `f` on the locked state of a job.
    pub fn with_job<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut MutexGuard<'_, JobState>) -> T,
    ) -> Option<T> {
        let job = self.job(id)?;
        let mut state = lock_recovering(&job);
        Some(f(&mut state))
    }

    /// The shared engine for a model family, if one exists yet.
    pub fn engine_for(&self, model: &str) -> Option<Arc<EvalEngine>> {
        lock_recovering(&self.engines).get(model).cloned()
    }

    /// Registers the engine to share with future jobs of this model
    /// family; the first registration wins.
    pub fn register_engine(&self, model: &str, engine: Arc<EvalEngine>) {
        lock_recovering(&self.engines)
            .entry(model.to_string())
            .or_insert(engine);
    }

    /// Snapshot of every model engine, for sidecar flushes.
    pub fn engines_snapshot(&self) -> Vec<(String, Arc<EvalEngine>)> {
        lock_recovering(&self.engines)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// One [`JobSummary`] per job, ordered by id.
    pub fn summaries(&self) -> Vec<JobSummary> {
        let jobs = lock_recovering(&self.jobs);
        let mut out: Vec<(u64, JobSummary)> = jobs
            .iter()
            .map(|(id, job)| {
                let state = lock_recovering(job);
                (
                    *id,
                    JobSummary {
                        job: *id,
                        model: state.spec.model.clone(),
                        state: state.status.as_str().to_string(),
                        events: state.events_emitted(),
                    },
                )
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// Jobs currently queued or running — the admission-control load.
    pub fn active_jobs(&self) -> usize {
        lock_recovering(&self.jobs)
            .values()
            .filter(|j| lock_recovering(j).status.is_active())
            .count()
    }

    /// `(jobs ever submitted, running jobs, finished jobs forgotten,
    /// engines, cache entries)`.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        let total = self.next_job.load(Ordering::Relaxed);
        let jobs = lock_recovering(&self.jobs);
        let running = jobs
            .values()
            .filter(|j| lock_recovering(j).status == JobStatus::Running)
            .count() as u64;
        drop(jobs);
        let engines = self.engines_snapshot();
        let entries: u64 = engines.iter().map(|(_, e)| e.cache_len() as u64).sum();
        let evicted = self.evicted.load(Ordering::Relaxed);
        (total, running, evicted, engines.len() as u64, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::paper_default("tiny_cnn")
    }

    #[test]
    fn publish_assigns_monotonic_seqs() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        for _ in 0..3 {
            reg.publish(id, |seq| Event::Started { job: id, seq });
        }
        let seqs: Vec<u64> = reg
            .with_job(id, |s| {
                s.ring
                    .iter()
                    .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
                    .collect()
            })
            .unwrap();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn attach_replays_from_seq_then_streams_live() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        for _ in 0..5 {
            reg.publish(id, |seq| Event::Started { job: id, seq });
        }
        let (tx, rx) = mpsc::channel();
        let replayed = reg.attach(id, 3, tx).unwrap();
        assert_eq!(replayed, 2);
        reg.publish(id, |seq| Event::Cancelled { job: id, seq });
        let events: Vec<Event> = rx.try_iter().collect();
        assert_eq!(
            events[0],
            Event::Attached {
                job: id,
                from_seq: 3,
                replayed: 2
            }
        );
        let got: Vec<u64> = events
            .iter()
            .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
            .collect();
        assert_eq!(got, vec![3, 4, 5]);
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        for _ in 0..(EVENT_RING_CAP + 10) {
            reg.publish(id, |seq| Event::Started { job: id, seq });
        }
        let (front, len) = reg
            .with_job(id, |s| {
                (
                    s.ring.front().and_then(|e| e.job_seq()).map(|(_, q)| q),
                    s.ring.len(),
                )
            })
            .unwrap();
        assert_eq!(len, EVENT_RING_CAP);
        assert_eq!(front, Some(10));
    }

    #[test]
    fn dead_subscribers_are_pruned() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        let (tx, rx) = mpsc::channel();
        assert!(reg.subscribe(id, tx));
        drop(rx);
        reg.publish(id, |seq| Event::Started { job: id, seq });
        let n = reg.with_job(id, |s| s.subscribers.len()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn oldest_done_jobs_are_forgotten_beyond_the_cap() {
        let reg = Registry::new();
        let kept_unfinished = [JobStatus::Failed, JobStatus::Cancelled, JobStatus::Degraded];
        let total = RETAINED_DONE_JOBS + 10;
        for id in 1..=total as u64 {
            assert_eq!(reg.insert(spec()), id);
            let status = kept_unfinished
                .get(id as usize - 1)
                .copied()
                .unwrap_or(JobStatus::Done);
            reg.with_job(id, |s| s.status = status).unwrap();
            if status == JobStatus::Done {
                reg.retire_done(id);
            }
        }
        // 3 unfinished jobs, then RETAINED_DONE_JOBS + 7 finished ones:
        // the 7 oldest finished jobs (ids 4..=10) are forgotten.
        for id in 1..=3 {
            assert!(reg.job(id).is_some(), "unfinished job {id} was evicted");
            assert!(reg.cancel_flag(id).is_some());
        }
        for id in 4..=10 {
            assert!(reg.job(id).is_none(), "job {id} was kept");
            assert!(!reg.cancel(id), "job {id} kept its cancel flag");
        }
        for id in 11..=total as u64 {
            assert!(reg.job(id).is_some(), "job {id} was evicted too early");
        }
        assert_eq!(reg.summaries().len(), total - 7);
        let (jobs_total, _, jobs_evicted, _, _) = reg.stats();
        assert_eq!((jobs_total, jobs_evicted), (total as u64, 7));
    }

    #[test]
    fn first_engine_registration_wins() {
        let reg = Registry::new();
        let a = spec().build().unwrap();
        let b = spec().build().unwrap();
        reg.register_engine("tiny_cnn", a.engine_handle());
        reg.register_engine("tiny_cnn", b.engine_handle());
        assert!(Arc::ptr_eq(
            &reg.engine_for("tiny_cnn").unwrap(),
            &a.engine_handle()
        ));
    }
}
