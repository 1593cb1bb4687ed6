//! `perfbench`: the repo benchmark. One run measures one workload for a
//! fixed time and prints its metrics; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --server-bin PATH
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics of its
//! workload; with `--trace 1` it reports the per-layer split, measured in
//! a separate traced phase, and the tracing overhead. The last line of
//! standard output is the result object. The exit code is nonzero when an
//! output check fails.

mod daemon;
mod library;
mod stats;
mod workload;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use confuciux::{EvalStats, HwProblem, JobSpec, SearchOutcome};

use crate::daemon::{Conn, Daemon, DaemonJob};
use crate::library::{check_outcome, check_stage1, run_job, traced_runner, traced_stage1};
use crate::stats::{geomean, median, percentile, tail_percentile, vm_mib, Report};
use crate::workload::Workload;

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 9;
/// Daemon jobs whose outcome digest is compared with a library run of the
/// same spec.
const DIGEST_SAMPLE: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value == "1",
            "--server-bin" => server_bin = Some(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server_bin: server_bin.unwrap_or_default(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let report = match (args.workload, args.trace) {
        (Workload::DaemonLsMix, false) => daemon_e2e(&args),
        (Workload::DaemonLsMix, true) => daemon_traced(&args),
        (_, false) => library_e2e(&args),
        (_, true) => library_traced(&args),
    };
    let report = report.and_then(|report| match report.non_finite() {
        Some(name) => Err(format!("{name} is not finite")),
        None => Ok(report),
    });
    let report = match report {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    };
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}

/// Outcome bookkeeping shared by every phase: counts attempted and failed
/// jobs and marks the run incorrect on a wrong output.
struct Tally<'a> {
    report: &'a mut Report,
    checker: HwProblem,
}

impl<'a> Tally<'a> {
    fn new(report: &'a mut Report, w: Workload) -> Self {
        let checker = w.job(0, 0).build().expect("benchmark specs are valid");
        Tally { report, checker }
    }

    /// Records one job; returns its best cost if it succeeded.
    fn record(&mut self, index: u64, outcome: Result<&SearchOutcome, &str>) -> Option<f64> {
        self.report.attempted += 1;
        let checked = match outcome {
            Ok(outcome) => check_outcome(&self.checker, outcome).map(|ok| ok.then_some(outcome)),
            Err(reason) => {
                println!("job {index}: {reason}");
                Ok(None)
            }
        };
        match checked {
            Ok(Some(outcome)) => outcome.best_cost(),
            Ok(None) => {
                self.report.failed += 1;
                None
            }
            Err(msg) => self.wrong(index, &msg),
        }
    }

    /// Marks job `index`'s output wrong.
    fn wrong(&mut self, index: u64, msg: &str) -> Option<f64> {
        println!("OUTPUT CHECK FAILED, job {index}: {msg}");
        self.report.failed += 1;
        self.report.correct = false;
        None
    }
}

/// The end-to-end metrics common to every workload. `quality` holds the
/// best cost of each quality job that found one; the run fails unless
/// every quality job did, so lost jobs cannot lower `best_cost_geomean`.
fn put_e2e(
    report: &mut Report,
    w: Workload,
    job_ms: &[f64],
    phase_s: f64,
    quality: &[f64],
    peak_rss_mib: f64,
    setup: &[f64],
) -> Result<(), String> {
    if quality.len() != w.quality_jobs() {
        return Err(format!(
            "{} of {} quality jobs found no best cost, so best_cost_geomean is undefined",
            w.quality_jobs() - quality.len(),
            w.quality_jobs()
        ));
    }
    let pct = tail_percentile(w.quality_jobs());
    let (tail_ms, beyond) = percentile(job_ms, pct);
    report.note(format!(
        "job_ms_tail is p{pct} of {} jobs, {beyond} beyond it",
        job_ms.len()
    ));
    report.note(format!(
        "failed_ratio = {} ratio ({} of {} attempted, lower is better)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.put("job_ms_p50", median(job_ms), "ms");
    report.put("job_ms_tail", tail_ms, "ms");
    report.put("jobs_per_s", job_ms.len() as f64 / phase_s, "1/s");
    report.put("best_cost_geomean", geomean(quality), "cycles");
    report.put("peak_rss_mib", peak_rss_mib, "MiB");
    report.put("setup_s", median(setup), "s");
    Ok(())
}

fn library_setup(w: Workload) -> f64 {
    let t = Instant::now();
    run_job(&w.warmup_job());
    t.elapsed().as_secs_f64()
}

/// Runs library jobs `0..` of the workload until `seconds` have passed and
/// at least `min_jobs` are done. Returns per-job (ms, outcome) and the
/// phase wall time in seconds.
fn library_phase(
    w: Workload,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
) -> (Vec<(f64, SearchOutcome)>, f64) {
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < min_jobs || start.elapsed().as_secs_f64() < seconds {
        jobs.push(run_job(&w.job(seed, jobs.len() as u64)));
    }
    (jobs, start.elapsed().as_secs_f64())
}

fn library_e2e(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let setup: Vec<f64> = (0..SETUP_REPEATS).map(|_| library_setup(w)).collect();
    let (jobs, phase_s) = library_phase(w, args.seed, args.seconds, w.quality_jobs());
    let peak = vm_mib(None, "VmHWM:").ok_or("cannot read VmHWM")?;

    let mut report = Report::new();
    let mut tally = Tally::new(&mut report, w);
    let mut quality = Vec::new();
    for (i, (_, outcome)) in jobs.iter().enumerate() {
        let cost = tally.record(i as u64, Ok(outcome));
        if i < w.quality_jobs() {
            quality.extend(cost);
        }
    }
    let job_ms: Vec<f64> = jobs.iter().map(|(ms, _)| *ms).collect();
    put_e2e(&mut report, w, &job_ms, phase_s, &quality, peak, &setup)?;
    Ok(report)
}

/// Per-layer accumulators of a traced phase, summed over its jobs.
#[derive(Default)]
struct Layers {
    jobs: f64,
    job_ms: f64,
    global_ms: f64,
    fine_ms: f64,
    fine_steps: f64,
    forward_ms: f64,
    learner_ms: f64,
    learner_updates: f64,
    env_ms: f64,
    env_steps: f64,
    ckpt_build_ms: f64,
    ckpt_encode_ms: f64,
    ckpt_bytes: f64,
    ckpts: f64,
    /// Engine counters and the number of jobs they cover.
    stats: EvalStats,
    stats_jobs: f64,
}

impl Layers {
    /// Replays job `index` traced: once through the stepped runner, once
    /// as the decomposed stage 1, which must match the runner bit for bit.
    /// Returns the runner's outcome for comparison with an untraced run.
    fn replay(
        &mut self,
        tally: &mut Tally,
        index: u64,
        spec: &JobSpec,
        ckpt: bool,
    ) -> SearchOutcome {
        let (run, result) = traced_runner(spec, ckpt);
        let stage1 = traced_stage1(spec);
        if let Err(msg) = check_stage1(&stage1, &result) {
            tally.wrong(index, &msg);
        }
        self.jobs += 1.0;
        self.job_ms += run.job_ms;
        self.global_ms += run.global_ms;
        self.fine_ms += run.fine_ms;
        self.fine_steps += run.fine_steps as f64;
        self.ckpt_build_ms += run.ckpt_build_ms;
        self.ckpt_encode_ms += run.ckpt_encode_ms;
        self.ckpt_bytes += run.ckpt_bytes as f64;
        self.ckpts += run.ckpts as f64;
        self.stats = self.stats.plus(run.stats);
        self.stats_jobs += 1.0;
        self.forward_ms += stage1.forward_ms;
        self.learner_ms += stage1.learner_ms;
        self.learner_updates += stage1.learner_updates as f64;
        self.env_ms += stage1.env_ms;
        self.env_steps += stage1.env_steps as f64;
        result.outcome()
    }

    /// Reports the runner, rl_core/tinynn, env/engine and checkpoint
    /// layers, per job, with each span's share of the replayed job time.
    fn put(&self, report: &mut Report) {
        let n = self.jobs.max(1.0);
        let share = |ms: f64| {
            if self.job_ms > 0.0 {
                ms / self.job_ms
            } else {
                0.0
            }
        };
        report.put("runner.global_ms", self.global_ms / n, "ms");
        report.put("runner.fine_ms", self.fine_ms / n, "ms");
        report.put("runner.fine_steps", self.fine_steps / n, "count");
        report.put("policy.forward_ms", self.forward_ms / n, "ms");
        report.put("learner.update_ms", self.learner_ms / n, "ms");
        report.put("learner.updates", self.learner_updates / n, "count");
        report.put("env.step_ms", self.env_ms / n, "ms");
        report.put("env.steps", self.env_steps / n, "count");
        let stats_n = self.stats_jobs.max(1.0);
        report.put(
            "engine.queries",
            self.stats.total() as f64 / stats_n,
            "count",
        );
        report.put("engine.misses", self.stats.misses as f64 / stats_n, "count");
        report.put("engine.hit_rate", self.stats.hit_rate(), "ratio");
        report.put("ckpt.build_ms", self.ckpt_build_ms / n, "ms");
        report.put("ckpt.encode_ms", self.ckpt_encode_ms / n, "ms");
        let per_ckpt = if self.ckpts > 0.0 {
            self.ckpt_bytes / self.ckpts
        } else {
            0.0
        };
        report.put("ckpt.bytes", per_ckpt, "B");
        report.put("share.runner.global", share(self.global_ms), "ratio");
        report.put("share.runner.fine", share(self.fine_ms), "ratio");
        report.put("share.policy.forward", share(self.forward_ms), "ratio");
        report.put("share.learner.update", share(self.learner_ms), "ratio");
        report.put("share.env.step", share(self.env_ms), "ratio");
        report.put("share.ckpt.build", share(self.ckpt_build_ms), "ratio");
        report.put("share.ckpt.encode", share(self.ckpt_encode_ms), "ratio");
    }
}

/// Traced phases run on at least this many jobs.
const MIN_TRACED_JOBS: usize = 3;

fn library_traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    library_setup(w);
    let half = args.seconds / 2.0;
    let (untraced, _) = library_phase(w, args.seed, half, MIN_TRACED_JOBS);

    let mut report = Report::new();
    let mut tally = Tally::new(&mut report, w);
    for (i, (_, outcome)) in untraced.iter().enumerate() {
        tally.record(i as u64, Ok(outcome));
    }
    let mut layers = Layers::default();
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    while traced_ms.len() < MIN_TRACED_JOBS || start.elapsed().as_secs_f64() < half {
        let index = traced_ms.len() as u64;
        let before = layers.job_ms;
        let outcome = layers.replay(&mut tally, index, &w.job(args.seed, index), false);
        traced_ms.push(layers.job_ms - before);
        if let Some((_, untraced)) = untraced.get(index as usize) {
            if outcome.digest() != untraced.digest() {
                tally.wrong(index, "traced runner digest differs from the untraced run");
            }
        }
        tally.record(index, Ok(&outcome));
    }
    let untraced_ms: Vec<f64> = untraced.iter().map(|(ms, _)| *ms).collect();
    layers.put(&mut report);
    put_server_layers(&mut report, None);
    put_overhead(&mut report, &untraced_ms, &traced_ms);
    Ok(report)
}

fn put_overhead(report: &mut Report, untraced_ms: &[f64], traced_ms: &[f64]) {
    report.put("trace.job_ms_p50", median(traced_ms), "ms");
    report.put(
        "trace.overhead_ms",
        median(traced_ms) - median(untraced_ms),
        "ms",
    );
}

/// Client-seen server metrics of a traced daemon phase; all zero for the
/// library workloads, which never touch the server.
fn put_server_layers(report: &mut Report, daemon: Option<(&[DaemonJob], f64)>) {
    let (jobs, rss_growth) = daemon.unwrap_or((&[], 0.0));
    let n = jobs.len().max(1) as f64;
    let sum = |f: fn(&DaemonJob) -> f64| jobs.iter().map(f).sum::<f64>();
    let job_ms = sum(|j| j.job_ms);
    let share = |ms: f64| if job_ms > 0.0 { ms / job_ms } else { 0.0 };
    report.put("server.queue_ms", sum(|j| j.queue_ms) / n, "ms");
    report.put("server.run_ms", sum(|j| j.run_ms) / n, "ms");
    report.put(
        "server.events_per_job",
        sum(|j| j.events as f64) / n,
        "count",
    );
    report.put(
        "server.frame_bytes_per_job",
        sum(|j| j.frame_bytes as f64) / n,
        "B",
    );
    report.put("server.client_decode_ms", sum(|j| j.decode_ms) / n, "ms");
    report.put(
        "server.rejected",
        sum(|j| f64::from(u8::from(j.rejected))),
        "count",
    );
    report.put("daemon.rss_growth_mib", rss_growth, "MiB");
    report.put("share.server.queue", share(sum(|j| j.queue_ms)), "ratio");
    report.put("share.server.run", share(sum(|j| j.run_ms)), "ratio");
    report.put(
        "share.server.client_decode",
        share(sum(|j| j.decode_ms)),
        "ratio",
    );
}

/// Spawns a daemon and warms it with one small job; returns it with the
/// time from spawn to the warm-up's `Done`.
fn daemon_setup(args: &Args) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(&args.server_bin)?;
    let mut conn = Conn::connect(&daemon.addr, false)?;
    conn.ping()?;
    let warm = conn.run(&args.workload.warmup_job())?;
    warm.outcome.map_err(|e| format!("warm-up job: {e}"))?;
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// A measured daemon phase: two closed-loop connections share one job
/// counter until `seconds` have passed and at least `min_jobs` are done.
struct DaemonPhase {
    jobs: Vec<(u64, DaemonJob)>,
    wall_s: f64,
    rss_after_first: Option<f64>,
}

const POISONED: &str = "a client thread panicked holding the lock";

fn daemon_phase(
    daemon: &Daemon,
    args: &Args,
    seconds: f64,
    min_jobs: u64,
    traced: bool,
) -> Result<DaemonPhase, String> {
    const CONNECTIONS: usize = 2;
    let next = AtomicU64::new(0);
    let jobs = Mutex::new(Vec::new());
    let rss_after_first = Mutex::new(None);
    let start = Instant::now();
    let errors: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut conn = Conn::connect(&daemon.addr, traced)?;
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= min_jobs && start.elapsed().as_secs_f64() >= seconds {
                            return Ok(());
                        }
                        let job = conn.run(&args.workload.job(args.seed, index))?;
                        if job.rejected {
                            std::thread::sleep(Duration::from_millis(100));
                        }
                        let mut first = rss_after_first.lock().expect(POISONED);
                        if first.is_none() {
                            *first = vm_mib(Some(daemon.pid()), "VmRSS:");
                        }
                        drop(first);
                        jobs.lock().expect(POISONED).push((index, job));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread panicked").err())
            .collect()
    });
    if let Some(err) = errors.into_iter().next() {
        return Err(err);
    }
    let mut jobs = jobs.into_inner().expect(POISONED);
    jobs.sort_by_key(|(index, _)| *index);
    Ok(DaemonPhase {
        jobs,
        wall_s: start.elapsed().as_secs_f64(),
        rss_after_first: rss_after_first.into_inner().expect(POISONED),
    })
}

/// Records every job of a daemon phase and compares the first
/// [`DIGEST_SAMPLE`] outcomes with library runs of the same specs.
fn tally_daemon(tally: &mut Tally, args: &Args, jobs: &[(u64, DaemonJob)]) -> Vec<f64> {
    let mut quality = Vec::new();
    for (index, job) in jobs {
        let cost = tally.record(*index, job.outcome.as_ref().map_err(String::as_str));
        if (*index as usize) < args.workload.quality_jobs() {
            quality.extend(cost);
        }
        if let (Ok(outcome), true) = (&job.outcome, (*index as usize) < DIGEST_SAMPLE) {
            let (_, library) = run_job(&args.workload.job(args.seed, *index));
            if outcome.digest() != library.digest() {
                tally.wrong(*index, "daemon outcome digest differs from the library run");
            }
        }
    }
    quality
}

fn daemon_e2e(args: &Args) -> Result<Report, String> {
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous);
        }
        let (d, s) = daemon_setup(args)?;
        setup.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("set-up ran");
    let quality_jobs = args.workload.quality_jobs() as u64;
    let phase = daemon_phase(&daemon, args, args.seconds, quality_jobs, false);
    let peak = vm_mib(Some(daemon.pid()), "VmHWM:");
    daemon.shutdown();
    let phase = phase?;
    let peak = peak.ok_or("cannot read the daemon's VmHWM")?;

    let mut report = Report::new();
    let mut tally = Tally::new(&mut report, args.workload);
    let quality = tally_daemon(&mut tally, args, &phase.jobs);
    let job_ms: Vec<f64> = phase.jobs.iter().map(|(_, j)| j.job_ms).collect();
    put_e2e(
        &mut report,
        args.workload,
        &job_ms,
        phase.wall_s,
        &quality,
        peak,
        &setup,
    )?;
    Ok(report)
}

fn daemon_traced(args: &Args) -> Result<Report, String> {
    let (daemon, _) = daemon_setup(args)?;
    let third = args.seconds / 3.0;
    let phases =
        daemon_phase(&daemon, args, third, MIN_TRACED_JOBS as u64, false).and_then(|untraced| {
            let traced = daemon_phase(&daemon, args, third, MIN_TRACED_JOBS as u64, true)?;
            Ok((untraced, traced))
        });
    let rss_end = vm_mib(Some(daemon.pid()), "VmRSS:");
    daemon.shutdown();
    let (untraced, traced) = phases?;
    let rss_growth = match (untraced.rss_after_first, rss_end) {
        (Some(first), Some(last)) => last - first,
        _ => return Err("cannot read the daemon's VmRSS".to_string()),
    };

    let mut report = Report::new();
    let mut tally = Tally::new(&mut report, args.workload);
    tally_daemon(&mut tally, args, &untraced.jobs);
    tally_daemon(&mut tally, args, &traced.jobs);

    // The library replays of the same specs split a job by layer, with a
    // checkpoint after every step as the daemon's worker takes it.
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut index = 0u64;
    while index < MIN_TRACED_JOBS as u64 || start.elapsed().as_secs_f64() < third {
        let outcome = layers.replay(
            &mut tally,
            index,
            &args.workload.job(args.seed, index),
            true,
        );
        let daemon_outcome = untraced.jobs.iter().find(|(i, _)| *i == index);
        if let Some((_, DaemonJob { outcome: Ok(d), .. })) = daemon_outcome {
            if d.digest() != outcome.digest() {
                tally.wrong(index, "traced runner digest differs from the daemon's");
            }
        }
        index += 1;
    }
    // The daemon's engine is shared and warm across jobs, so its counters
    // come from the `Done` outcomes rather than from the fresh replays.
    let done: Vec<&SearchOutcome> = traced
        .jobs
        .iter()
        .filter_map(|(_, j)| j.outcome.as_ref().ok())
        .collect();
    layers.stats = done
        .iter()
        .fold(EvalStats::default(), |acc, o| acc.plus(o.eval_stats));
    layers.stats_jobs = done.len() as f64;
    layers.put(&mut report);
    let traced_jobs: Vec<DaemonJob> = traced.jobs.into_iter().map(|(_, j)| j).collect();
    put_server_layers(&mut report, Some((&traced_jobs, rss_growth)));
    let untraced_ms: Vec<f64> = untraced.jobs.iter().map(|(_, j)| j.job_ms).collect();
    let traced_ms: Vec<f64> = traced_jobs.iter().map(|j| j.job_ms).collect();
    put_overhead(&mut report, &untraced_ms, &traced_ms);
    Ok(report)
}
