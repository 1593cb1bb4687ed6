//! Library-side jobs: the untraced end-to-end unit (`two_stage_search` on
//! a freshly built problem), the traced replays that split it by layer,
//! and the output check every finished job goes through.
//!
//! Every span is taken from outside, around calls into public functions of
//! the program; nothing inside the program is instrumented.

use std::time::Instant;

use confuciux::{
    make_agent, two_stage_search, Deployment, EvalStats, HwProblem, JobSpec, RewardConfig,
    SearchOutcome, TwoStageResult, TwoStageRunner, VecEnv, VecHwEnv,
};
use rl_core::Step;
use tinynn::{Rng, SeedableRng};

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One untraced library job: the problem is built outside the timed
/// region, `two_stage_search` inside it.
pub fn run_job(spec: &JobSpec) -> (f64, SearchOutcome) {
    let problem = spec.build().expect("benchmark specs are valid");
    let t = Instant::now();
    let result = two_stage_search(&problem, &spec.two_stage_config(), spec.seed);
    (ms_since(t), result.outcome())
}

/// Checks one finished job's outcome. `Ok(true)` is a good answer,
/// `Ok(false)` a job that ended without a feasible point (a search
/// failure, not a wrong output), and `Err` an output that is wrong: a
/// degraded outcome, or a best point whose re-priced cost or constraint
/// use differs from the reported one or breaks the budget.
///
/// `checker` is a problem of the same shape built once for checking, so
/// the re-pricing never reads the job's own engine.
pub fn check_outcome(checker: &HwProblem, outcome: &SearchOutcome) -> Result<bool, String> {
    if let Some(reason) = &outcome.degraded {
        return Err(format!("outcome degraded: {reason}"));
    }
    let Some(best) = &outcome.best else {
        return Ok(false);
    };
    if outcome.best_cost_bits != Some(best.cost.to_bits()) {
        return Err("best_cost_bits disagrees with the best assignment".to_string());
    }
    let repriced = match checker.deployment() {
        Deployment::LayerPipelined => checker.evaluate_lp(&best.layers),
        Deployment::LayerSequential => {
            let la = best.layers.first().ok_or("empty LS assignment")?;
            checker.evaluate_ls(la.dataflow, la.point)
        }
    };
    match repriced {
        None => Err("best assignment breaks the budget when re-priced".to_string()),
        Some(a)
            if a.cost.to_bits() != best.cost.to_bits()
                || a.constraint_used.to_bits() != best.constraint_used.to_bits() =>
        {
            Err(format!(
                "re-priced best ({}, {}) differs from reported ({}, {})",
                a.cost, a.constraint_used, best.cost, best.constraint_used
            ))
        }
        Some(_) => Ok(true),
    }
}

/// A job driven step by step through [`TwoStageRunner`], with each step
/// timed and attributed to the stage it ran in.
pub struct RunnerTrace {
    pub job_ms: f64,
    pub global_ms: f64,
    pub fine_ms: f64,
    pub fine_steps: u64,
    /// `TwoStageRunner::checkpoint` after every step, as the daemon's
    /// worker does (zero unless requested).
    pub ckpt_build_ms: f64,
    /// `SearchCheckpoint::to_json` of each of those checkpoints.
    pub ckpt_encode_ms: f64,
    pub ckpt_bytes: u64,
    pub ckpts: u64,
    pub stats: EvalStats,
}

/// Runs `spec` through the runner, timing every step. A step that
/// advances the stage-1 epoch count is a global step (including the one
/// that hands over to stage 2); every other step is a fine step.
pub fn traced_runner(spec: &JobSpec, checkpoint_every_step: bool) -> (RunnerTrace, TwoStageResult) {
    let problem = spec.build().expect("benchmark specs are valid");
    let stats_base = problem.eval_stats();
    let job_start = Instant::now();
    let mut runner = TwoStageRunner::new(&problem, &spec.two_stage_config(), spec.seed);
    let mut trace = RunnerTrace {
        job_ms: 0.0,
        global_ms: 0.0,
        fine_ms: 0.0,
        fine_steps: 0,
        ckpt_build_ms: 0.0,
        ckpt_encode_ms: 0.0,
        ckpt_bytes: 0,
        ckpts: 0,
        stats: EvalStats::default(),
    };
    loop {
        let epochs_before = runner.global_epochs_done();
        let t = Instant::now();
        let more = runner.step();
        let step_ms = ms_since(t);
        if runner.global_epochs_done() > epochs_before {
            trace.global_ms += step_ms;
        } else {
            trace.fine_ms += step_ms;
            trace.fine_steps += 1;
        }
        if checkpoint_every_step {
            let t = Instant::now();
            if let Ok(checkpoint) = runner.checkpoint() {
                trace.ckpt_build_ms += ms_since(t);
                let t = Instant::now();
                let text = checkpoint.to_json();
                trace.ckpt_encode_ms += ms_since(t);
                trace.ckpt_bytes += text.len() as u64;
                trace.ckpts += 1;
            }
        }
        if !more {
            break;
        }
    }
    let result = runner.into_result();
    // The daemon keeps checkpoints in memory and never encodes them, so
    // encoding is timed but left out of the job.
    trace.job_ms = ms_since(job_start) - trace.ckpt_encode_ms;
    trace.stats = problem.eval_stats().since(stats_base);
    (trace, result)
}

/// A [`VecEnv`] adapter that times the environment and the gaps between
/// its calls. Inside `Agent::train_epochs_vec` the gap between a
/// `reset_first`/`step_all` return and the next `step_all` call is the
/// policy forward pass (plus action sampling).
struct TimedVecEnv<'a> {
    inner: &'a mut VecHwEnv,
    env_ms: f64,
    env_steps: u64,
    forward_ms: f64,
    last_return: Option<Instant>,
}

impl VecEnv for TimedVecEnv<'_> {
    fn n_envs(&self) -> usize {
        self.inner.n_envs()
    }

    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_dims(&self) -> Vec<usize> {
        self.inner.action_dims()
    }

    fn horizon(&self) -> usize {
        self.inner.horizon()
    }

    fn reset_first(&mut self, k: usize) -> Vec<Vec<f32>> {
        let obs = self.inner.reset_first(k);
        self.last_return = Some(Instant::now());
        obs
    }

    fn step_all(&mut self, actions: &[Vec<usize>]) -> Vec<Step> {
        let t = Instant::now();
        if let Some(last) = self.last_return {
            self.forward_ms += (t - last).as_secs_f64() * 1e3;
        }
        let steps = self.inner.step_all(actions);
        let done = Instant::now();
        self.env_ms += (done - t).as_secs_f64() * 1e3;
        self.env_steps += actions.iter().filter(|a| !a.is_empty()).count() as u64;
        self.last_return = Some(done);
        steps
    }

    fn reset_one(&mut self, i: usize) -> Vec<f32> {
        self.inner.reset_one(i)
    }

    fn step_one(&mut self, i: usize, actions: &[usize]) -> Step {
        let t = Instant::now();
        let step = self.inner.step_one(i, actions);
        self.env_ms += ms_since(t);
        self.env_steps += 1;
        step
    }

    fn is_done(&self, i: usize) -> bool {
        self.inner.is_done(i)
    }

    fn outcome_cost(&self, i: usize) -> Option<f64> {
        self.inner.outcome_cost(i)
    }
}

/// Stage 1 replayed as `make_agent` + `Agent::train_epochs_vec` over a
/// timed environment, with the runner's per-replica RNG seeding.
pub struct Stage1Trace {
    pub forward_ms: f64,
    pub learner_ms: f64,
    pub learner_updates: u64,
    pub env_ms: f64,
    pub env_steps: u64,
    pub best_cost_bits: Option<u64>,
    pub trace_bits: Vec<u64>,
}

/// Replays stage 1 of `spec` the way `TwoStageRunner` runs it: replica 0
/// continues the agent-construction stream, replica `i > 0` gets its own
/// salted stream, and each round trains `min(n_envs, epochs left)`
/// replicas. The learner span runs from the last `step_all` return of a
/// round to the return of `train_epochs_vec`.
pub fn traced_stage1(spec: &JobSpec) -> Stage1Trace {
    const REPLICA_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
    let problem = spec.build().expect("benchmark specs are valid");
    let n_envs = spec.n_envs.max(1);
    let mut rng = Rng::seed_from_u64(spec.seed);
    let mut venv = VecHwEnv::with_reward(&problem, RewardConfig::default(), n_envs);
    let mut agent = make_agent(spec.algo, venv.env(0), &mut rng);
    let mut rngs = vec![rng];
    for i in 1..n_envs as u64 {
        rngs.push(Rng::seed_from_u64(spec.seed ^ i.wrapping_mul(REPLICA_SALT)));
    }
    let mut out = Stage1Trace {
        forward_ms: 0.0,
        learner_ms: 0.0,
        learner_updates: 0,
        env_ms: 0.0,
        env_steps: 0,
        best_cost_bits: None,
        trace_bits: Vec::with_capacity(spec.budget.global_epochs),
    };
    let mut best: Option<f64> = None;
    let mut remaining = spec.budget.global_epochs;
    while remaining > 0 {
        let k = n_envs.min(remaining);
        let mut timed = TimedVecEnv {
            inner: &mut venv,
            env_ms: 0.0,
            env_steps: 0,
            forward_ms: 0.0,
            last_return: None,
        };
        let reports = agent.train_epochs_vec(&mut timed, &mut rngs[..k]);
        let returned = Instant::now();
        if let Some(last) = timed.last_return {
            out.learner_ms += (returned - last).as_secs_f64() * 1e3;
        }
        out.forward_ms += timed.forward_ms;
        out.env_ms += timed.env_ms;
        out.env_steps += timed.env_steps;
        out.learner_updates += reports.len() as u64;
        for (i, report) in reports.iter().enumerate() {
            if let Some(cost) = report.feasible_cost.filter(|c| !c.is_nan()) {
                if best.is_none_or(|b| cost < b) {
                    best = venv.last_outcome(i).map(|a| a.cost);
                }
            }
            out.trace_bits.push(best.unwrap_or(f64::INFINITY).to_bits());
        }
        remaining -= k;
    }
    out.best_cost_bits = best.map(f64::to_bits);
    out
}

/// Compares a stage-1 replay with the runner's stage 1, bit for bit.
pub fn check_stage1(replay: &Stage1Trace, runner: &TwoStageResult) -> Result<(), String> {
    let global = &runner.global;
    let runner_bits: Vec<u64> = global.trace.iter().map(|c| c.to_bits()).collect();
    if replay.best_cost_bits != global.best.as_ref().map(|a| a.cost.to_bits()) {
        return Err("traced stage-1 best cost differs from the runner's".to_string());
    }
    if replay.trace_bits != runner_bits {
        return Err("traced stage-1 trace differs from the runner's".to_string());
    }
    Ok(())
}
