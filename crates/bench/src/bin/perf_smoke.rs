//! CI perf-smoke: a short fixed-budget `two_stage_search` plus a
//! batch-evaluation microbench of the [`EvalEngine`], emitting a
//! `BENCH_ci.json` artifact (wall time, evals/sec, cache hit rate, cache
//! save/load persistence times and eviction counters, learner-update
//! throughput with its backward/clip/Adam split) and
//! failing on a >30% regression against the checked-in baseline
//! (`ci/bench_baseline.json`).
//!
//! * `--epochs`/`--seed`/`--out` behave as in every other binary; the
//!   artifact lands at `<out>/BENCH_ci.json`.
//! * `CONFX_BENCH_BASELINE` overrides the baseline path.
//! * `CONFX_BENCH_UPDATE=1` rewrites the baseline from this run instead of
//!   comparing (use after an intentional perf change, on the CI runner
//!   class the gate runs on).
//! * The ≥2x parallel-speedup gate only applies with ≥4 workers on ≥4
//!   cores (the standard CI runner class); on smaller machines the speedup
//!   is still *recorded*, just not gated.
//!
//! The checked-in baseline was seeded from the development container; the
//! first run on a new runner class should refresh it (see README).

use std::time::{Duration, Instant};

use confuciux::{
    two_stage_search, ConstraintKind, CostOracle, Deployment, EvalEngine, EvalQuery, HwEnv,
    HwProblem, JobSpec, Objective, PlatformClass, TwoStageRunner, VecHwEnv,
};
use confuciux_bench::{standard_spec, Args};
use maestro::{BatchQueries, CostModel, CostReport, Dataflow, DesignPoint, LayerInvariants};
use rl_core::{
    collect_vec_rollout, Env, PolicyBackboneKind, PolicyNet, PolicyScratch, PolicyStep,
    ReinforceConfig,
};
use serde::{Deserialize, Serialize};
use tinynn::{Adam, LstmState, Rng, SeedableRng};

/// Allowed relative regression on every gated metric.
const TOLERANCE: f64 = 0.30;
/// Minimum parallel speedup on a GA-population-sized batch of unique
/// queries. Gated only with ≥ [`MIN_GATE_THREADS`] workers on as many
/// cores: 2 workers can never reach 2x (that would be perfectly linear
/// scaling), but 4 — the standard CI runner class — comfortably can.
const MIN_SPEEDUP: f64 = 2.0;
/// Fewest workers (and cores) at which the ≥2x floor applies.
const MIN_GATE_THREADS: usize = 4;
/// Unique queries in the microbench batch: a GA generation (population
/// 100) over MobileNet-V2's 52 layers issues ~5200 fused layer queries,
/// so this matches the shape the optimizers actually produce.
const BATCH_QUERIES: usize = 5200;
/// Episodes rolled out by the RL-rollout microbench (identical for the
/// serial and vectorized configurations, so the work is the same).
const RL_EPISODES: usize = 192;
/// Replicas in the vectorized rollout configuration. Layer-Sequential
/// episodes are single-step, so one synchronized step of N replicas fuses
/// N full-model evaluations (N x 52 layer queries on MobileNet-V2) into
/// one engine batch — the shape `VecHwEnv` is built for.
const RL_VEC_ENVS: usize = 64;
/// Floor on the vectorized-over-serial rollout throughput ratio, gated on
/// every machine class (it does not depend on core count). The rollout
/// microbench drives real policy-driven episodes — `collect_vec_rollout`
/// with the paper's LSTM-128 policy acting for every replica — so one
/// synchronized step fuses N policy forwards into one GEMM-shaped batch
/// and N env steps into one engine round. Batched inference is where the
/// vectorized path earns its keep on single-core CI: the fused GEMMs
/// stream the policy weights once per step instead of once per replica,
/// which more than pays for the env-side batching bookkeeping that used
/// to leave this ratio below 1 when rollouts carried no policy at all.
const RL_MIN_SPEEDUP: f64 = 1.0;
/// Floor on the batched policy-inference speedup over a per-replica
/// serial `act` loop at [`RL_VEC_ENVS`] replicas. Both sides run
/// single-threaded on this machine, so the ratio is hardware-local and
/// gates on every machine class. The floor is deliberately below the 2x a
/// GEMM-dominated forward would suggest: the bit-exactness contract pins
/// the LSTM gate nonlinearities to the same scalar libm `exp`/`tanh`
/// calls on both paths (~5 per hidden unit per step), and once the GEMMs
/// are batched *and* SIMD-dispatched on both sides those calls bound the
/// fair-fight ratio near 1.3 — the gate locks in the batching win without
/// inviting a bit-breaking "fast math" fix to clear an impossible bar.
const POLICY_MIN_SPEEDUP: f64 = 1.15;
/// Synchronized policy steps measured per repetition of the
/// pure-inference microbench.
const POLICY_ROUNDS: usize = 32;
/// Floor on the batch pricing kernel's single-thread speedup over the
/// scalar `CostModel::evaluate` loop on a GA-shaped batch. The Criterion
/// bench (`cargo bench --bench batch_kernel`) shows ~3.6x on the same
/// shape; this CI floor is deliberately conservative so shared-runner
/// noise can't produce phantom failures, while still catching any change
/// that erodes the kernel's memoization. Hardware-local ratio, so it
/// gates on every machine class.
const KERNEL_MIN_SPEEDUP: f64 = 2.0;
/// Ceiling on the deadline-watchdog overhead: the daemon checks the job
/// deadline at every step boundary and must be able to materialize a
/// best-so-far outcome, and that bookkeeping has to stay in the noise.
/// Absolute floor so sub-millisecond jitter on a ~100ms run can't fail
/// the gate; the relative term covers slower runner classes.
const DEGRADED_OVERHEAD_MAX_MS: f64 = 5.0;
const DEGRADED_OVERHEAD_MAX_FRACTION: f64 = 0.10;
/// Learner-update microbench shape: MobileNet-V2 under Layer-Pipelined
/// deployment, where an episode is one step per layer (52), the
/// observation is 10 wide and the PE and buffer heads have 12 choices
/// each, with the paper's LSTM-128 policy.
const LEARNER_EPISODE_LEN: usize = 52;
const LEARNER_OBS_DIM: usize = 10;
const LEARNER_HEADS: [usize; 2] = [12, 12];
/// Updates timed per repetition of the learner microbench.
const LEARNER_UPDATES: usize = 40;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchCi {
    /// Wall time of the fixed-budget two-stage pipeline, in ms.
    two_stage_wall_ms: f64,
    /// Cost queries issued by the two-stage pipeline.
    two_stage_queries: u64,
    /// Cache hit rate over the two-stage pipeline.
    cache_hit_rate: f64,
    /// Entries evicted during the two-stage run (0 unless capacity-capped).
    cache_evictions: u64,
    /// Memoized entries round-tripped by the persistence microbench.
    cache_entries: usize,
    /// Wall time to serialize the warm cost cache to disk, in ms.
    cache_save_ms: f64,
    /// Wall time to load it back into a fresh engine, in ms.
    cache_load_ms: f64,
    /// Unique queries in the microbench batch.
    batch_queries: usize,
    /// Serial (1-worker) engine throughput on the batch.
    serial_evals_per_sec: f64,
    /// Parallel engine throughput on the same batch.
    parallel_evals_per_sec: f64,
    /// `parallel / serial` throughput ratio.
    parallel_speedup: f64,
    /// Single-thread scalar `CostModel::evaluate` loop throughput on a
    /// GA-shaped (memo-friendly) batch.
    kernel_evals_per_sec_scalar: f64,
    /// Single-thread `CostModel::evaluate_batch_into` throughput on the
    /// same batch.
    kernel_evals_per_sec_batch: f64,
    /// `batch / scalar` kernel throughput ratio.
    kernel_batch_speedup: f64,
    /// Serial (1 replica, 1 worker) RL-rollout throughput in env steps/sec.
    rl_env_steps_per_sec_serial: f64,
    /// Vectorized ([`RL_VEC_ENVS`] replicas) RL-rollout throughput.
    rl_env_steps_per_sec_vec: f64,
    /// `vec / serial` rollout throughput ratio.
    rl_vec_speedup: f64,
    /// Replicas used by the vectorized rollout configuration.
    rl_n_envs: usize,
    /// Per-replica policy-inference throughput (steps/sec) of a serial
    /// `act` loop over [`RL_VEC_ENVS`] replicas.
    policy_steps_per_sec_serial: f64,
    /// The same work fused into one `act_batch` call per synchronized step.
    policy_steps_per_sec_batch: f64,
    /// `batch / serial` policy-inference throughput ratio.
    policy_batch_speedup: f64,
    /// Extra wall time (ms) of the daemon-style stepping loop — deadline
    /// watchdog checked at every step boundary plus one best-so-far
    /// outcome materialization — over a plain stepping loop of the same
    /// search. Gated near zero: graceful degradation must cost nothing
    /// when it doesn't fire.
    degraded_outcome_overhead_ms: f64,
    /// REINFORCE learner updates per second (one BPTT backward over a
    /// 52-step episode, clip and Adam step), at the MobileNet-V2 LP shape.
    /// Recorded only: no floor gates it.
    learner_updates_per_sec: f64,
    /// Per-update time of `PolicyNet::backward_episode`, in µs.
    learner_backward_us: f64,
    /// Per-update time of the global-norm clip, in µs.
    learner_clip_us: f64,
    /// Per-update time of the Adam step plus clearing the gradients, in µs.
    learner_adam_us: f64,
    /// Worker threads the parallel engine used.
    threads: usize,
}

/// Best-of-3 per-update times `(backward, clip, adam)` in µs of the
/// REINFORCE learner on one recorded episode at the MobileNet-V2 LP shape,
/// split the way `PolicyNet::apply_update` runs them.
fn learner_update_us() -> (f64, f64, f64) {
    let config = ReinforceConfig::default();
    let mut rng = Rng::seed_from_u64(13);
    let mut policy = PolicyNet::new(
        LEARNER_OBS_DIM,
        &LEARNER_HEADS,
        PolicyBackboneKind::Rnn,
        config.hidden,
        &mut rng,
    );
    let mut opt = Adam::new(config.lr);
    let mut state = policy.initial_state();
    let steps: Vec<PolicyStep> = (0..LEARNER_EPISODE_LEN)
        .map(|t| {
            let obs: Vec<f32> = (0..LEARNER_OBS_DIM)
                .map(|j| ((t * 13 + j * 7) % 29) as f32 / 29.0)
                .collect();
            policy.act(&obs, &mut state, &mut rng)
        })
        .collect();
    let half = LEARNER_EPISODE_LEN as f32 / 2.0;
    let coefs: Vec<f32> = (0..LEARNER_EPISODE_LEN)
        .map(|t| (t as f32 - half) / half)
        .collect();
    let per_update = |d: Duration| d.as_secs_f64() * 1e6 / LEARNER_UPDATES as f64;
    let mut best = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..3 {
        let (mut backward, mut clip, mut adam) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for _ in 0..LEARNER_UPDATES {
            let t0 = Instant::now();
            policy.backward_episode(&steps, &coefs, config.entropy_beta, None, None);
            let t1 = Instant::now();
            let mut params = policy.params_mut();
            tinynn::clip_global_grad_norm(&mut params, config.max_grad_norm);
            let t2 = Instant::now();
            opt.step(&mut params);
            policy.zero_grad();
            let t3 = Instant::now();
            backward += t1 - t0;
            clip += t2 - t1;
            adam += t3 - t2;
        }
        best.0 = best.0.min(per_update(backward));
        best.1 = best.1.min(per_update(clip));
        best.2 = best.2.min(per_update(adam));
    }
    best
}

/// Best-of-3 extra wall time of running the two-stage search the way the
/// daemon's worker does — a never-expiring deadline checked before every
/// step, then a `partial_result()` materialization — over a plain
/// `while runner.step() {}` loop on an identical fresh problem. Paired
/// within each repetition so runner-frequency drift hits both sides.
fn degraded_outcome_overhead_ms(spec: &JobSpec) -> f64 {
    let cfg = spec.two_stage_config();
    let mut best = f64::MAX;
    for _ in 0..3 {
        let problem = spec.clone().build().expect("valid job spec");
        let mut runner = TwoStageRunner::new(&problem, &cfg, spec.seed);
        let start = Instant::now();
        while runner.step() {}
        let plain = start.elapsed();

        let problem = spec.clone().build().expect("valid job spec");
        let mut runner = TwoStageRunner::new(&problem, &cfg, spec.seed);
        let deadline = Duration::from_secs(86_400);
        let started = Instant::now();
        loop {
            if started.elapsed() >= deadline {
                break;
            }
            if !runner.step() {
                break;
            }
        }
        let _ = runner.partial_result();
        let watched = started.elapsed();

        best = best.min(watched.saturating_sub(plain).as_secs_f64() * 1e3);
    }
    best.max(0.0)
}

/// Best-of-3 throughput (policy steps/sec) of real policy-driven rollouts
/// through a [`VecHwEnv`]: Layer-Sequential MobileNet-V2 with an unlimited
/// budget and the paper's LSTM-128 policy acting for every replica. The
/// measurement covers the whole hot loop the RL search actually runs —
/// policy inference, action sampling, and engine-backed env stepping —
/// with one batched forward per synchronized step on the vectorized side
/// and `n_envs = 1` (a 1-row batch, the serial float-op sequence) on the
/// serial side.
fn rl_rollout_steps_per_sec(n_envs: usize, threads: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let problem = HwProblem::builder(dnn_models::mobilenet_v2())
            .mix_dataflow()
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, PlatformClass::Unlimited)
            .deployment(Deployment::LayerSequential)
            .threads(threads)
            .build();
        let mut venv = VecHwEnv::new(&problem, n_envs);
        let mut rng = Rng::seed_from_u64(9);
        let policy = PolicyNet::new(
            venv.env(0).obs_dim(),
            &venv.env(0).action_dims(),
            PolicyBackboneKind::Rnn,
            128,
            &mut rng,
        );
        let start = Instant::now();
        let mut episodes = 0usize;
        let mut steps_done = 0usize;
        while episodes < RL_EPISODES {
            let k = n_envs.min(RL_EPISODES - episodes);
            // Fresh per-episode streams so both configurations sample the
            // same number of independent episodes.
            let mut rngs: Vec<Rng> = (0..k)
                .map(|i| Rng::seed_from_u64(0x5eed ^ (episodes + i) as u64))
                .collect();
            let rollout = collect_vec_rollout(&policy, &mut venv, &mut rngs);
            steps_done += rollout.steps.iter().map(Vec::len).sum::<usize>();
            episodes += k;
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(steps_done as f64 / secs);
    }
    best
}

/// Best-of-3 pure policy-inference throughputs `(serial, batch)` in
/// per-replica steps/sec at [`RL_VEC_ENVS`] replicas: the serial side
/// calls `act` once per replica per synchronized step, the batch side
/// fuses the same work into one `act_batch` call. Same LSTM-128 policy,
/// same observations, same per-replica RNG streams, no environment — the
/// ratio isolates the GEMM-shaped inference win itself.
fn policy_steps_per_sec(obs_dim: usize, action_dims: &[usize]) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(11);
    let policy = PolicyNet::new(obs_dim, action_dims, PolicyBackboneKind::Rnn, 128, &mut rng);
    let obs: Vec<Vec<f32>> = (0..RL_VEC_ENVS)
        .map(|i| {
            (0..obs_dim)
                .map(|j| ((i * 31 + j * 17) % 97) as f32 / 97.0)
                .collect()
        })
        .collect();
    let steps_per_rep = (RL_VEC_ENVS * POLICY_ROUNDS) as f64;
    let mut serial_best = 0.0f64;
    let mut batch_best = 0.0f64;
    for _ in 0..3 {
        let mut states: Vec<LstmState> = (0..RL_VEC_ENVS).map(|_| policy.initial_state()).collect();
        let mut rngs: Vec<Rng> = (0..RL_VEC_ENVS)
            .map(|i| Rng::seed_from_u64(100 + i as u64))
            .collect();
        let start = Instant::now();
        for _ in 0..POLICY_ROUNDS {
            for ((o, state), r) in obs.iter().zip(&mut states).zip(&mut rngs) {
                std::hint::black_box(policy.act(o, state, r));
            }
        }
        serial_best = serial_best.max(steps_per_rep / start.elapsed().as_secs_f64().max(1e-9));

        let mut states: Vec<LstmState> = (0..RL_VEC_ENVS).map(|_| policy.initial_state()).collect();
        let mut rngs: Vec<Rng> = (0..RL_VEC_ENVS)
            .map(|i| Rng::seed_from_u64(100 + i as u64))
            .collect();
        let mut scratch = PolicyScratch::new();
        let obs_refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
        let start = Instant::now();
        for _ in 0..POLICY_ROUNDS {
            let mut state_refs: Vec<&mut LstmState> = states.iter_mut().collect();
            let mut rng_refs: Vec<&mut Rng> = rngs.iter_mut().collect();
            std::hint::black_box(policy.act_batch(
                &obs_refs,
                &mut state_refs,
                &mut rng_refs,
                &mut scratch,
            ));
        }
        batch_best = batch_best.max(steps_per_rep / start.elapsed().as_secs_f64().max(1e-9));
    }
    (serial_best, batch_best)
}

fn main() {
    let args = Args::parse(120);

    // --- Fixed-budget two-stage pipeline (the end-to-end smoke). ---
    // Best-of-3 on a fresh problem each time: the run is ~100ms, so a
    // single scheduling hiccup on a busy runner would otherwise dominate
    // the wall-time gate. Query counters come from the first (cold) run.
    let mut spec = standard_spec(
        "tiny_cnn",
        Dataflow::NvdlaStyle,
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Iot,
    );
    spec.budget.global_epochs = args.epochs;
    spec.budget.fine_evaluations = 300;
    spec.n_envs = args.n_envs;
    spec.seed = args.seed;
    let cfg = spec.two_stage_config();
    let mut two_stage_wall_ms = f64::MAX;
    let mut stats = maestro::EvalStats::default();
    let mut cache_entries = 0usize;
    let mut cache_save_ms = 0.0f64;
    let mut cache_load_ms = 0.0f64;
    for rep in 0..3 {
        let problem = spec.clone().build().expect("valid job spec");
        let start = Instant::now();
        let result = two_stage_search(&problem, &cfg, spec.seed);
        two_stage_wall_ms = two_stage_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            stats = problem.eval_stats();
            // --- Cache persistence microbench: serialize the warm cache
            // and reload it into a fresh engine, timing both directions.
            let cache_path = args.out.join("perf_smoke.cache.jsonl");
            let t = Instant::now();
            problem.save_cache(&cache_path).expect("save cache");
            cache_save_ms = t.elapsed().as_secs_f64() * 1e3;
            let warm = spec.clone().build().expect("valid job spec");
            let t = Instant::now();
            cache_entries = warm.load_cache(&cache_path).expect("load cache");
            cache_load_ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(cache_entries > 0, "warm cache round-tripped no entries");
            std::fs::remove_file(&cache_path).ok();
        }
        assert!(
            result.final_cost().is_some(),
            "perf smoke found no feasible assignment — the search itself is broken"
        );
    }

    // --- Batch-evaluation microbench: serial vs. parallel engine. ---
    let layers = dnn_models::mobilenet_v2().layers().to_vec();
    let queries: Vec<EvalQuery> = (0..BATCH_QUERIES)
        .map(|i| EvalQuery {
            layer: i % layers.len(),
            dataflow: Dataflow::ALL[i % Dataflow::ALL.len()],
            // `num_pes` is unique per query, so every query is a cache miss
            // and the bench measures raw evaluation throughput.
            point: DesignPoint::new(1 + i as u64, 1 + (i % 24) as u64).expect("positive"),
        })
        .collect();
    let threads = maestro::threads_from_env();
    let serial_evals_per_sec = best_throughput(1, &layers, &queries);
    let parallel_evals_per_sec = best_throughput(threads, &layers, &queries);
    let parallel_speedup = parallel_evals_per_sec / serial_evals_per_sec;

    // --- Batch pricing kernel microbench: scalar loop vs. SoA kernel. ---
    let (kernel_evals_per_sec_scalar, kernel_evals_per_sec_batch) = kernel_throughputs(&layers);
    let kernel_batch_speedup = kernel_evals_per_sec_batch / kernel_evals_per_sec_scalar;

    // --- RL-rollout microbench: serial vs vectorized policy rollouts. ---
    let rl_env_steps_per_sec_serial = rl_rollout_steps_per_sec(1, 1);
    let rl_env_steps_per_sec_vec = rl_rollout_steps_per_sec(RL_VEC_ENVS, threads);
    let rl_vec_speedup = rl_env_steps_per_sec_vec / rl_env_steps_per_sec_serial;

    // --- Pure policy-inference microbench: serial act loop vs act_batch,
    // sized from the same env the rollout bench steps through. ---
    let probe = HwProblem::builder(dnn_models::mobilenet_v2())
        .mix_dataflow()
        .objective(Objective::Latency)
        .constraint(ConstraintKind::Area, PlatformClass::Unlimited)
        .deployment(Deployment::LayerSequential)
        .build();
    let probe_env = HwEnv::new(&probe);
    let (policy_steps_per_sec_serial, policy_steps_per_sec_batch) =
        policy_steps_per_sec(probe_env.obs_dim(), &probe_env.action_dims());
    let policy_batch_speedup = policy_steps_per_sec_batch / policy_steps_per_sec_serial;

    // --- Deadline-watchdog overhead: daemon loop vs. plain loop. ---
    let degraded_overhead = degraded_outcome_overhead_ms(&spec);

    // --- Learner update: BPTT backward, clip, Adam (recorded only). ---
    let (learner_backward_us, learner_clip_us, learner_adam_us) = learner_update_us();
    let learner_updates_per_sec =
        1e6 / (learner_backward_us + learner_clip_us + learner_adam_us).max(1e-9);

    let report = BenchCi {
        two_stage_wall_ms,
        two_stage_queries: stats.total(),
        cache_hit_rate: stats.hit_rate(),
        cache_evictions: stats.evictions,
        cache_entries,
        cache_save_ms,
        cache_load_ms,
        batch_queries: BATCH_QUERIES,
        serial_evals_per_sec,
        parallel_evals_per_sec,
        parallel_speedup,
        kernel_evals_per_sec_scalar,
        kernel_evals_per_sec_batch,
        kernel_batch_speedup,
        rl_env_steps_per_sec_serial,
        rl_env_steps_per_sec_vec,
        rl_vec_speedup,
        rl_n_envs: RL_VEC_ENVS,
        policy_steps_per_sec_serial,
        policy_steps_per_sec_batch,
        policy_batch_speedup,
        degraded_outcome_overhead_ms: degraded_overhead,
        learner_updates_per_sec,
        learner_backward_us,
        learner_clip_us,
        learner_adam_us,
        threads,
    };
    let artifact = args.out.join("BENCH_ci.json");
    confuciux::write_json(&artifact, &report).expect("write BENCH_ci.json");
    println!("perf-smoke: {report:#?}");
    println!("artifact: {}", artifact.display());

    // --- Gate against the checked-in baseline. ---
    let baseline_path = std::env::var("CONFX_BENCH_BASELINE")
        .unwrap_or_else(|_| "ci/bench_baseline.json".to_string());
    if std::env::var("CONFX_BENCH_UPDATE").is_ok_and(|v| v == "1") {
        confuciux::write_json(std::path::Path::new(&baseline_path), &report)
            .expect("rewrite baseline");
        println!("baseline updated at {baseline_path}; no comparison performed");
        return;
    }
    let baseline: BenchCi = serde_json::from_str(
        &std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}")),
    )
    .expect("parse baseline JSON");

    let mut failures = Vec::new();
    // Absolute wall-time / evals-per-sec numbers only compare within one
    // machine class. A worker-count mismatch means the baseline came from
    // different hardware (e.g. seeded on the dev container, now running on
    // a CI runner): skip the cross-hardware comparison rather than fail on
    // a phantom regression, and tell the operator to re-seed.
    if baseline.threads != report.threads {
        println!(
            "baseline/hardware mismatch ({} baseline threads vs {} now): absolute gates \
             skipped; refresh with CONFX_BENCH_UPDATE=1 on this runner class",
            baseline.threads, report.threads
        );
    } else {
        if report.two_stage_wall_ms > baseline.two_stage_wall_ms * (1.0 + TOLERANCE) {
            failures.push(format!(
                "two-stage wall time regressed: {:.0}ms vs baseline {:.0}ms (+{:.0}% allowed)",
                report.two_stage_wall_ms,
                baseline.two_stage_wall_ms,
                TOLERANCE * 100.0
            ));
        }
        for (name, now, base) in [
            (
                "serial evals/sec",
                report.serial_evals_per_sec,
                baseline.serial_evals_per_sec,
            ),
            (
                "parallel evals/sec",
                report.parallel_evals_per_sec,
                baseline.parallel_evals_per_sec,
            ),
            (
                "kernel scalar evals/sec",
                report.kernel_evals_per_sec_scalar,
                baseline.kernel_evals_per_sec_scalar,
            ),
            (
                "kernel batch evals/sec",
                report.kernel_evals_per_sec_batch,
                baseline.kernel_evals_per_sec_batch,
            ),
            (
                "serial rl env-steps/sec",
                report.rl_env_steps_per_sec_serial,
                baseline.rl_env_steps_per_sec_serial,
            ),
            (
                "vectorized rl env-steps/sec",
                report.rl_env_steps_per_sec_vec,
                baseline.rl_env_steps_per_sec_vec,
            ),
            (
                "serial policy steps/sec",
                report.policy_steps_per_sec_serial,
                baseline.policy_steps_per_sec_serial,
            ),
            (
                "batched policy steps/sec",
                report.policy_steps_per_sec_batch,
                baseline.policy_steps_per_sec_batch,
            ),
        ] {
            if now < base * (1.0 - TOLERANCE) {
                failures.push(format!(
                    "{name} regressed: {now:.0} vs baseline {base:.0} (-{:.0}% allowed)",
                    TOLERANCE * 100.0
                ));
            }
        }
    }
    // The speedup floor is hardware-local (no baseline involved), so it
    // applies regardless of where the baseline came from.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= MIN_GATE_THREADS && threads >= MIN_GATE_THREADS {
        if report.parallel_speedup < MIN_SPEEDUP {
            failures.push(format!(
                "parallel speedup {:.2}x below the {MIN_SPEEDUP:.1}x floor ({} threads on {} cores)",
                report.parallel_speedup, threads, cores
            ));
        }
    } else {
        println!(
            "speedup gate skipped: {threads} thread(s) on {cores} core(s) \
             (needs >= {MIN_GATE_THREADS} of each); speedup still recorded"
        );
    }
    // The kernel floor is machine-class independent (both sides of the
    // ratio run single-threaded on this machine), so it gates everywhere.
    if report.kernel_batch_speedup < KERNEL_MIN_SPEEDUP {
        failures.push(format!(
            "batch kernel speedup {:.2}x below the {KERNEL_MIN_SPEEDUP:.1}x floor \
             (scalar {:.0} vs batch {:.0} evals/sec)",
            report.kernel_batch_speedup,
            report.kernel_evals_per_sec_scalar,
            report.kernel_evals_per_sec_batch
        ));
    }
    // The policy-inference floor compares two single-thread loops on this
    // machine, so it too gates on every machine class.
    if report.policy_batch_speedup < POLICY_MIN_SPEEDUP {
        failures.push(format!(
            "batched policy inference {:.2}x of serial, below the {POLICY_MIN_SPEEDUP:.2}x floor \
             (serial {:.0} vs batch {:.0} steps/sec, {RL_VEC_ENVS} replicas)",
            report.policy_batch_speedup,
            report.policy_steps_per_sec_serial,
            report.policy_steps_per_sec_batch
        ));
    }
    // The watchdog overhead compares two loops run back to back on this
    // machine, so it too gates everywhere.
    let overhead_ceiling =
        DEGRADED_OVERHEAD_MAX_MS.max(report.two_stage_wall_ms * DEGRADED_OVERHEAD_MAX_FRACTION);
    if report.degraded_outcome_overhead_ms > overhead_ceiling {
        failures.push(format!(
            "deadline-watchdog overhead {:.2}ms exceeds the near-zero ceiling {:.2}ms \
             (two-stage wall {:.0}ms)",
            report.degraded_outcome_overhead_ms, overhead_ceiling, report.two_stage_wall_ms
        ));
    }
    // The rollout floor is machine-class independent (both sides of the
    // ratio run on this machine), so it gates everywhere.
    if report.rl_vec_speedup < RL_MIN_SPEEDUP {
        failures.push(format!(
            "vectorized rollout throughput {:.2}x of serial, below the {RL_MIN_SPEEDUP:.2}x \
             floor ({RL_VEC_ENVS} replicas, {threads} threads)",
            report.rl_vec_speedup
        ));
    }
    if failures.is_empty() {
        println!("perf-smoke gate passed against {baseline_path}");
    } else {
        eprintln!("perf-smoke gate FAILED against {baseline_path}:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Best-of-5 single-thread throughputs `(scalar, batch)` of the raw
/// [`CostModel`] — no engine, no cache — on a GA-shaped batch: one
/// generation over the model's layers, mixed dataflows, a modest grid of
/// design points (the memo-friendly regime the kernel is built for, unlike
/// the all-unique worst case the engine microbench above uses). The two
/// modes are interleaved within each repetition so frequency drift on a
/// shared runner hits both sides equally.
fn kernel_throughputs(layers: &[maestro::Layer]) -> (f64, f64) {
    let model = CostModel::default();
    let invariants = LayerInvariants::new(layers);
    let n = BATCH_QUERIES;
    let mut lis = Vec::with_capacity(n);
    let mut dfs = Vec::with_capacity(n);
    let mut pts = Vec::with_capacity(n);
    for i in 0..n {
        lis.push(i % layers.len());
        dfs.push(Dataflow::ALL[i % Dataflow::ALL.len()]);
        pts.push(DesignPoint::new(1u64 << (i % 12), 1 + (i % 24) as u64).expect("positive"));
    }
    let queries = BatchQueries {
        layers: &lis,
        dataflows: &dfs,
        points: &pts,
    };
    let mut out = vec![CostReport::default(); n];
    let mut scalar_best = 0.0f64;
    let mut batch_best = 0.0f64;
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..n {
            out[i] = model.evaluate(&layers[lis[i]], dfs[i], pts[i]);
        }
        scalar_best = scalar_best.max(n as f64 / start.elapsed().as_secs_f64().max(1e-9));
        let start = Instant::now();
        model.evaluate_batch_into(&invariants, &queries, &mut out);
        batch_best = batch_best.max(n as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    (scalar_best, batch_best)
}

/// Best-of-3 throughput (evals/sec) of a fresh engine on `queries`; fresh
/// per repetition so every query is a miss and the pool does real work.
fn best_throughput(threads: usize, layers: &[maestro::Layer], queries: &[EvalQuery]) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let engine = EvalEngine::with_threads(CostModel::default(), layers.to_vec(), threads);
        let start = Instant::now();
        let reports = engine.evaluate_batch(queries);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(reports.len(), queries.len());
        best = best.max(queries.len() as f64 / secs);
    }
    best
}
