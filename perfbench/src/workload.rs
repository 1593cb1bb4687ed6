//! The three benchmark workloads and the job specs they generate.
//!
//! Every job a run executes is derived from the workload seed given on the
//! command line: job `i` of a run with seed `s` searches with seed
//! `mix(s, i)`. The program under test only ever sees these specs.

use maestro::Dataflow;

use confuciux::{
    AlgorithmKind, ConstraintKind, DataflowSpec, Deployment, JobBudget, JobSpec, Objective,
    PlatformClass,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Library, one job at a time, REINFORCE-heavy LP search: the learner
    /// update carries most of the wall time.
    RlLpMobilenet,
    /// Library, one job at a time, short stage 1 and a large stage-2
    /// budget: LocalGA and the engine hit path carry most of the time.
    GaFinetuneResnet,
    /// A `confuciux-server` daemon on loopback fed by one client holding
    /// two connections, each a closed loop of LS MIX jobs.
    DaemonLsMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RlLpMobilenet,
        Workload::GaFinetuneResnet,
        Workload::DaemonLsMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RlLpMobilenet => "rl_lp_mobilenet",
            Workload::GaFinetuneResnet => "ga_finetune_resnet",
            Workload::DaemonLsMix => "daemon_ls_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs every run completes before it may stop, whatever `--seconds`
    /// says: `best_cost_geomean` is taken over exactly these jobs, which
    /// makes it a pure function of the workload seed.
    pub fn quality_jobs(self) -> usize {
        match self {
            Workload::RlLpMobilenet => 32,
            Workload::GaFinetuneResnet => 64,
            Workload::DaemonLsMix => 64,
        }
    }

    /// The spec of job `index` in a run with workload seed `seed`.
    pub fn job(self, seed: u64, index: u64) -> JobSpec {
        let mut spec = self.template();
        spec.seed = mix(seed, index);
        spec
    }

    /// A small job of the workload's shape, run during set-up so that
    /// allocators, page tables and (for the daemon) the shared engine are
    /// warm before the measured phase. Independent of the workload seed.
    pub fn warmup_job(self) -> JobSpec {
        let mut spec = self.template();
        spec.budget = JobBudget {
            global_epochs: 2 * spec.n_envs,
            fine_evaluations: 200,
        };
        spec.seed = 0x5e7u64;
        spec
    }

    fn template(self) -> JobSpec {
        let (model, platform, dataflow, deployment, budget) = match self {
            Workload::RlLpMobilenet => (
                "MbnetV2",
                PlatformClass::Cloud,
                DataflowSpec::Fixed(Dataflow::NvdlaStyle),
                Deployment::LayerPipelined,
                JobBudget {
                    global_epochs: 120,
                    fine_evaluations: 300,
                },
            ),
            Workload::GaFinetuneResnet => (
                "ResNet50",
                PlatformClass::Cloud,
                DataflowSpec::Mix,
                Deployment::LayerPipelined,
                JobBudget {
                    global_epochs: 24,
                    fine_evaluations: 60_000,
                },
            ),
            Workload::DaemonLsMix => (
                "MbnetV2",
                PlatformClass::Iot,
                DataflowSpec::Mix,
                Deployment::LayerSequential,
                JobBudget {
                    global_epochs: 200,
                    fine_evaluations: 500,
                },
            ),
        };
        JobSpec {
            model: model.to_string(),
            platform,
            dataflow,
            objective: Objective::Latency,
            constraint: ConstraintKind::Area,
            deployment,
            budget,
            algo: AlgorithmKind::Reinforce,
            n_envs: 4,
            seed: 0,
            deadline_ms: None,
        }
    }
}

/// SplitMix64 finalizer over `(seed, index)`.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
