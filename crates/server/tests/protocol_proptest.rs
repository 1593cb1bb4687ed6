//! Property tests of the wire layer: every [`JobSpec`] and every protocol
//! frame survives a JSON round trip bit-exactly, and hostile length
//! prefixes (truncated, oversized, garbage) are rejected without panic.

use std::io::Cursor;

use confuciux::{
    AlgorithmKind, ConstraintKind, DataflowSpec, Deployment, JobBudget, JobSpec, Objective,
    PlatformClass,
};
use confuciux_server::{read_frame, write_frame, Event, FrameError, JobSummary, Request};
use maestro::{Dataflow, EvalStats};
use proptest::prelude::*;

fn arb_u64() -> impl Strategy<Value = u64> {
    0u64..=u64::MAX
}

fn arb_text() -> impl Strategy<Value = String> {
    (0usize..5).prop_map(|i| {
        [
            "",
            "boom",
            "unknown model `not_a_model`",
            "checkpoint version 99 unsupported",
            "μ-message with unicode ≠ ascii",
        ][i]
            .to_string()
    })
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        (
            prop_oneof![
                Just("tiny_cnn".to_string()),
                Just("MbnetV2".to_string()),
                Just("resnet50".to_string()),
                Just("transformer".to_string()),
                // Unknown models must round-trip too: validation is a
                // *submit*-time concern, not a serialization one.
                Just("not_a_model".to_string()),
            ],
            0usize..4,
            prop_oneof![(0usize..3).prop_map(Some), Just(None)],
            0usize..3,
            0usize..2,
            0usize..2,
        ),
        (
            0usize..2000,
            0usize..5000,
            0usize..8,
            1usize..9,
            arb_u64(),
            prop_oneof![Just(None), (1u64..100_000).prop_map(Some)],
        ),
    )
        .prop_map(
            |((model, plat, df, obj, con, dep), (ge, fe, algo, n_envs, seed, deadline_ms))| {
                JobSpec {
                    model,
                    platform: [
                        PlatformClass::Unlimited,
                        PlatformClass::Cloud,
                        PlatformClass::Iot,
                        PlatformClass::IotX,
                    ][plat],
                    dataflow: match df {
                        Some(i) => DataflowSpec::Fixed(Dataflow::from_index(i).expect("index < 3")),
                        None => DataflowSpec::Mix,
                    },
                    objective: [Objective::Latency, Objective::Energy, Objective::Edp][obj],
                    constraint: [ConstraintKind::Area, ConstraintKind::Power][con],
                    deployment: [Deployment::LayerSequential, Deployment::LayerPipelined][dep],
                    budget: JobBudget {
                        global_epochs: ge,
                        fine_evaluations: fe,
                    },
                    algo: [
                        AlgorithmKind::Reinforce,
                        AlgorithmKind::ReinforceMlp,
                        AlgorithmKind::A2c,
                        AlgorithmKind::Acktr,
                        AlgorithmKind::Ppo2,
                        AlgorithmKind::Ddpg,
                        AlgorithmKind::Sac,
                        AlgorithmKind::Td3,
                    ][algo],
                    n_envs,
                    seed,
                    deadline_ms,
                }
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        arb_spec().prop_map(|spec| Request::Submit { spec }),
        (arb_u64(), arb_u64()).prop_map(|(job, from_seq)| Request::Attach { job, from_seq }),
        arb_u64().prop_map(|job| Request::Cancel { job }),
        arb_u64().prop_map(|job| Request::Resume { job }),
        Just(Request::Jobs),
        Just(Request::Stats),
        Just(Request::Shutdown),
    ]
}

fn arb_stats() -> impl Strategy<Value = EvalStats> {
    (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX).prop_map(|(h, m, e)| EvalStats {
        hits: h as u64,
        misses: m as u64,
        evictions: e as u64,
    })
}

/// Job-scoped and connection-scoped events. `Done` is exercised
/// separately in the e2e suite with a real `SearchOutcome`; here the
/// focus is every other frame shape, including bit-encoded infinite
/// costs.
fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::Pong),
        arb_u64().prop_map(|job| Event::Submitted { job }),
        (arb_u64(), arb_u64()).prop_map(|(job, seq)| Event::Started { job, seq }),
        (
            arb_u64(),
            arb_u64(),
            0usize..10_000,
            0usize..10_000,
            prop_oneof![
                Just(None),
                Just(Some(f64::INFINITY.to_bits())),
                (0u32..=u32::MAX).prop_map(|c| Some((c as f64).to_bits())),
            ],
            arb_stats(),
        )
            .prop_map(|(job, seq, epochs, evaluations, best_cost_bits, stats)| {
                Event::Progress {
                    job,
                    seq,
                    epochs,
                    evaluations,
                    best_cost_bits,
                    stats,
                }
            }),
        (arb_u64(), arb_u64(), arb_text()).prop_map(|(job, seq, error)| Event::Failed {
            job,
            seq,
            error
        }),
        (arb_u64(), arb_u64()).prop_map(|(job, seq)| Event::Cancelled { job, seq }),
        (1u64..=10_000).prop_map(|retry_after_ms| Event::Rejected { retry_after_ms }),
        (arb_u64(), arb_u64(), arb_u64()).prop_map(|(job, from_seq, replayed)| {
            Event::Attached {
                job,
                from_seq,
                replayed,
            }
        }),
        proptest::collection::vec(
            (arb_u64(), arb_text(), 0usize..6, arb_u64()).prop_map(|(job, model, st, events)| {
                JobSummary {
                    job,
                    model,
                    state: [
                        "queued",
                        "running",
                        "done",
                        "degraded",
                        "failed",
                        "cancelled",
                    ][st]
                        .to_string(),
                    events,
                }
            }),
            0..4,
        )
        .prop_map(|jobs| Event::JobList { jobs }),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64(), arb_u64()).prop_map(
            |(jobs_total, jobs_running, jobs_evicted, engines, cache_entries)| Event::ServerStats {
                jobs_total,
                jobs_running,
                jobs_evicted,
                engines,
                cache_entries,
            }
        ),
        arb_text().prop_map(|message| Event::Error { message }),
        Just(Event::ShuttingDown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A spec survives JSON bit-exactly — the server sees exactly the job
    /// the client described.
    #[test]
    fn jobspec_round_trips(spec in arb_spec()) {
        let text = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, spec);
    }

    /// Every request frame round-trips through the framed wire format.
    #[test]
    fn request_frames_round_trip(req in arb_request()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        prop_assert_eq!(back, req);
    }

    /// Every event frame round-trips through the framed wire format.
    #[test]
    fn event_frames_round_trip(event in arb_event()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &event).unwrap();
        let back: Event = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        prop_assert_eq!(back, event);
    }

    /// Truncating a valid frame anywhere — inside the prefix or inside
    /// the payload — is an error, never a panic and never a bogus frame.
    #[test]
    fn truncated_frames_are_rejected(req in arb_request(), keep_fraction in 0.0f64..1.0) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let keep = ((buf.len() as f64 * keep_fraction) as usize).min(buf.len() - 1);
        buf.truncate(keep);
        match read_frame::<_, Request>(&mut Cursor::new(buf)) {
            Ok(None) => prop_assert!(keep == 0, "only an empty stream is a clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame must not parse"),
            Err(FrameError::Bad(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
        }
    }

    /// Oversized length prefixes are rejected before allocation, whatever
    /// follows them.
    #[test]
    fn oversized_prefixes_are_rejected(
        extra in (confuciux_server::MAX_FRAME_LEN as u32 + 1)..=u32::MAX,
        tail in proptest::collection::vec(0u8..=u8::MAX, 0..64),
    ) {
        let mut buf = extra.to_be_bytes().to_vec();
        buf.extend(tail);
        prop_assert!(matches!(
            read_frame::<_, Request>(&mut Cursor::new(buf)),
            Err(FrameError::Bad(_))
        ));
    }

    /// Arbitrary garbage bytes never panic the reader: they either parse
    /// as a (well-framed) message or error out cleanly.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=u8::MAX, 0..256)) {
        let _ = read_frame::<_, Request>(&mut Cursor::new(bytes));
    }
}
