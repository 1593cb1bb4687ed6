//! End-to-end daemon tests over real TCP sockets: warm-cache sharing
//! between sequential jobs, reconnect-with-catchup after a killed client,
//! resume after a cancel, a deadline stop or a worker panic, and the
//! cache-sidecar lifecycle across two daemon generations.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use confuciux::{JobBudget, JobSpec, SearchOutcome};
use confuciux_server::{read_frame, write_frame, Event, FaultPlan, Request, Server, ServerConfig};

fn start_server(config: ServerConfig) -> (thread::JoinHandle<()>, SocketAddr) {
    let server = Arc::new(Server::new(config));
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        server
            .serve_addr("127.0.0.1:0", |addr| addr_tx.send(addr).unwrap())
            .unwrap();
    });
    let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    (handle, addr)
}

fn small_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::paper_default("tiny_cnn");
    spec.budget = JobBudget {
        global_epochs: 30,
        fine_evaluations: 150,
    };
    spec.seed = seed;
    spec
}

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect to test daemon")
}

fn next_event(stream: &mut TcpStream) -> Event {
    read_frame(stream)
        .expect("read event frame")
        .expect("daemon closed the stream unexpectedly")
}

/// Submits a job and follows its stream to `Done`, returning the job id,
/// the outcome, and every job-scoped event seen.
fn submit_and_finish(addr: SocketAddr, spec: JobSpec) -> (u64, SearchOutcome, Vec<Event>) {
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let job = match next_event(&mut stream) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let mut events = Vec::new();
    loop {
        let event = next_event(&mut stream);
        events.push(event.clone());
        if let Event::Done { outcome, .. } = event {
            return (job, outcome, events);
        }
        assert!(
            !matches!(event, Event::Failed { .. } | Event::Cancelled { .. }),
            "job ended early: {event:?}"
        );
    }
}

fn shut_down(addr: SocketAddr) {
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Shutdown).unwrap();
    // Drain until the daemon confirms; it closes after ShuttingDown.
    while let Ok(Some(event)) = read_frame::<_, Event>(&mut stream) {
        if matches!(event, Event::ShuttingDown) {
            break;
        }
    }
}

fn job_seqs(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
        .collect()
}

#[test]
fn sequential_jobs_share_one_warm_cache() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 2,
        sidecar_dir: None,
        flush_secs: 3600,
        ..ServerConfig::default()
    });

    let (_, cold, _) = submit_and_finish(addr, small_spec(11));
    let (_, warm, _) = submit_and_finish(addr, small_spec(11));

    // Same spec, same seed: bit-identical search regardless of cache
    // temperature...
    assert_eq!(warm.digest(), cold.digest());
    // ...but the second job ran almost entirely from the shared cache.
    assert!(
        warm.hit_rate() > 0.8,
        "expected >80% warm hits, got {:.1}% ({:?})",
        warm.hit_rate() * 100.0,
        warm.eval_stats
    );
    assert!(
        warm.hit_rate() > cold.hit_rate(),
        "warm hit rate {:.3} should exceed cold {:.3}",
        warm.hit_rate(),
        cold.hit_rate()
    );

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn killed_client_reattaches_and_catches_up() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 2,
        sidecar_dir: None,
        flush_secs: 3600,
        ..ServerConfig::default()
    });
    let spec = small_spec(23);
    // The ground truth: the same spec run uninterrupted, in-process.
    let expected = spec
        .clone()
        .into_runner()
        .unwrap()
        .into_result()
        .outcome()
        .digest();

    // Submit, read a couple of events, then "die" without saying goodbye.
    let job = {
        let mut doomed = connect(addr);
        write_frame(&mut doomed, &Request::Submit { spec }).unwrap();
        let job = match next_event(&mut doomed) {
            Event::Submitted { job } => job,
            other => panic!("expected Submitted, got {other:?}"),
        };
        let _ = next_event(&mut doomed);
        job
        // dropped here: socket closes mid-job
    };

    // Reconnect and catch up from the very first event.
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Attach { job, from_seq: 0 }).unwrap();
    match next_event(&mut stream) {
        Event::Attached {
            job: j, from_seq, ..
        } => {
            assert_eq!(j, job);
            assert_eq!(from_seq, 0);
        }
        other => panic!("expected Attached, got {other:?}"),
    }
    let mut events = Vec::new();
    let outcome = loop {
        let event = next_event(&mut stream);
        events.push(event.clone());
        if let Event::Done { outcome, .. } = event {
            break outcome;
        }
    };

    // Catch-up replays the full history: seqs are gapless from 0, and the
    // final result is bit-identical to the uninterrupted run.
    let seqs = job_seqs(&events);
    let want: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, want, "replay + live events must be gapless");
    assert_eq!(outcome.digest(), expected);

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn cancel_then_resume_finishes_bit_identically() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 2,
        sidecar_dir: None,
        flush_secs: 3600,
        ..ServerConfig::default()
    });
    let mut spec = JobSpec::paper_default("tiny_cnn");
    spec.budget = JobBudget {
        global_epochs: 60,
        fine_evaluations: 150,
    };
    spec.seed = 37;
    let expected = spec
        .clone()
        .into_runner()
        .unwrap()
        .into_result()
        .outcome()
        .digest();

    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let job = match next_event(&mut stream) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    // Let it make some progress, then cancel.
    loop {
        if matches!(next_event(&mut stream), Event::Progress { .. }) {
            break;
        }
    }
    write_frame(&mut stream, &Request::Cancel { job }).unwrap();
    loop {
        match next_event(&mut stream) {
            Event::Cancelled { .. } => break,
            Event::Progress { .. } | Event::Started { .. } => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    // Resume from the daemon's in-memory checkpoint and follow to Done.
    write_frame(&mut stream, &Request::Resume { job }).unwrap();
    let outcome = loop {
        match next_event(&mut stream) {
            Event::Done { outcome, .. } => break outcome,
            Event::Failed { error, .. } => panic!("resumed job failed: {error}"),
            _ => {}
        }
    };
    assert_eq!(
        outcome.digest(),
        expected,
        "cancel + resume must not change the result"
    );

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn sidecar_survives_daemon_restart() {
    let dir = std::env::temp_dir().join(format!(
        "confuciux-server-sidecar-{}-{:?}",
        std::process::id(),
        thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Generation 1: run one job cold, shut down (flushes the sidecar).
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: Some(PathBuf::from(&dir)),
        flush_secs: 3600,
        ..ServerConfig::default()
    });
    let (_, cold, _) = submit_and_finish(addr, small_spec(5));
    shut_down(addr);
    serve.join().unwrap();

    // Sidecars are named after the *canonical* model name, not the alias
    // the spec used.
    let canonical = dnn_models::by_name("tiny_cnn").unwrap().name().to_string();
    let sidecar = dir.join(format!("{canonical}.cache.jsonl"));
    assert!(sidecar.exists(), "shutdown must flush {sidecar:?}");
    assert!(std::fs::metadata(&sidecar).unwrap().len() > 0);

    // Generation 2: a fresh daemon warm-loads the sidecar, so even its
    // *first* job of the family runs mostly from cache.
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: Some(PathBuf::from(&dir)),
        flush_secs: 3600,
        ..ServerConfig::default()
    });
    let (_, warm, _) = submit_and_finish(addr, small_spec(5));
    assert_eq!(warm.digest(), cold.digest());
    assert!(
        warm.hit_rate() > 0.8,
        "sidecar warm start should serve >80% from cache, got {:.1}%",
        warm.hit_rate() * 100.0
    );
    shut_down(addr);
    serve.join().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_fails_job_but_daemon_survives() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 2,
        sidecar_dir: None,
        flush_secs: 3600,
        faults: FaultPlan::parse("panic_worker@step=2;seed=9").unwrap(),
        ..ServerConfig::default()
    });

    // First job trips the one-shot injected panic mid-search...
    let mut stream = connect(addr);
    write_frame(
        &mut stream,
        &Request::Submit {
            spec: small_spec(3),
        },
    )
    .unwrap();
    let error = loop {
        match next_event(&mut stream) {
            Event::Failed { error, .. } => break error,
            Event::Done { .. } => panic!("job should have hit the injected panic"),
            _ => {}
        }
    };
    assert!(
        error.contains("worker panicked") && error.contains("injected fault"),
        "diagnostic should name the injected panic, got: {error}"
    );

    // ...and the daemon (and its worker pool) keeps serving: the same
    // connection stays usable and a fresh job runs to completion.
    let (_, outcome, _) = submit_and_finish(addr, small_spec(3));
    assert!(outcome.best_cost().is_some());

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn panicked_job_resumes_from_its_spec_bit_identically() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: None,
        flush_secs: 3600,
        faults: FaultPlan::parse("panic_worker@step=2;seed=9").unwrap(),
        ..ServerConfig::default()
    });
    let spec = small_spec(17);
    let expected = spec
        .clone()
        .into_runner()
        .unwrap()
        .into_result()
        .outcome()
        .digest();

    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let job = match next_event(&mut stream) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    loop {
        match next_event(&mut stream) {
            Event::Failed { .. } => break,
            Event::Done { .. } => panic!("job should have hit the injected panic"),
            _ => {}
        }
    }

    // The panic left no checkpoint behind, so the resume restarts the job
    // from its spec; the injected panic is one-shot and does not recur.
    write_frame(&mut stream, &Request::Resume { job }).unwrap();
    let outcome = loop {
        match next_event(&mut stream) {
            Event::Done { outcome, .. } => break outcome,
            Event::Failed { error, .. } => panic!("resumed job failed: {error}"),
            Event::Error { message } => panic!("resume refused: {message}"),
            _ => {}
        }
    };
    assert_eq!(
        outcome.digest(),
        expected,
        "panic + resume must not change the result"
    );

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn deadline_stopped_job_resumes_to_the_uninterrupted_result() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: None,
        flush_secs: 3600,
        ..ServerConfig::default()
    });
    // The deadline cannot be lifted on resume, so every run of the job
    // gets the same short window and the job advances a few steps per run.
    // 10ms is short enough that even a release build stops this 100-epoch
    // job several times.
    let mut spec = small_spec(29);
    spec.budget.global_epochs = 100;
    spec.deadline_ms = Some(10);
    let mut runner = spec.clone().into_runner().unwrap();
    let mut steps = 1;
    while runner.step() {
        steps += 1;
    }
    let expected = runner.result().unwrap().outcome().digest();

    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let job = match next_event(&mut stream) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    // The connection stays subscribed from the submit and is attached
    // again by every resume, so it sees each later event more than once;
    // only the first copy of each seq counts.
    let mut next_seq = 0;
    let mut progress_events = 0;
    let mut stops = 0;
    let outcome = loop {
        let event = next_event(&mut stream);
        if let Some((_, seq)) = event.job_seq() {
            if seq < next_seq {
                continue;
            }
            next_seq = seq + 1;
        }
        match event {
            Event::Progress { .. } => {
                progress_events += 1;
                assert!(progress_events <= steps, "steps were repeated");
            }
            Event::Degraded { .. } => {
                stops += 1;
                assert!(stops <= 10 * steps, "job never finished");
                write_frame(&mut stream, &Request::Resume { job }).unwrap();
            }
            Event::Done { outcome, .. } => break outcome,
            Event::Failed { error, .. } => panic!("job failed: {error}"),
            Event::Error { message } => panic!("resume refused: {message}"),
            _ => {}
        }
    };
    assert!(
        stops > 0,
        "the job must have hit its deadline at least once"
    );
    // Each resumed run continues from the checkpoint taken at the previous
    // deadline stop, so across all runs every step ran exactly once.
    assert_eq!(progress_events, steps, "steps were skipped");
    assert!(!outcome.is_degraded());
    assert_eq!(
        outcome.digest(),
        expected,
        "deadline stops + resumes must not change the result"
    );

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn deadline_expiry_returns_degraded_best_so_far() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: None,
        flush_secs: 3600,
        ..ServerConfig::default()
    });

    // A budget far beyond what the deadline allows.
    let mut spec = small_spec(7);
    spec.budget = JobBudget {
        global_epochs: 1_000_000,
        fine_evaluations: 1_000_000,
    };
    spec.deadline_ms = Some(300);

    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let job = match next_event(&mut stream) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let (reason, outcome) = loop {
        match next_event(&mut stream) {
            Event::Degraded {
                reason, outcome, ..
            } => break (reason, outcome),
            Event::Done { .. } => panic!("job should have hit its deadline first"),
            Event::Failed { error, .. } => panic!("job failed instead of degrading: {error}"),
            _ => {}
        }
    };

    // A partial answer, not an error: the outcome is a valid summary
    // carrying the degradation reason, and the job's terminal state is
    // `degraded`.
    assert!(reason.contains("deadline"), "reason: {reason}");
    assert!(outcome.is_degraded());
    assert!(
        outcome.epochs < 1_000_000,
        "a 300ms deadline cannot have afforded the full budget"
    );
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Jobs).unwrap();
    match next_event(&mut stream) {
        Event::JobList { jobs } => {
            let summary = jobs.iter().find(|j| j.job == job).expect("job listed");
            assert_eq!(summary.state, "degraded");
        }
        other => panic!("expected JobList, got {other:?}"),
    }

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn over_capacity_submit_is_rejected_with_retry_hint() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: None,
        flush_secs: 3600,
        max_active: 1,
        ..ServerConfig::default()
    });

    // Occupy the single admission slot with a long-running job.
    let mut occupant = connect(addr);
    let mut spec = small_spec(13);
    spec.budget = JobBudget {
        global_epochs: 1_000_000,
        fine_evaluations: 1_000_000,
    };
    write_frame(&mut occupant, &Request::Submit { spec }).unwrap();
    let job = match next_event(&mut occupant) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };

    // The next submit bounces with a positive retry hint and no job id.
    let mut stream = connect(addr);
    write_frame(
        &mut stream,
        &Request::Submit {
            spec: small_spec(14),
        },
    )
    .unwrap();
    match next_event(&mut stream) {
        Event::Rejected { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Free the slot and the same submit goes through.
    write_frame(&mut occupant, &Request::Cancel { job }).unwrap();
    while !matches!(next_event(&mut occupant), Event::Cancelled { .. }) {}
    let (_, outcome, _) = submit_and_finish(addr, small_spec(14));
    assert!(outcome.best_cost().is_some());

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn dropped_connection_reattach_is_gapless_and_digest_identical() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: None,
        flush_secs: 3600,
        faults: FaultPlan::parse("drop_conn@frame=3;seed=21").unwrap(),
        ..ServerConfig::default()
    });
    let spec = small_spec(21);
    let expected = spec
        .clone()
        .into_runner()
        .unwrap()
        .into_result()
        .outcome()
        .digest();

    // The daemon hard-closes this connection after its third frame.
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let mut job = None;
    let mut events: Vec<Event> = Vec::new();
    while let Ok(Some(event)) = read_frame::<_, Event>(&mut stream) {
        if let Event::Submitted { job: id } = &event {
            job = Some(*id);
        }
        events.push(event);
    }
    let job = job.expect("Submitted must arrive before the injected drop");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::Done { .. } | Event::Failed { .. })),
        "the drop must have cut the stream before the job finished"
    );

    // Re-attach from the first unseen seq, exactly as a resilient client
    // would, and follow to Done.
    let last_seq = events
        .iter()
        .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
        .max();
    let from_seq = last_seq.map_or(0, |s| s + 1);
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Attach { job, from_seq }).unwrap();
    match next_event(&mut stream) {
        Event::Attached { job: j, .. } => assert_eq!(j, job),
        other => panic!("expected Attached, got {other:?}"),
    }
    let outcome = loop {
        let event = next_event(&mut stream);
        events.push(event.clone());
        if let Event::Done { outcome, .. } = event {
            break outcome;
        }
    };

    // Stitched-together log: gapless, duplicate-free seqs from 0, and the
    // interrupted stream did not perturb the search itself.
    let seqs = job_seqs(&events);
    let want: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, want, "pre-drop + re-attached events must be gapless");
    assert_eq!(outcome.digest(), expected);

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn corrupt_sidecar_is_salvaged_and_quarantined_on_restart() {
    let dir = std::env::temp_dir().join(format!(
        "confuciux-server-corrupt-{}-{:?}",
        std::process::id(),
        thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Generation 1 corrupts its own sidecar on flush (torn-write fault).
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: Some(PathBuf::from(&dir)),
        flush_secs: 3600,
        faults: FaultPlan::parse("corrupt_sidecar;seed=5").unwrap(),
        ..ServerConfig::default()
    });
    let (_, cold, _) = submit_and_finish(addr, small_spec(5));
    shut_down(addr);
    serve.join().unwrap();

    let canonical = dnn_models::by_name("tiny_cnn").unwrap().name().to_string();
    let sidecar = dir.join(format!("{canonical}.cache.jsonl"));
    assert!(sidecar.exists());

    // Generation 2 must start normally anyway: the corrupt sidecar is
    // quarantined, its valid prefix salvaged, and the next job still
    // reproduces the same result.
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        sidecar_dir: Some(PathBuf::from(&dir)),
        flush_secs: 3600,
        ..ServerConfig::default()
    });
    let (_, warm, _) = submit_and_finish(addr, small_spec(5));
    assert_eq!(warm.digest(), cold.digest());
    assert!(
        warm.hit_rate() > 0.8,
        "salvaged prefix should still warm the cache, got {:.1}%",
        warm.hit_rate() * 100.0
    );
    let mut quarantined = sidecar.clone().into_os_string();
    quarantined.push(".corrupt");
    assert!(
        PathBuf::from(quarantined).exists(),
        "the corrupt sidecar must be quarantined, not deleted"
    );

    shut_down(addr);
    serve.join().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}
