//! Wire protocol of the search daemon.
//!
//! Every message — both directions — is one *frame*: a 4-byte big-endian
//! `u32` byte length followed by exactly that many bytes of JSON. Requests
//! flow client→server ([`Request`]), events flow server→client ([`Event`]).
//! The same frame layer runs over TCP and over stdin/stdout, so a client
//! can drive a remote daemon and a spawned child process identically.
//!
//! Framing is deliberately defensive: a zero or oversized length prefix is
//! rejected *before* any allocation, a truncated prefix or payload is a
//! [`FrameError::Bad`] (the stream cannot be resynchronized), and a
//! complete frame holding malformed JSON is a [`FrameError::Malformed`]
//! (the stream is still framed correctly, so the server answers with an
//! [`Event::Error`] and keeps the connection).

use std::io::{ErrorKind, Read, Write};

use confuciux::{JobSpec, SearchError, SearchOutcome};
use maestro::EvalStats;
use serde::{Deserialize, Serialize};

/// Hard ceiling on a frame's payload length. Larger prefixes are rejected
/// without allocating — a garbage prefix must not OOM the daemon.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// What went wrong reading or writing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Transport-level failure (socket reset, broken pipe, ...).
    Io(std::io::Error),
    /// Framing violation: truncated prefix/payload or absurd length. The
    /// stream cannot be trusted afterwards and must be closed.
    Bad(String),
    /// A complete, well-framed payload that is not valid message JSON.
    /// The stream itself is still in sync.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::Bad(msg) => write!(f, "bad frame: {msg}"),
            FrameError::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<FrameError> for SearchError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => SearchError::Io(io.to_string()),
            FrameError::Bad(msg) | FrameError::Malformed(msg) => SearchError::Format(msg),
        }
    }
}

/// Client→server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered with [`Event::Pong`].
    Ping,
    /// Submit a search job. Answered with [`Event::Submitted`]; the
    /// connection is auto-subscribed to the job's event stream.
    Submit { spec: JobSpec },
    /// Re-attach to a job, replaying every buffered event with
    /// `seq >= from_seq` before streaming live ones (reconnect catch-up).
    Attach { job: u64, from_seq: u64 },
    /// Ask a running job to stop at the next step boundary.
    Cancel { job: u64 },
    /// Re-enqueue a cancelled/failed/degraded job from the in-memory
    /// checkpoint taken at its last cancel or deadline stop, or from its
    /// spec if it has none (e.g. a job whose worker panicked).
    Resume { job: u64 },
    /// List all jobs the daemon knows about.
    Jobs,
    /// Daemon-wide counters (jobs, engines, cache entries).
    Stats,
    /// Stop accepting work, cancel running jobs, flush cache sidecars,
    /// and exit the serve loop.
    Shutdown,
}

/// One job's line in an [`Event::JobList`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSummary {
    pub job: u64,
    pub model: String,
    /// `"queued" | "running" | "done" | "degraded" | "failed" |
    /// "cancelled"`.
    pub state: String,
    /// Number of events emitted for this job so far.
    pub events: u64,
}

/// Server→client messages. Job-scoped events carry the job id and a
/// per-job monotonically increasing `seq`, which is what
/// [`Request::Attach`] replays from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The job was accepted and queued.
    Submitted { job: u64 },
    /// A worker picked the job up.
    Started { job: u64, seq: u64 },
    /// One step of search progress: budgets spent so far, the best cost so
    /// far (bit-encoded `f64`, absent until a feasible point exists), and
    /// the evaluation counters this job consumed (hit rate = `hits /
    /// (hits + misses)`, warm when the shared cache already knew the
    /// model).
    Progress {
        job: u64,
        seq: u64,
        epochs: usize,
        evaluations: usize,
        best_cost_bits: Option<u64>,
        stats: EvalStats,
    },
    /// The job finished; `outcome` is the [`SearchOutcome`] summary,
    /// embedded verbatim.
    Done {
        job: u64,
        seq: u64,
        outcome: SearchOutcome,
    },
    /// The job was stopped early (deadline expired, shutdown) but still
    /// produced a usable answer: `outcome` is the best-so-far
    /// [`SearchOutcome`] with its `degraded` field set to `reason`. A
    /// partial answer, not an error — terminal like [`Event::Done`].
    Degraded {
        job: u64,
        seq: u64,
        reason: String,
        outcome: SearchOutcome,
    },
    /// The job stopped with an error.
    Failed { job: u64, seq: u64, error: String },
    /// Admission control refused the submit: the worker queue is at
    /// capacity. No job was created; retry after `retry_after_ms`.
    Rejected { retry_after_ms: u64 },
    /// The job honoured a [`Request::Cancel`] (a checkpoint for
    /// [`Request::Resume`] is taken at the stop when stage 1 supports it).
    Cancelled { job: u64, seq: u64 },
    /// Answer to [`Request::Attach`]: `replayed` buffered events follow
    /// immediately, then live ones.
    Attached {
        job: u64,
        from_seq: u64,
        replayed: u64,
    },
    /// Answer to [`Request::Jobs`].
    JobList { jobs: Vec<JobSummary> },
    /// Answer to [`Request::Stats`]. `jobs_total` counts every job ever
    /// submitted; `jobs_evicted` how many finished jobs the daemon has
    /// since forgotten (see `registry::RETAINED_DONE_JOBS`).
    ServerStats {
        jobs_total: u64,
        jobs_running: u64,
        jobs_evicted: u64,
        engines: u64,
        cache_entries: u64,
    },
    /// A request could not be honoured (unknown job, invalid spec, ...).
    /// The connection stays open.
    Error { message: String },
    /// The daemon is shutting down; no further events will arrive.
    ShuttingDown,
}

impl Event {
    /// The `(job, seq)` pair of a job-scoped event.
    pub fn job_seq(&self) -> Option<(u64, u64)> {
        match self {
            Event::Started { job, seq }
            | Event::Progress { job, seq, .. }
            | Event::Done { job, seq, .. }
            | Event::Degraded { job, seq, .. }
            | Event::Failed { job, seq, .. }
            | Event::Cancelled { job, seq } => Some((*job, *seq)),
            _ => None,
        }
    }
}

/// Outcome of one poll for a frame on a stream with a read timeout.
#[derive(Debug)]
pub enum Polled<T> {
    /// A complete frame arrived.
    Frame(T),
    /// The peer closed the stream cleanly (EOF before any prefix byte).
    Closed,
    /// The read timed out before any prefix byte arrived; poll again.
    Idle,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Serializes `msg` and writes it as one length-prefixed frame.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), FrameError> {
    let text = serde_json::to_string(msg).map_err(|e| FrameError::Malformed(format!("{e:?}")))?;
    let bytes = text.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(FrameError::Bad(format!(
            "frame of {} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})",
            bytes.len()
        )));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, tolerating a read timeout *before* the first prefix
/// byte (so a server thread can poll its shutdown flag between frames).
/// Once a frame has started, timeouts mid-message keep waiting — peers
/// write frames atomically, so the rest is already in flight.
pub fn poll_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<Polled<T>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(Polled::Closed)
                } else {
                    Err(FrameError::Bad(format!(
                        "truncated length prefix: {got} of 4 bytes"
                    )))
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && got == 0 => return Ok(Polled::Idle),
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 {
        return Err(FrameError::Bad("zero-length frame".to_string()));
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Bad(format!(
            "length prefix {len} exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameError::Bad(format!(
                    "truncated payload: {filled} of {len} bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted || is_timeout(&e) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let text = std::str::from_utf8(&payload)
        .map_err(|e| FrameError::Malformed(format!("frame is not utf-8: {e}")))?;
    serde_json::from_str(text)
        .map(Polled::Frame)
        .map_err(|e| FrameError::Malformed(format!("{e:?}")))
}

/// Blocking [`poll_frame`]: loops through idle polls until a frame or EOF.
/// `Ok(None)` is a clean EOF.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, FrameError> {
    loop {
        match poll_frame(r)? {
            Polled::Frame(msg) => return Ok(Some(msg)),
            Polled::Closed => return Ok(None),
            Polled::Idle => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_frame(&mut buf, req).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    #[test]
    fn request_round_trips() {
        let spec = JobSpec::paper_default("tiny_cnn");
        for req in [
            Request::Ping,
            Request::Submit { spec },
            Request::Attach {
                job: 3,
                from_seq: 17,
            },
            Request::Cancel { job: 3 },
            Request::Resume { job: 3 },
            Request::Jobs,
            Request::Stats,
            Request::Shutdown,
        ] {
            assert_eq!(round_trip(&req), req);
        }
    }

    #[test]
    fn two_frames_in_one_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping).unwrap();
        write_frame(&mut buf, &Request::Jobs).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame::<_, Request>(&mut cur).unwrap(),
            Some(Request::Ping)
        );
        assert_eq!(
            read_frame::<_, Request>(&mut cur).unwrap(),
            Some(Request::Jobs)
        );
        assert_eq!(read_frame::<_, Request>(&mut cur).unwrap(), None);
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cur = Cursor::new(Vec::new());
        assert!(read_frame::<_, Request>(&mut cur).unwrap().is_none());
    }

    #[test]
    fn truncated_prefix_is_rejected() {
        let mut cur = Cursor::new(vec![0u8, 0, 1]);
        assert!(matches!(
            read_frame::<_, Request>(&mut cur),
            Err(FrameError::Bad(_))
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut cur = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert!(matches!(
            read_frame::<_, Request>(&mut cur),
            Err(FrameError::Bad(_))
        ));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(matches!(
            read_frame::<_, Request>(&mut Cursor::new(buf)),
            Err(FrameError::Bad(_))
        ));
    }

    #[test]
    fn malformed_json_keeps_the_stream_in_sync() {
        let mut buf = Vec::new();
        let junk = b"{\"not a\": \"request\"}";
        buf.extend_from_slice(&(junk.len() as u32).to_be_bytes());
        buf.extend_from_slice(junk);
        write_frame(&mut buf, &Request::Ping).unwrap();
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame::<_, Request>(&mut cur),
            Err(FrameError::Malformed(_))
        ));
        // The next frame is still readable: framing survived the bad JSON.
        assert_eq!(
            read_frame::<_, Request>(&mut cur).unwrap(),
            Some(Request::Ping)
        );
    }
}
