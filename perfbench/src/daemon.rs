//! The daemon workload's client side: spawning `confuciux-server` on
//! loopback, and a closed-loop client connection that submits a job,
//! follows its events to `Done`, then submits the next.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use confuciux::{JobSpec, SearchOutcome};
use confuciux_server::{write_frame, Event, Request, MAX_FRAME_LEN};

/// A daemon child process listening on an ephemeral loopback port.
pub struct Daemon {
    child: Child,
    /// Drains the daemon's stderr until it exits.
    drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening on` line.
    pub fn spawn(bin: &str) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = lines
            .next()
            .and_then(Result::ok)
            .and_then(|l| l.split("listening on ").nth(1).map(str::to_string));
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        let daemon = Daemon {
            child,
            drain,
            addr: addr.unwrap_or_default(),
        };
        if daemon.addr.is_empty() {
            return Err("daemon did not report a listening address".to_string());
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit, killing it
    /// if it has not exited within ten seconds.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = Conn::connect(&self.addr, false) {
            let _ = write_frame(&mut conn.stream, &Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Dropping `self` kills it.
    }
}

impl Drop for Daemon {
    /// A daemon never outlives its run, even one that ends in a panic.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// What the client saw of one submitted job.
pub struct DaemonJob {
    /// Submit written → `Done` read.
    pub job_ms: f64,
    /// `Submitted` read → `Started` read.
    pub queue_ms: f64,
    /// `Started` read → `Done` read.
    pub run_ms: f64,
    pub events: u64,
    pub frame_bytes: u64,
    /// Time spent decoding this job's frames (traced connections only).
    pub decode_ms: f64,
    pub rejected: bool,
    /// The `Done` outcome, or why the job ended otherwise.
    pub outcome: Result<SearchOutcome, String>,
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    traced: bool,
}

impl Conn {
    pub fn connect(addr: &str, traced: bool) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(Conn { stream, traced })
    }

    /// Reads one frame; returns the event, its size on the wire, and the
    /// time spent decoding it (zero on untraced connections).
    fn read_event(&mut self) -> Result<(Event, u64, f64), String> {
        let mut prefix = [0u8; 4];
        self.stream
            .read_exact(&mut prefix)
            .map_err(|e| format!("reading frame length: {e}"))?;
        let len = u32::from_be_bytes(prefix) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(format!("bad frame length {len}"));
        }
        let mut payload = vec![0u8; len];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| format!("reading frame: {e}"))?;
        let t = self.traced.then(Instant::now);
        let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
        let event: Event = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
        let decode_ms = t.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
        Ok((event, 4 + len as u64, decode_ms))
    }

    /// Round-trips a `Ping`.
    pub fn ping(&mut self) -> Result<(), String> {
        write_frame(&mut self.stream, &Request::Ping).map_err(|e| e.to_string())?;
        match self.read_event()?.0 {
            Event::Pong => Ok(()),
            other => Err(format!("expected Pong, got {other:?}")),
        }
    }

    /// Submits `spec` and follows its events until the job ends.
    pub fn run(&mut self, spec: &JobSpec) -> Result<DaemonJob, String> {
        let submit = Instant::now();
        write_frame(&mut self.stream, &Request::Submit { spec: spec.clone() })
            .map_err(|e| e.to_string())?;
        let mut job = DaemonJob {
            job_ms: 0.0,
            queue_ms: 0.0,
            run_ms: 0.0,
            events: 0,
            frame_bytes: 0,
            decode_ms: 0.0,
            rejected: false,
            outcome: Err("no terminal event".to_string()),
        };
        let mut submitted = submit;
        let mut started = submit;
        loop {
            let (event, bytes, decode_ms) = self.read_event()?;
            let now = Instant::now();
            job.events += 1;
            job.frame_bytes += bytes;
            job.decode_ms += decode_ms;
            let terminal = match event {
                Event::Submitted { .. } => {
                    submitted = now;
                    None
                }
                Event::Started { .. } => {
                    started = now;
                    None
                }
                Event::Progress { .. } | Event::Attached { .. } => None,
                Event::Done { outcome, .. } => Some(Ok(outcome)),
                Event::Rejected { retry_after_ms } => {
                    job.rejected = true;
                    Some(Err(format!("rejected, retry after {retry_after_ms} ms")))
                }
                Event::Degraded { reason, .. } => Some(Err(format!("degraded: {reason}"))),
                Event::Failed { error, .. } => Some(Err(format!("failed: {error}"))),
                Event::Cancelled { .. } => Some(Err("cancelled".to_string())),
                Event::Error { message } => Some(Err(format!("error: {message}"))),
                other => return Err(format!("unexpected event {other:?}")),
            };
            if let Some(outcome) = terminal {
                job.job_ms = (now - submit).as_secs_f64() * 1e3;
                job.queue_ms = (started - submitted).as_secs_f64() * 1e3;
                job.run_ms = (now - started).as_secs_f64() * 1e3;
                job.outcome = outcome;
                return Ok(job);
            }
        }
    }
}
