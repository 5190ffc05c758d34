//! Per-connection state machine driven by the reactor.
//!
//! A [`Conn`] owns one non-blocking [`Stream`] and cycles through
//! three states: **reading** a request line, **executing** it (work
//! ops run on the executor pool; the reactor holds the connection
//! until the completion comes back), and **draining** the buffered
//! response. Every socket call is `WouldBlock`-aware: the reactor
//! calls [`Conn::step`] each tick and the connection does exactly as
//! much I/O as the socket will take without blocking.
//!
//! Memory discipline: a connection never reads ahead while a response
//! is pending (`executing` or a non-empty write buffer), so each
//! connection holds at most one buffered response at a time. A
//! response is fully materialized before it is written, so response
//! memory is bounded by `max_inflight` concurrent responses.
//!
//! I/O error contract (pinned by the unit tests below over a scripted
//! stream):
//!
//! * `ErrorKind::Interrupted` (EINTR) is a pure retry everywhere —
//!   it never counts against the write-stall window and never closes
//!   a connection;
//! * a write stall is bounded by *zero-progress* time: only a full
//!   `write_timeout` window with not one byte accepted closes the
//!   connection, and the socket is shut down first so the peer sees
//!   EOF mid-line rather than a torn prefix passing as a complete
//!   response;
//! * request lines are capped at [`MAX_REQUEST_BYTES`]; a longer line
//!   closes the connection without a response;
//! * at shutdown, complete request lines already read are still
//!   answered, and a partial line closes the connection.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::Request;
use crate::reactor::{Executor, Job};
use crate::server::{
    claim_admission, respond_admitted, write_line, Shared, Stream, MAX_REQUEST_BYTES,
};

/// What one [`Conn::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Bytes moved or a request was dispatched/answered.
    Progress,
    /// Nothing to do until the socket or an executor completion says
    /// otherwise.
    Idle,
    /// The connection is finished; the reactor must drop it.
    Closed,
}

/// Outcome of one attempt to drain the write buffer.
enum Flow {
    /// Everything buffered has been written.
    Drained,
    /// The socket stopped taking bytes (within the stall window).
    Blocked,
    /// The peer is gone (EOF on write, hard error, or stall expiry).
    Dead,
}

/// Outcome of one attempt to read from the socket.
enum Fill {
    /// New bytes (or EOF) arrived.
    Progress,
    /// Nothing readable right now.
    Blocked,
    /// Hard read error or an oversized request line.
    Closed,
}

/// The socket a [`Conn`] drives: a byte sink plus the half-close hook
/// pulled when a peer stops taking bytes. [`Stream`] is the only
/// production implementation; the unit tests script one.
pub(crate) trait StallStream: Write {
    /// Best-effort shutdown so the peer sees EOF instead of a torn
    /// line passing as a complete response.
    fn stall_shutdown(&mut self);
}

impl StallStream for Stream {
    fn stall_shutdown(&mut self) {
        self.shutdown();
    }
}

/// One connection.
pub(crate) struct Conn<S = Stream> {
    stream: S,
    /// Bytes read but not yet consumed as request lines.
    read_buf: Vec<u8>,
    /// The buffered response being drained to the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written — partial writes
    /// resume from here, never re-sending or dropping bytes.
    written: usize,
    /// A work op is running on the executor; its completion will call
    /// [`Conn::complete`].
    executing: bool,
    /// The peer half-closed its write side.
    eof: bool,
    /// Close once the write buffer drains.
    closing: bool,
    /// Clock reading at the start of the current zero-progress write
    /// stall (`None` while writes make progress).
    stalled_since: Option<u64>,
    /// The zero-progress write bound, in nanoseconds.
    stall_nanos: u64,
}

impl<S: Read + StallStream> Conn<S> {
    pub(crate) fn new(stream: S, write_timeout: Duration) -> Conn<S> {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            executing: false,
            eof: false,
            closing: false,
            stalled_since: None,
            stall_nanos: write_timeout.as_nanos().min(u64::MAX as u128) as u64,
        }
    }

    /// Hands back an executor completion: the buffered response for
    /// the request this connection was executing.
    pub(crate) fn complete(&mut self, bytes: Vec<u8>) {
        // No read-ahead while executing, so the write buffer is
        // always drained by the time a completion arrives.
        self.write_buf = bytes;
        self.written = 0;
        self.executing = false;
    }

    /// Advances the state machine as far as the socket allows: drain
    /// pending output, then consume complete request lines, then pull
    /// more bytes. Returns [`Step::Closed`] when the reactor should
    /// drop the connection.
    pub(crate) fn step(
        &mut self,
        token: u64,
        shared: &Arc<Shared>,
        executor: &mut Executor,
    ) -> Step {
        let mut progress = false;
        let done = |progress: bool| {
            if progress {
                Step::Progress
            } else {
                Step::Idle
            }
        };
        loop {
            match self.flush_pending(shared) {
                (_, Flow::Dead) => return Step::Closed,
                (p, Flow::Blocked) => return done(progress || p),
                (p, Flow::Drained) => progress |= p,
            }
            if self.closing {
                return Step::Closed;
            }
            if self.executing {
                return done(progress);
            }
            if let Some(line) = self.take_line() {
                progress = true;
                if line.len() > MAX_REQUEST_BYTES {
                    return Step::Closed; // oversized request line
                }
                self.process_line(&line, token, shared, executor);
                continue; // drain (or dispatch) what that produced
            }
            if self.eof {
                return Step::Closed;
            }
            if shared.shutting_down() {
                // A partial line at shutdown is dropped; complete
                // buffered lines (handled above) were still answered.
                return Step::Closed;
            }
            match self.fill() {
                Fill::Progress => progress = true,
                Fill::Blocked => return done(progress),
                Fill::Closed => return Step::Closed,
            }
        }
    }

    /// Drains as much of the write buffer as the socket will take.
    /// EINTR retries; `WouldBlock` starts (or continues) the
    /// zero-progress stall clock, and on expiry the socket is shut
    /// down before the connection dies so the peer sees EOF, never a
    /// torn prefix as a complete response.
    fn flush_pending(&mut self, shared: &Arc<Shared>) -> (bool, Flow) {
        let mut progress = false;
        while self.written < self.write_buf.len() {
            let pending = self.write_buf.get(self.written..).unwrap_or(&[]);
            match self.stream.write(pending) {
                Ok(0) => return (progress, Flow::Dead),
                Ok(n) => {
                    self.written += n;
                    self.stalled_since = None;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    let now = shared.clock.now_nanos();
                    let since = *self.stalled_since.get_or_insert(now);
                    if now.saturating_sub(since) >= self.stall_nanos {
                        self.stream.stall_shutdown();
                        return (progress, Flow::Dead);
                    }
                    return (progress, Flow::Blocked);
                }
                Err(_) => return (progress, Flow::Dead),
            }
        }
        if self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
        (progress, Flow::Drained)
    }

    /// Takes one complete request line (newline included) out of the
    /// read buffer, or — at EOF — the final unterminated line, which
    /// is still a request.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        if let Some(i) = self.read_buf.iter().position(|&b| b == b'\n') {
            let rest = self.read_buf.split_off(i + 1);
            return Some(std::mem::replace(&mut self.read_buf, rest));
        }
        if self.eof && !self.read_buf.is_empty() {
            return Some(std::mem::take(&mut self.read_buf));
        }
        None
    }

    /// Parses and routes one request line. Parse errors and control
    /// ops are answered inline on the reactor (they are cheap and
    /// slot-free); admitted work is dispatched to the executor with
    /// its [`AdmitSlot`] already claimed — overload was shed *before*
    /// any queueing.
    ///
    /// [`AdmitSlot`]: crate::server::AdmitSlot
    fn process_line(
        &mut self,
        line: &[u8],
        token: u64,
        shared: &Arc<Shared>,
        executor: &mut Executor,
    ) {
        // Invalid UTF-8 becomes U+FFFD, which `Request::parse`
        // rejects as a `bad_request` like any other bad byte.
        let text = String::from_utf8_lossy(line);
        let text = text.trim();
        if text.is_empty() {
            return;
        }
        let started_at = shared.clock.now_nanos();
        let request = match Request::parse(text) {
            Ok(request) => request,
            Err(e) => {
                shared.count_error(e.code);
                // Writes into a Vec<u8> cannot fail.
                let _ = write_line(&mut self.write_buf, &e.to_json());
                return;
            }
        };
        match claim_admission(shared, &request) {
            Ok(Some(slot)) => {
                self.executing = true;
                executor.submit(Job {
                    token,
                    request,
                    slot,
                    started_at,
                });
            }
            admission => {
                let _ =
                    respond_admitted(&request, admission, shared, &mut self.write_buf, started_at);
            }
        }
    }

    /// Reads whatever the socket has, up to a complete line. EINTR
    /// retries; an over-cap line without a newline in sight closes
    /// the connection without a response.
    fn fill(&mut self) -> Fill {
        let mut any = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Fill::Progress;
                }
                Ok(n) => {
                    any = true;
                    let got = chunk.get(..n).unwrap_or(&[]);
                    self.read_buf.extend_from_slice(got);
                    if got.contains(&b'\n') {
                        return Fill::Progress;
                    }
                    if self.read_buf.len() > MAX_REQUEST_BYTES {
                        return Fill::Closed; // oversized request line
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return if any { Fill::Progress } else { Fill::Blocked };
                }
                Err(_) => return Fill::Closed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::ErrorKind;
    use std::path::PathBuf;
    use utk_core::obs::{Clock, TestClock};

    use crate::server::{Bind, ServerConfig};

    /// A socket that plays back scripted reads and writes, recording
    /// every byte it accepts and every half-close. `filler` bytes of
    /// `x` are read before the read script starts; an exhausted read
    /// script is `WouldBlock` (nothing readable yet) and an exhausted
    /// write script accepts everything.
    struct Scripted {
        filler: usize,
        reads: VecDeque<std::io::Result<Vec<u8>>>,
        writes: VecDeque<std::io::Result<usize>>,
        sent: Vec<u8>,
        shutdowns: usize,
    }

    impl Scripted {
        fn new() -> Self {
            Scripted {
                filler: 0,
                reads: VecDeque::new(),
                writes: VecDeque::new(),
                sent: Vec::new(),
                shutdowns: 0,
            }
        }

        fn reads(mut self, script: Vec<std::io::Result<&[u8]>>) -> Self {
            self.reads = script.into_iter().map(|r| r.map(<[u8]>::to_vec)).collect();
            self
        }

        fn writes(mut self, script: Vec<std::io::Result<usize>>) -> Self {
            self.writes = script.into();
            self
        }
    }

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.filler > 0 {
                let n = self.filler.min(out.len());
                out[..n].fill(b'x');
                self.filler -= n;
                return Ok(n);
            }
            match self.reads.pop_front() {
                Some(Ok(mut bytes)) => {
                    let n = bytes.len().min(out.len());
                    out[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.reads.push_front(Ok(bytes.split_off(n)));
                    }
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => Err(ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = match self.writes.pop_front() {
                Some(Ok(n)) => n.min(buf.len()),
                Some(Err(e)) => return Err(e),
                None => buf.len(),
            };
            self.sent.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl StallStream for Scripted {
        fn stall_shutdown(&mut self) {
            self.shutdowns += 1;
        }
    }

    /// Server state over `clock`; no socket is bound and no dataset is
    /// ever loaded.
    fn shared_with(clock: Arc<dyn Clock>) -> Arc<Shared> {
        let mut config = ServerConfig::new(Bind::Tcp(0), PathBuf::from("no-datasets"));
        config.clock = clock;
        Arc::new(Shared::new(config))
    }

    fn shared() -> Arc<Shared> {
        shared_with(Arc::new(TestClock::new()))
    }

    fn err(kind: ErrorKind) -> std::io::Result<&'static [u8]> {
        Err(kind.into())
    }

    /// Steps `conn` until it goes idle or closes.
    fn run(conn: &mut Conn<Scripted>, shared: &Arc<Shared>) -> Step {
        let mut executor = Executor::new(shared, 1);
        loop {
            match conn.step(0, shared, &mut executor) {
                Step::Progress => {}
                done => return done,
            }
        }
    }

    fn sent_lines(conn: &Conn<Scripted>) -> Vec<String> {
        String::from_utf8_lossy(&conn.stream.sent)
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn eintr_is_a_pure_retry_in_fill() {
        // EINTR before, between and after chunks never closes the
        // connection: the interrupted reads retry and the line lands.
        let stream = Scripted::new().reads(vec![
            err(ErrorKind::Interrupted),
            Ok(b"{\"op\":"),
            err(ErrorKind::Interrupted),
            err(ErrorKind::Interrupted),
            Ok(b"\"stats\"}\n"),
        ]);
        let mut conn = Conn::new(stream, Duration::from_secs(30));
        assert!(matches!(conn.fill(), Fill::Progress));
        assert_eq!(conn.read_buf, b"{\"op\":\"stats\"}\n");

        // Driven through `step`, the same script is answered.
        let stream = Scripted::new().reads(vec![
            err(ErrorKind::Interrupted),
            Ok(b"{\"op\":"),
            err(ErrorKind::Interrupted),
            Ok(b"\"stats\"}\n"),
        ]);
        let shared = shared();
        let mut conn = Conn::new(stream, Duration::from_secs(30));
        assert_eq!(run(&mut conn, &shared), Step::Idle);
        let lines = sent_lines(&conn);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with(r#"{"ok":"stats""#), "{lines:?}");
    }

    #[test]
    fn eintr_on_write_never_starts_the_stall_clock() {
        // Any two clock reads are a full stall window apart, so a
        // single EINTR counted as a stall would cut the connection.
        let clock = Arc::new(TestClock::with_step(u64::MAX / 4));
        let shared = shared_with(clock);
        let stream = Scripted::new().writes(
            (0..16)
                .map(|_| Err(ErrorKind::Interrupted.into()))
                .collect(),
        );
        let mut conn = Conn::new(stream, Duration::from_nanos(1));
        conn.write_buf = b"{\"ok\":\"stats\"}\n".to_vec();
        let (progress, flow) = conn.flush_pending(&shared);
        assert!(progress && matches!(flow, Flow::Drained));
        assert!(conn.stalled_since.is_none());
        assert_eq!(conn.stream.sent, b"{\"ok\":\"stats\"}\n");
        assert_eq!(conn.stream.shutdowns, 0);
    }

    #[test]
    fn short_writes_resume_from_written() {
        // Short writes and would-blocks interleave; every flush resumes
        // at `written`, so no byte is sent twice or dropped.
        let shared = shared();
        let stream = Scripted::new().writes(vec![
            Ok(3),
            Err(ErrorKind::WouldBlock.into()),
            Ok(4),
            Err(ErrorKind::TimedOut.into()),
            Ok(2),
        ]);
        let mut conn = Conn::new(stream, Duration::from_secs(30));
        conn.write_buf = b"0123456789\n".to_vec();

        let (progress, flow) = conn.flush_pending(&shared);
        assert!(progress && matches!(flow, Flow::Blocked));
        assert_eq!(conn.written, 3);
        let (progress, flow) = conn.flush_pending(&shared);
        assert!(progress && matches!(flow, Flow::Blocked));
        assert_eq!(conn.written, 7);
        let (progress, flow) = conn.flush_pending(&shared);
        assert!(progress && matches!(flow, Flow::Drained));
        assert_eq!(conn.stream.sent, b"0123456789\n");
        assert!(conn.write_buf.is_empty() && conn.written == 0);
        assert_eq!(conn.stream.shutdowns, 0);
    }

    #[test]
    fn zero_progress_stall_shuts_down_before_dead() {
        // 0.6 ms per clock read against a 1 ms window: the first block
        // starts the clock, the second is inside the window, the third
        // expires it. The socket is shut down before the connection
        // is declared dead, so the peer sees EOF, not a torn line.
        let clock = Arc::new(TestClock::with_step(600_000));
        let shared = shared_with(clock);
        let stream =
            Scripted::new().writes((0..3).map(|_| Err(ErrorKind::WouldBlock.into())).collect());
        let mut conn = Conn::new(stream, Duration::from_millis(1));
        conn.write_buf = b"response\n".to_vec();
        for _ in 0..2 {
            let (progress, flow) = conn.flush_pending(&shared);
            assert!(!progress && matches!(flow, Flow::Blocked));
            assert_eq!(conn.stream.shutdowns, 0);
        }
        let (_, flow) = conn.flush_pending(&shared);
        assert!(matches!(flow, Flow::Dead));
        assert_eq!(conn.stream.shutdowns, 1);
        assert!(conn.stream.sent.is_empty());
    }

    #[test]
    fn request_lines_over_the_cap_close_the_connection() {
        let shared = shared();
        // A line of exactly MAX_REQUEST_BYTES (newline included) is
        // still a request: it is answered with a typed error.
        let mut stream = Scripted::new().reads(vec![Ok(b"\n")]);
        stream.filler = MAX_REQUEST_BYTES - 1;
        let mut conn = Conn::new(stream, Duration::from_secs(30));
        assert_eq!(run(&mut conn, &shared), Step::Idle);
        let lines = sent_lines(&conn);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains(r#""code":"bad_request""#), "{lines:?}");

        // One byte more, newline in the final read: the line is cut
        // when it is taken.
        let mut stream = Scripted::new().reads(vec![Ok(b"\n")]);
        stream.filler = MAX_REQUEST_BYTES;
        let mut conn = Conn::new(stream, Duration::from_secs(30));
        assert_eq!(run(&mut conn, &shared), Step::Closed);
        assert!(conn.stream.sent.is_empty());

        // No newline in sight: the read itself stops at the cap.
        let mut stream = Scripted::new().reads(vec![Ok(b"\n")]);
        stream.filler = MAX_REQUEST_BYTES + 1;
        let mut conn = Conn::new(stream, Duration::from_secs(30));
        assert!(matches!(conn.fill(), Fill::Closed));
        assert!(conn.stream.sent.is_empty());
    }

    #[test]
    fn shutdown_answers_complete_lines_and_drops_a_partial_one() {
        // One read carries the shutdown request, one more complete
        // line and half of a third. Both complete lines are answered;
        // the partial one closes the connection.
        let shared = shared();
        let stream = Scripted::new().reads(vec![Ok(
            b"{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}\n{\"op\":\"sta",
        )]);
        let mut conn = Conn::new(stream, Duration::from_secs(30));
        assert_eq!(run(&mut conn, &shared), Step::Closed);
        assert!(shared.shutting_down());
        let lines = sent_lines(&conn);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0], r#"{"ok":"shutdown"}"#);
        assert!(lines[1].starts_with(r#"{"ok":"stats""#), "{lines:?}");
        assert_eq!(conn.read_buf, b"{\"op\":\"sta");
    }
}
