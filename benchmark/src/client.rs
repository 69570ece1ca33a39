//! The harness's own NDJSON client for the fleet coordinator: `std::net`
//! plus `gcl_stats::Json`, nothing from `gcl_exec::client` (which a later
//! consolidation may rewrite).
//!
//! Verbs used: `session`, `submit`, `result`, `status`, `shutdown`.
//! Events read: `queued`, `leased`, `done`, `failed` (`depth` heartbeats
//! and `reassigned` are skipped).

use gcl_stats::Json;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long any single response or event may take before the op fails.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to the coordinator; a session once [`Client::session`]
/// has run.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    session: Option<String>,
    /// Set by [`Client::poll`].
    polling: bool,
    /// Session events that arrived while waiting for a response, with the
    /// instant each was received.
    events: VecDeque<(Json, Instant)>,
}

fn verb(op: &str) -> Json {
    Json::obj(vec![("op", Json::Str(op.into()))])
}

fn is_ok(frame: &Json) -> bool {
    frame.get("ok").and_then(Json::as_bool) == Some(true)
}

impl Client {
    /// Dial `addr`.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(OP_TIMEOUT))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            session: None,
            polling: false,
            events: VecDeque::new(),
        })
    }

    /// From now on wait for the socket by polling it (yielding the core
    /// between polls) instead of sleeping in the kernel: on a virtual
    /// machine every sleep halts the virtual core and every wake-up goes
    /// through the host's scheduler, and a client that does this thousands
    /// of times a second measures the host.
    pub fn poll(&mut self) -> Result<(), String> {
        self.polling = true;
        self.writer
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))
    }

    /// Whether `e` means "not yet" on a polling connection; yields if so.
    fn not_yet(&self, e: &std::io::Error, deadline: Instant) -> bool {
        let retry = e.kind() == ErrorKind::Interrupted
            || (self.polling && e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline);
        if retry {
            std::thread::yield_now();
        }
        retry
    }

    fn send(&mut self, frame: &Json) -> Result<(), String> {
        let mut line = frame.render_compact();
        line.push('\n');
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut rest = line.as_bytes();
        while !rest.is_empty() {
            match self.writer.write(rest) {
                Ok(0) => return Err("send: coordinator closed the connection".into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if self.not_yet(&e, deadline) => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Json, String> {
        let deadline = Instant::now() + OP_TIMEOUT;
        // `read_line` keeps what it has read when it returns an error, so
        // a poll that finds half a frame continues it.
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("coordinator closed the connection".into()),
                Ok(_) => return Json::parse(line.trim()).map_err(|e| format!("bad frame: {e}")),
                Err(e) if self.not_yet(&e, deadline) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// The next response; session events that arrive first are queued for
    /// [`Client::next_event`]. Responses come in the order of the requests,
    /// so a caller may have several requests in flight.
    pub fn recv(&mut self) -> Result<Json, String> {
        loop {
            let frame = self.read_frame()?;
            if frame.get("event").is_some() {
                self.events.push_back((frame, Instant::now()));
            } else {
                return Ok(frame);
            }
        }
    }

    fn call(&mut self, request: &Json) -> Result<Json, String> {
        self.send(request)?;
        self.recv()
    }

    /// Whether [`Client::session`] has upgraded this connection.
    pub fn in_session(&self) -> bool {
        self.session.is_some()
    }

    /// Upgrade this connection to an event-streaming session.
    pub fn session(&mut self) -> Result<(), String> {
        let ack = self.call(&verb("session"))?;
        match ack.get("session").and_then(Json::as_str) {
            Some(sid) if is_ok(&ack) => {
                self.session = Some(sid.to_string());
                Ok(())
            }
            _ => Err(format!("session refused: {}", ack.render_compact())),
        }
    }

    /// Send a tiny-scale job's `submit` without waiting for the ack;
    /// `max_cycles` mints a distinct cache key.
    pub fn send_submit(&mut self, workload: &str, max_cycles: Option<u64>) -> Result<(), String> {
        let mut fields = vec![
            ("op", Json::Str("submit".into())),
            ("workload", Json::Str(workload.into())),
            ("tiny", Json::Bool(true)),
            ("sanitize", Json::Bool(false)),
        ];
        if let Some(mc) = max_cycles {
            fields.push(("max_cycles", Json::UInt(mc)));
        }
        if let Some(sid) = &self.session {
            fields.push(("session", Json::Str(sid.clone())));
        }
        self.send(&Json::obj(fields))
    }

    /// The job id a `submit` ack carries.
    pub fn job_id(ack: &Json) -> Result<u64, String> {
        match ack.get("id").and_then(Json::as_u64) {
            Some(id) if is_ok(ack) => Ok(id),
            _ => Err(format!("submit refused: {}", ack.render_compact())),
        }
    }

    /// Submit a job and wait for its id.
    pub fn submit(&mut self, workload: &str, max_cycles: Option<u64>) -> Result<u64, String> {
        self.send_submit(workload, max_cycles)?;
        Client::job_id(&self.recv()?)
    }

    /// The next session event that is not a `depth` heartbeat, with the
    /// instant it was received.
    pub fn next_event(&mut self) -> Result<(Json, Instant), String> {
        loop {
            let (frame, at) = match self.events.pop_front() {
                Some(e) => e,
                None => (self.read_frame()?, Instant::now()),
            };
            match frame.get("event").and_then(Json::as_str) {
                Some("depth") | None => {}
                Some(_) => return Ok((frame, at)),
            }
        }
    }

    /// A response, with a refusal (`"ok": false`) turned into an error.
    pub fn accepted(r: Json) -> Result<Json, String> {
        if is_ok(&r) {
            Ok(r)
        } else {
            Err(format!("refused: {}", r.render_compact()))
        }
    }

    /// Send the `result` verb for job `id` without waiting for the answer.
    pub fn send_result(&mut self, id: u64) -> Result<(), String> {
        self.send(&Json::obj(vec![
            ("op", Json::Str("result".into())),
            ("id", Json::UInt(id)),
        ]))
    }

    /// The `result` verb for job `id`.
    pub fn result(&mut self, id: u64) -> Result<Json, String> {
        self.send_result(id)?;
        Client::accepted(self.recv()?)
    }

    /// The `status` verb.
    pub fn status(&mut self) -> Result<Json, String> {
        Client::accepted(self.call(&verb("status"))?)
    }

    /// Ask the coordinator to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.call(&verb("shutdown")).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_polling_client_joins_a_frame_that_arrives_in_two_pieces() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            peer.set_nodelay(true).unwrap();
            peer.write_all(b"{\"ok\":true,\"id\"").unwrap();
            std::thread::sleep(Duration::from_millis(30));
            peer.write_all(b":7}\n{\"ok\":false}\n").unwrap();
            // Hold the connection until the client has read both frames.
            let mut request = String::new();
            BufReader::new(peer).read_line(&mut request).unwrap();
            request
        });
        let mut client = Client::connect(&addr).unwrap();
        client.poll().unwrap();
        assert_eq!(Client::job_id(&client.recv().unwrap()), Ok(7));
        assert!(Client::accepted(client.recv().unwrap()).is_err());
        client.send_result(7).unwrap();
        assert!(server.join().unwrap().contains("\"result\""));
    }
}
