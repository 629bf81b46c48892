//! A small blocking client for the slicc wire protocol, used by the
//! load generator, the `slicc-loadgen` binary, and the integration
//! tests. Not a public SDK: it speaks exactly the frames the server
//! emits and fails loudly on anything else.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use slicc_common::JsonValue;

use crate::protocol::{decode_response, FrameBuffer, Response};

/// Overall budget for one request/response exchange. Generous: a queued
/// submission legitimately waits for a slot.
const EXCHANGE_DEADLINE: Duration = Duration::from_secs(120);

/// How one `SUBMIT` resolved.
#[derive(Clone, Debug)]
pub enum Submitted {
    Result { key: String, digest: String, from_cache: bool },
    RetryAfter { millis: u64 },
    RunError { message: String },
}

pub struct Client {
    stream: TcpStream,
    fb: FrameBuffer,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect to {addr} failed: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| format!("set_read_timeout failed: {e}"))?;
        // Each request is one write, but the client should not depend on
        // the server's reply pattern to keep small frames moving.
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay failed: {e}"))?;
        Ok(Client { stream, fb: FrameBuffer::new() })
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        self.stream
            .write_all(frame.as_bytes())
            .map_err(|e| format!("write failed: {e}"))
    }

    /// Pops the next complete response frame, reading as needed.
    fn next_response(&mut self) -> Result<Response, String> {
        let deadline = Instant::now() + EXCHANGE_DEADLINE;
        let mut chunk = [0u8; 4096];
        loop {
            match self.fb.next_frame() {
                Ok(Some(frame)) => {
                    return decode_response(&frame)
                        .map_err(|e| format!("undecodable server frame: {e}"));
                }
                Ok(None) => {}
                Err(e) => return Err(format!("server broke framing: {e}")),
            }
            if Instant::now() > deadline {
                return Err("timed out waiting for a server response".into());
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection mid-exchange".into()),
                Ok(n) => self.fb.push(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }

    /// Submits one JSON body and resolves it, skipping `EVENT` frames.
    pub fn submit(&mut self, body: &str) -> Result<Submitted, String> {
        self.send(&format!("SUBMIT {body}\n"))?;
        loop {
            match self.next_response()? {
                Response::Event(_) => {}
                Response::Result(json) => {
                    let field = |name: &str| {
                        json.get(name)
                            .and_then(JsonValue::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("RESULT frame missing {name}: {json:?}"))
                    };
                    return Ok(Submitted::Result {
                        key: field("key")?,
                        digest: field("digest")?,
                        from_cache: json
                            .get("from_cache")
                            .and_then(JsonValue::as_bool)
                            .unwrap_or(false),
                    });
                }
                Response::RetryAfter { millis, .. } => {
                    return Ok(Submitted::RetryAfter { millis })
                }
                Response::Error { kind, message } => {
                    return if kind == "run" {
                        Ok(Submitted::RunError { message })
                    } else {
                        Err(format!("server rejected the submission: {kind} {message}"))
                    };
                }
                other => return Err(format!("unexpected response to SUBMIT: {other:?}")),
            }
        }
    }

    /// Fetches the server's stats JSON.
    pub fn stats(&mut self) -> Result<JsonValue, String> {
        self.send("STATS\n")?;
        loop {
            match self.next_response()? {
                Response::Event(_) => {}
                Response::Stats(json) => return Ok(json),
                other => return Err(format!("unexpected response to STATS: {other:?}")),
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), String> {
        self.send("PING\n")?;
        loop {
            match self.next_response()? {
                Response::Event(_) => {}
                Response::Pong => return Ok(()),
                other => return Err(format!("unexpected response to PING: {other:?}")),
            }
        }
    }

    /// Orderly goodbye; the server answers `BYE` and closes.
    pub fn quit(&mut self) -> Result<(), String> {
        self.send("QUIT\n")?;
        loop {
            match self.next_response()? {
                Response::Event(_) => {}
                Response::Bye { .. } => return Ok(()),
                other => return Err(format!("unexpected response to QUIT: {other:?}")),
            }
        }
    }
}
