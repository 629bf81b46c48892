//! The slicc wire protocol: bounded, LF-delimited text frames.
//!
//! A connection carries a sequence of **frames** — byte runs terminated
//! by `\n` (an optional `\r` before it is stripped), never longer than
//! [`MAX_FRAME`] bytes. Client frames are requests:
//!
//! ```text
//! SUBMIT {"workload":"tpcc1","mode":"slicc","scale":"tiny","seed":3}
//! PING
//! STATS
//! QUIT
//! ```
//!
//! Server frames are responses:
//!
//! ```text
//! EVENT {"state":"accepted","key":"00ab..."}
//! RESULT {"key":"00ab...","digest":"9f3c...","from_cache":false,...}
//! RETRY-AFTER 250 {"inflight":4,"limit":0}
//! ERROR bad-payload unknown workload "tpcx"
//! PONG
//! STATS {"queue_depth":0,...}
//! BYE drained
//! ```
//!
//! The codec is **total**: any byte sequence decodes to either a request
//! or a typed [`ProtocolError`] — it never panics, and every error
//! classifies itself as *resyncable* (skip the offending frame, keep the
//! connection) or *fatal* (the framing itself is broken or abusive;
//! close). Seeded fuzz loops, here and in `tests/serve.rs`, pin this down.

use std::fmt;

use slicc_common::{parse_json, JsonValue};
use slicc_sim::{DeadlineConfig, RunRequest, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

/// Upper bound on one frame, terminator included. Large enough for any
/// legitimate request (a submission is well under 1 KiB), small enough
/// that a hostile client cannot balloon the server's frame buffer.
pub const MAX_FRAME: usize = 64 * 1024;

/// One decoded client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `SUBMIT <json>`: run a simulation point. The payload is kept as
    /// parsed JSON; [`submission_from_json`] maps it to a [`RunRequest`]
    /// (split so the framing layer stays independent of the simulator's
    /// vocabulary).
    Submit(JsonValue),
    /// `PING`: liveness probe, answered with `PONG`.
    Ping,
    /// `STATS`: service pressure and runner counters as one JSON frame.
    Stats,
    /// `QUIT`: orderly goodbye; the server answers `BYE` and closes.
    Quit,
}

/// Why a byte sequence failed to decode. Every variant carries enough
/// to render a one-line `ERROR <kind> <detail>` response.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolError {
    /// No `\n` within [`MAX_FRAME`] bytes (or a single frame above it).
    /// Fatal: the client is either broken or hostile, and the only safe
    /// resync point — the next terminator — may never come.
    FrameTooLong { len: usize },
    /// The frame is not UTF-8. Resyncable (the *next* frame may be fine).
    BadUtf8 { valid_up_to: usize },
    /// A bare terminator. Resyncable; tolerated silently by the server.
    EmptyFrame,
    /// The leading verb is not part of the protocol. Resyncable.
    UnknownVerb { verb: String },
    /// The verb's payload is malformed (missing, unparsable JSON, or a
    /// submission that fails validation). Resyncable.
    BadPayload { verb: &'static str, detail: String },
}

impl ProtocolError {
    /// True when the connection cannot be safely resynchronized and must
    /// close. Everything else skips the offending frame and continues
    /// deterministically at the next terminator.
    pub fn is_fatal(&self) -> bool {
        matches!(self, ProtocolError::FrameTooLong { .. })
    }

    /// Stable kebab-case tag used in `ERROR <kind> ...` frames.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::FrameTooLong { .. } => "frame-too-long",
            ProtocolError::BadUtf8 { .. } => "bad-utf8",
            ProtocolError::EmptyFrame => "empty-frame",
            ProtocolError::UnknownVerb { .. } => "unknown-verb",
            ProtocolError::BadPayload { .. } => "bad-payload",
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FrameTooLong { len } => {
                write!(f, "frame exceeds {MAX_FRAME} bytes ({len} seen without a terminator)")
            }
            ProtocolError::BadUtf8 { valid_up_to } => {
                write!(f, "frame is not UTF-8 (valid up to byte {valid_up_to})")
            }
            ProtocolError::EmptyFrame => write!(f, "empty frame"),
            ProtocolError::UnknownVerb { verb } => write!(f, "unknown verb {verb:?}"),
            ProtocolError::BadPayload { verb, detail } => {
                write!(f, "bad {verb} payload: {detail}")
            }
        }
    }
}

/// Incremental frame splitter: push raw bytes in whatever chunks the
/// transport delivers (torn frames, single bytes, several frames at
/// once), pop complete frames. Enforces [`MAX_FRAME`] so a client that
/// never sends a terminator cannot grow the buffer without bound.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes already scanned for a terminator, so repeated `next_frame`
    /// calls on a slowly-arriving frame stay linear overall.
    scanned: usize,
}

impl FrameBuffer {
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends transport bytes. Never fails: the bound is enforced at
    /// [`FrameBuffer::next_frame`], which is where the caller handles
    /// errors anyway.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True while a partial frame sits in the buffer — the anti-loris
    /// read deadline only arms when this is true.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pops the next complete frame (terminator and optional `\r`
    /// stripped), `Ok(None)` when more bytes are needed, or
    /// [`ProtocolError::FrameTooLong`] when the bound is breached.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + pos;
            let mut frame: Vec<u8> = self.buf.drain(..=end).collect();
            frame.pop(); // the \n
            if frame.last() == Some(&b'\r') {
                frame.pop();
            }
            self.scanned = 0;
            if frame.len() >= MAX_FRAME {
                return Err(ProtocolError::FrameTooLong { len: frame.len() });
            }
            return Ok(Some(frame));
        }
        self.scanned = self.buf.len();
        if self.buf.len() >= MAX_FRAME {
            return Err(ProtocolError::FrameTooLong { len: self.buf.len() });
        }
        Ok(None)
    }
}

/// Decodes one frame (as produced by [`FrameBuffer::next_frame`]) into a
/// [`Request`]. Total: never panics, any input yields a request or a
/// typed error.
pub fn decode_request(frame: &[u8]) -> Result<Request, ProtocolError> {
    let text = std::str::from_utf8(frame)
        .map_err(|e| ProtocolError::BadUtf8 { valid_up_to: e.valid_up_to() })?;
    if text.is_empty() {
        return Err(ProtocolError::EmptyFrame);
    }
    let (verb, payload) = match text.find(' ') {
        Some(i) => (&text[..i], &text[i + 1..]),
        None => (text, ""),
    };
    match verb {
        "SUBMIT" => {
            if payload.is_empty() {
                return Err(ProtocolError::BadPayload {
                    verb: "SUBMIT",
                    detail: "missing JSON payload".into(),
                });
            }
            let json = parse_json(payload)
                .map_err(|e| ProtocolError::BadPayload { verb: "SUBMIT", detail: e.to_string() })?;
            Ok(Request::Submit(json))
        }
        "PING" | "STATS" | "QUIT" => {
            if !payload.is_empty() {
                return Err(ProtocolError::BadPayload {
                    verb: match verb {
                        "PING" => "PING",
                        "STATS" => "STATS",
                        _ => "QUIT",
                    },
                    detail: "verb takes no payload".into(),
                });
            }
            Ok(match verb {
                "PING" => Request::Ping,
                "STATS" => Request::Stats,
                _ => Request::Quit,
            })
        }
        other => {
            // Bound the echo so a hostile verb cannot bloat error frames.
            let mut verb: String = other.chars().take(32).collect();
            if verb.len() < other.len() {
                verb.push('…');
            }
            Err(ProtocolError::UnknownVerb { verb })
        }
    }
}

/// Renders a request back into its wire frame (terminator included).
/// `decode_request(encode_request(r))` round-trips for every request —
/// the property the codec tests pin.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = match req {
        Request::Submit(json) => format!("SUBMIT {}", render_json(json)),
        Request::Ping => "PING".to_string(),
        Request::Stats => "STATS".to_string(),
        Request::Quit => "QUIT".to_string(),
    }
    .into_bytes();
    out.push(b'\n');
    out
}

/// Renders a [`JsonValue`] compactly (objects keep their BTreeMap key
/// order, so rendering is deterministic).
pub fn render_json(value: &JsonValue) -> String {
    let mut out = String::new();
    render_json_into(value, &mut out);
    out
}

fn render_json_into(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => out.push_str(&slicc_common::json_f64(*n)),
        JsonValue::String(s) => slicc_common::push_json_str(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_json_into(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                slicc_common::push_json_str(out, key);
                out.push(':');
                render_json_into(item, out);
            }
            out.push('}');
        }
    }
}

/// One decoded server response — the client/loadgen side of the codec.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Event(JsonValue),
    Result(JsonValue),
    RetryAfter { millis: u64, detail: JsonValue },
    Error { kind: String, message: String },
    Pong,
    Stats(JsonValue),
    Bye { reason: String },
}

/// Decodes one server frame. Total, like [`decode_request`].
pub fn decode_response(frame: &[u8]) -> Result<Response, ProtocolError> {
    let text = std::str::from_utf8(frame)
        .map_err(|e| ProtocolError::BadUtf8 { valid_up_to: e.valid_up_to() })?;
    if text.is_empty() {
        return Err(ProtocolError::EmptyFrame);
    }
    let (verb, payload) = match text.find(' ') {
        Some(i) => (&text[..i], &text[i + 1..]),
        None => (text, ""),
    };
    let json_payload = |verb: &'static str, payload: &str| {
        parse_json(payload).map_err(|e| ProtocolError::BadPayload { verb, detail: e.to_string() })
    };
    match verb {
        "EVENT" => Ok(Response::Event(json_payload("EVENT", payload)?)),
        "RESULT" => Ok(Response::Result(json_payload("RESULT", payload)?)),
        "STATS" => Ok(Response::Stats(json_payload("STATS", payload)?)),
        "RETRY-AFTER" => {
            let (millis, detail) = payload.split_once(' ').unwrap_or((payload, "{}"));
            let millis = millis.parse::<u64>().map_err(|_| ProtocolError::BadPayload {
                verb: "RETRY-AFTER",
                detail: format!("bad millisecond count {millis:?}"),
            })?;
            Ok(Response::RetryAfter { millis, detail: json_payload("RETRY-AFTER", detail)? })
        }
        "ERROR" => {
            let (kind, message) = payload.split_once(' ').unwrap_or((payload, ""));
            if kind.is_empty() {
                return Err(ProtocolError::BadPayload {
                    verb: "ERROR",
                    detail: "missing error kind".into(),
                });
            }
            Ok(Response::Error { kind: kind.to_string(), message: message.to_string() })
        }
        "PONG" => Ok(Response::Pong),
        "BYE" => Ok(Response::Bye { reason: payload.to_string() }),
        other => {
            let mut verb: String = other.chars().take(32).collect();
            if verb.len() < other.len() {
                verb.push('…');
            }
            Err(ProtocolError::UnknownVerb { verb })
        }
    }
}

/// Builds one response frame. The message is sanitized — terminators
/// replaced, length capped — so a response can never break framing.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = match resp {
        Response::Event(json) => format!("EVENT {}", render_json(json)),
        Response::Result(json) => format!("RESULT {}", render_json(json)),
        Response::RetryAfter { millis, detail } => {
            format!("RETRY-AFTER {millis} {}", render_json(detail))
        }
        Response::Error { kind, message } => {
            format!("ERROR {} {}", sanitize(kind), sanitize(message))
        }
        Response::Pong => "PONG".to_string(),
        Response::Stats(json) => format!("STATS {}", render_json(json)),
        Response::Bye { reason } => format!("BYE {}", sanitize(reason)),
    }
    .into_bytes();
    out.truncate(MAX_FRAME - 1);
    out.push(b'\n');
    out
}

/// Strips frame terminators out of free-text fields (error messages may
/// embed simulator `Display` output) and bounds their length.
fn sanitize(text: &str) -> String {
    let mut clean: String =
        text.chars().map(|c| if c == '\n' || c == '\r' { ' ' } else { c }).take(512).collect();
    if clean.len() < text.len() && clean.len() == 512 {
        clean.push('…');
    }
    clean
}

/// Maps a `SUBMIT` payload onto a [`RunRequest`]. Strict: unknown keys
/// are rejected (a typo must fail loudly, not silently simulate the
/// default), enum fields use the same vocabulary as the `slicc` CLI.
///
/// Recognized keys:
///
/// | key        | values                                        |
/// |------------|-----------------------------------------------|
/// | `workload` | `tpcc1` `tpcc10` `tpce` `mapreduce` (required)|
/// | `mode`     | `base` `slicc` `slicc-sw` `slicc-pp` `steps`  |
/// | `scale`    | `tiny` (default) `small` `paper`              |
/// | `machine`  | `paper` (default) `tiny` (miniature test box) |
/// | `seed`     | trace-seed override (u64)                     |
/// | `tasks`    | task-count override (u32)                     |
/// | `wall_ms`  | per-point wall-clock deadline in ms           |
pub fn submission_from_json(json: &JsonValue) -> Result<RunRequest, ProtocolError> {
    let bad = |detail: String| ProtocolError::BadPayload { verb: "SUBMIT", detail };
    let obj = json.as_object().ok_or_else(|| bad("submission must be a JSON object".into()))?;

    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "workload" | "mode" | "scale" | "machine" | "seed" | "tasks" | "wall_ms"
        ) {
            return Err(bad(format!("unknown key {key:?}")));
        }
    }

    let str_field = |key: &str| -> Result<Option<&str>, ProtocolError> {
        match obj.get(key) {
            None => Ok(None),
            Some(v) => v.as_str().map(Some).ok_or_else(|| bad(format!("{key} must be a string"))),
        }
    };
    let u64_field = |key: &str| -> Result<Option<u64>, ProtocolError> {
        match obj.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(format!("{key} must be a non-negative integer"))),
        }
    };

    let workload = str_field("workload")?.ok_or_else(|| bad("missing workload".into()))?;
    let workload =
        Workload::parse(workload).ok_or_else(|| bad(format!("unknown workload {workload:?}")))?;
    let mode = str_field("mode")?.unwrap_or("base");
    let mode = SchedulerMode::parse(mode).ok_or_else(|| bad(format!("unknown mode {mode:?}")))?;
    let scale = str_field("scale")?.unwrap_or("tiny");
    let scale = TraceScale::parse(scale).ok_or_else(|| bad(format!("unknown scale {scale:?}")))?;
    let machine = match str_field("machine")?.unwrap_or("paper") {
        "paper" => SimConfig::paper_baseline(),
        "tiny" => SimConfig::tiny_test(),
        other => return Err(bad(format!("unknown machine {other:?}"))),
    };

    let config = machine.with_mode(mode);
    config.try_validate().map_err(|e| bad(format!("invalid machine config: {e}")))?;

    let mut req = RunRequest::new(workload, scale, config);
    if let Some(seed) = u64_field("seed")? {
        req = req.with_seed(seed);
    }
    if let Some(tasks) = u64_field("tasks")? {
        let tasks =
            u32::try_from(tasks).map_err(|_| bad(format!("tasks {tasks} exceeds u32::MAX")))?;
        req = req.with_tasks(tasks);
    }
    if let Some(wall_ms) = u64_field("wall_ms")? {
        req.deadline = DeadlineConfig { wall_ms: Some(wall_ms) };
    }
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(bytes: &[u8]) -> Vec<u8> {
        let mut fb = FrameBuffer::new();
        fb.push(bytes);
        fb.next_frame().expect("bounded").expect("complete")
    }

    #[test]
    fn frames_split_on_lf_and_strip_cr() {
        let mut fb = FrameBuffer::new();
        fb.push(b"PING\r\nSTATS\nQU");
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"PING"[..]));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"STATS"[..]));
        assert_eq!(fb.next_frame().unwrap(), None, "QU is a partial frame");
        assert!(fb.has_partial());
        fb.push(b"IT\n");
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"QUIT"[..]));
        assert!(!fb.has_partial());
    }

    #[test]
    fn torn_delivery_reassembles_byte_by_byte() {
        let wire = b"SUBMIT {\"workload\":\"tpcc1\"}\nPING\n";
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for &b in wire.iter() {
            fb.push(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert!(matches!(decode_request(&frames[0]), Ok(Request::Submit(_))));
        assert_eq!(decode_request(&frames[1]), Ok(Request::Ping));
    }

    #[test]
    fn an_unterminated_flood_trips_the_frame_bound() {
        let mut fb = FrameBuffer::new();
        fb.push(&vec![b'a'; MAX_FRAME + 1]);
        let err = fb.next_frame().unwrap_err();
        assert!(matches!(err, ProtocolError::FrameTooLong { .. }));
        assert!(err.is_fatal(), "an over-long frame closes the connection");
    }

    #[test]
    fn requests_round_trip_through_the_codec() {
        let submit = decode_request(&frame(
            b"SUBMIT {\"workload\":\"tpce\",\"mode\":\"slicc\",\"seed\":7}\n",
        ))
        .unwrap();
        for req in [submit, Request::Ping, Request::Stats, Request::Quit] {
            let wire = encode_request(&req);
            let decoded = decode_request(&frame(&wire)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn hostile_frames_decode_to_typed_errors_never_panics() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "empty-frame"),
            (b"\xff\xfe", "bad-utf8"),
            (b"NOPE", "unknown-verb"),
            (b"SUBMIT", "bad-payload"),
            (b"SUBMIT not json", "bad-payload"),
            (b"SUBMIT {\"workload\":", "bad-payload"),
            (b"PING extra", "bad-payload"),
            (b"submit {}", "unknown-verb"),
        ];
        for (bytes, kind) in cases {
            let err = decode_request(bytes).unwrap_err();
            assert_eq!(err.kind(), *kind, "for {bytes:?}");
            assert!(!err.is_fatal(), "all of these resync: {bytes:?}");
        }
    }

    #[test]
    fn submissions_validate_strictly() {
        let ok = submission_from_json(
            &parse_json(r#"{"workload":"tpcc1","mode":"slicc-pp","machine":"tiny","seed":9}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(ok.workload, Workload::TpcC1);
        assert_eq!(ok.config.mode, SchedulerMode::SliccPp);
        assert_eq!(ok.seed, Some(9));

        for bad in [
            r#"{}"#,                                      // missing workload
            r#"{"workload":"tpcx"}"#,                     // unknown workload
            r#"{"workload":"tpcc1","mode":"turbo"}"#,     // unknown mode
            r#"{"workload":"tpcc1","speed":"max"}"#,      // unknown key
            r#"{"workload":"tpcc1","seed":-1}"#,          // negative integer
            r#"{"workload":"tpcc1","decode_threads":2}"#, // unknown key
            r#"[1,2,3]"#,                                 // not an object
        ] {
            let json = parse_json(bad).unwrap();
            let err = submission_from_json(&json).unwrap_err();
            assert_eq!(err.kind(), "bad-payload", "for {bad}");
        }
    }

    #[test]
    fn responses_round_trip_and_error_text_cannot_break_framing() {
        let detail = parse_json(r#"{"inflight":4,"limit":0}"#).unwrap();
        for resp in [
            Response::Pong,
            Response::Bye { reason: "drained".into() },
            Response::RetryAfter { millis: 250, detail },
            Response::Error { kind: "run".into(), message: "boom".into() },
        ] {
            let wire = encode_response(&resp);
            assert_eq!(decode_response(&frame(&wire)).unwrap(), resp);
        }
        // A message carrying terminators must still be one frame.
        let evil = Response::Error { kind: "run".into(), message: "a\nb\r\nc".into() };
        let wire = encode_response(&evil);
        assert_eq!(wire.iter().filter(|&&b| b == b'\n').count(), 1);
        match decode_response(&frame(&wire)).unwrap() {
            Response::Error { message, .. } => assert_eq!(message, "a b  c"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Random byte soups: both decoders are total and deterministic, and
    /// the frames a stream yields do not depend on where reads cut it.
    #[test]
    fn random_bytes_decode_deterministically_and_frame_independently_of_chunking() {
        use slicc_common::SplitMix64;
        // Every frame `wire` yields when pushed in pieces of the given sizes.
        fn frames(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
            let mut fb = FrameBuffer::new();
            let mut out = Vec::new();
            let mut rest = wire;
            for &cut in cuts.iter().chain([&wire.len()]) {
                let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                rest = tail;
                fb.push(chunk);
                while let Some(f) = fb.next_frame().expect("frames stay under the bound") {
                    out.push(f);
                }
            }
            out
        }
        let mut rng = SplitMix64::new(0xc0de);
        for _ in 0..500 {
            let mut wire: Vec<u8> =
                (0..rng.next_below(512)).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(decode_request(&wire), decode_request(&wire));
            assert_eq!(decode_response(&wire), decode_response(&wire));
            for _ in 0..rng.next_below(8) {
                if !wire.is_empty() {
                    let i = rng.next_below(wire.len() as u64) as usize;
                    wire[i] = b'\n';
                }
            }
            let cuts: Vec<usize> =
                (0..rng.next_below(24)).map(|_| rng.next_below(96) as usize).collect();
            assert_eq!(frames(&wire, &[]), frames(&wire, &cuts));
        }
    }
}
