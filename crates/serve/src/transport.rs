//! The byte-transport seam under the server: real TCP in production,
//! scripted in-memory streams and a fault-injecting wrapper in the chaos
//! tests.
//!
//! The server's connection handler is written against [`Transport`]
//! alone, so every hostile-client behavior (torn frames, short reads and
//! writes, mid-frame disconnects, stalls) can be produced
//! deterministically without a socket, while the TCP path stays a thin
//! adapter.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A bidirectional byte stream with read timeouts.
///
/// `read_some` follows `Read::read` semantics: `Ok(0)` is end-of-stream,
/// `ErrorKind::WouldBlock`/`TimedOut` means "no bytes within the read
/// timeout" (the handler uses those ticks to check deadlines and the
/// drain flag — they are not errors).
pub trait Transport: Send {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    fn write_frame(&mut self, bytes: &[u8]) -> io::Result<()>;
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
    /// Human-readable peer label for telemetry.
    fn peer(&self) -> String;
}

/// The production transport: one accepted TCP stream.
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
}

impl TcpTransport {
    /// Wraps an accepted stream and turns Nagle's algorithm off: a
    /// `SUBMIT` is answered with two small writes (`EVENT accepted`, then
    /// the result), and with Nagle on the second waits for the client's
    /// delayed ACK of the first, about 40 ms. A failure to set the option
    /// only costs that latency, so it is ignored.
    pub fn new(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        let peer =
            stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".to_string());
        TcpTransport { stream, peer }
    }
}

impl Transport for TcpTransport {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn write_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// What a scripted in-memory client does once its inbound script runs
/// dry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exhausted {
    /// Clean end-of-stream (`Ok(0)`): the client closed.
    Eof,
    /// The client holds the connection open but never sends another byte
    /// (`TimedOut` on every read): a slow-loris or stalled client.
    Stall,
}

/// A deterministic in-memory transport: inbound bytes come from a
/// script of chunks (so torn frames and byte-at-a-time delivery are
/// exact, not timing-dependent), outbound bytes are captured for
/// assertions.
pub struct MemTransport {
    inbound: VecDeque<Vec<u8>>,
    exhausted: Exhausted,
    /// Everything the server wrote, in order.
    pub outbound: Vec<u8>,
}

impl MemTransport {
    /// A client that sends each chunk in its own read, then `exhausted`.
    pub fn script(chunks: Vec<Vec<u8>>, exhausted: Exhausted) -> Self {
        MemTransport { inbound: chunks.into(), exhausted, outbound: Vec::new() }
    }

    /// A client that delivers `bytes` one byte per read — the worst torn
    /// framing a TCP stream can legally produce — then `exhausted`.
    pub fn torn(bytes: &[u8], exhausted: Exhausted) -> Self {
        MemTransport::script(bytes.iter().map(|&b| vec![b]).collect(), exhausted)
    }

    /// The captured outbound bytes split into frames (terminators
    /// stripped), for assertions.
    pub fn outbound_frames(&self) -> Vec<Vec<u8>> {
        let mut frames: Vec<Vec<u8>> =
            self.outbound.split(|&b| b == b'\n').map(|f| f.to_vec()).collect();
        if let Some(last) = frames.last() {
            if last.is_empty() {
                frames.pop();
            }
        }
        frames
    }
}

impl Transport for MemTransport {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.inbound.front_mut() {
            Some(chunk) => {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                chunk.drain(..n);
                if chunk.is_empty() {
                    self.inbound.pop_front();
                }
                Ok(n)
            }
            None => match self.exhausted {
                Exhausted::Eof => Ok(0),
                Exhausted::Stall => Err(io::Error::new(io::ErrorKind::TimedOut, "stalled client")),
            },
        }
    }

    fn write_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.outbound.extend_from_slice(bytes);
        Ok(())
    }

    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    fn peer(&self) -> String {
        "mem".to_string()
    }
}

/// A fault to inject on top of any [`Transport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportFault {
    /// Deliver at most one byte per read: maximally short reads.
    ShortReads,
    /// Reads succeed `reads` times, then report a hard end-of-stream —
    /// a client that vanishes mid-conversation (possibly mid-frame).
    DisconnectAfterReads { reads: usize },
    /// Writes succeed for `bytes` outbound bytes, then fail with
    /// `BrokenPipe` — a client that stopped reading and dropped.
    FailWriteAfter { bytes: usize },
}

/// Wraps a transport and applies one [`TransportFault`]. Composable with
/// [`MemTransport`] scripts (hostile inbound) to cover the full chaos
/// matrix.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    fault: TransportFault,
    reads: usize,
    written: usize,
}

impl<T: Transport> ChaosTransport<T> {
    pub fn new(inner: T, fault: TransportFault) -> Self {
        ChaosTransport { inner, fault, reads: 0, written: 0 }
    }

    /// The wrapped transport (to inspect captured outbound bytes).
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.fault {
            TransportFault::ShortReads => {
                let n = buf.len().min(1);
                self.inner.read_some(&mut buf[..n])
            }
            TransportFault::DisconnectAfterReads { reads } => {
                if self.reads >= reads {
                    return Ok(0);
                }
                self.reads += 1;
                self.inner.read_some(buf)
            }
            TransportFault::FailWriteAfter { .. } => self.inner.read_some(buf),
        }
    }

    fn write_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let TransportFault::FailWriteAfter { bytes: limit } = self.fault {
            if self.written + bytes.len() > limit {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client went away"));
            }
            self.written += bytes.len();
        }
        self.inner.write_frame(bytes)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        format!("chaos({})", self.inner.peer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_transport_scripts_chunks_then_exhausts() {
        let mut t = MemTransport::script(vec![b"ab".to_vec(), b"c".to_vec()], Exhausted::Eof);
        let mut buf = [0u8; 8];
        assert_eq!(t.read_some(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ab");
        assert_eq!(t.read_some(&mut buf).unwrap(), 1);
        assert_eq!(t.read_some(&mut buf).unwrap(), 0, "script ran dry: EOF");
    }

    #[test]
    fn stalled_scripts_report_timeouts_not_eof() {
        let mut t = MemTransport::script(vec![], Exhausted::Stall);
        let mut buf = [0u8; 8];
        let err = t.read_some(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn chaos_write_fault_trips_after_the_byte_budget() {
        let inner = MemTransport::script(vec![], Exhausted::Eof);
        let mut t = ChaosTransport::new(inner, TransportFault::FailWriteAfter { bytes: 5 });
        assert!(t.write_frame(b"1234").is_ok());
        let err = t.write_frame(b"56").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.into_inner().outbound, b"1234");
    }

    #[test]
    fn chaos_short_reads_deliver_one_byte_at_a_time() {
        let inner = MemTransport::script(vec![b"xyz".to_vec()], Exhausted::Eof);
        let mut t = ChaosTransport::new(inner, TransportFault::ShortReads);
        let mut buf = [0u8; 8];
        assert_eq!(t.read_some(&mut buf).unwrap(), 1);
        assert_eq!(buf[0], b'x');
    }
}
