//! `slicc-serve`: a fault-hardened TCP front end for the simulation
//! service, plus the load generator that drills it.
//!
//! The crate splits along the failure surfaces:
//!
//! - [`protocol`] — the bounded, LF-delimited frame codec. Total over
//!   arbitrary bytes: every input decodes to a request or a typed
//!   [`ProtocolError`]; nothing panics.
//! - [`transport`] — the byte-stream seam: TCP in production,
//!   deterministic scripted/fault-injecting transports in the chaos
//!   tests.
//! - [`server`] — the accept loop, per-connection deadlines
//!   (slow-loris defense), connection cap, overload → `RETRY-AFTER`
//!   mapping, graceful SIGTERM/SIGINT drain, and `srv_*` metrics.
//! - [`client`] / [`loadgen`] — the protocol client and the
//!   stampede/overload drills whose invariants double as assertions.
//!
//! Two binaries ship with it: `slicc-serve` (the daemon) and
//! `slicc-loadgen` (the drill driver the CI smoke lane runs).

#![forbid(unsafe_code)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod transport;

pub use client::{Client, Submitted};
pub use loadgen::{LoadgenConfig, LoadgenReport, Scenario};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, render_json,
    submission_from_json, FrameBuffer, ProtocolError, Request, Response, MAX_FRAME,
};
pub use server::{
    export_server, metrics_snapshot, write_metrics_artifacts, Server, ServerConfig, ServerCounters,
};
pub use transport::{
    ChaosTransport, Exhausted, MemTransport, TcpTransport, Transport, TransportFault,
};
