//! `slicc-loadgen`: drive a running `slicc-serve` with a stampede or
//! overload drill and assert the scenario's governance invariants.
//!
//! ```text
//! slicc-loadgen --addr 127.0.0.1:7171 --scenario stampede \
//!     --connections 8 --per-connection 125 --distinct 8
//! ```
//!
//! Prints a one-line JSON report to stdout. Exit 0 when the scenario's
//! invariants hold, 1 when they are violated (the violation goes to
//! stderr), 2 on usage errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use slicc_serve::{loadgen, LoadgenConfig, Scenario};

const USAGE: &str = "\
slicc-loadgen: stampede/overload drills against a slicc-serve instance

USAGE:
    slicc-loadgen --addr HOST:PORT --scenario stampede|overload [OPTIONS]

OPTIONS:
    --addr HOST:PORT      The server to drill (required)
    --scenario NAME       stampede: duplicate keys must coalesce to one
                          flight each, nothing sheds;
                          overload: sheds must surface as RETRY-AFTER and
                          the server must recover afterwards (required)
    --connections N       Concurrent client connections (default 8)
    --per-connection N    Submissions per connection (default 125)
    --distinct N          Distinct simulation points cycled (default 8)
    -h, --help            This help
";

fn parse_args(args: &[String]) -> Result<LoadgenConfig, String> {
    let mut addr: Option<String> = None;
    let mut scenario: Option<Scenario> = None;
    let mut connections = 8usize;
    let mut per_connection = 125usize;
    let mut distinct = 8usize;

    let mut i = 0;
    while i < args.len() {
        let opt = args[i].clone();
        let mut value = || -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{opt} needs a value"))
        };
        let number = |text: &str| -> Result<usize, String> {
            text.parse::<usize>()
                .map_err(|_| format!("{opt} needs a non-negative integer, got {text:?}"))
        };
        match opt.as_str() {
            "--addr" => addr = Some(value()?),
            "--scenario" => {
                let text = value()?;
                scenario = Some(
                    Scenario::parse(&text).ok_or_else(|| format!("unknown scenario {text:?}"))?,
                );
            }
            "--connections" => connections = number(&value()?)?.max(1),
            "--per-connection" => per_connection = number(&value()?)?.max(1),
            "--distinct" => distinct = number(&value()?)?.max(1),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }

    let addr = addr.ok_or("missing --addr")?;
    let scenario = scenario.ok_or("missing --scenario")?;
    let mut cfg = LoadgenConfig::new(addr, scenario);
    cfg.connections = connections;
    cfg.per_connection = per_connection;
    cfg.distinct = distinct;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let report = match loadgen::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: drill failed to run: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", report.to_json());
    match report.check() {
        Ok(()) => ExitCode::SUCCESS,
        Err(violation) => {
            eprintln!("scenario violated: {violation}");
            ExitCode::from(1)
        }
    }
}
