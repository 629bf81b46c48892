//! `slicc-serve`: the long-lived daemon exposing [`SimService`] over
//! the slicc wire protocol.
//!
//! ```text
//! slicc-serve --addr 127.0.0.1:7171 --jobs 4 --queue-limit 8 --metrics-out out/serve
//! ```
//!
//! Prints `listening on <addr>` to stdout once bound (scripts bind
//! `:0` and parse the line to learn the port). SIGINT/SIGTERM drain
//! gracefully and exit 0; a second signal hard-exits `128+signum`.
//! Exit 2 is a usage error.

#![forbid(unsafe_code)]

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use slicc_common::install_shutdown_cancel;
use slicc_serve::{Server, ServerConfig};
use slicc_sim::{DeadlineConfig, ProgressKind, Runner, ServiceConfig, SimService};

const USAGE: &str = "\
slicc-serve: serve SLICC simulations over TCP

USAGE:
    slicc-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT          Listen address (default 127.0.0.1:0; port 0
                              binds an ephemeral port, printed on stdout)
    --jobs N                  Concurrent fresh simulations admitted
                              (default: available parallelism)
    --queue-limit N           Submissions allowed to wait for a slot before
                              shedding with RETRY-AFTER (default: 2x jobs;
                              0 never queues)
    --max-connections N       Concurrent client connections (default 64)
    --read-deadline-ms N|off  Budget to finish one frame from its first
                              byte (default 10000; slow-loris defense)
    --idle-deadline-ms N|off  Budget between frames (default 60000)
    --cache-bytes N           Run-cache byte budget override
    --metrics-out PREFIX      Write PREFIX.metrics.prom and
                              PREFIX.metrics.json on drain
    --progress quiet|plain|json
                              Lifecycle events to stderr (default plain)
    -h, --help                This help
";

struct Options {
    addr: String,
    jobs: usize,
    queue_limit: Option<usize>,
    server: ServerConfig,
    cache_bytes: Option<u64>,
    metrics_out: Option<String>,
    progress: ProgressKind,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:0".to_string(),
        jobs: Runner::default_parallelism(),
        queue_limit: None,
        server: ServerConfig::default(),
        cache_bytes: None,
        metrics_out: None,
        progress: ProgressKind::Plain,
    };
    let mut i = 0;
    while i < args.len() {
        let opt = args[i].clone();
        let mut value = || -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{opt} needs a value"))
        };
        let number = |text: &str| -> Result<u64, String> {
            text.parse::<u64>()
                .map_err(|_| format!("{opt} needs a non-negative integer, got {text:?}"))
        };
        let deadline = |text: &str| -> Result<DeadlineConfig, String> {
            if text == "off" {
                Ok(DeadlineConfig { wall_ms: None })
            } else {
                Ok(DeadlineConfig { wall_ms: Some(number(text)?) })
            }
        };
        match opt.as_str() {
            "--addr" => opts.addr = value()?,
            "--jobs" => opts.jobs = number(&value()?)?.max(1) as usize,
            "--queue-limit" => opts.queue_limit = Some(number(&value()?)? as usize),
            "--max-connections" => opts.server.max_connections = number(&value()?)?.max(1) as usize,
            "--read-deadline-ms" => opts.server.read_deadline = deadline(&value()?)?,
            "--idle-deadline-ms" => opts.server.idle_deadline = deadline(&value()?)?,
            "--cache-bytes" => opts.cache_bytes = Some(number(&value()?)?),
            "--metrics-out" => opts.metrics_out = Some(value()?),
            "--progress" => {
                let text = value()?;
                opts.progress = ProgressKind::parse(&text)
                    .ok_or_else(|| format!("unknown progress kind {text:?}"))?;
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let reporter = opts.progress.reporter();

    let runner = Arc::new(Runner::new(opts.jobs));
    if let Some(bytes) = opts.cache_bytes {
        runner.set_cache_bytes(bytes);
    }
    // Every SUBMIT runs on its connection thread, so `--jobs` is the
    // number of fresh simulations admitted at once.
    let admission = ServiceConfig {
        max_inflight: opts.jobs,
        queue_limit: opts.queue_limit.unwrap_or(2 * opts.jobs),
    };
    let service = Arc::new(SimService::new(runner, admission));

    let mut server = Server::new(service, opts.server);
    server.set_reporter(Arc::clone(&reporter));

    // First SIGINT/SIGTERM: cancel → graceful drain → exit 0.
    // Second: hard exit 128+signum from the handler itself.
    install_shutdown_cancel(&server.cancel_token());

    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.addr);
            return ExitCode::from(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => {
            // Machine-parseable: scripts bind :0 and read the port here.
            println!("listening on {addr}");
        }
        Err(e) => {
            eprintln!("error: cannot resolve the bound address: {e}");
            return ExitCode::from(1);
        }
    }

    let served = server.serve(listener);

    if let Some(prefix) = &opts.metrics_out {
        match slicc_serve::write_metrics_artifacts(&server, prefix) {
            Ok(()) => eprintln!("wrote {prefix}.metrics.prom and {prefix}.metrics.json"),
            Err(e) => {
                eprintln!("error: writing metrics artifacts failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serving failed: {e}");
            ExitCode::from(1)
        }
    }
}
