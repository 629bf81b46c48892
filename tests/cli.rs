//! Smoke tests for the `slicc` binary: the CLI must keep exiting 0 with
//! parseable output on a tiny workload, printing real help, and naming the
//! offending option on usage errors.

use std::process::Command;

fn slicc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slicc"))
}

#[test]
fn tiny_run_exits_zero_with_parseable_output() {
    let out = slicc()
        .args(["--workload", "tpcc1", "--scale", "tiny", "--mode", "slicc", "--tasks", "4"])
        .output()
        .expect("failed to spawn slicc");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("stdout must be UTF-8");

    // Every report line is `key value`; pick out the counters and check
    // they parse as numbers.
    let field = |name: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("missing '{name}' in output:\n{stdout}"))
            .split_whitespace()
            .nth(1)
            .expect("field has a value")
            .to_string()
    };
    assert_eq!(field("workload"), "TPC-C-1");
    assert_eq!(field("mode"), "SLICC");
    let instructions: u64 = field("instructions").parse().expect("instructions is a number");
    assert!(instructions > 0);
    let cycles: u64 = field("cycles").parse().expect("cycles is a number");
    assert!(cycles > 0);
    let i_mpki: f64 = field("I-MPKI").parse().expect("I-MPKI is a number");
    assert!(i_mpki >= 0.0);
}

#[test]
fn help_exits_zero_and_lists_options() {
    let out = slicc().arg("--help").output().expect("failed to spawn slicc");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for opt in ["--workload", "--mode", "--scale", "--baseline-compare"] {
        assert!(stdout.contains(opt), "help must document {opt}");
    }
}

#[test]
fn unknown_option_exits_two_and_names_it() {
    // Removed options are plain unknown options: the per-point
    // parallelism knobs, the checkpoint and retry flags, and the batch
    // admission limit.
    for args in [
        &["--frobnicate"][..],
        &["--point-threads", "2"],
        &["--decode-threads", "2"],
        &["--checkpoint", "x"],
        &["--retries", "1"],
        &["--queue-limit", "0"],
    ] {
        let out = slicc().args(args).output().expect("failed to spawn slicc");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[0]), "stderr must name the option, got: {stderr}");
        assert!(stderr.contains("unknown option"), "got: {stderr}");
    }
    // A removed fault spelling is a bad value of a kept option.
    let out = slicc().args(["--inject", "io-error:1"]).output().expect("failed to spawn slicc");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--inject") && stderr.contains("io-error:1"), "got: {stderr}");
}

#[test]
fn bad_value_exits_two_and_names_the_option() {
    let out = slicc().args(["--tasks", "lots"]).output().expect("failed to spawn slicc");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--tasks"), "stderr must name the option, got: {stderr}");
    assert!(stderr.contains("lots"), "stderr must echo the bad value, got: {stderr}");
}

#[test]
fn exhausted_fuel_exits_one_and_identifies_the_point() {
    let out = slicc()
        .args(["--scale", "tiny", "--tasks", "4", "--fuel-steps", "1"])
        .output()
        .expect("failed to spawn slicc");
    assert_eq!(out.status.code(), Some(1), "a failed point must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("livelock"), "stderr must name the failure mode, got: {stderr}");
    assert!(stderr.contains("key=0x"), "stderr must print the stable key, got: {stderr}");
    assert!(stderr.contains("seed="), "stderr must print the seed, got: {stderr}");
    assert!(stderr.contains("TPC-C-1"), "stderr must name the workload, got: {stderr}");
}

#[test]
fn keep_going_still_reports_the_healthy_point() {
    // The baseline-compare batch is [point, baseline]; with a tiny fuel
    // budget both fail, but --keep-going must attempt both and exit 1.
    let out = slicc()
        .args([
            "--scale",
            "tiny",
            "--tasks",
            "4",
            "--fuel-steps",
            "1",
            "--keep-going",
            "--baseline-compare",
        ])
        .output()
        .expect("failed to spawn slicc");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("livelock"), "stderr must report the failure, got: {stderr}");
}

#[test]
fn progress_quiet_leaves_stderr_empty() {
    let out = slicc()
        .args(["--scale", "tiny", "--tasks", "4", "--progress", "quiet"])
        .output()
        .expect("failed to spawn slicc");
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "--progress quiet must silence stderr, got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn progress_json_emits_one_object_per_line() {
    let out = slicc()
        .args(["--scale", "tiny", "--tasks", "4", "--progress", "json"])
        .output()
        .expect("failed to spawn slicc");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.is_empty(), "--progress json must emit telemetry");
    for line in stderr.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each telemetry line must be a JSON object, got: {line}"
        );
    }
    assert!(stderr.contains("\"event\": \"batch_started\""), "got: {stderr}");
    assert!(stderr.contains("\"event\": \"point_finished\""), "got: {stderr}");
}

#[test]
fn obs_out_writes_all_three_artifacts() {
    let prefix = std::env::temp_dir().join(format!("slicc-cli-obs-{}", std::process::id()));
    let trace = prefix.with_extension("trace.json");
    let csv = prefix.with_extension("intervals.csv");
    let json = prefix.with_extension("intervals.json");
    for p in [&trace, &csv, &json] {
        std::fs::remove_file(p).ok();
    }
    let out = slicc()
        .args(["--scale", "tiny", "--tasks", "4", "--progress", "quiet", "--obs-out"])
        .arg(&prefix)
        .output()
        .expect("failed to spawn slicc");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let trace_body = std::fs::read_to_string(&trace).expect("trace artifact written");
    assert!(trace_body.contains("\"traceEvents\""));
    assert_eq!(
        trace_body.matches('{').count(),
        trace_body.matches('}').count(),
        "trace JSON must balance"
    );
    let csv_body = std::fs::read_to_string(&csv).expect("csv artifact written");
    assert!(csv_body.starts_with("epoch,start_cycle"));
    assert!(csv_body.lines().count() > 1, "series must have at least one epoch");
    let json_body = std::fs::read_to_string(&json).expect("intervals json written");
    assert!(json_body.contains("\"epoch_cycles\""));
    for p in [&trace, &csv, &json] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn baseline_compare_reports_speedup() {
    let out = slicc()
        .args(["--scale", "tiny", "--tasks", "4", "--baseline-compare"])
        .output()
        .expect("failed to spawn slicc");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("speedup"), "missing speedup line:\n{stdout}");
}
