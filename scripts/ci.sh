#!/usr/bin/env bash
# The full CI gate: release build, test suite, lint-clean clippy and
# rustfmt-clean sources.
# Run from anywhere; operates on the workspace that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Perfbench lane: perfbench is its own package outside the workspace, so
# the lines above never compile it. Build it now and run its unit tests, so
# a change to the public API it uses fails here, not in the slow bench
# lane at the end.
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q
cargo clippy --workspace --all-targets -- -D warnings
# Format lane: the workspace follows rustfmt.toml; perfbench is its own
# workspace and is not checked here.
cargo fmt --check

# Doc lane: rustdoc must build warning-free, so no intra-doc link is
# broken or points at a private item.
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace --offline

# Figures identity lane: the small-scale report (about 20 s on two
# CPUs) must stay byte-identical to tests/data/figures-small.txt. A
# deliberate model change re-pins that file in the same commit, as it
# re-pins the golden digests.
./target/release/figures all --scale small --jobs 2 2> /dev/null \
    | diff -u tests/data/figures-small.txt -
echo "figures identity ok"

# Obs smoke: an observed tiny run must emit valid Chrome trace JSON and
# an interval series whose CSV/JSON agree on the epoch count.
obs_prefix="$(mktemp -u /tmp/slicc-ci-obs.XXXXXX)"
trap 'rm -f "$obs_prefix".*' EXIT
./target/release/slicc --scale tiny --mode slicc --progress quiet \
    --obs-out "$obs_prefix" > /dev/null
python3 - "$obs_prefix" <<'EOF'
import csv, json, sys
prefix = sys.argv[1]
trace = json.load(open(prefix + ".trace.json"))
assert trace["traceEvents"], "trace must contain events"
intervals = json.load(open(prefix + ".intervals.json"))
rows = list(csv.DictReader(open(prefix + ".intervals.csv")))
assert len(rows) == len(intervals["epochs"]) > 0, "CSV/JSON epoch mismatch"
print(f"obs artifacts ok ({len(trace['traceEvents'])} trace events, "
      f"{len(rows)} epochs)")
EOF

# Metrics smoke: a metrics-capturing run must write a Prometheus text
# exposition that parses line-by-line, a JSON snapshot that validates,
# and (on --progress json) one metrics progress event embedding the
# same snapshot.
metrics_prefix="$(mktemp -u /tmp/slicc-ci-metrics.XXXXXX)"
metrics_log="$(mktemp /tmp/slicc-ci-metrics-log.XXXXXX)"
./target/release/slicc --scale tiny --progress json \
    --metrics-out "$metrics_prefix" > /dev/null 2> "$metrics_log"
python3 - "$metrics_prefix" "$metrics_log" <<'EOF'
import json, re, sys
prefix, log = sys.argv[1], sys.argv[2]

# Prometheus text: every line is a comment or `name[{le="..."}] value`,
# every series is HELP/TYPE-announced, histogram buckets are cumulative.
name_re = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*$')
sample_re = re.compile(
    r'^([a-zA-Z_][a-zA-Z0-9_]*)(\{le="[^"]+"\})? (-?[0-9.+eE]+|\+Inf)$')
announced, samples, last_bucket = set(), 0, {}
for line in open(prefix + ".metrics.prom"):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# HELP ") or line.startswith("# TYPE "):
        name = line.split(" ", 3)[2]
        assert name_re.match(name), f"bad metric name {name!r}"
        announced.add(name)
        continue
    m = sample_re.match(line)
    assert m, f"unparseable exposition line {line!r}"
    base = m.group(1)
    root = re.sub(r'_(bucket|sum|count)$', '', base)
    assert base in announced or root in announced, f"unannounced series {base}"
    if base.endswith("_bucket"):
        v = float(m.group(3))
        assert v >= last_bucket.get(root, 0.0), f"{root} buckets not cumulative"
        last_bucket[root] = v
    samples += 1
assert samples > 0, "empty Prometheus exposition"

# JSON snapshot: loads, and carries the layers the registry spans.
doc = json.load(open(prefix + ".metrics.json"))
names = {m["name"] for m in doc["metrics"]}
for want in ("sim_instructions_total", "core_base_cycles_total",
             "runner_cache_misses_total"):
    assert want in names, f"JSON snapshot lacks {want}"
assert not any("pressure" in n for n in names), \
    "metric names must not collide with the pressure-event grep"

# Progress stream: exactly the same snapshot rides one metrics event.
events = [json.loads(line) for line in open(log)
          if '"event": "metrics"' in line]
assert len(events) == 1, f"expected one metrics progress event, got {len(events)}"
assert {m["name"] for m in events[0]["snapshot"]["metrics"]} == names, \
    "progress-event snapshot diverged from the written artifact"
print(f"metrics smoke ok ({samples} exposition sample(s), {len(names)} series)")
EOF
rm -f "$metrics_prefix".* "$metrics_log"

# Chaos lane: the fault matrix (injected panics, stalls and slow
# consumers), deadline aborts, cancellation, and the CLI's SIGINT exit.
cargo test -p slicc-sim --test chaos -q

# Service-chaos lane: the resource-governance drills by name — cache
# thrash under a tiny byte budget, stampede storms coalescing to one
# flight, overload shedding with recovery, eviction racing coalesced
# waiters, and the cross-path drills in which a submission and a batch
# attach to each other's flights (DESIGN.md §12). Named explicitly so
# the governance drills run (and fail) as their own lane.
cargo test -p slicc-sim --test chaos -q -- \
    cache_thrash stampede_storm overload_shedding eviction_racing
cargo test -p slicc-sim --test runner -q -- cross_path

# Pressure smoke: a JSON-progress run must emit at least one pressure
# snapshot carrying the full governance surface.
pressure_log="$(mktemp /tmp/slicc-ci-pressure.XXXXXX)"
./target/release/slicc --scale tiny --progress json --cache-bytes 4096 \
    > /dev/null 2> "$pressure_log"
python3 - "$pressure_log" <<'EOF'
import json, sys
snapshots = [json.loads(line) for line in open(sys.argv[1])
             if '"pressure"' in line]
assert snapshots, "no pressure snapshot in --progress json output"
for field in ("queue_depth", "inflight", "cache_bytes", "cache_budget",
              "cache_entries", "shed"):
    assert field in snapshots[-1], f"pressure snapshot lacks {field}"
assert snapshots[-1]["cache_budget"] == 4096, "--cache-bytes must reach the snapshot"
print(f"pressure smoke ok ({len(snapshots)} snapshot(s))")
EOF
rm -f "$pressure_log"

# Serve smoke-and-chaos lane: boot slicc-serve on an ephemeral port,
# stampede it (>= 1000 submissions across >= 8 connections, duplicate
# keys must coalesce to exactly one flight each — slicc-loadgen exits
# non-zero on any violation), SIGTERM it, and require a clean drain
# (exit 0) that writes a metrics artifact carrying the serving counters.
serve_boot() {
    # serve_boot OUT LOG ARGS... -> sets serve_pid and serve_addr
    local out="$1" log="$2"
    shift 2
    ./target/release/slicc-serve --addr 127.0.0.1:0 --progress quiet \
        "$@" > "$out" 2> "$log" &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 1 200); do
        serve_addr=$(sed -n 's/^listening on //p' "$out")
        if [ -n "$serve_addr" ]; then return 0; fi
        sleep 0.05
    done
    echo "serve smoke: server never printed its listen address" >&2
    cat "$log" >&2
    return 1
}
serve_metrics="$(mktemp -u /tmp/slicc-ci-serve.XXXXXX)"
serve_out="$(mktemp /tmp/slicc-ci-serve-out.XXXXXX)"
serve_log="$(mktemp /tmp/slicc-ci-serve-log.XXXXXX)"
# Roomy queue: 8 connections can never exceed 8 waiters, so a limit of
# 64 guarantees the stampede is absorbed by coalescing, never shed —
# the defaults scale with nproc and would shed on a starved CI runner.
serve_boot "$serve_out" "$serve_log" --jobs 4 --queue-limit 64 \
    --metrics-out "$serve_metrics"
./target/release/slicc-loadgen --addr "$serve_addr" --scenario stampede \
    --connections 8 --per-connection 125 --distinct 8
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
serve_status=$?
set -e
if [ "$serve_status" -ne 0 ]; then
    echo "serve smoke: SIGTERM drain exited $serve_status, want 0" >&2
    cat "$serve_log" >&2
    exit 1
fi
python3 - "$serve_metrics" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1] + ".metrics.json"))
by_name = {m["name"]: m["value"] for m in doc["metrics"] if "value" in m}
hists = {m["name"]: m for m in doc["metrics"] if m["type"] == "histogram"}
def need(name, at_least):
    got = by_name.get(name)
    assert got is not None, f"serve metrics artifact lacks {name}"
    assert got >= at_least, f"{name} = {got}, want >= {at_least}"
    return got
submits = need("srv_submits_total", 1000)
need("srv_results_total", 1000)
need("srv_connections_total", 8)
coalesced = need("runner_coalesced_hits_total", 1)
need("srv_drains_total", 1)
assert by_name.get("srv_retry_after_total", 0) == 0, \
    "stampede under a roomy queue must not shed"
assert by_name.get("srv_protocol_errors_total", 0) == 0, \
    "loadgen speaks the protocol cleanly; errors mean a codec bug"
for hop in ("decode", "queue", "simulate", "encode", "write"):
    assert f"srv_hop_{hop}_nanos" in hists, \
        f"serve metrics artifact lacks the {hop} hop histogram"
assert hists["srv_hop_decode_nanos"]["count"] == submits, \
    "every served SUBMIT must record exactly one decode hop"
print(f"serve stampede smoke ok ({submits} submissions, "
      f"{coalesced} coalesced, clean drain)")
EOF
rm -f "$serve_metrics".* "$serve_out" "$serve_log"

# Serve overload lane: a deliberately starved server (one slot, zero
# queue) under concurrent fresh keys must shed with RETRY-AFTER at the
# wire and recover once the burst subsides — slicc-loadgen asserts both,
# and the drained artifact must show the sheds on the server's counters.
overload_metrics="$(mktemp -u /tmp/slicc-ci-overload.XXXXXX)"
overload_out="$(mktemp /tmp/slicc-ci-overload-out.XXXXXX)"
overload_log="$(mktemp /tmp/slicc-ci-overload-log.XXXXXX)"
serve_boot "$overload_out" "$overload_log" --jobs 1 --queue-limit 0 \
    --metrics-out "$overload_metrics"
./target/release/slicc-loadgen --addr "$serve_addr" --scenario overload \
    --connections 8 --per-connection 75 --distinct 600
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
serve_status=$?
set -e
if [ "$serve_status" -ne 0 ]; then
    echo "serve overload: SIGTERM drain exited $serve_status, want 0" >&2
    cat "$overload_log" >&2
    exit 1
fi
python3 - "$overload_metrics" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1] + ".metrics.json"))
by_name = {m["name"]: m["value"] for m in doc["metrics"] if "value" in m}
for name in ("srv_retry_after_total", "runner_shed_points_total"):
    assert by_name.get(name, 0) > 0, \
        f"overload drill left {name} at zero — shedding never reached the wire"
print(f"serve overload smoke ok ({by_name['srv_retry_after_total']} "
      f"RETRY-AFTER frame(s), clean drain)")
EOF
rm -f "$overload_metrics".* "$overload_out" "$overload_log"

# Obs-overhead lane: full observation (event trace, interval series and
# metrics capture) must cost <= 1.15x a bare run of the same small point.
# A timing check, so it is an ignored test run here in release.
cargo test --release -p slicc-sim --test obs -q -- --ignored

# Bench lane: a same-host perfbench A/B of the working tree against the
# last commit (on a clean tree, the A/A check). It fails on a metric that
# moved beyond both its BENCHMARK.json bound and the measured spread, on
# an incorrect run, or on a higher failed share. The doctests pin the
# verdict arithmetic first.
python3 -m doctest scripts/bench_ab.py
python3 scripts/bench_ab.py HEAD mapreduce-paper serve-mixed
