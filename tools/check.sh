#!/usr/bin/env bash
# CI gate: build Release, ASan+UBSan and ThreadSanitizer configurations and
# run the full test suite under each. Usage: tools/check.sh [jobs]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${1:-$(nproc)}"

run_matrix_entry() {
  local name="$1"; shift
  local build_dir="$ROOT/build-$name"
  echo "==> [$name] configure"
  cmake -B "$build_dir" -S "$ROOT" "$@"
  echo "==> [$name] build"
  cmake --build "$build_dir" -j "$JOBS"
  echo "==> [$name] ctest"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

run_matrix_entry release -DCMAKE_BUILD_TYPE=Release
# Hermeticity leg: gtest_discover_tests runs every case as its own process,
# so tests sharing a scratch file or other process-external state collide
# only under parallel, reordered runs. Shuffle and repeat the release suite
# until any such collision shows up.
echo "==> [release] shuffled repeat"
ctest --test-dir "$ROOT/build-release" --output-on-failure -j "$JOBS" \
  --schedule-random --repeat until-fail:5
# ASan+UBSan catches lifetime/bounds bugs the run-decomposition recursions
# could hide; halt_on_error turns any report into a hard failure.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  run_matrix_entry asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSNAKES_SANITIZE=address,undefined
# TSAN_OPTIONS makes any race a hard failure instead of a report.
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  run_matrix_entry tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSNAKES_SANITIZE=thread

# Portable-kernels leg: rebuild with the BMI2 interleave kernels pinned out
# (-DSNAKES_FORCE_PORTABLE_KERNELS=ON) and rerun the curve/run suites — the
# differential half of the kernel-parity contract, proving the portable
# fallback carries the same bits on a build that can never dispatch to BMI2.
echo "==> [portable-kernels] configure"
cmake -B "$ROOT/build-portable" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DSNAKES_FORCE_PORTABLE_KERNELS=ON
echo "==> [portable-kernels] build"
cmake --build "$ROOT/build-portable" -j "$JOBS"
echo "==> [portable-kernels] ctest (curves / rank runs / kernels)"
ctest --test-dir "$ROOT/build-portable" --output-on-failure -j "$JOBS" \
  -R 'Curve|Curves|Hilbert|ZCurve|Gray|RankRun|BitInterleave|PathOrder|Linearization'

# Service concurrency leg: the epoch-publication and reader-pinning contract
# of src/service is the part of the tree where a silent race would corrupt
# results instead of crashing, so the service suites (including the seeded
# InterleaveDriver schedules) get an explicit pass under both the Release
# and the TSan builds on top of the full-matrix runs above.
echo "==> [service] release leg"
ctest --test-dir "$ROOT/build-release" --output-on-failure -j "$JOBS" \
  -R 'Service(Registration|Advise|Query|Epoch|Submit|Dispatch|Interleave|Fuzz|Telemetry)|FlightRecorder|SloWindow'
echo "==> [service] tsan leg"
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS" \
  -R 'Service(Registration|Advise|Query|Epoch|Submit|Dispatch|Interleave|Fuzz|Telemetry)|FlightRecorder|SloWindow'

# Observability smoke: run the instrumented end-to-end report on the tiny
# TPC-D grid and validate that both artifacts parse and carry the headline
# metrics (obs_report exercises advisor + DP + simulator + cache with live
# metrics and tracing backends).
echo "==> [obs] smoke"
OBS_OUT="$ROOT/build-release/obs-smoke"
"$ROOT/build-release/tools/obs_report" --out "$OBS_OUT" --queries 200 > /dev/null
python3 - "$OBS_OUT" <<'EOF'
import json, sys
out = sys.argv[1]
m = json.load(open(out + "/metrics.json"))
for key in ["advisor.strategies_evaluated", "cache.hits", "cache.misses",
            "cache.evictions", "dp.cells_relaxed", "storage.pages_read",
            "storage.seeks", "curves.runs_emitted"]:
    assert key in m["counters"], "missing counter " + key
for key in ["cache.hit_rate", "dp.table_bytes"]:
    assert key in m["gauges"], "missing gauge " + key
for key in ["advisor.strategy_compute_ns", "storage.run_length_pages",
            "curves.cells_per_run"]:
    assert key in m["histograms"], "missing histogram " + key
trace = json.load(open(out + "/trace.json"))
events = trace["traceEvents"]
assert events and all(e["ph"] == "X" for e in events)
names = {e["name"] for e in events}
for name in ["advisor/plan", "advisor/evaluate", "storage/measure_all"]:
    assert name in names, "missing span " + name
print("obs smoke ok: %d metrics, %d spans" %
      (len(m["counters"]) + len(m["gauges"]) + len(m["histograms"]),
       len(events)))
EOF

# Service throughput smoke: drive the daemon with mixed batched traffic and
# a background-recluster storm across 8 tenants, then validate the guard
# artifact — headline numbers plus the embedded MetricsRegistry snapshot.
# The binary SNAKES_CHECKs its own bounds (sustained req/s, query p99,
# epoch pin-wait p99, zero storm failures, bit-identical warm advice), so
# reaching the python validation means the guards held.
echo "==> [service] throughput smoke"
SERVICE_BENCH="$ROOT/build-release/BENCH_service_throughput.json"
(cd "$ROOT/build-release" && ./tools/service_sim --requests 2000 \
  --out "$SERVICE_BENCH" > /dev/null)
python3 - "$SERVICE_BENCH" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["bench"] == "service_throughput"
assert d["tenants"] >= 8, "guard must cover >= 8 tenants"
assert d["bit_identical"] is True, "service advice diverged from the library"
assert d["storm_failures"] == 0, "queries failed during background recluster"
assert d["sustained_rps"] >= d["required_rps"]
assert d["pin_wait_p99_ns"] <= d["pin_p99_bound_ns"], "readers blocked"
assert d["query_compute_p99_ns"] <= d["query_p99_bound_ns"]
m = d["metrics"]
for key in ["service.tenants", "service.epochs_published",
            "service.epochs_closed", "service.requests.completed"]:
    assert key in m["counters"], "missing counter " + key
for key in ["service.query.queue_ns", "service.query.compute_ns",
            "service.advise.compute_ns", "service.epoch.pin_ns"]:
    assert key in m["histograms"], "missing histogram " + key
t = d["telemetry"]
assert t["recorder"]["requests"], "embedded flight recorder is empty"
assert len(t["tenants"]) == d["tenants"], "telemetry missing tenants"
assert t["audit"], "recluster audit log is empty after the storm"
print("service smoke ok: %.0f req/s over %d tenants, pin p99 %.0f ns" %
      (d["sustained_rps"], d["tenants"], d["pin_wait_p99_ns"]))
EOF

# Micro-partition smoke: the storage-backend API must serve the same advice
# and queries when tenants pack into zone-mapped micro-partitions. service_sim
# reruns its full guard suite on the alternate backend, and the pruning bench
# SNAKES_CHECKs bit-identical answers across backends plus >= 50% of
# partitions pruned on restricted classes before emitting its artifact.
echo "==> [micropartition] service smoke"
MICRO_BENCH="$ROOT/build-release/BENCH_service_micropartition.json"
(cd "$ROOT/build-release" && ./tools/service_sim --requests 2000 \
  --backend micropartition --out "$MICRO_BENCH" > /dev/null)
python3 - "$MICRO_BENCH" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["bench"] == "service_throughput"
assert d["backend"] == "micropartition", "backend selector did not stick"
assert d["bit_identical"] is True, "micro-partition advice diverged"
assert d["storm_failures"] == 0
print("micropartition service smoke ok: %.0f req/s" % d["sustained_rps"])
EOF
echo "==> [micropartition] pruning bench"
(cd "$ROOT/build-release" && ./bench/micro_micropartition > /dev/null)
python3 - "$ROOT/build-release/BENCH_micropartition.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["bench"] == "micropartition"
assert d["bit_identical"] is True
assert d["partitions"] > 0
assert d["restricted_pruned_fraction"] >= d["required_fraction"]
print("micropartition bench ok: %d partitions, %.1f%% pruned" %
      (d["partitions"], 100.0 * d["restricted_pruned_fraction"]))
EOF

# Incremental-advise guard: after a 10% drift the warm re-advise must cost
# >= 5x fewer class-cost evaluations than the cold one and recommend
# bit-identically to a fresh Advise; the cold incremental advise fills an
# empty cost cache through the same class-cost producer as a fresh Advise,
# so its median time (9 repetitions after one warm-up) must stay within
# 1.2x of the fresh one. The binary SNAKES_CHECKs both bounds; python
# re-checks the artifact and its host stamp.
echo "==> [incremental-advise] bench"
COMMIT="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$ROOT/build-release" && ./bench/micro_incremental_advise \
  --commit "$COMMIT" > /dev/null)
python3 - "$ROOT/build-release/BENCH_incremental_advise.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["bench"] == "incremental_advise"
assert d["bit_identical"] is True, "warm re-advise diverged from fresh"
assert d["evaluation_ratio"] >= d["required_ratio"]
assert d["repetitions"] >= 5 and len(d["cold_ms_runs"]) == d["repetitions"]
assert d["cold_fresh_ratio"] <= d["allowed_cold_fresh_ratio"], \
    "cold incremental advise %.2fx a fresh one" % d["cold_fresh_ratio"]
for key in ("nproc", "build_type", "commit"):
    assert key in d["host"], "host stamp missing " + key
print("incremental advise ok: cold/fresh %.2fx, %d cold vs %d warm evals" %
      (d["cold_fresh_ratio"], d["cold_cost_evaluations"],
       d["warm_cost_evaluations"]))
EOF

# Calibration smoke: the measured-cost loop end to end. calibrate_cost
# sweeps real file_store executions on a small TPC-D warehouse, fits the
# linear time model in-repo, and writes both artifacts; python validates the
# samples/coefficients JSON shapes, that the coefficients load as a model
# (the service's `costmodel calibrated <path>` payload), and that the fit
# explains the measurements within the 25% median-relative-error bound. The
# bench additionally SNAKES_CHECKs that picking a strategy by the fitted
# model costs <= 10% measured regret against the actual fastest.
echo "==> [calibration] fit smoke"
CAL_SAMPLES="$ROOT/build-release/calibration-samples.json"
CAL_COEF="$ROOT/build-release/calibration-coefficients.json"
(cd "$ROOT/build-release" && ./tools/calibrate_cost --orders 2000 \
  --queries 2 --reps 2 --samples "$CAL_SAMPLES" \
  --coefficients "$CAL_COEF" > /dev/null)
python3 - "$CAL_SAMPLES" "$CAL_COEF" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["page_size_bytes"] > 0 and s["record_size_bytes"] > 0
assert s["samples"], "sweep produced no samples"
for sample in s["samples"]:
    assert sample["measured_ns"] >= 0, "negative measured time"
    for key in ("class", "strategy", "backend", "seeks", "pages"):
        assert key in sample, "sample missing " + key
c = json.load(open(sys.argv[2]))
assert c["model"] == "calibrated", "coefficients not model-loadable"
assert "intercept_ms" in c and c["coefficients"], "missing fit terms"
for v in [c["intercept_ms"], *c["coefficients"].values()]:
    assert v == v and abs(v) != float("inf"), "non-finite coefficient"
assert c["samples"] == len(s["samples"]), "fit did not use the sweep"
assert c["median_relative_error"] <= 0.25, \
    "calibrated model median relative error %.3f exceeds the 25%% bound" \
    % c["median_relative_error"]
assert c["per_class_relative_error"], "no per-class error report"
print("calibration smoke ok: %d samples, r^2 %.3f, median rel error %.3f" %
      (c["samples"], c["r_squared"], c["median_relative_error"]))
EOF
echo "==> [calibration] ranking bench"
(cd "$ROOT/build-release" && ./bench/micro_calibration > /dev/null)
python3 - "$ROOT/build-release/BENCH_calibration.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["bench"] == "calibration"
assert d["median_relative_error"] <= d["required_median_relative_error"]
assert d["model_pick_measured_regret"] <= d["required_regret"]
assert d["per_strategy"], "no per-strategy aggregates"
print("calibration bench ok: median rel error %.3f, model-pick regret %.2f%%"
      % (d["median_relative_error"],
         100.0 * d["model_pick_measured_regret"]))
EOF

# Telemetry smoke: the always-on request-telemetry layer end to end.
#  1. service_sim --telemetry dumps the flight recorder + SLO windows +
#     audit log; python checks request ids are strictly increasing with
#     monotone timestamps, SLO windows are non-empty, and every audit entry
#     names a decision with its inputs.
#  2. telemetry_report renders the same surface as Prometheus text
#     exposition via the Dispatch verb; python validates the exposition
#     grammar (every sample belongs to a TYPE-declared family) and that the
#     SLO summary carries both quantiles.
#  3. micro_telemetry SNAKES_CHECKs the per-request telemetry cost under 2%
#     of the mixed-request path and python re-checks the artifact.
echo "==> [telemetry] service_sim dump"
TELEMETRY_DUMP="$ROOT/build-release/telemetry-smoke.json"
(cd "$ROOT/build-release" && ./tools/service_sim --requests 2000 \
  --out BENCH_telemetry_smoke_throughput.json \
  --telemetry "$TELEMETRY_DUMP" > /dev/null)
python3 - "$TELEMETRY_DUMP" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
reqs = t["recorder"]["requests"]
assert reqs, "flight recorder dumped no requests"
ids = [r["id"] for r in reqs]
assert all(a < b for a, b in zip(ids, ids[1:])), "ids not strictly increasing"
for r in reqs:
    assert r["queue_ns"] >= 0 and r["compute_ns"] >= 0, "negative latency"
assert t["tenants"], "no tenants in telemetry snapshot"
for tenant in t["tenants"]:
    assert tenant["slo"], "SLO window empty for " + tenant["name"]
    for verb, s in tenant["slo"].items():
        assert s["count"] > 0 and s["p99_ns"] >= s["p50_ns"] >= 0.0, verb
assert t["audit"], "no recluster decisions audited"
for entry in t["audit"]:
    assert entry["decision"], "audit entry without a decision"
    assert "drift" in entry and "budget_pages" in entry and \
        "net_benefit" in entry, "audit entry missing inputs"
print("telemetry dump ok: %d requests, %d tenants, %d audited decisions" %
      (len(reqs), len(t["tenants"]), len(t["audit"])))
EOF
echo "==> [telemetry] prometheus exposition"
TELEMETRY_PROM="$ROOT/build-release/telemetry-smoke.prom"
(cd "$ROOT/build-release" && ./tools/telemetry_report --format prom \
  --requests 400 --out "$TELEMETRY_PROM")
python3 - "$TELEMETRY_PROM" <<'EOF'
import sys
families = set()
samples = 0
quantiles = set()
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    assert line, "blank line in exposition"
    if line.startswith("# TYPE "):
        name, kind = line[len("# TYPE "):].split(" ")
        assert kind in ("counter", "gauge", "summary"), kind
        families.add(name)
        continue
    assert not line.startswith("#"), "unexpected comment: " + line
    body, value = line.rsplit(" ", 1)
    float(value)  # must parse
    name = body.split("{", 1)[0]
    base = name
    for suffix in ("_sum", "_count"):
        if base.endswith(suffix) and base not in families:
            base = base[: -len(suffix)]
    assert base in families, "sample from undeclared family: " + line
    if "{" in body:
        assert body.endswith("}"), "unclosed label set: " + line
        if 'quantile="' in body:
            quantiles.add(body.split('quantile="', 1)[1].split('"', 1)[0])
    samples += 1
assert "snakes_slo_request_latency_ns" in families, "missing SLO summary"
assert quantiles == {"0.5", "0.99"}, "missing quantiles: %s" % quantiles
print("exposition ok: %d samples across %d families" %
      (samples, len(families)))
EOF
echo "==> [telemetry] overhead bench"
(cd "$ROOT/build-release" && ./bench/micro_telemetry > /dev/null)
python3 - "$ROOT/build-release/BENCH_telemetry.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["bench"] == "telemetry_overhead"
assert d["overhead_bound_pct"] < d["budget_pct"]
print("telemetry bench ok: %.3f%% bound (budget %.1f%%)" %
      (d["overhead_bound_pct"], d["budget_pct"]))
EOF

# Coverage gate: instrument with gcc --coverage, rerun the suite, and hold
# the modules whose correctness rests on tests alone (the CV sandwich
# machinery, the reclustering engine, and the advisor service) to >= 80%
# line coverage. gcovr is
# not available in the image, so the .gcda files are digested with plain
# gcov --json-format and a stdlib-only python gate.
echo "==> [coverage] configure"
COV_DIR="$ROOT/build-coverage"
cmake -B "$COV_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
echo "==> [coverage] build"
cmake --build "$COV_DIR" -j "$JOBS"
echo "==> [coverage] ctest"
ctest --test-dir "$COV_DIR" --output-on-failure -j "$JOBS"
echo "==> [coverage] gcov gate"
: > "$COV_DIR/gcov.jsonl"
find "$COV_DIR/src" -name '*.gcda' | while read -r gcda; do
  gcov --stdout --json-format "$gcda" >> "$COV_DIR/gcov.jsonl"
done
python3 - "$COV_DIR/gcov.jsonl" <<'EOF'
import json, sys

# Line hit counts per source file, merged across translation units. The
# storage-backend entry gates the two files behind the StorageBackend API
# (backend.cc, micro_partition.cc) rather than all of src/storage,
# obs-telemetry gates the request-telemetry primitives (request context,
# flight recorder, SLO windows) rather than all of src/obs, and cost-model
# gates the pluggable CostModel + calibration fit rather than all of
# src/cost (the older analytic estimators live there too), and
# curves-kernels gates the bit-interleave kernel layer plus the run arena
# (src/curves/bit_interleave*, run_arena*) rather than all of src/curves.
cov = {"src/cv": {}, "src/recluster": {}, "src/service": {},
       "storage-backend": {}, "obs-telemetry": {}, "cost-model": {},
       "curves-kernels": {}}
backend_files = ("src/storage/backend.cc", "src/storage/micro_partition.cc")
telemetry_files = ("src/obs/request_context.cc", "src/obs/flight_recorder.cc",
                   "src/obs/slo_window.cc")
cost_files = ("src/cost/cost_model.cc", "src/cost/calibration.cc")
kernel_files = ("src/curves/bit_interleave.cc", "src/curves/run_arena.cc")
with open(sys.argv[1]) as jsonl:
    for line in jsonl:
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        for f in doc.get("files", []):
            name = f["file"]
            if name.endswith(backend_files):
                module = "storage-backend"
            elif name.endswith(telemetry_files):
                module = "obs-telemetry"
            elif name.endswith(cost_files):
                module = "cost-model"
            elif name.endswith(kernel_files):
                module = "curves-kernels"
            else:
                module = next(
                    (m for m in cov if "/" + m + "/" in "/" + name), None)
            if module is None:
                continue
            lines = cov[module].setdefault(name, {})
            for ln in f.get("lines", []):
                n = ln["line_number"]
                lines[n] = max(lines.get(n, 0), ln["count"])
failed = False
for module, files in sorted(cov.items()):
    total = sum(len(v) for v in files.values())
    hit = sum(1 for v in files.values() for c in v.values() if c > 0)
    pct = 100.0 * hit / total if total else 0.0
    print("coverage %-14s %5d/%5d lines = %5.1f%%" % (module, hit, total, pct))
    if total == 0 or pct < 80.0:
        failed = True
if failed:
    sys.exit("coverage gate failed: a module is below 80% line coverage")
print("coverage gate ok")
EOF

echo "==> all configurations passed"
