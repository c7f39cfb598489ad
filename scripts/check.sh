#!/usr/bin/env bash
# CI entry point: configure + build everything with warnings as
# errors, verify every bench/example target actually built, run the
# full test suite (the golden-stats regression matrix must be part of
# it, not silently skipped), then drive every CLI surface end to end.
# Host-speed measurement is perfbench's job (perfbench/README.md), not
# this script's.
#
# Env:
#   BUILD_DIR  build tree (default: build)
#   BUILD_TYPE CMake build type (default: RelWithDebInfo)
#   SANITIZE   0 = off, 1/address = ASan+UBSan, thread = TSan
#              (TSan covers the multi-threaded sweep worker pool;
#              default: 0)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}"
SANITIZE="${SANITIZE:-0}"

case "$SANITIZE" in
  0)         SANITIZE_ARG=OFF ;;
  1|address) SANITIZE_ARG=ON ;;
  thread)    SANITIZE_ARG=thread ;;
  *)
    echo "error: SANITIZE must be 0, 1, address, or thread" >&2
    exit 1 ;;
esac

cmake -B "$BUILD_DIR" -S . -DNEUMMU_WERROR=ON \
      -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      -DNEUMMU_SANITIZE="$SANITIZE_ARG"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Every bench/bench_*.cc, tools/*.cc, and examples/*.cc must have
# produced an executable; a silently dropped target (bad glob,
# renamed file, dependency-gated bench) otherwise goes unnoticed
# until someone needs the figure.
missing=0
for src in bench/bench_*.cc tools/*.cc examples/*.cc; do
  target="$(basename "$src" .cc)"
  if [[ ! -x "$BUILD_DIR/$target" ]]; then
    echo "error: target $target (from $src) was not built" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "error: missing bench/example targets; see above" >&2
  exit 1
fi

# The golden-stats matrix is the cycle-exactness gate for every
# kernel/performance change: a build where it silently vanished (e.g.
# gtest not found, so NO tests were registered) must not pass.
if [[ ! -x "$BUILD_DIR/test_golden_stats" ]]; then
  echo "error: test_golden_stats was not built (gtest missing?);" \
       "the golden-stats regression gate cannot be skipped" >&2
  exit 1
fi
# grep (not grep -q): -q exits at the first match and, under
# pipefail, a still-writing ctest then dies of SIGPIPE and fails the
# whole pipeline; reading the stream to the end is race-free.
if ! ctest --test-dir "$BUILD_DIR" -N | grep test_golden_stats \
    > /dev/null; then
  echo "error: test_golden_stats is not registered with ctest" >&2
  exit 1
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Host-time attribution smoke: the simulator scenarios (the same
# manifest test_sweep gates on) profiled through neummu_sweep must
# yield flamegraph stacks and carry the fast-path counters and the
# 64-NPU mix in the merged dump.
SCEN_JSON="$BUILD_DIR/BENCH_sim_scenarios.json"
SCEN_STACKS="$BUILD_DIR/sim_scenarios.collapsed"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/sim_scenarios.jsonl \
    -j 2 --set=sim.profile=1 --quiet=1 --strict=1 \
    --collapsed="$SCEN_STACKS" --json="$SCEN_JSON" > /dev/null
if [[ ! -s "$SCEN_STACKS" ]]; then
  echo "error: profiled scenario sweep wrote no collapsed stacks" >&2
  exit 1
fi
for key in '"trainsStarted"' '"big64.sim"'; do
  if ! grep -q "$key" "$SCEN_JSON"; then
    echo "error: profiled scenario sweep dump is missing $key" >&2
    exit 1
  fi
done
echo "profiled scenario sweep: $SCEN_JSON, stacks in $SCEN_STACKS"

# Oversubscription smoke: the page-lifecycle engine (evict + shootdown
# + refetch) must survive a real sweep end to end and serve its
# counters through the JSON path.
OVERSUB_JSON="$BUILD_DIR/BENCH_ext_oversubscription.json"
"$BUILD_DIR/bench_ext_oversubscription" --batch=2 \
    --json="$OVERSUB_JSON" > /dev/null
if [[ ! -s "$OVERSUB_JSON" ]]; then
  echo "error: bench_ext_oversubscription produced no JSON report" >&2
  exit 1
fi
if ! grep -q '"evictions"' "$OVERSUB_JSON"; then
  echo "error: oversubscription report carries no eviction counters" >&2
  exit 1
fi
echo "oversubscription report: $OVERSUB_JSON"

# Grid harness: bench_sec4d_summary runs the paper's dense grid under
# the IOMMU and NeuMMU design points (binder override lists) through
# runGrid. A wrong override list or a broken cell runner shows up as
# a missing summary line or a missing per-cell JSON group.
SEC4D_JSON="$BUILD_DIR/BENCH_sec4d_summary.json"
SEC4D_OUT="$BUILD_DIR/BENCH_sec4d_summary.txt"
"$BUILD_DIR/bench_sec4d_summary" --json="$SEC4D_JSON" > "$SEC4D_OUT"
for line in 'IOMMU average performance overhead:' \
            'NeuMMU average performance overhead:' \
            'Walk DRAM transaction reduction:' \
            'Translation energy reduction:'; do
  if ! grep -q "$line" "$SEC4D_OUT"; then
    echo "error: bench_sec4d_summary printed no '$line' line" >&2
    exit 1
  fi
done
for key in '"NeuMMU.RNN-3_b08"' '"normPerf"'; do
  if ! grep -q "$key" "$SEC4D_JSON"; then
    echo "error: bench_sec4d_summary JSON is missing $key" >&2
    exit 1
  fi
done
echo "grid harness report: $SEC4D_JSON"

# A bench whose requested --json file cannot be written must fail,
# and a table-only bench must still honour --json.
if "$BUILD_DIR/bench_fig15_numa_embeddings" \
    --json="$BUILD_DIR/no-such-dir/fig15.json" > /dev/null 2>&1; then
  echo "error: a bench exited 0 with an unwritable --json path" >&2
  exit 1
fi
TABLE1_JSON="$BUILD_DIR/BENCH_table1_config.json"
rm -f "$TABLE1_JSON"
"$BUILD_DIR/bench_table1_config" --json="$TABLE1_JSON" > /dev/null
if [[ ! -s "$TABLE1_JSON" ]]; then
  echo "error: bench_table1_config --json wrote no file" >&2
  exit 1
fi

# --- SweepEngine gates -------------------------------------------------
# The sweep tool and its checked-in manifests are load-bearing: the
# smoke manifest pins failure isolation, the golden-matrix manifest
# pins parallel == serial byte-identity, and the merged JSON is the
# scaling-trajectory artifact. A build where any of them silently
# vanished must not pass.
if [[ ! -x "$BUILD_DIR/neummu_sweep" ]]; then
  echo "error: neummu_sweep was not built" >&2
  exit 1
fi
for manifest in scripts/sweep_smoke.jsonl scripts/golden_matrix.jsonl; do
  if [[ ! -f "$manifest" ]]; then
    echo "error: sweep manifest $manifest is missing" >&2
    exit 1
  fi
done

# Failure-isolation smoke: the manifest contains one deliberately
# broken job (bad_knob); the sweep must finish with exactly that one
# failure reported in the merged output.
SMOKE_JSON="$BUILD_DIR/BENCH_sweep_smoke.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/sweep_smoke.jsonl -j 2 \
    --json="$SMOKE_JSON" > /dev/null
if ! grep -q '"failures": 1' "$SMOKE_JSON"; then
  echo "error: sweep smoke did not report exactly 1 failed job" >&2
  exit 1
fi
if ! grep -q '"ok": false' "$SMOKE_JSON"; then
  echo "error: sweep smoke lost the failed job's record" >&2
  exit 1
fi
echo "sweep smoke report: $SMOKE_JSON"

# An unwritable --json/--csv/--collapsed/--trace-dir path is exit
# code 2, never a silent 0, and it is caught before any job runs.
for out_flag in --json --csv --collapsed --trace-dir; do
  set +e
  out="$("$BUILD_DIR/neummu_sweep" \
      --grid="workloads=dense:model=CNN1,batch=1,layers=1" \
      "$out_flag=$BUILD_DIR/no-such-dir/sweep.out" 2> /dev/null)"
  rc=$?
  set -e
  if [[ "$rc" -ne 2 ]]; then
    echo "error: neummu_sweep $out_flag to an unwritable path exited" \
         "$rc, expected 2" >&2
    exit 1
  fi
  if grep -q 'sweep complete' <<< "$out"; then
    echo "error: neummu_sweep $out_flag ran the sweep before" \
         "rejecting the unwritable path" >&2
    exit 1
  fi
done

# Parallel golden matrix, CLI path: the 16-config matrix must merge
# byte-identically whether run on 1 thread or N. (test_golden_stats
# pins the same property in-process, plus each dump against its
# golden file.)
SWEEP_SERIAL="$BUILD_DIR/BENCH_sweep_golden_serial.json"
SWEEP_PAR="$BUILD_DIR/BENCH_sweep_golden_par.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/golden_matrix.jsonl \
    -j 1 --timing=0 --quiet=1 --strict=1 --json="$SWEEP_SERIAL" \
    > /dev/null
"$BUILD_DIR/neummu_sweep" --manifest=scripts/golden_matrix.jsonl \
    -j "$(nproc)" --timing=0 --quiet=1 --strict=1 \
    --json="$SWEEP_PAR" > /dev/null
if ! cmp -s "$SWEEP_SERIAL" "$SWEEP_PAR"; then
  echo "error: parallel golden-matrix sweep is not byte-identical" \
       "to the serial run" >&2
  exit 1
fi

# Scaling-trajectory point: the same matrix with reps lengthening
# each job, serial baseline measured in-process, wall clock + speedup
# recorded in the merged JSON. CI archives the file, so the artifact
# series tracks how sweep throughput scales on CI hardware.
SWEEP_JSON="$BUILD_DIR/BENCH_sweep.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/golden_matrix.jsonl \
    -j "$(nproc)" --reps=5 --serial-baseline=1 --quiet=1 --strict=1 \
    --json="$SWEEP_JSON"
if ! grep -q '"speedup"' "$SWEEP_JSON"; then
  echo "error: sweep report carries no serial-baseline speedup" >&2
  exit 1
fi
echo "sweep scaling report: $SWEEP_JSON"

# --- Serving gates -----------------------------------------------------
# Open-loop serving mode: the ServingEngine must survive a Poisson run
# and a tenant-churn run end to end as neummu_sweep jobs (serve.enabled=1
# plus a cycle limit, no workloads), and its dump must be
# byte-reproducible for the same seed.

# Poisson smoke: quantiles and windowed series must be in the JSON.
SERVE_POISSON="$BUILD_DIR/BENCH_serve_poisson.json"
"$BUILD_DIR/neummu_sweep" \
    --grid="numNpus=4;serve.enabled=1;serve.process=poisson;limit=2000000" \
    --quiet=1 --strict=1 --json="$SERVE_POISSON" > /dev/null
for key in '"p50"' '"p99"' '"p999"' '"windowArrivals"' \
           '"arrivalDigestLo"'; do
  if ! grep -q "$key" "$SERVE_POISSON"; then
    echo "error: serving dump is missing $key" >&2
    exit 1
  fi
done

# Tenant-churn smoke: address spaces must be created and torn down
# (admitted > initial cohort, retired > 0, pages released). The
# report printed after the sweep must carry the per-tenant table.
SERVE_CHURN_SET="serve.enabled=1;seed=7;numNpus=4;paging.enabled=1;\
paging.residentLimitPages=96;paging.faultLatency=1000;\
serve.process=bursty;serve.tenants=6;serve.demandPaged=1;\
serve.lifetimeRequests=8;serve.workload=embedding:footprint=256K,\
accesses=16"
SERVE_CHURN="$BUILD_DIR/BENCH_serve_churn.json"
SERVE_CHURN_OUT="$BUILD_DIR/BENCH_serve_churn.txt"
"$BUILD_DIR/neummu_sweep" --grid="limit=4000000" \
    --set="$SERVE_CHURN_SET" --timing=0 --strict=1 \
    --json="$SERVE_CHURN" > "$SERVE_CHURN_OUT"
if grep -q '"retired": 0' "$SERVE_CHURN"; then
  echo "error: serving churn run retired no tenants" >&2
  exit 1
fi
if ! grep -q '"releasedPages"' "$SERVE_CHURN"; then
  echo "error: serving churn run released no pages" >&2
  exit 1
fi
for line in 'serving report' 'tenant   slot'; do
  if ! grep -q "$line" "$SERVE_CHURN_OUT"; then
    echo "error: serving churn run printed no '$line'" >&2
    exit 1
  fi
done

# Byte-identity: the same seed twice.
SERVE_A="$BUILD_DIR/BENCH_serve_rep.json"
"$BUILD_DIR/neummu_sweep" --grid="limit=4000000" \
    --set="$SERVE_CHURN_SET" --timing=0 --quiet=1 --strict=1 \
    --json="$SERVE_A" > /dev/null
if ! cmp -s "$SERVE_CHURN" "$SERVE_A"; then
  echo "error: same-seed serving runs dumped different stats" >&2
  exit 1
fi
echo "serving determinism gate: same-seed dumps byte-identical"

# Serving benchmark: the acceptance scenario (64 NPUs, >100 churning
# demand-paged tenants, >=10M cycles) with its self-certifying
# checks; the JSON is archived as the serving perf artifact.
SERVING_JSON="$BUILD_DIR/BENCH_serving.json"
"$BUILD_DIR/bench_serving" --json="$SERVING_JSON" > /dev/null
if [[ ! -s "$SERVING_JSON" ]]; then
  echo "error: bench_serving produced no JSON report" >&2
  exit 1
fi
for key in '"serving.churn64"' '"serving.steady"' '"p50"' '"p99"' \
           '"p999"' '"evictions"' '"shootdowns"' \
           '"churnBothHalves": 1' '"identicalSameSeed": 1'; do
  if ! grep -q "$key" "$SERVING_JSON"; then
    echo "error: serving report is missing $key" >&2
    exit 1
  fi
done
echo "serving report: $SERVING_JSON"

# --- Design-zoo gates --------------------------------------------------
# The MMU design zoo: every registered translation design crossed
# with the dense/embedding/hot-set/serving points, plus one
# deliberately unknown design (bad_design) the factory must reject
# without killing the sweep -- the manifest-level failure-isolation
# gate for the design registry.
if [[ ! -f scripts/design_zoo.jsonl ]]; then
  echo "error: sweep manifest scripts/design_zoo.jsonl is missing" >&2
  exit 1
fi
ZOO_SWEEP="$BUILD_DIR/BENCH_design_zoo_sweep.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/design_zoo.jsonl -j 2 \
    --timing=0 --json="$ZOO_SWEEP" > /dev/null
if ! grep -q '"failures": 1' "$ZOO_SWEEP"; then
  echo "error: design-zoo sweep did not report exactly 1 failed" \
       "job (bad_design)" >&2
  exit 1
fi
if ! grep -q '"ok": false' "$ZOO_SWEEP"; then
  echo "error: design-zoo sweep lost the failed job's record" >&2
  exit 1
fi
# The unknown-design error must enumerate the registry, so a typo'd
# design name is self-correcting from the merged report alone.
if ! grep -q 'oracle|iommu|neummu|range|pomtlb|nmt' \
    "$ZOO_SWEEP"; then
  echo "error: bad_design error does not enumerate the registered" \
       "designs" >&2
  exit 1
fi

# Byte-identity across thread counts for the whole zoo: every design
# (including the DRAM-timed POM-TLB and the near-memory NMT) must be
# deterministic under the parallel sweep service.
ZOO_SERIAL="$BUILD_DIR/BENCH_design_zoo_serial.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/design_zoo.jsonl -j 1 \
    --timing=0 --json="$ZOO_SERIAL" > /dev/null
if ! cmp -s "$ZOO_SWEEP" "$ZOO_SERIAL"; then
  echo "error: parallel design-zoo sweep is not byte-identical to" \
       "the serial run" >&2
  exit 1
fi
echo "design-zoo sweep report: $ZOO_SWEEP (parallel == serial)"

# Cross-design comparison table: bench_design_zoo runs the same
# points in-process, self-checks that every cell completed, and its
# JSON is the archived design-comparison artifact.
ZOO_JSON="$BUILD_DIR/BENCH_design_zoo.json"
"$BUILD_DIR/bench_design_zoo" --json="$ZOO_JSON" > /dev/null
if [[ ! -s "$ZOO_JSON" ]]; then
  echo "error: bench_design_zoo produced no JSON report" >&2
  exit 1
fi
for key in '"zoo.range.dense"' '"zoo.pomtlb.embed"' \
           '"zoo.nmt.hotset"' '"zoo.neummu.serve"' '"normPerf"' \
           '"shootdowns"' '"goodput"' '"energyNjPerTransl"'; do
  if ! grep -q "$key" "$ZOO_JSON"; then
    echo "error: design-zoo report is missing $key" >&2
    exit 1
  fi
done
# Every zoo design reports translation energy (the walker-core model
# plus design-specific structures, e.g. POM-TLB's in-DRAM sets); a
# zero-energy pomtlb row means the override vanished.
if command -v python3 > /dev/null; then
  python3 - "$ZOO_JSON" << 'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
for design in ("iommu", "neummu", "range", "pomtlb", "nmt"):
    row = report.get(f"zoo.{design}.dense", {})
    if float(row.get("translationEnergyNj", 0.0)) <= 0.0:
        sys.exit(f"error: zoo design {design} reports no "
                 "translation energy")
print("design-zoo energy rows: all designs report energy")
EOF
fi
echo "design-zoo report: $ZOO_JSON"

# --- Tracing gates -----------------------------------------------------
# Request-lifecycle tracing: the churn serving scenario with a tail
# threshold must produce a Perfetto-loadable Chrome trace
# (--trace-dir) that is byte-identical across two same-seed runs, and
# the trace must pass the schema validator. With trace.* off (every
# run above), the golden matrix and serving dumps already pinned
# byte-identity -- the off path adds nothing to the dump. Belt and
# braces: an explicit trace.enabled=0 run (through --set, so the job
# id stays job0) must dump byte-identically to the plain run.
TRACE_OFF="$BUILD_DIR/BENCH_serve_traceoff.json"
"$BUILD_DIR/neummu_sweep" --grid="limit=4000000" \
    --set="$SERVE_CHURN_SET;trace.enabled=0" --timing=0 --quiet=1 \
    --strict=1 --json="$TRACE_OFF" > /dev/null
if ! cmp -s "$SERVE_CHURN" "$TRACE_OFF"; then
  echo "error: trace.enabled=0 changed the serving dump; the off" \
       "path must be invisible" >&2
  exit 1
fi

TRACE_DIR_A="$BUILD_DIR/traces_a"
TRACE_DIR_B="$BUILD_DIR/traces_b"
rm -rf "$TRACE_DIR_A" "$TRACE_DIR_B"
mkdir -p "$TRACE_DIR_A" "$TRACE_DIR_B"
TRACE_STATS="$BUILD_DIR/BENCH_serve_traced.json"
TRACE_SET="$SERVE_CHURN_SET;trace.enabled=1;trace.tailThreshold=20000"
"$BUILD_DIR/neummu_sweep" --grid="limit=4000000" \
    --set="$TRACE_SET" --trace-dir="$TRACE_DIR_A" --quiet=1 \
    --strict=1 --json="$TRACE_STATS" > /dev/null
"$BUILD_DIR/neummu_sweep" --grid="limit=4000000" \
    --set="$TRACE_SET" --trace-dir="$TRACE_DIR_B" --quiet=1 \
    --strict=1 > /dev/null
TRACE_A="$TRACE_DIR_A/job0.trace.json"
if ! cmp -s "$TRACE_A" "$TRACE_DIR_B/job0.trace.json"; then
  echo "error: same-seed Chrome traces differ" >&2
  exit 1
fi
if command -v python3 > /dev/null; then
  python3 scripts/check_trace.py "$TRACE_A" --min-events=10
fi
# The traced dump must carry the trace.* stats group with the counted
# ring-drop statistic (zero is fine; absent is not).
if ! grep -q '"dropped"' "$TRACE_STATS"; then
  echo "error: traced serving dump is missing the trace.dropped" \
       "statistic" >&2
  exit 1
fi
echo "tracing gate: same-seed traces identical, schema valid ($TRACE_A)"

# Ad-hoc traced dense job: its Chrome trace must validate too.
ADHOC_DIR="$BUILD_DIR/traces_adhoc"
rm -rf "$ADHOC_DIR"
mkdir -p "$ADHOC_DIR"
"$BUILD_DIR/neummu_sweep" --grid="workloads=dense:model=CNN1,layers=4" \
    --set=trace.enabled=1 --trace-dir="$ADHOC_DIR" --quiet=1 \
    --strict=1 > /dev/null
if command -v python3 > /dev/null; then
  python3 scripts/check_trace.py "$ADHOC_DIR/job0.trace.json"
elif [[ ! -s "$ADHOC_DIR/job0.trace.json" ]]; then
  echo "error: traced dense job wrote no Chrome trace" >&2
  exit 1
fi

# Honest tracing: a ring too small for the run drops spans; the
# decomposition header must say so and stderr must warn, naming the
# job, the drop count and the traced count.
DROP_OUT="$BUILD_DIR/BENCH_trace_dropped.txt"
DROP_ERR="$BUILD_DIR/BENCH_trace_dropped.err"
"$BUILD_DIR/neummu_sweep" --grid="workloads=dense:model=CNN1,layers=4" \
    --set="trace.enabled=1;trace.ring=1024" --strict=1 \
    > "$DROP_OUT" 2> "$DROP_ERR"
if ! grep -q "INCOMPLETE: [0-9]* oldest spans dropped" "$DROP_OUT"; then
  echo "error: a decomposition over dropped spans does not say so" >&2
  exit 1
fi
if ! grep -q "warning: job 'job0' dropped [0-9]* trace spans.* newest \
[0-9]* translation" "$DROP_ERR"; then
  echo "error: dropped trace spans raised no warning on stderr" >&2
  exit 1
fi
echo "tracing gate: dropped spans are reported ($DROP_ERR)"
