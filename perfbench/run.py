#!/usr/bin/env python3
"""Repository benchmark: host run/setup time, memory and paper fidelity.

    python3 perfbench/run.py --workload dense_paper --seed 1 \
        --seconds 20 --trace 0

Builds the simulator and the perfbench binary in Release (under
$CARGO_TARGET_DIR, default .bench_build, never touching the top-level
CMakeLists.txt), runs the binary on one workload, applies the
correctness gates and prints every metric with its unit. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 gives the end-to-end metrics from untraced,
unprofiled jobs; --trace 1 gives the per-layer metrics from separate
profiled, traced and (serve_churn64) sharded passes. A full result
file with provenance is written under the build directory. See
perfbench/README.md for the metric glossary.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("dense_paper", "paging_oversub", "serve_churn64")

# Section IV-D: NeuMMU's mean performance overhead over an oracle MMU.
PAPER_NEUMMU_OVERHEAD_PCT = 0.06

# A binary run longer than this is a hang, not a measurement.
RUN_TIMEOUT_S = 170


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configure (once) and build; returns the binary path or exits."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                sys.exit(f"perfbench: cannot run {cmd[0]}: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit(f"perfbench: build failed ({' '.join(cmd)}); "
                         f"see {log_path}")
    return os.path.join(bdir, "perfbench")


def run_binary(exe, args):
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--mode={'layers' if args.trace else 'e2e'}",
           f"--size={args.size}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: binary exceeded {RUN_TIMEOUT_S}s")
    if proc.returncode != 0:
        # A NEUMMU_ASSERT or NEUMMU_FATAL ends the whole process, so it
        # cannot be counted per job; the run fails instead.
        sys.exit(f"perfbench: binary exited with {proc.returncode}")
    return json.loads(proc.stdout)


def median(xs):
    return statistics.median(xs) if xs else None


def ratio(num, den):
    return num / den if num is not None and den else None


def paper_fidelity(cells, job):
    """Mean NeuMMU overhead over the oracle across the dense models.

    Returns (rows, mean_pct, gap_pp), or None without a finished job.
    """
    if job is None:
        return None
    cycles = dict(zip((c["id"] for c in cells), job["cycles"]))
    rows = []
    for cid in cycles:
        model, design = cid.rsplit("_", 1)
        if design == "neummu":
            oracle = cycles[model + "_oracle"]
            rows.append((model, oracle, cycles[cid],
                         (1.0 - oracle / cycles[cid]) * 100.0))
    mean_pct = statistics.fmean(r[3] for r in rows)
    return rows, mean_pct, abs(mean_pct - PAPER_NEUMMU_OVERHEAD_PCT)


def gate(doc):
    """Count failed jobs: errors, unfinished work, counter drift.

    Every job of a workload must reproduce the first finished untraced
    job's stats digest (the profiled and traced passes too, since both
    switches are observational); the sharded passes form their own
    machine and must agree with each other across shard counts. A
    failed job's partial digest is never a reference.
    """
    failures = []
    refs = {}
    for i, job in enumerate(doc["jobs"]):
        group = "sharded" if job["pass"].startswith("shards") else "serial"
        if not job["ok"]:
            failures.append(f"job {i} ({job['pass']}): {job['error']}")
            continue
        ref = refs.setdefault(group, job["digest"])
        if job["digest"] != ref:
            failures.append(f"job {i} ({job['pass']}): stats digest "
                            f"{job['digest']} != {ref}")
    for job in doc["fidelity_job"]:
        if not job["ok"]:
            failures.append(f"fidelity job: {job['error']}")
    return failures


def finished(jobs):
    """The jobs that ran every cell; only these carry metrics."""
    return [j for j in jobs if j["ok"]]


def end_to_end(doc):
    ok = finished(doc["jobs"])
    timed = [j for j in ok if not j["warmup"]]
    if doc["workload"] == "dense_paper":
        cells, refs = doc["cells"], ok
    else:
        cells, refs = doc["fidelity_cells"], finished(doc["fidelity_job"])
    fidelity = paper_fidelity(cells, refs[0] if refs else None)
    extra = {"samples": len(timed)}
    gap = None
    if fidelity is None:
        print("paper fidelity: absent (no finished dense job)")
    else:
        rows, mean_pct, gap = fidelity
        print(f"paper fidelity: NeuMMU overhead {mean_pct:.4f}% vs paper "
              f"{PAPER_NEUMMU_OVERHEAD_PCT}% over {len(rows)} cells:")
        for model, oracle, neummu, pct in rows:
            print(f"  {model:6s} oracle {oracle:>10d}  neummu {neummu:>10d}"
                  f"  overhead {pct:.4f}%")
        extra["paper"] = {
            "neummu_overhead_pct": mean_pct,
            "paper_overhead_pct": PAPER_NEUMMU_OVERHEAD_PCT,
            "cells": [dict(zip(("model", "oracle_cycles", "neummu_cycles",
                                "overhead_pct"), r)) for r in rows]}
    values = {
        "run_s": median([j["run_s"] for j in timed]),
        "setup_s": median([j["bind_s"] + j["system_s"] + j["place_s"]
                           for j in timed]),
        "peak_rss_mb": doc["peak_rss_mb"] if timed else None,
        "paper_gap_pp": gap,
    }
    return values, extra


def per_layer(doc):
    passes = {}
    for j in finished(doc["jobs"]):
        passes.setdefault(j["pass"], []).append(j)
    plain = passes.get("plain", [])
    prof = passes.get("profiled", [])
    traced = passes.get("traced", [])
    shards1 = passes.get("shards1", [])
    shards_n = passes.get("shardsN", [])

    def count(jobs, name):
        """A deterministic counter (equal across jobs by the gate)."""
        return jobs[0]["counters"].get(name) if jobs else None

    def per(jobs, f):
        vals = [f(j) for j in jobs]
        vals = [v for v in vals if v is not None]
        return median(vals)

    def ns_per_call(slot):
        def f(j):
            calls, nanos = j["prof"][slot]
            return nanos / calls if calls else None
        return per(prof, f)

    def c(name):
        return count(plain, name)

    def total(*names):
        vals = [c(n) for n in names]
        return None if None in vals else sum(vals)

    events = c("events")
    paging = bool(c("paging_cells"))
    serving = bool(c("serving_cells"))
    plain_run = median([j["run_s"] for j in plain])
    v = {
        "sim.events": events,
        "sim.ns_per_event": per(plain,
                                lambda j: ratio(j["run_s"] * 1e9, events)),
        "sim.kernel_self_ns_per_event":
            per(prof, lambda j: ratio(j["prof"]["kernel"][1], events)),
        "sim.train_inlined_frac": ratio(c("train_sub_inlined"), events),
        "sim.same_tick_shortcut_frac": ratio(c("same_tick_shortcuts"),
                                             events),
        "sim.peak_queue_depth": c("peak_queue_depth"),
        "npu.dma_issue_ns_per_call": ns_per_call("dmaIssue"),
        "npu.dma_data_ns_per_call": ns_per_call("dmaData"),
        "npu.dma_stall_cycles": c("dma_stall_cycles"),
        "mmu.translate_ns_per_call": ns_per_call("mmuTranslate"),
        "mmu.walk_ns_per_call": ns_per_call("mmuWalk"),
        "mmu.respond_ns_per_call": ns_per_call("mmuRespond"),
        "mmu.tlb_hit_frac": ratio(c("tlb_hits"),
                                  total("tlb_hits", "tlb_misses")),
        "mmu.register_hit_frac": ratio(c("register_hits"),
                                       c("mmu_requests")),
        "mmu.walk_cache_hit_frac": ratio(c("walk_cache_hits"),
                                         c("mmu_requests")),
        "mmu.prmb_merge_frac": ratio(c("prmb_merges"), c("tlb_misses")),
        "mmu.walks": c("walks"),
        "mmu.walk_mem_accesses": c("walk_mem_accesses"),
        "mmu.shootdowns": c("shootdowns") if paging else None,
        "mmu.squashed_walks": c("squashed_walks") if paging else None,
        "mem.access_ns_per_call": ns_per_call("memory"),
        "setup.bind_s": median([j["bind_s"] for j in plain]),
        "setup.system_s": median([j["system_s"] for j in plain]),
        "setup.place_s": median([j["place_s"] for j in plain]),
        "trace.spans": count(traced, "trace_spans"),
        "trace.overhead_frac": (median([j["run_s"] for j in traced])
                                / plain_run - 1.0)
                               if traced and plain_run else None,
    }
    translations = count(traced, "traced_translations")
    for stage in ("walk", "prmb_merge", "queue_delay", "fault"):
        ticks = count(traced, f"stage_{stage}_ticks")
        if stage == "fault" and not paging:
            ticks = None
        v[f"stage.{stage}_ticks"] = ratio(ticks, translations)
    if paging:
        faults = c("paging_faults")
        v.update({
            "paging.faults": faults,
            "paging.evictions": c("paging_evictions"),
            "paging.stall_cycles": c("paging_stall_cycles"),
            "paging.host_ns_per_fault": per(
                prof, lambda j: ratio(j["prof"]["mmuTranslate"][1], faults)),
        })
    if serving:
        v.update({
            "serving.ns_per_request": per(
                prof, lambda j: ratio(j["prof"]["serving"][1],
                                      j["counters"]["serving_arrivals"])),
            "serving.completed": c("serving_completed"),
            "serving.p99_cycles": c("serving_p99_cycles"),
        })
    if shards1 and shards_n:
        windows = count(shards1, "domain_windows")
        v.update({
            "domain.speedup": median([j["run_s"] for j in shards1])
                              / median([j["run_s"] for j in shards_n]),
            "domain.windows": windows,
            "domain.events_per_window": ratio(count(shards1, "events"),
                                              windows),
            "domain.messages_per_window": ratio(
                count(shards1, "domain_messages"), windows),
        })
    extra = {"rounds": len(plain), "shards_n": doc["shards_n"],
             "trace_dropped_spans": count(traced, "trace_dropped")}
    return v, extra


def source_digest():
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(doc, args):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "hardware_concurrency": doc["hardware_concurrency"],
        "compiler": doc["build"]["compiler"],
        "flags": doc["build"]["flags"].strip(),
        "build_type": doc["build"]["build_type"],
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "passes": doc["passes"],
        "cells": doc["cells"],
        "fidelity_cells": doc["fidelity_cells"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long smoke size for tests")
    args = ap.parse_args()

    end_to_end_decl, per_layer_decl = load_declared()
    exe = build()
    doc = run_binary(exe, args)

    failures = gate(doc)
    if args.trace:
        declared, (values, extra) = per_layer_decl, per_layer(doc)
    else:
        declared, (values, extra) = end_to_end_decl, end_to_end(doc)

    print(f"jobs ({args.workload}, seed {args.seed}):")
    for i, j in enumerate(doc["jobs"]):
        print(f"  {i:3d} {j['pass']:9s} digest {j['digest']} "
              f"run_s {j['run_s']:.6f} "
              f"{'warm-up' if j['warmup'] else ''}"
              f"{'' if j['ok'] else 'FAILED: ' + j['error']}")
    for f in failures:
        print(f"GATE FAILED: {f}")

    metrics, absent = {}, []
    print(f"{'metric':32s} {'value':>18s}  unit")
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            # The single-line result needs a number for every declared
            # metric; a layer that does no work on this workload reads
            # 0 there and is listed as absent here and in the file.
            absent.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "absent" if m["name"] in absent else f"{value:.6g}"
        print(f"{m['name']:32s} {shown:>18s}  {m['unit']}")

    attempted = len(doc["jobs"]) + len(doc["fidelity_job"])
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump({"provenance": provenance(doc, args), "result": result,
                   "absent": absent, "details": extra,
                   "gate_failures": failures,
                   "jobs": [{k: j[k] for k in ("pass", "warmup", "ok",
                                               "error", "digest", "bind_s",
                                               "system_s", "place_s",
                                               "run_s")}
                            for j in doc["jobs"]]}, f, indent=1)
    print(f"result file: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
