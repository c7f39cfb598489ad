#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by the tracing
subsystem (neummu_sweep --trace-dir=DIR writes DIR/<job id>.trace.json
for every job run with trace.enabled=1).

Usage: check_trace.py FILE.trace.json [--min-events=N]

Checks the schema Perfetto / chrome://tracing expects:
  - top level is an object with a "traceEvents" array
  - every event is an object with a "ph" phase
  - "X" (complete) events carry name, ts, dur, pid, tid; ts/dur are
    non-negative integers (simulated ticks never go backwards)
  - "M" (metadata) events are process_name/thread_name records with
    an args.name string
  - no other phases are emitted by the simulator's sink

Exits non-zero with a diagnostic on the first violation, so CI can
gate on "the artifact is loadable" without a browser.
"""

import argparse
import json
import sys


def fail(msg):
    sys.exit(f"check_trace: FAIL: {msg}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("trace")
    parser.add_argument("--min-events", type=int, default=1,
                        help="require at least this many span events")
    opts = parser.parse_args()

    try:
        with open(opts.trace) as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {opts.trace}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{opts.trace} is not valid JSON: {e.msg} at line "
             f"{e.lineno}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents is not an array")

    spans = 0
    metas = 0
    lanes = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where} is not an object")
        ph = ev.get("ph")
        if ph == "X":
            spans += 1
            for key in ("name", "ts", "dur", "pid", "tid"):
                if key not in ev:
                    fail(f"{where} (X) is missing '{key}'")
            for key in ("ts", "dur", "pid", "tid"):
                v = ev[key]
                if not isinstance(v, int) or v < 0:
                    fail(f"{where}.{key} = {v!r} is not a "
                         f"non-negative integer")
            if not isinstance(ev["name"], str) or not ev["name"]:
                fail(f"{where}.name is not a non-empty string")
            lanes.add((ev["pid"], ev["tid"]))
        elif ph == "M":
            metas += 1
            if ev.get("name") not in ("process_name", "thread_name"):
                fail(f"{where} (M) has unexpected name "
                     f"{ev.get('name')!r}")
            args = ev.get("args")
            if (not isinstance(args, dict)
                    or not isinstance(args.get("name"), str)):
                fail(f"{where} (M) args.name missing or not a string")
        else:
            fail(f"{where} has unexpected phase {ph!r}")

    if spans < opts.min_events:
        fail(f"only {spans} span events (expected >= "
             f"{opts.min_events}); the trace is empty or truncated")
    print(f"check_trace: OK: {spans} spans, {metas} metadata records,"
          f" {len(lanes)} lanes in {opts.trace}")


if __name__ == "__main__":
    main()
