#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON written by `--trace-out`.

Reads the trace file produced by the obs span recorder and asserts:

  * the document is well-formed JSON with a `traceEvents` array and
    every event carries the fields Chrome's trace viewer requires
    (name, cat, ph, ts, pid, tid);
  * span names match the obs naming convention `[a-z0-9_.]+` and the
    category is always "glove";
  * begin/end events balance: replaying each thread's stream against a
    stack never pops an empty stack or mismatched name, and every
    thread's stack drains to empty (the exporter promises this by
    dropping unbalanced events, so a violation means a recorder bug);
  * within each thread timestamps are non-decreasing and every span's
    end is at or after its begin;
  * each `--require NAME` phase appears at least once (use it to pin
    the data-plane spans a streaming run must produce, e.g.
    stream.pass1.scan / stream.shard / stream.reconcile.chunk);
  * each `--min-threads NAME=N` span runs on at least N threads at once:
    at some instant N spans named NAME are open on N distinct threads.
    This is a parallelism tripwire — e.g. `stream.reconcile.chunk=2`
    fails a run whose halo-reconcile chunks ran one at a time.

Used by the CI "streaming under capped address space" steps together
with check_streaming_report.py; this script checks the trace half.

Usage:
  python3 tools/check_trace.py TRACE.json [--require stream.shard ...]
      [--min-threads stream.reconcile.chunk=2 ...]

Exit codes: 0 ok, 1 claim violated, 2 usage error.
"""

import argparse
import json
import re
import sys

NAME_RE = re.compile(r"^[a-z0-9_.]+$")
REQUIRED_FIELDS = ("name", "cat", "ph", "ts", "pid", "tid")


def fail(message: str) -> int:
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    return 1


def peak_threads(intervals) -> int:
    """Most distinct threads with an interval open at one instant; an
    interval ending exactly where another begins does not overlap it."""
    edges = sorted([(begin, 1, tid) for tid, begin, _ in intervals] +
                   [(end, -1, tid) for tid, _, end in intervals])
    open_by_tid = {}
    peak = 0
    for _, delta, tid in edges:
        open_by_tid[tid] = open_by_tid.get(tid, 0) + delta
        peak = max(peak, sum(1 for n in open_by_tid.values() if n > 0))
    return peak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="span name that must occur at least once "
                             "(repeatable)")
    parser.add_argument("--min-threads", action="append", default=[],
                        metavar="NAME=N",
                        help="span NAME must be open on at least N threads "
                             "at once somewhere in the trace (repeatable)")
    args = parser.parse_args()

    min_threads = {}
    for spec in args.min_threads:
        name, _, count = spec.partition("=")
        if not NAME_RE.match(name) or not count.isdigit() or int(count) < 1:
            print(f"check_trace: bad --min-threads {spec!r} "
                  f"(want NAME=N, N >= 1)", file=sys.stderr)
            return 2
        min_threads[name] = int(count)

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        print(f"check_trace: cannot read {args.trace}: {error}",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        return fail(f"not valid JSON: {error}")

    if not isinstance(document, dict):
        return fail("top-level value is not an object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return fail("missing traceEvents array")

    stacks = {}      # tid -> [names of open spans]
    last_ts = {}     # tid -> most recent timestamp
    begin_ts = {}    # tid -> [ts of open spans]
    seen = set()
    intervals = {name: [] for name in min_threads}  # [(tid, begin, end)]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            return fail(f"{where} is not an object")
        for field in REQUIRED_FIELDS:
            if field not in event:
                return fail(f"{where} lacks required field '{field}'")
        name, phase, tid = event["name"], event["ph"], event["tid"]
        ts = event["ts"]
        if not isinstance(name, str) or not NAME_RE.match(name):
            return fail(f"{where} name {name!r} violates [a-z0-9_.]+")
        if event["cat"] != "glove":
            return fail(f"{where} category {event['cat']!r} != 'glove'")
        if not isinstance(ts, (int, float)) or ts < 0:
            return fail(f"{where} has invalid ts {ts!r}")
        if phase not in ("B", "E"):
            return fail(f"{where} has unsupported phase {phase!r}")
        if ts < last_ts.get(tid, 0.0):
            return fail(f"{where} goes back in time on tid {tid} "
                        f"({ts} < {last_ts[tid]})")
        last_ts[tid] = ts
        stack = stacks.setdefault(tid, [])
        opened = begin_ts.setdefault(tid, [])
        if phase == "B":
            stack.append(name)
            opened.append(ts)
            seen.add(name)
        else:
            if not stack:
                return fail(f"{where} ends '{name}' with no open span "
                            f"on tid {tid}")
            if stack[-1] != name:
                return fail(f"{where} ends '{name}' but '{stack[-1]}' "
                            f"is open on tid {tid}")
            stack.pop()
            begin = opened.pop()
            if ts < begin:
                return fail(f"{where} '{name}' ends before it begins")
            if name in intervals:
                intervals[name].append((tid, begin, ts))

    for tid, stack in sorted(stacks.items()):
        if stack:
            return fail(f"tid {tid} leaves spans open: {stack}")

    missing = [name for name in args.require if name not in seen]
    if missing:
        return fail(f"required spans never occur: {missing} "
                    f"(saw {sorted(seen)})")

    for name, wanted in sorted(min_threads.items()):
        peak = peak_threads(intervals[name])
        if peak < wanted:
            return fail(f"span '{name}' ran on at most {peak} thread(s) at "
                        f"once, --min-threads wants {wanted}")

    spans = sum(1 for e in events if e["ph"] == "B")
    print(f"check_trace: OK: {spans} spans across "
          f"{len(stacks)} threads in {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
