#!/usr/bin/env python3
"""Verify a streaming run report proves out-of-core behavior.

Reads the JSON run report written by `anonymize_csv --report=...` for a
file-to-file (CsvFileSource -> CsvFileSink) run and asserts:

  * the data plane really was file-to-file (io.source/io.sink);
  * the input was read once: the planning scan (pass 0) is the only pass
    over the source and decoded no blocks of the index it reads
    (io.pass_blocks[0] == 0).  A CSV input is spilled to a private
    glovebin by that scan; the report's pass_blocks, file_blocks,
    blocks_read and bytes_mapped are the spill's;
  * every later pass (shard batches, then halo-reconcile passes) is a
    subset fetch: it fetched strictly fewer fingerprints than the scan
    counted, from a non-empty strict subset of the file's blocks, the
    later passes together fetched each fingerprint exactly once, and
    pass_blocks lines up with the passes and sums to blocks_read;
  * the reconciliation itself streamed: the report counts at least
    --min-reconcile-passes reconcile passes (set 0 for --border=none
    runs, which defer nothing);
  * the passes add up exactly: one planning scan, one pass per shard
    batch (the obs counter stream.shard_batches) and one per reconcile
    pass (metrics.reconcile_passes), nothing else;
  * the process's peak resident set stayed below the given fraction of
    the dataset's *materialized* size — the memory a collect-first run
    pays just to hold the samples (56 bytes each: 6 doubles + the
    contributors counter, before any container overhead), i.e. a strict
    lower bound on the in-memory representation.

Used by the CI "streaming under capped address space" steps together with
a ulimit -v cap; this script checks the report half of the claim.

With --indexed the report must come from a glovebin-input run
(GlovebinSource -> CsvFileSink): the same checks hold, with the planning
scan served by the input file's own footer index instead of a spill.

Usage:
  python3 tools/check_streaming_report.py REPORT.json [--max-rss-fraction 0.5]
  python3 tools/check_streaming_report.py REPORT.json --indexed

Exit codes: 0 ok, 1 claim violated, 2 usage error.
"""

import argparse
import json
import sys

BYTES_PER_SAMPLE = 56  # sigma (4 doubles) + tau (2 doubles) + contributors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--max-rss-fraction", type=float, default=0.5,
                        help="allowed peak RSS as a fraction of the "
                             "materialized dataset floor (default 0.5)")
    parser.add_argument("--min-reconcile-passes", type=int, default=1,
                        help="required halo-reconcile chunk passes "
                             "(default 1; use 0 for --border=none runs)")
    parser.add_argument("--indexed", action="store_true",
                        help="expect a glovebin-input run (the planning "
                             "scan reads the input's own footer index)")
    args = parser.parse_args()

    try:
        doc = json.loads(open(args.report).read())
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    io = doc.get("io", {})
    counters = doc.get("counters", {})
    failures = []

    expected_source = "glovebin-file" if args.indexed else "csv-file"
    if io.get("source") != expected_source or io.get("sink") != "csv-file":
        failures.append(f"run was not {expected_source} -> csv-file: "
                        f"source={io.get('source')} sink={io.get('sink')}")

    passes = io.get("pass_fingerprints", [])
    if len(passes) < 3:
        failures.append(f"expected a planning pass plus >= 2 batch passes, "
                        f"got {len(passes)}: {passes}")
    if passes and passes[0] <= 0:
        failures.append(f"the planning scan read no fingerprints: {passes}")
    for i, count in enumerate(passes[1:], start=1):
        if not 0 < count < passes[0]:
            failures.append(
                f"pass {i} fetched {count} of {passes[0]} fingerprints — "
                "a pass after the scan must fetch a strict, non-empty "
                "subset")
    if passes and sum(passes[1:]) != passes[0]:
        failures.append(
            f"later passes fetched {sum(passes[1:])} fingerprints, not the "
            f"scan's {passes[0]} — each must be fetched exactly once")

    pass_blocks = io.get("pass_blocks", [])
    file_blocks = int(io.get("file_blocks", 0))
    blocks_read = int(io.get("blocks_read", 0))
    bytes_mapped = int(io.get("bytes_mapped", 0))
    if file_blocks <= 0:
        failures.append("report holds no file_blocks (no index was read)")
    if bytes_mapped <= 0:
        failures.append("report holds no bytes_mapped")
    if len(pass_blocks) != len(passes):
        failures.append(f"pass_blocks {pass_blocks} does not line up "
                        f"with {len(passes)} passes")
    if pass_blocks and pass_blocks[0] != 0:
        failures.append(f"planning pass decoded {pass_blocks[0]} blocks "
                        "— it should be served from the footer index alone")
    for i, blocks in enumerate(pass_blocks[1:], start=1):
        if not 0 < blocks < file_blocks:
            failures.append(
                f"pass {i} decoded {blocks} of {file_blocks} blocks — a "
                "block fetch must read a strict, non-empty subset of the "
                "file")
    if blocks_read != sum(pass_blocks):
        failures.append(f"blocks_read={blocks_read} != "
                        f"sum(pass_blocks)={sum(pass_blocks)}")
    print(f"block fetches: {file_blocks} blocks in file; per pass "
          f"{pass_blocks} ({bytes_mapped / 2**20:.1f} MiB mapped)")

    metrics = doc.get("metrics", {})
    reconcile_passes = int(metrics.get("reconcile_passes", 0))
    if reconcile_passes < args.min_reconcile_passes:
        failures.append(
            f"expected >= {args.min_reconcile_passes} halo-reconcile chunk "
            f"passes, report counts {reconcile_passes} — the bordered "
            "reconciliation did not stream")
    shard_batches = int(doc.get("obs", {}).get("stream.shard_batches", 0))
    if len(passes) != 1 + shard_batches + reconcile_passes:
        failures.append(
            f"{len(passes)} passes != 1 planning scan + {shard_batches} "
            f"shard batches + {reconcile_passes} reconcile passes")

    samples = counters.get("input_samples", 0)
    floor = samples * BYTES_PER_SAMPLE
    peak = io.get("peak_rss_bytes", 0)
    if samples == 0:
        failures.append("report holds no input_samples")
    if peak == 0:
        failures.append("report holds no peak_rss_bytes")
    ceiling = int(floor * args.max_rss_fraction)
    print(f"passes: 1 scan of {passes[0] if passes else 0} fingerprints + "
          f"{len(passes) - 1} fetch passes ({reconcile_passes} reconcile)")
    print(f"materialized floor: {samples:,} samples -> {floor / 2**20:.1f} "
          f"MiB; peak rss {peak / 2**20:.1f} MiB "
          f"(ceiling {ceiling / 2**20:.1f} MiB)")
    if peak >= ceiling:
        failures.append(
            f"peak rss {peak:,} B not below {args.max_rss_fraction:.0%} of "
            f"the materialized dataset floor {floor:,} B — the run did not "
            "stay out-of-core")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: streaming run stayed out-of-core")
    return 0


if __name__ == "__main__":
    sys.exit(main())
