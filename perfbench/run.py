#!/usr/bin/env python3
"""GLOVE repository benchmark.

Builds perfbench_driver (the glove library plus perfbench/driver.cpp) from
the checkout, generates a workload's input from --seed, runs it for
--seconds, checks every output, and prints the metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload halo-csv --seed 11 --seconds 35 \
      --trace 0

--trace 0 reports the end-to-end metrics from untraced runs.  --trace 1
runs the operation once untraced and once traced (timing wrappers around
the source and sink, the span recorder on, a kernel probe afterwards) and
reports the per-layer metrics, with the trace folded into a layer table.

Workloads, metrics and the deterministic counters pinned per workload are
described in perfbench/README.md.  Exit code 0 means every output check
passed; any failed operation or check exits 1.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing in the source tree

import tracefold  # noqa: E402

EXPECTED_COUNTERS = HERE / "expected_counters.json"
SETUP_REPS = 3
BUILD_TIMEOUT_S = 850
# Once the driver is built, the command ends within 180 s: each driver step
# may use what is left of this budget, and a step that overruns it is killed
# and counts as failed.
RUN_LIMIT_S = 165
deadline = float("inf")
# Share of the traced wall the named layers' self times may leave
# unattributed.
TRACE_RESIDUE_MAX = 0.05

WORKLOADS = {
    "halo-csv": {"default_seed": 11, "serve": False},
    "shards-glovebin": {"default_seed": 3, "serve": False},
    "serve-hourly": {"default_seed": 11, "serve": True},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "users_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "pos_median_m": "m",
    "time_median_min": "min",
    "events_per_s": "1/s",
    "epoch_p50_s": "s",
    "epoch_p75_s": "s",
}


class BenchError(Exception):
    """A step of the benchmark itself failed (not a measured operation)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_driver; returns its path."""
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    commands = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
         "-j", jobs],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(done.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(command))
    return build_dir / "perfbench_driver"


def step(driver, mode, workload, work_dir, *extra):
    """Runs one driver step; returns its JSON result, or None on a crash."""
    # The driver works in relative paths, so file names that end up in the
    # output (the dataset name is the input path) do not depend on where the
    # work directory is.
    command = [str(driver), mode, f"--workload={workload}", "--dir=.",
               *extra]
    left = deadline - time.monotonic()
    try:
        done = subprocess.run(command, cwd=work_dir, capture_output=True,
                              text=True, timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        log(f"step killed after {max(left, 1.0):.0f} s: {' '.join(command)}")
        return None
    if done.returncode != 0 or not done.stdout.strip():
        log(f"step failed ({done.returncode}): {' '.join(command)}")
        log(done.stderr[-2000:])
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def epoch_reports(out_dir):
    """Per-epoch run reports a serve replay left in its output directory."""
    reports = []
    for path in sorted(Path(out_dir).glob("report-*.json")):
        with open(path, "r", encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return reports


def summarize_serve(op, work_dir):
    """Folds a serve replay's epoch reports into the op record."""
    out_dir = work_dir / op["out_dir"]
    reports = epoch_reports(out_dir)
    op["epoch_reports"] = len(reports)
    op["engine_s"] = sum(r["timings"]["total_seconds"] for r in reports)
    op["merges"] = sum(r["counters"]["merges"] for r in reports)
    op["stretch_evaluations"] = sum(
        r["counters"]["stretch_evaluations"] for r in reports)
    op["init_s"] = sum(r["timings"]["init_seconds"] for r in reports)
    op["merge_s"] = sum(r["timings"]["merge_seconds"] for r in reports)
    incremental = [r for r in reports if r["strategy"] == "incremental"]
    op["incremental_new_users"] = sum(
        r["metrics"].get("new_users", 0.0) for r in incremental)
    op["joined_existing_groups"] = sum(
        r["metrics"].get("joined_existing_groups", 0.0) for r in incremental)
    op["first_report"] = reports[0] if reports else None
    shutil.rmtree(out_dir, ignore_errors=True)


def run_op(driver, workload, work_dir, *extra):
    op = step(driver, "run", workload, work_dir, *extra)
    if op is not None and WORKLOADS[workload]["serve"]:
        summarize_serve(op, work_dir)
    os.sync()  # the op's output is written back before the next one runs
    return op


def op_failed(op):
    return op is None or not op.get("ok") or not op["checks"]["passed"]


def deterministic_counters(workload, op):
    """The data-plane counters that must repeat exactly for one input."""
    if WORKLOADS[workload]["serve"]:
        obs = op["obs"]
        return {
            "digest": op["digest"],
            "epochs": len(op["epoch_s"]),
            "newcomers": op["newcomers"],
            "merges": op["merges"],
            "stretch_evaluations": op["stretch_evaluations"],
            "heap.seeded": obs.get("core.heap.seeded", 0),
            "heap.popped": obs.get("core.heap.popped", 0),
            "heap.refined": obs.get("core.heap.refined", 0),
            "heap.stale_skips": obs.get("core.heap.stale_skips", 0),
            "events_dropped": obs.get("serve.events_dropped_published", 0),
        }
    report = op["report"]
    obs = report["obs"]
    return {
        "digest": op["digest"],
        "merges": report["counters"]["merges"],
        "stretch_evaluations": report["counters"]["stretch_evaluations"],
        "heap.seeded": obs.get("core.heap.seeded", 0),
        "heap.popped": obs.get("core.heap.popped", 0),
        "heap.refined": obs.get("core.heap.refined", 0),
        "heap.stale_skips": obs.get("core.heap.stale_skips", 0),
        "pass_fingerprints": report["io"]["pass_fingerprints"],
        "blocks_read": report["io"]["blocks_read"],
        "deferred": int(report["metrics"].get("deferred_fingerprints", 0)),
    }


def compare_data_plane(workload, seed, counters):
    """Reports whether the pinned counters of the default seed still hold.

    A mismatch means the program now does different work on the same
    input ("data plane changed"); it is reported apart from timing noise
    and is not an output-check failure.
    """
    if seed != WORKLOADS[workload]["default_seed"]:
        print(f"data plane: seed {seed} is not the pinned default "
            f"{WORKLOADS[workload]['default_seed']}; counters not compared")
        return
    expected = None
    if EXPECTED_COUNTERS.exists():
        with open(EXPECTED_COUNTERS, "r", encoding="utf-8") as handle:
            expected = json.load(handle).get(workload, {}).get("counters")
    if expected is None:
        print("data plane: no pinned counters for this workload")
        return
    changed = {k: (expected.get(k), v) for k, v in counters.items()
               if expected.get(k) != v}
    if changed:
        print("data plane changed: " + ", ".join(
            f"{k} {old} -> {new}" for k, (old, new) in changed.items()))
    else:
        print("data plane: same as pinned counters")


def record_counters(workload, seed, counters):
    pinned = {}
    if EXPECTED_COUNTERS.exists():
        with open(EXPECTED_COUNTERS, "r", encoding="utf-8") as handle:
            pinned = json.load(handle)
    pinned[workload] = {"seed": seed, "counters": counters}
    with open(EXPECTED_COUNTERS, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log(f"pinned counters for {workload} (seed {seed})")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, gens, ops, attempted):
    serve = WORKLOADS[workload]["serve"]
    walls = [op["wall_s"] for op in ops]
    wall = statistics.median(walls)
    if serve:
        # Every replay publishes the same epochs (the deterministic counters
        # were checked equal), so each epoch's latency is its median over
        # the replays: a replay the host slowed as a whole moves no epoch.
        latencies = [statistics.median(replays)
                     for replays in zip(*(op["epoch_s"] for op in ops))]
        events = statistics.median(op["events"] / op["wall_s"] for op in ops)
    else:
        # A batch run publishes once: its epoch latencies are its walls and
        # events_per_s re-expresses wall_s.  They are reported because the
        # result line carries every end-to-end metric on every workload.
        latencies = walls
        events = statistics.median(
            op["input_samples"] / op["wall_s"] for op in ops)
    values = {
        "wall_s": wall,
        "users_per_s": statistics.median(
            op["input_fingerprints"] / op["wall_s"] for op in ops),
        "peak_rss_mib": statistics.median(
            op["peak_rss_bytes"] / 2**20 for op in ops),
        "setup_s": statistics.median(g["gen_s"] for g in gens) +
        statistics.median(op["open_s"] for op in ops),
        "pos_median_m": statistics.median(
            op["checks"]["pos_median_m"] for op in ops),
        "time_median_min": statistics.median(
            op["checks"]["time_median_min"] for op in ops),
        "events_per_s": events,
        "epoch_p50_s": statistics.median(latencies),
        "epoch_p75_s": statistics.quantiles(
            latencies * 2 if len(latencies) == 1 else latencies, n=4,
            method="inclusive")[2],
    }
    print(f"{workload}: {len(ops)} operations, {len(latencies)} epoch "
          f"samples{' (each the median of its replays)' if serve else ''}, "
          f"{len(gens)} set-ups")
    for name, value in values.items():
        print(f"  {name:<16} {value:>14.6g} {END_TO_END_UNITS[name]}")
    # Shown for the reader; the result line carries it as attempted/failed
    # (a metric that reads 0 at every good run cannot carry a relative bound).
    print(f"  {'failed_frac':<16} {0:>14.6g} ratio (0 of {attempted})")
    return {name: metric(value, END_TO_END_UNITS[name])
            for name, value in values.items()}


def per_layer(workload, ref, traced, table):
    """Per-layer metrics from the untraced reference op (deterministic
    counters and report timings), the traced op (wrapper timings, probe)
    and the folded trace (phase walls)."""
    serve = WORKLOADS[workload]["serve"]
    probe = traced["probe"]
    spans = table["span_totals_s"]
    traced_wall = table["wall_s"]
    source = traced["source"]
    m = {
        "source.decode_s": metric(source["seconds"], "s"),
        "source.calls": metric(source["calls"], "count"),
        "source.fingerprints_read": metric(source["fingerprints"], "count"),
    }

    if serve:
        # The event file is decoded whole, in one read_cdr_file pass; a
        # CSV file has no blocks, so blocks_read is 0 as on halo-csv.
        report = ref["first_report"]
        obs = ref["obs"]
        m["source.passes"] = metric(source["passes"], "count")
        m["source.blocks_read"] = metric(0, "count")
        m["sink.encode_s"] = metric(
            spans.get("serve.publish.snapshot", 0.0), "s")
        m["sink.bytes"] = metric(ref["snapshot_bytes"], "bytes")
        core = {"init_s": ref["init_s"], "merge_s": ref["merge_s"],
                "merges": ref["merges"],
                "stretch_evals": ref["stretch_evaluations"]}
    else:
        report = ref["report"]
        obs = report["obs"]
        m["source.passes"] = metric(
            len(report["io"]["pass_fingerprints"]), "count")
        m["source.blocks_read"] = metric(report["io"]["blocks_read"],
                                         "count")
        m["sink.encode_s"] = metric(traced["sink"]["seconds"], "s")
        m["sink.bytes"] = metric(ref["output_bytes"], "bytes")
        core = {"init_s": report["timings"]["init_seconds"],
                "merge_s": report["timings"]["merge_seconds"],
                "merges": report["counters"]["merges"],
                "stretch_evals": report["counters"]["stretch_evaluations"]}

    # Shard layer: counts and reconcile/plan times from the reference's
    # (first) sharded report; per-shard busy times from the traced op, so
    # they compare with the phase wall its trace measured.
    metrics = report["metrics"]
    traced_report = traced["first_report"] if serve else traced["report"]
    rows = traced_report.get("shards", [])
    users = report["counters"]["input_users"]
    sharded = report["config"]["sharded"]
    workers = sharded["workers"] or 1
    tile = metrics.get("tile_size_m", 0.0)
    busy = sum(r["total_seconds"] for r in rows)
    phase = spans.get("stream.shard_batch", 0.0)
    reconcile = metrics.get("reconcile_seconds", 0.0)
    m["shard.plan_s"] = metric(metrics.get("plan_seconds", 0.0), "s")
    m["shard.deferred_frac"] = metric(
        metrics.get("deferred_fingerprints", 0.0) / users if users else 0.0,
        "ratio")
    m["shard.empty_shards"] = metric(
        sum(1 for r in rows if r["input_fingerprints"] == 0), "count")
    m["shard.halo_tile_ratio"] = metric(
        sharded["halo_m"] / tile
        if sharded["border"] == "halo" and tile > 0 else 0.0, "ratio")
    m["shard.phase_wall_s"] = metric(phase, "s")
    m["shard.phase_share"] = metric(
        phase / traced_wall if traced_wall > 0 else 0.0, "ratio")
    m["shard.busy_s"] = metric(busy, "s")
    m["shard.parallel_eff"] = metric(
        busy / (phase * workers) if phase > 0 else 0.0, "ratio")
    m["shard.max_s"] = metric(
        max((r["total_seconds"] for r in rows), default=0.0), "s")
    m["shard.batches"] = metric(obs.get("stream.shard_batches", 0), "count")
    m["shard.reconcile_s"] = metric(reconcile, "s")
    m["shard.reconcile_share"] = metric(
        reconcile / ref["wall_s"] if ref["wall_s"] > 0 else 0.0, "ratio")
    m["shard.reconcile_chunks"] = metric(
        obs.get("stream.reconcile_chunks", 0), "count")
    m["shard.reconcile_passes"] = metric(
        metrics.get("reconcile_passes", 0.0), "count")

    # Core greedy loop (thread-seconds summed over shards / epochs).
    heap_obs = ref["obs"] if serve else obs
    popped = heap_obs.get("core.heap.popped", 0)
    m["core.init_s"] = metric(core["init_s"], "s")
    m["core.merge_s"] = metric(core["merge_s"], "s")
    m["core.merges"] = metric(core["merges"], "count")
    m["core.stretch_evals"] = metric(core["stretch_evals"], "count")
    m["core.heap.seeded"] = metric(heap_obs.get("core.heap.seeded", 0),
                                   "count")
    m["core.heap.popped"] = metric(popped, "count")
    m["core.heap.refined"] = metric(heap_obs.get("core.heap.refined", 0),
                                    "count")
    m["core.heap.stale_ratio"] = metric(
        heap_obs.get("core.heap.stale_skips", 0) / popped if popped else 0.0,
        "ratio")
    m["core.stretch.ns_per_call"] = metric(probe["ns_per_call"], "ns")
    m["core.stretch.sample_pairs_per_s"] = metric(
        probe["sample_pairs_per_s"], "1/s")
    m["core.stretch.mamb_p10"] = metric(probe["mamb_p10"], "count")
    m["core.stretch.mamb_p50"] = metric(probe["mamb_p50"], "count")
    m["core.stretch.mamb_p90"] = metric(probe["mamb_p90"], "count")

    # Serve consumer path.
    if serve:
        publish_total = sum(ref["epoch_s"])
        new_users = ref["incremental_new_users"]
        m["serve.window_s"] = metric(ref["window_s"], "s")
        m["serve.engine_s"] = metric(ref["engine_s"], "s")
        m["serve.publish_self_s"] = metric(publish_total - ref["engine_s"],
                                           "s")
        m["serve.newcomers"] = metric(ref["newcomers"], "count")
        m["serve.joined_frac"] = metric(
            ref["joined_existing_groups"] / new_users if new_users else 0.0,
            "ratio")
        m["serve.events_dropped"] = metric(
            ref["obs"].get("serve.events_dropped_published", 0), "count")
        m["serve.snapshot_bytes"] = metric(ref["snapshot_bytes"], "bytes")
    else:
        # Batch runs have no serve layer.  The result line must still carry
        # every per-layer metric, so these read 0 as placeholders.
        for name, unit in (("window_s", "s"), ("engine_s", "s"),
                           ("publish_self_s", "s"), ("newcomers", "count"),
                           ("joined_frac", "ratio"),
                           ("events_dropped", "count"),
                           ("snapshot_bytes", "bytes")):
            m["serve." + name] = metric(0, unit)

    m["obs.trace_overhead"] = metric(traced["wall_s"] / ref["wall_s"],
                                     "ratio")
    for layer, row in table["layers"].items():
        m[f"layer.{layer}.self_s"] = metric(row["self_s"], "s")
        m[f"layer.{layer}.crit_share"] = metric(row["crit_share"], "ratio")
        m[f"layer.{layer}.thread_s"] = metric(row["thread_s"], "s")
    return m


def stress_claims(workload, m, traced_wall):
    """What each workload was chosen to stress, checked on the traced run.
    Printed for the reader; a miss does not fail the run."""
    value = {k: v["value"] for k, v in m.items()}
    if workload == "halo-csv":
        claims = {
            "shard.reconcile_share >= 0.7":
                value["shard.reconcile_share"] >= 0.7,
            "source.decode_s >= 5% of traced wall":
                value["source.decode_s"] >= 0.05 * traced_wall,
        }
    elif workload == "shards-glovebin":
        claims = {
            "no reconcile work (nothing deferred, shard.reconcile_s < 1 ms)":
                value["shard.deferred_frac"] == 0 and
                value["shard.reconcile_s"] < 1e-3,
            "shard phase >= 0.9 of wall": value["shard.phase_share"] >= 0.9,
        }
    else:
        covered = value["serve.engine_s"] + value["serve.publish_self_s"]
        replay = value["serve.window_s"] + covered
        claims = {
            "engine + publish cover most of the replay":
                replay > 0 and covered / replay >= 0.5,
        }
    for claim, held in claims.items():
        print(f"  stress claim [{'held' if held else 'MISSED'}] {claim}")


def run_untraced(driver, workload, seed, seconds, work_dir):
    gens = []
    for _ in range(SETUP_REPS):
        gen = step(driver, "gen", workload, work_dir, f"--seed={seed}")
        if gen is None:
            raise BenchError("input generation failed")
        gens.append(gen)
        os.sync()  # no write-back of the new input during a timed step
    # Operations run back to back while the next one is still expected to
    # end inside the measuring window; at least one always runs.
    ops = []
    start = time.monotonic()
    while True:
        op_start = time.monotonic()
        ops.append(run_op(driver, workload, work_dir))
        now = time.monotonic()
        # A crashed or killed operation ends the run: it is refused anyway.
        if ops[-1] is None or now - start + (now - op_start) > seconds:
            break
    return gens, ops


def unit_count(workload, ops):
    """Operations attempted: batch runs, or serve epochs."""
    if not WORKLOADS[workload]["serve"]:
        return len(ops), sum(1 for op in ops if op_failed(op))
    attempted = failed = 0
    for op in ops:
        if op is None:
            attempted += 1
            failed += 1
            continue
        epochs = len(op["epoch_s"]) + op["failed_epochs"]
        attempted += max(epochs, 1)
        failed += op["failed_epochs"]
        if op["failed_epochs"] == 0 and op_failed(op):
            failed += 1
    return attempted, failed


def main():
    global deadline
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-counters", action="store_true",
                        help="pin this run's deterministic counters in "
                             "expected_counters.json (default seed only)")
    args = parser.parse_args()
    workload = args.workload
    # A terminated run still kills its driver step (subprocess.run does so
    # on any exception) and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    work_dir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        driver = build()
        deadline = time.monotonic() + RUN_LIMIT_S
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        if args.trace == 0:
            gens, ops = run_untraced(driver, workload, args.seed,
                                     args.seconds, work_dir)
        else:
            gen = step(driver, "gen", workload, work_dir,
                       f"--seed={args.seed}")
            if gen is None:
                raise BenchError("input generation failed")
            os.sync()
            trace_path = work_dir / "trace.json"
            ops = [run_op(driver, workload, work_dir),
                   run_op(driver, workload, work_dir,
                          f"--trace={trace_path}")]
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        log(f"benchmark error: {error}")
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    except SystemExit:
        shutil.rmtree(work_dir, ignore_errors=True)
        raise

    def refuse(failed):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    try:
        attempted, failed = unit_count(workload, ops)
        if failed:
            for op in ops:
                if op is not None and op_failed(op):
                    log(f"failed operation: {op.get('error')} "
                        f"checks={op.get('checks')}")
            return refuse(failed)
        # Every repetition of one input, the traced one included, must do
        # the same work: same passes, blocks, heap traffic and output bytes.
        counters = [deterministic_counters(workload, op) for op in ops]
        if any(c != counters[0] for c in counters):
            log("output check failed: deterministic counters or digest "
                "differ between repetitions of one input")
            return refuse(1)

        if args.record_counters:
            if args.seed != WORKLOADS[workload]["default_seed"]:
                log("--record-counters needs the workload's default seed")
                return 1
            record_counters(workload, args.seed, counters[0])
        compare_data_plane(workload, args.seed, counters[0])

        if args.trace == 0:
            metrics = end_to_end(workload, gens, ops, attempted)
        else:
            ref, traced = ops
            with open(work_dir / "trace.json", "r", encoding="utf-8") as f:
                table = tracefold.fold(json.load(f))
            print(f"{workload}: layer table of the traced operation")
            print(tracefold.render(table))
            wall = table["wall_s"]
            named = table["self_sum_s"] - table["residue_s"]
            if abs(wall - named) > TRACE_RESIDUE_MAX * wall:
                log(f"trace check failed: named layers' self times sum to "
                    f"{named:.3f} s of a {wall:.3f} s traced wall (allowed "
                    f"residue {TRACE_RESIDUE_MAX:.0%})")
                return refuse(1)
            metrics = per_layer(workload, ref, traced, table)
            for name, entry in metrics.items():
                print(f"  {name:<34} {entry['value']:>14.6g} "
                      f"{entry['unit']}")
            stress_claims(workload, metrics, table["wall_s"])
        print(json.dumps({"correct": True, "attempted": attempted,
                          "failed": 0, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
