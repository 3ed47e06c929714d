#!/usr/bin/env python3
"""Runs one named workload of the benchmark and prints its metrics.

    python3 perfbench/run.py --workload coop_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root. On first use it builds the repository's
libraries, oefd and perfbench_loadgen from source under $CARGO_TARGET_DIR
(default .bench_build). Each run gets a fresh scratch directory there, which
holds oefd's socket and checkpoint and is removed afterwards; the load generator's raw
output and spans are kept under .bench_build/results.

The readable summary goes first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (metrics.json lists both and
which end-to-end metric each layer metric should move). Exit code 0 when every
op was correct.
"""

import argparse
import ctypes
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "metrics.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])
TRACED_CALLS = 2  # coop_cold: per-call layer numbers come from the first pass
UPDATE_DEMAND = 3  # service::MessageType::kUpdateDemand
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run.
# ---------------------------------------------------------------------------


def build(root, build_root):
    """Configures once, then lets cmake bring the load generator and oefd up to date."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError(f"no repository sources next to {HERE.name}/ in {root}")
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "build.log"
    with open(build_root / "build.lock", "w") as lock, open(build_log, "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed, see {build_log}")
    return build_dir / "perfbench_loadgen", build_dir / "oef" / "oefd"


def become_subreaper():
    """Adopts orphaned descendants, so reap_group can wait for a killed load generator's oefd."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_group(pgid, timeout=10.0):
    """Kills every process left in the run's process group and waits for each to end."""
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0] != 0:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.01)
    raise BenchError(f"processes of group {pgid} did not exit")


def run_loadgen(loadgen, oefd, build_root, args, workload):
    """Runs the load generator in a fresh scratch directory; returns (output, spans)."""
    runs = build_root / "runs"
    results = build_root / "results"
    runs.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=runs))
    connections = max(1, min(3, (os.cpu_count() or 2) - 1))
    command = [str(loadgen), f"--workload={workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               "--out=result.json", "--spans=spans.jsonl", f"--oefd={oefd}",
               f"--connections={connections}"]
    try:
        with open(scratch / "loadgen.log", "w") as loadgen_log:
            proc = subprocess.Popen(command, cwd=scratch, stdout=loadgen_log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=args.seconds + 120)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                reap_group(proc.pid)
        if code != 0:
            tail = (scratch / "loadgen.log").read_text()[-2000:]
            raise BenchError(f"load generator exited with {code}: {tail}")
        stem = f"{workload}-seed{args.seed}-trace{args.trace}"
        output = json.loads((scratch / "result.json").read_text())
        shutil.copy(scratch / "result.json", results / f"{stem}.json")
        spans = []
        if args.trace:
            shutil.copy(scratch / "spans.jsonl", results / f"{stem}.spans.jsonl")
            with open(scratch / "spans.jsonl") as lines:
                spans = [json.loads(line) for line in lines]
        return output, spans
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reductions.
# ---------------------------------------------------------------------------


def best_of_repeats(output):
    """(p50, (p, tail, n), ops_per_s) of the workload's primary op, each op at its fastest."""
    samples = output["samples"]
    return stats.best_of_repeats(samples["op_ms"], samples["op_key"], samples["pass_s"],
                                 samples["pass_ops"], samples["pass_key"])


def reference_failures(output):
    """coop_cold objectives that miss the recorded reference for their seed by > 1e-6."""
    if output["workload"] != "coop_cold":
        return []
    references = json.loads((HERE / "references.json").read_text()).get(str(output["seed"]), [])
    failures = []
    samples = output["samples"]
    for call, (got, instance) in enumerate(zip(samples["objective"], samples["instance"])):
        if int(instance) >= len(references):
            continue
        want = references[int(instance)]
        if abs(got - want) > 1e-6 * (1.0 + abs(want)):
            failures.append(f"call {call}: objective {got!r} != reference {want!r}")
    return failures


def end_to_end(output):
    """Every end-to-end metric, plus the daemon's query latency for the summary."""
    p50, (p, tail_value, n), ops_per_s = best_of_repeats(output)
    values = {
        "setup_s": stats.median(output["setup_s"]),
        "op_ms_p50": p50,
        "op_ms_tail": tail_value,
        "ops_per_s": ops_per_s,
        "throughput": output["values"]["throughput"],
    }
    repeats = len(output["samples"]["op_ms"]) / n
    notes = {"op_ms_tail": f"p{p:g} of n={n}",
             "op_ms_p50": f"n={n} ops, each the fastest of {repeats:.3g} repeats"}
    queries = output["samples"].get("query_ms")
    if queries:
        values["query_ms_p50"] = stats.median(queries)
        qp, values["query_ms_tail"], qn = stats.tail(queries)
        notes["query_ms_tail"] = f"p{qp:g} of n={qn}"
    return values, notes


def span_seconds(span):
    return span["end"] - span["start"]


def per_call_mean(spans, name, key=None, limit=None):
    chosen = [s for s in spans if s["name"] == name and (limit is None or s["request"] < limit)]
    if not chosen:
        raise BenchError(f"no {name} spans")
    pick = span_seconds if key is None else (lambda s: s["attrs"][key])
    return sum(pick(s) for s in chosen) / len(chosen)


def wire_and_checkpoint(spans, layers):
    """wire.* per op and service.checkpoint_* from the probe spans."""
    for kind in ("encode", "decode"):
        chosen = [s for s in spans if s["name"] == f"wire.{kind}"]
        count = sum(s["attrs"]["count"] for s in chosen)
        layers[f"wire.{kind}_us"] = sum(map(span_seconds, chosen)) / count * 1e6
    writes = [s for s in spans if s["name"] == "service.checkpoint_write"]
    layers["service.checkpoint_write_ms"] = stats.median([span_seconds(s) * 1e3 for s in writes])
    layers["service.checkpoint_bytes"] = writes[0]["attrs"]["bytes"]


def per_layer(output, spans):
    """Every per-layer metric; layers a workload does not exercise read 0."""
    layers = {spec["name"]: 0.0 for spec in SPEC["per_layer"]}
    workload = output["workload"]
    layers["trace.op_ms_p50"] = best_of_repeats(output)[0]

    if workload == "coop_cold":
        def mean(key=None):
            return per_call_mean(spans, "core.allocate", key, TRACED_CALLS)
        for key in ("pivots", "cold_pivots", "warm_pivots", "basis_repairs",
                    "dense_fallbacks", "tableau_fallbacks"):
            layers[f"solver.{key}"] = mean(key)
        for key in ("lazy_rounds", "envy_rows_added", "envy_rows_dropped", "compactions",
                    "warm_compactions"):
            layers[f"core.{key}"] = mean(key)
        layers["solver.solve_s"] = mean("solve_s")
        layers["solver.us_per_pivot"] = layers["solver.solve_s"] / layers["solver.pivots"] * 1e6
        layers["core.oracle_s"] = mean("oracle_s")
        layers["trace.wall_s"] = mean()
        layers["trace.layer_sum_s"] = layers["solver.solve_s"] + layers["core.oracle_s"]
        layers["core.other_s"] = layers["trace.wall_s"] - layers["trace.layer_sum_s"]

    elif workload == "sim_churn":
        run = next(s for s in spans if s["name"] == "sim.run" and s["request"] == 0)
        a = run["attrs"]
        layers["solver.pivots"] = a["pivots"]
        layers["solver.solve_s"] = a["lp_s"]
        layers["solver.us_per_pivot"] = a["lp_s"] / a["pivots"] * 1e6
        for key in ("basis_repairs", "dense_fallbacks", "tableau_fallbacks"):
            layers[f"solver.{key}"] = a[key]
        layers["core.oracle_s"] = a["oracle_s"]
        layers["core.other_s"] = a["sched_solve_s"] - a["lp_s"] - a["oracle_s"]
        layers["sched.solve_s"] = a["sched_solve_s"]
        layers["sched.lp_s"] = a["lp_s"]
        layers["sched.oracle_s"] = a["oracle_s"]
        for key in ("cold_solves", "warm_resolves", "warm_start_hits", "degraded_rounds",
                    "fallback_rounds"):
            layers[f"sched.{key}"] = a[key]
        layers["sim.migrations"] = a["migrations"]
        layers["sim.straggler_workers"] = a["straggler_workers"]
        layers["trace.wall_s"] = span_seconds(run)
        layers["trace.layer_sum_s"] = a["sched_solve_s"]
        layers["sim.other_s"] = layers["trace.wall_s"] - a["sched_solve_s"]

    else:
        v = output["values"]
        layers["solver.pivots"] = v["delta.lp_iterations"]
        layers["solver.cold_pivots"] = v["delta.cold_lp_iterations"]
        layers["solver.warm_pivots"] = v["delta.warm_lp_iterations"]
        layers["service.batches"] = v["delta.batches"]
        layers["service.ops_per_batch"] = v["delta.batched_ops"] / max(1.0, v["delta.batches"])
        layers["service.resolves"] = v["delta.resolves"]
        layers["service.pivots_per_resolve"] = (v["delta.lp_iterations"]
                                                / max(1.0, v["delta.resolves"]))
        layers["service.max_queue_depth"] = v["max_queue_depth_seen"]
        layers["service.shed"] = v["delta.requests_shed"]
        layers["service.checkpoints"] = v["delta.checkpoints_written"]
        handles = [span_seconds(s) * 1e3 for s in spans
                   if s["name"] == "service.handle" and s["attrs"]["type"] == UPDATE_DEMAND]
        layers["service.handle_ms_p50"] = stats.median(handles)
        queries = output["samples"]["query_ms"]
        layers["service.query_ms_p50"] = stats.median(queries)
        layers["service.query_ms_tail"] = stats.tail(queries)[1]
        wire_and_checkpoint(spans, layers)
        attributed_ms = (layers["service.handle_ms_p50"] + layers["service.checkpoint_write_ms"]
                         + (layers["wire.encode_us"] + layers["wire.decode_us"]) / 1e3)
        layers["trace.wall_s"] = layers["trace.op_ms_p50"] / 1e3
        layers["trace.layer_sum_s"] = attributed_ms / 1e3
        layers["service.other_ms"] = layers["trace.op_ms_p50"] - attributed_ms
    return layers


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def summarize(workload, output, values, notes, traced, build_root, seed):
    attempted, failed = output["attempted"], output["failed"]
    print(f"== {workload} (seed {seed}, {'traced' if traced else 'untraced'}) ==")
    print(f"  ops attempted {attempted}, failed {failed}, "
          f"failed_share {failed / max(1, attempted):.6g}")
    for why in output["failures"]:
        print(f"  FAILED: {why}")
    specs = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    for spec in specs:
        note = notes.get(spec["name"], "")
        print(f"  {spec['name']:<28} {values[spec['name']]:>14.6g} {spec['unit']:<10} {note}")
    if not traced:
        print("  under the names performance changes cite (metrics.json cited_names):")
        for name, source, scale, unit in SPEC["cited_names"][workload]:
            if source in values:
                print(f"  {name:<28} {values[source] * scale:>14.6g} {unit:<10} "
                      f"{notes.get(source, '')}")
        return
    print(f"  traced wall {values['trace.wall_s']:.6g} s = layers "
          f"{values['trace.layer_sum_s']:.6g} s + named remainder")
    untraced = build_root / "results" / f"{workload}-seed{seed}-trace0.json"
    try:
        base = best_of_repeats(json.loads(untraced.read_text()))[0]
    except (OSError, KeyError, ValueError):
        return  # no readable untraced run of this seed to compare with
    print(f"  untraced op_ms_p50 {base:.6g} ms; traced {values['trace.op_ms_p50']:.6g} ms; "
          f"tracing overhead {values['trace.op_ms_p50'] / base - 1:+.2%}")


def run_workload(root, build_root, args, workload):
    loadgen, oefd = build(root, build_root)
    output, spans = run_loadgen(loadgen, oefd, build_root, args, workload)
    for why in reference_failures(output):
        output["failed"] += 1
        output["failures"].append(why)
    if args.trace:
        values, notes = per_layer(output, spans), {}
        specs = SPEC["per_layer"]
    else:
        values, notes = end_to_end(output)
        specs = SPEC["end_to_end"]
    summarize(workload, output, values, notes, args.trace, build_root, args.seed)
    return {
        "correct": output["failed"] == 0,
        "attempted": output["attempted"],
        "failed": output["failed"],
        "metrics": stats.emit(values, specs),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    become_subreaper()
    root = Path.cwd()
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        if args.workload == "all":
            results = {w: run_workload(root, build_root, args, w) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {w: r["metrics"] for w, r in results.items()},
            }
        else:
            result = run_workload(root, build_root, args, args.workload)
    except (BenchError, OSError, KeyError, ValueError) as error:
        log(f"benchmark failed: {error}")
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
