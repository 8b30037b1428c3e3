"""PASS benchmark: one run of one workload.

    python3 perfbench/run.py --workload nyc1d-answer --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run compiles the sources (build.py).
A run has two parts:

1. The build JVM (Spark, `BuildRun`): set-up, warm-up builds, a fixed number
   of timed `PassBuilder.build` calls, the in-process reference answers,
   their check against the exact truth and their accuracy, then it writes
   each synopsis and the query list with Java serialization.
2. Answer forks (`AnswerFork`): fresh Spark-free JVMs, one after another, each
   loading one synopsis, checking its estimates against the truth and for
   bit-equality with the build JVM's, and timing passes over the queries for
   `--seconds` / forks. Answer metrics are means over forks (see
   perfbench/METHOD.md).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. A traced run also writes
its span tree to `.bench_build/runs/<workload>-<seed>-trace/spans.json`.
Settings come from perfbench/workloads.json. `--small` runs the tiny inputs
of the self-test. `correct` is true and the exit code 0 only if no operation
failed (`failed` = 0, so `ok_frac` = 1).
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import build  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s


class RunFailed(Exception):
    pass


def mean(xs):
    return sum(xs) / len(xs)


def run_jvm(cmd, log_path, deadline):
    """Runs one JVM to completion (killed at the run's deadline)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("run deadline passed before " + cmd[-1])
    with open(log_path, "w") as log:
        try:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"timed out; see {log_path}")
    if r.returncode != 0:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        raise RunFailed(f"JVM exited with {r.returncode}; see {log_path}")


def merge_spans(workload_start_us, workload_end_us, groups):
    """One span list for the run: a `workload` root, then each JVM's spans with
    ids made unique and parent 0 mapped to the root."""
    out = [{"id": 1, "parent": 0, "name": "workload",
            "start_us": workload_start_us, "end_us": workload_end_us}]
    next_id = 2
    for spans in groups:
        ids = {0: 1}
        for s in spans:
            ids[s["id"]] = next_id
            next_id += 1
        for s in spans:
            out.append(dict(s, id=ids[s["id"]], parent=ids[s["parent"]]))
    return out


def run(args, root):
    cfg = json.load(open(os.path.join(HERE, "workloads.json")))
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    if args.workload not in cfg["workloads"]:
        raise RunFailed(f"unknown workload {args.workload}")
    w = cfg["workloads"][args.workload]
    build.ensure_built(root)
    deadline = time.monotonic() + DEADLINE_S
    out = os.path.join(root, ".bench_build", "runs",
                       f"{args.workload}-{args.seed}{'-trace' if args.trace else ''}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "tmp"))
    t_start_us = time.time() * 1e6

    b = cfg["builds"]
    f = cfg["answer_forks"]
    cores = min(cfg["spark"]["cores"], os.cpu_count() or 1)
    heap = cfg["spark"]["heap"]
    try:
        run_jvm(build.build_jvm_cmd(root, heap, [f"-Djava.io.tmpdir={out}/tmp"], {
                    "workload": args.workload, "seed": args.seed, "out": out,
                    "sf": w["small_sf" if args.small else "sf"],
                    "ops": w["small_ops" if args.small else "ops"],
                    "master": f"local[{cores}]",
                    "setup_reps": b["setup_reps"], "warmup_builds": b["warmup_builds"],
                    "timed_builds": b["timed_builds"],
                    "traced_builds": b["traced_builds"], "trace": int(args.trace),
                }), os.path.join(out, "build.log"), deadline)
        built = json.load(open(os.path.join(out, "build.json")))

        # answer forks: plain ones for the end-to-end numbers, then traced ones
        fork_seconds = args.seconds / f["forks"]
        modes = ["plain"] * f["forks"] + (["traced"] * f["traced_forks"] if args.trace else [])
        forks = []
        for i, mode in enumerate(modes):
            path = os.path.join(out, f"fork-{i}.json")
            run_jvm(build.fork_jvm_cmd(root, f["heap"], [f"-Djava.io.tmpdir={out}/tmp"], {
                    "input": os.path.join(out, f"answer-input-{i % built['synopses']}.bin"),
                    "out": path, "fork": i, "mode": mode, "seconds": fork_seconds,
                    "warmup_seconds": f["warmup_seconds"],
                }), os.path.join(out, f"fork-{i}.log"), deadline)
            forks.append((mode, json.load(open(path))))
    finally:
        for junk in ["tmp", "spark-local", "warehouse", f"lineitem-{args.seed}.parquet"]:
            shutil.rmtree(os.path.join(out, junk), ignore_errors=True)
        for junk in glob.glob(os.path.join(out, "answer-input-*.bin")):
            os.remove(junk)

    plain = [r["result"] for m, r in forks if m == "plain"]
    attempted = built["attempted"] + sum(r["result"]["attempted"] for _, r in forks)
    failed = built["failed"] + sum(r["result"]["failed"] for _, r in forks)
    e2e = {
        "setup_s": statistics.median(built["setup_s"]),
        "build_s_p50": statistics.median(built["build_s"]),
        "answer_us_p50": mean([r["p50_us"] for r in plain]),
        "answer_us_p99": mean([r["p99_us"] for r in plain]),
        "answer_qps": mean([r["qps"] for r in plain]),
        "median_re": built["median_re"],
        "ci_coverage": built["ci_coverage"],
        "ci_half_rel_p50": built["ci_half_rel_p50"],
        "storage_mb": built["storage_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {"rows": built["rows"], "queries": built["queries"], "builds": len(built["build_s"]),
            "setup_reps": len(built["setup_s"]), "forks": len(plain),
            "passes_per_fork": [r["passes"] for r in plain]}
    consistent = True
    if not args.trace:
        metrics, wanted = e2e, bench["end_to_end"]
    else:
        traced = [r["result"] for m, r in forks if m == "traced"]
        metrics = {k: v for k, v in built.items() if "." in k}
        for k in traced[0]:
            if k.startswith("answer.") or k.startswith("attr.answer"):
                metrics[k] = statistics.median([r[k] for r in traced])
        qps = [r["qps"] for r in plain]
        metrics["answer.fork_qps_spread"] = max(qps) / min(qps)
        metrics["trace.answer_ratio"] = (statistics.median([r["p50_us"] for r in traced]) /
                                         e2e["answer_us_p50"])
        consistent = all(r["attr.scanned_equals_processed"] for r in traced)
        if not consistent:
            print("perfbench: scanned samples != Estimate.processedSamples", file=sys.stderr)
        wanted = bench["per_layer"]
        spans = merge_spans(t_start_us, time.time() * 1e6,
                            [json.load(open(os.path.join(out, "spans-build.json")))] +
                            [r["spans"] for _, r in forks])
        with open(os.path.join(out, "spans.json"), "w") as fh:
            json.dump(spans, fh)
        info["spans"] = os.path.relpath(os.path.join(out, "spans.json"), root)
        info["end_to_end_of_this_run"] = e2e
    missing = [m["name"] for m in wanted if m["name"] not in metrics or metrics[m["name"]] is None]
    if missing:
        raise RunFailed(f"metrics not measured: {missing}")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in result.items():
        print(f"{args.workload:>15} {name:<30} {v['value']:>14.6g} {v['unit']}", file=sys.stderr)
    print("perfbench: " + json.dumps(info), file=sys.stderr)
    if failed:
        for log in ["build.log"] + [f"fork-{i}.log" for i in range(len(forks))]:
            with open(os.path.join(out, log)) as fh:
                for line in fh:
                    if line.startswith("answer check failed"):
                        print(f"perfbench: {log}: {line.rstrip()}", file=sys.stderr)
        mismatched = sum(r["result"]["mismatched"] for _, r in forks)
        if mismatched:
            print(f"perfbench: {mismatched} fork estimates differ from the build JVM's", file=sys.stderr)
    ok = failed == 0 and consistent
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": result}))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true", help="tiny inputs (self-test)")
    args = ap.parse_args()
    root = os.getcwd()
    try:
        return 0 if run(args, root) else 1
    except (RunFailed, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
