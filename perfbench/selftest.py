"""Self-test of the benchmark on tiny inputs (NYC-lite SF 0.001, lineitem SF 0.001).

    python3 perfbench/selftest.py        # from the repository root, ~5 minutes

For every workload it checks that
  * an untraced run exits 0, is correct, has ok_frac = 1, and prints every
    end-to-end metric of BENCHMARK.json with its unit;
  * every answer fork found its estimates bit-equal to the build JVM's;
  * two traced runs at the same seed print every per-layer metric with its
    unit, repeat every count exactly, and attribute time within tolerance:
    the listener's phase spans cover the build span, the separately timed
    phases leave a remainder that matches the listener's full pass, and the
    per-call answer times (mcf + rest) add up to the pass wall time;
  * the traced run's span file is a tree: each parent exists and contains
    its children in time;
and that the command fails without printing a result in a directory that
holds only BENCHMARK.json and perfbench/.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ATTR_TOL = 0.35  # tiny builds are mostly fixed Spark overhead; full-scale residuals are ~0.05
SPAN_SLACK_US = 2000  # listener times have millisecond resolution


def run(args, cwd="."):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args, cwd=cwd,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


def check_metrics(result, wanted, errors, where):
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            errors.append(f"{where}: metric {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} has unit {got[m['name']]['unit']}, not {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"{where}: unexpected metrics {sorted(extra)}")


def check_span_tree(path, errors, where):
    spans = json.load(open(path))
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] == 0:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            errors.append(f"{where}: span {s['name']} has no parent {s['parent']}")
        elif s["start_us"] < p["start_us"] - SPAN_SLACK_US or s["end_us"] > p["end_us"] + SPAN_SLACK_US:
            errors.append(f"{where}: span {s['name']} lies outside its parent {p['name']}")
    names = {s["name"].split("[")[0] for s in spans}
    for n in ["workload", "setup", "spark", "data", "truth", "queries", "traced_build", "prepare",
              "opt_sample", "optimize", "full_pass", "fork", "pass", "mcf", "answer"]:
        if n not in names:
            errors.append(f"{where}: no span named {n}")


def main():
    bench = json.load(open("BENCHMARK.json"))
    errors = []
    # A run that fails a correctness check still prints its result; the other
    # checks go on, so one failure does not hide the rest.
    for w in [w["name"] for w in bench["workloads"]]:
        code, res, err = run(["--workload", w, "--seed", "1", "--seconds", "2", "--trace", "0", "--small"])
        if res is None:
            errors.append(f"{w}: untraced run printed no result (exit {code})\n{err[-2000:]}")
            continue
        if code != 0 or not res["correct"] or res["metrics"]["ok_frac"]["value"] != 1.0:
            checks = [l for l in err.splitlines() if "answer check failed" in l]
            errors.append(f"{w}: untraced run failed (exit {code}, correct {res['correct']}, "
                          f"{res['failed']}/{res['attempted']} operations failed)\n" + "\n".join(checks[:10]))
        check_metrics(res, bench["end_to_end"], errors, w)
        for f in glob.glob(os.path.join(".bench_build", "runs", f"{w}-1", "fork-*.json")):
            if json.load(open(f))["result"]["mismatched"]:
                errors.append(f"{w}: {f} has estimates that are not bit-equal")

        traced = []
        for _ in range(2):
            code, res, err = run(["--workload", w, "--seed", "1", "--seconds", "2", "--trace", "1", "--small"])
            if res is None:
                errors.append(f"{w}: traced run printed no result (exit {code})\n{err[-2000:]}")
                break
            traced.append(res["metrics"])
            check_metrics(res, bench["per_layer"], errors, w + " traced")
        if len(traced) < 2:
            continue
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
        for k in counts:
            if traced[0][k]["value"] != traced[1][k]["value"]:
                errors.append(f"{w}: count {k} differs: {traced[0][k]['value']} vs {traced[1][k]['value']}")
        for k in ["attr.build_span_resid", "attr.full_pass_resid", "attr.answer_resid"]:
            v = max(t[k]["value"] for t in traced)
            if not v <= ATTR_TOL:
                errors.append(f"{w}: {k} = {v:.3f} > {ATTR_TOL}")
        check_span_tree(os.path.join(".bench_build", "runs", f"{w}-1-trace", "spans.json"), errors, w)
        print(f"{w}: checked")

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = run(["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    if code == 0 or res is not None:
        errors.append("bare directory: the command did not fail without a result")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL " + e)
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
