"""Steadiness check for the benchmark.

    python3 perfbench/steady.py                       # every workload, 10 seeds, 1 set
    python3 perfbench/steady.py --workloads nyc1d-answer --runs 5
    python3 perfbench/steady.py --sets 2              # two sets of the same seeds
    python3 perfbench/steady.py --trace-repeat        # counts of two traced runs

Runs BENCHMARK.json's command once per seed (seeds 1..runs, or --first-seed)
for each workload, with its run_seconds, and reports per workload and
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound. A spread below a
third of the bound is `steady`; below the bound `within`; else `unresolved`.
With --sets 2 it also reports the drift of the second set's median against
the first, which must stay within the bound in the direction that is worse.

--trace-repeat runs each workload traced twice at one seed and checks that
every per-layer metric whose unit is `count` (and the build's scan ratio)
repeats exactly.

The full report is written to .bench_build/steady/report-<time>.json.
A metric whose spread or drift exceeds its bound is listed as unresolved.
Exit code 0 only if every run was correct and nothing is unresolved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    p = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        return None
    return json.loads(lines[-1])


def spread_row(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    if spread < bound / 3:
        verdict = "steady"
    elif spread <= bound:
        verdict = "within"
    else:
        verdict = "unresolved"
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "verdict": verdict, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--trace-repeat", action="store_true")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd, seconds = bench["command"], bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    ok = True

    for w in names:
        entry = report["workloads"].setdefault(w, {})
        if args.trace_repeat:
            a, b = (run_once(cmd, w, args.first_seed, seconds, 1) for _ in range(2))
            if a is None or b is None:
                ok = False
                entry["trace_repeat"] = "run failed"
                continue
            counts = [m["name"] for m in bench["per_layer"]
                      if m["unit"] == "count" or m["name"] == "build.scans_per_build"]
            diff = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"]) for k in counts
                    if a["metrics"][k]["value"] != b["metrics"][k]["value"]}
            entry["trace_repeat"] = {"counts": counts, "differ": diff}
            print(f"{w}: {len(counts)} counts, {'all repeat' if not diff else 'DIFFER: ' + str(diff)}")
            ok &= not diff
            continue
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + i
                t0 = time.monotonic()
                r = run_once(cmd, w, seed, seconds, 0)
                dt = time.monotonic() - t0
                if r is None or not r["correct"]:
                    ok = False
                    print(f"{w} seed {seed}: run failed or incorrect", file=sys.stderr)
                    continue
                runs.append(r)
                print(f"{w} set {s + 1} seed {seed}: {dt:.1f} s, failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr)
            sets.append(runs)
        entry["sets"] = []
        for s, runs in enumerate(sets):
            if len(runs) < 4:
                ok = False
                continue
            rows = {k: spread_row([r["metrics"][k]["value"] for r in runs], bounds[k]["bound"])
                    for k in bounds}
            entry["sets"].append(rows)
            print(f"\n{w} (set {s + 1}, {len(runs)} runs)")
            print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
            for k, row in rows.items():
                print(f"  {k:<18}{row['median']:>12.5g}{row['q1']:>12.5g}{row['q3']:>12.5g}"
                      f"{row['spread']:>9.3f}{row['bound']:>7.2f}  {row['verdict']}")
                ok &= row["verdict"] != "unresolved"
        if len(entry["sets"]) == 2:
            print(f"  drift of set 2 against set 1 (worse direction, share of median):")
            drift = {}
            for k in bounds:
                m1, m2 = entry["sets"][0][k]["median"], entry["sets"][1][k]["median"]
                worse = (m2 - m1) if bounds[k]["better"] == "lower" else (m1 - m2)
                drift[k] = worse / abs(m1) if m1 else 0.0
                flag = "ok" if drift[k] <= bounds[k]["bound"] else "TOO FAR"
                print(f"  {k:<18}{drift[k]:>+9.3f}  {flag}")
                ok &= flag == "ok"
            entry["drift"] = drift
        unresolved = [k for st in entry["sets"] for k, row in st.items() if row["verdict"] == "unresolved"]
        unresolved += [k for k, d in entry.get("drift", {}).items() if d > bounds[k]["bound"]]
        entry["unresolved"] = sorted(set(unresolved))
        print(f"  unresolved: {', '.join(entry['unresolved']) or 'none'}")

    os.makedirs(os.path.join(".bench_build", "steady"), exist_ok=True)
    path = os.path.join(".bench_build", "steady", f"report-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nreport: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
