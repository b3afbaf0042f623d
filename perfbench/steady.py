#!/usr/bin/env python3
"""Steadiness check for the repository's benchmark.

Runs two sets of ten runs of the same code on every workload, each run
on its own seed and for BENCHMARK.json's run_seconds, and prints for
every workload and end-to-end metric each set's median and quartiles,
the spread (quartile distance over median) of each set, and whether the
sets agree within the metric's bound from BENCHMARK.json: the spread of
each set is within the bound, and the two medians differ by no more
than the bound, in either direction. It also checks that the share of
failed operations is the same in every run.

    python3 perfbench/steady.py

Run it from the root of the source tree. Each run takes about 30-40 s.
Set 0 uses seeds 5000-5009, set 1 seeds 6000-6009.
"""
import json
import os
import statistics
import subprocess
import sys


SETS = 2
RUNS = 10
SEED_BASE = 5000


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"steady: {workload} seed {seed} failed with {p.returncode}")
    result = json.loads(lines[-1])
    # Tail latencies stay out of BENCHMARK.json; the run's details file
    # keeps them, and they are summarized here too.
    details = json.load(open(os.path.join(".bench_build", "work", workload, "details.json")))
    result["extra"] = {k: v for k, v in details.items() if k.startswith("latency_p")}
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    # results[workload][set] = list of result objects
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = SEED_BASE + s * 1000 + i
                r = run_once(w, seed, seconds)
                results[w][s].append(r)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items()))
                print(f"set {s} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} {vals}", flush=True)

    ok_all = True
    print()
    print(f"{'workload':14} {'metric':24} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = summary(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                ok = spread <= bound
                verdict = "ok" if ok else "SPREAD"
                if spread > bound / 3:
                    verdict += " (above a third of the bound)"
                ok_all &= ok
                print(f"{w:14} {name:24} {s:>3} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {bound:6.2f}  {verdict}")
            for s in range(1, SETS):
                change = (meds[s] - meds[0]) / meds[0]
                ok = abs(change) <= bound
                ok_all &= ok
                print(f"{w:14} {name:24} {'Δ' + str(s):>3} {'':11} {change:+11.3%} {'':11} "
                      f"{'':7} {bound:6.2f}  {'agree' if ok else 'DISAGREE'}")
        extras = sorted({k for s in range(SETS) for r in results[w][s] for k in r["extra"]})
        for name in extras:
            for s in range(SETS):
                vals = [r["extra"][name] for r in results[w][s] if name in r["extra"]]
                if len(vals) < 2:
                    continue
                q1, med, q3 = summary(vals)
                print(f"{w:14} {name:24} {s:>3} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{(q3 - q1) / med:7.3f} {'':6}  not in BENCHMARK.json ({len(vals)} runs)")
        fails = [r["failed"] / r["attempted"] for s in range(SETS) for r in results[w][s]]
        same = len(set(fails)) == 1
        ok_all &= same
        print(f"{w:14} {'failed share':24} {'':>3} {min(fails):11.5g} {'':11} {max(fails):11.5g} "
              f"{'':7} {'':6}  {'same in every run' if same else 'DIFFERS'}")
    print()
    print("steady" if ok_all else "NOT steady")
    sys.exit(0 if ok_all else 1)


if __name__ == "__main__":
    main()
