#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts with the perfbench benchmark.

    python3 perfbench/ab.py --parent DIR --change DIR [--pairs 10]
        [--workloads train,serve_fresh,serve_hot,ingest] [--seconds N]
        [--seed0 1000] [--out FILE]

Each side is built once from its own checkout (its own `perfbench`
package, target directory `<checkout>/.bench_build`). Then, for every
pair and workload, both builds run on the same seed, one after the
other; which side runs first alternates from pair to pair, so drift of
the host hits both sides alike. Seeds differ between pairs.

Per workload and end-to-end metric the report gives each side's median
and quartiles, the share of pairs each side won (ties count for
neither), the change's median against the parent's, and the process
CPU seconds of each side's runs. A metric whose spread (interquartile
range over median, on either side) is wider than its bound in
BENCHMARK.json is marked *unresolved*, unless every run of the change
reads better than every run of the parent: the runs cannot tell a change
of that size from noise. Otherwise a change whose median is worse than
the parent's by more than the bound is a *regression*, and one that
wins at least nine pairs in ten with medians further apart than the
parent's own interquartile range is a *gain*. The host steal share of
every run is reported next to the figures.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys


def build(checkout):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    manifest = os.path.join(checkout, "perfbench", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        check=True,
        env=env,
    )
    return os.path.join(checkout, ".bench_build", "release", "perfbench")


def run_once(binary, checkout, workload, seed, seconds):
    """One untraced run: (result, host, cpu_seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{binary} {workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["host"], cpu


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--out", default=None, help="JSON report (default: <change>/perfbench/out/ab.json)")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    binaries = {side: build(path) for side, path in sides.items()}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                result, host, cpu = run_once(binaries[side], sides[side], w, args.seed0 + i, seconds)
                runs[w][side].append({"result": result, "host": host, "cpu_s": cpu})
                print(
                    f"pair {i} {w:12s} {side:6s} correct={result['correct']} failed={result['failed']}"
                    f"/{result['attempted']} steal={host['steal_pct']:.1f}% cpu={cpu:.1f}s",
                    file=sys.stderr,
                )

    report = {"pairs": args.pairs, "seconds": seconds, "workloads": {}}
    for w in workloads:
        rows = {}
        for m in metrics:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            vals = {s: [r["result"]["metrics"][name]["value"] for r in runs[w][s]] for s in sides}
            q = {s: quartiles(vals[s]) for s in sides}
            spread = {s: (q[s][2] - q[s][0]) / q[s][1] if q[s][1] else 0.0 for s in sides}
            wins = {"parent": 0, "change": 0}
            for p, c in zip(vals["parent"], vals["change"]):
                if p != c:
                    wins["change" if (c > p) == higher else "parent"] += 1
            pm, cm = q["parent"][1], q["change"][1]
            worse = (pm - cm) / pm if higher else (cm - pm) / pm
            if higher:
                all_better = min(vals["change"]) > max(vals["parent"])
            else:
                all_better = max(vals["change"]) < min(vals["parent"])
            if max(spread.values()) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            elif wins["change"] >= 0.9 * args.pairs and abs(cm - pm) > q["parent"][2] - q["parent"][0]:
                verdict = "gain"
            else:
                verdict = "no change"
            rows[name] = {
                "unit": m["unit"],
                "bound": bound,
                "parent": {"median": pm, "q1": q["parent"][0], "q3": q["parent"][2], "spread": spread["parent"]},
                "change": {"median": cm, "q1": q["change"][0], "q3": q["change"][2], "spread": spread["change"]},
                "change_worse_by": worse,
                "won": {s: wins[s] / args.pairs for s in sides},
                "verdict": verdict,
            }
        side_info = {
            s: {
                "cpu_s_median": statistics.median(r["cpu_s"] for r in runs[w][s]),
                "steal_pct": [r["host"]["steal_pct"] for r in runs[w][s]],
                "incorrect_runs": sum(not r["result"]["correct"] for r in runs[w][s]),
                "failed_share": [r["result"]["failed"] / r["result"]["attempted"] for r in runs[w][s]],
            }
            for s in sides
        }
        report["workloads"][w] = {"metrics": rows, "sides": side_info}

    for w, entry in report["workloads"].items():
        print(f"\n== {w}  (CPU s per run: parent {entry['sides']['parent']['cpu_s_median']:.1f}, "
              f"change {entry['sides']['change']['cpu_s_median']:.1f}; steal % parent "
              f"{entry['sides']['parent']['steal_pct']}, change {entry['sides']['change']['steal_pct']})")
        print(f"{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
              f"{'worse':>7s} {'won p/c':>9s}  verdict")
        for name, r in entry["metrics"].items():
            p, c = r["parent"], r["change"]
            print(f"{name:16s} {p['median']:12.4f} [{p['q1']:9.4f}, {p['q3']:9.4f}] "
                  f"{c['median']:12.4f} [{c['q1']:9.4f}, {c['q3']:9.4f}] "
                  f"{100 * r['change_worse_by']:6.1f}% {r['won']['parent']:.1f}/{r['won']['change']:.1f}  {r['verdict']}")
    out = args.out or os.path.join(args.change, "perfbench", "out", "ab.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"\nreport written to {out}")


if __name__ == "__main__":
    main()
