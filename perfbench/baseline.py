"""Run every workload several times and summarise each metric.

    python3 perfbench/baseline.py --runs 10 [--trace] [--out FILE] [--compare FILE]

Each run is `run.py --workload W --seed 1 --seconds <run_seconds>`, with the
workloads interleaved; the seed is fixed because the commands take no random
input, so the runs are repeats.  For every end-to-end metric it prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, and
records the raw wall-time medians of each run beside the rescaled times.  With
`--trace` one traced run per workload is added.  `--out` writes the summary
as JSON, which is how `baseline.json` was recorded.  `--compare FILE` reads
such a summary and shows, per workload and metric, by what share the new
median is worse than the old one; it fails if any exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import load_json  # noqa: E402


def run_once(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    header = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
    return header, json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/baseline.py")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--label", default="")
    p.add_argument("--out", default=None)
    p.add_argument("--compare", default=None, metavar="FILE")
    args = p.parse_args(argv)

    bench = load_json(ROOT / "BENCHMARK.json")
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    walls = ("verify_wall_s", "setup_wall_s")
    raw = {w: {m: [] for m in list(bounds) + list(walls)} for w in workloads}
    failed = {w: 0 for w in workloads}
    for k in range(args.runs):
        for w in workloads:
            header, res = run_once(w, seconds, False)
            failed[w] += res["failed"]
            for m in bounds:
                raw[w][m].append(res["metrics"][m]["value"])
            for m in walls:
                raw[w][m].append(float(header[m]))
            print(f"run {k + 1}/{args.runs} {w}: " + ", ".join(
                f"{m}={res['metrics'][m]['value']:.4f}" for m in bounds),
                file=sys.stderr, flush=True)

    env = {k: header[k] for k in ("nproc", "python", "numpy")}
    summary = {"label": args.label, "environment": env,
               "run_seconds": seconds, "runs": args.runs,
               "workloads": {}}
    print(f"# {args.runs} runs x {seconds:g} s per workload; "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'workload':16s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s} unit")
    for w in workloads:
        entry = {"failed": failed[w], "end_to_end": {},
                 "raw_wall": {m: summarise(raw[w][m]) for m in walls}}
        for m, spec in bounds.items():
            s = summarise(raw[w][m])
            s["unit"] = spec["unit"]
            entry["end_to_end"][m] = s
            print(f"{w:16s} {m:14s} {s['median']:12.5f} {s['q1']:12.5f} "
                  f"{s['q3']:12.5f} {s['spread']:8.4f} {spec['bound']:6.2f} "
                  f"{spec['unit']}")
        for m, s in entry["raw_wall"].items():
            print(f"{w:16s} {m:14s} {s['median']:12.5f} {s['q1']:12.5f} "
                  f"{s['q3']:12.5f} {s['spread']:8.4f} {'-':>6s} s")
        if args.trace:
            _, res = run_once(w, seconds, True)
            failed[w] += res["failed"]
            entry["failed"] = failed[w]
            entry["per_layer"] = {m: v["value"]
                                  for m, v in res["metrics"].items()}
        summary["workloads"][w] = entry
    print("failed checks: " + ", ".join(f"{w}={n}" for w, n in failed.items()))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n",
                                  encoding="utf-8")
    regressed = compare(summary, load_json(Path(args.compare)),
                        bounds) if args.compare else False
    return 0 if not any(failed.values()) and not regressed else 1


def compare(new, old, bounds) -> bool:
    """Print how much worse each new median is; True if any exceeds its bound."""
    print(f"{'workload':16s} {'metric':14s} {'old':>12s} {'new':>12s} "
          f"{'worse by':>8s} {'bound':>6s}")
    regressed = False
    for w, entry in new["workloads"].items():
        for m, spec in bounds.items():
            a = old["workloads"][w]["end_to_end"][m]["median"]
            b = entry["end_to_end"][m]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            flag = worse > spec["bound"]
            regressed |= flag
            print(f"{w:16s} {m:14s} {a:12.5f} {b:12.5f} {worse:8.4f} "
                  f"{spec['bound']:6.2f}{'  REGRESSED' if flag else ''}")
    return regressed


if __name__ == "__main__":
    sys.exit(main())
