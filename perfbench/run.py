"""tcube benchmark: one `tcube verify` command per workload, timed from outside.

    python3 perfbench/run.py --workload idempotents-d7 --seed 1 --seconds 30 --trace 0

Each invocation of the workload's command runs in a fresh Python process
(`probe.py`), serially and without `--parallel`.  The run repeats it until
`--seconds` would be exceeded (at least once) and reports medians over the
invocations.  The verify commands take no random input, so `--seed` selects
nothing: every seed runs the same command.

End-to-end metrics (`--trace 0`):
    verify_s      time from the built context to the written report, which
                  includes building the lazy idempotent families
    setup_s       time inside build_context(D)
    peak_rss_mb   peak resident memory of the invocation's process
    checks        report rows, the fewest that any invocation wrote
Both times are rescaled to a fixed reference speed of the machine by the
probe's SpeedSampler, because the shared cores drift by tens of percent; the
wall-time medians are printed on the first line.  Failed report rows are the
result's `failed` count, not a metric, since they are normally 0.

Correctness: every invocation must exit 0 and write a report whose sha256
equals the digest recorded from the seed commit in `seed_reports.json`.
Otherwise all of that invocation's rows count as failed (one failed check if
it wrote none).

With `--trace 1` pairs of one untraced and one traced invocation repeat
until `--seconds` would be exceeded (at least one pair).  The metrics are
the per-layer ones of BENCHMARK.json (see tracer.py), medians over the traced
invocations, plus `trace.overhead`: the median over pairs of the traced
invocation's extra rescaled time in percent.  Layers that a workload never calls
read 0.

The last line of stdout is the JSON result; the lines before it print every
metric with its unit and the Python, numpy and CPU-count environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = HERE / "probe.py"
INVOCATION_TIMEOUT_S = 170

# Each workload is one CLI command; the reason it is in the benchmark is
# given in BENCHMARK.json.
WORKLOADS = {
    "idempotents-d7": (7, "idempotents"),
    "rep-matrices-d8": (8, "rep-matrices"),
    "all-d6": (6, "all"),
}


def cli_args(workload: str):
    d, suite = WORKLOADS[workload]
    return ["verify", "--d", str(d), "--suite", suite]


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class Invocation:
    exit_code: int
    report: bytes
    result: Optional[dict]   # probe's JSON, None if the probe crashed
    stderr: str


def _child_env():
    env = dict(os.environ)
    env.pop("TCUBE_D_LIMIT", None)
    env.pop("PYTHONPATH", None)
    return env


def invoke(workload: str, workdir: Path, trace: bool = False) -> Invocation:
    """Run the workload's command once in a fresh process."""
    result_path = workdir / "result.json"
    report_path = workdir / "report.txt"
    for p in (result_path, report_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(PROBE), "--result", str(result_path),
           "--report", str(report_path)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd + ["--"] + cli_args(workload), cwd=ROOT,
                          env=_child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=INVOCATION_TIMEOUT_S)
    report = report_path.read_bytes() if report_path.exists() else b""
    result = None
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    return Invocation(proc.returncode, report, result, proc.stderr)


def judge(workload: str, inv: Invocation, seed_reports: dict):
    """(rows, failed rows) of one invocation's report.

    The report must be byte-identical to the seed commit's; if it is not, or
    the command did not exit 0, every row of the invocation has failed.
    """
    lines = inv.report.decode("utf-8", "replace").splitlines()
    rows = sum(1 for ln in lines if ln.startswith(("PASS  ", "FAIL  ")))
    ok = (inv.exit_code == 0 and inv.result is not None
          and hashlib.sha256(inv.report).hexdigest()
          == seed_reports[workload]["sha256"])
    if not ok:
        return max(rows, 1), max(rows, 1)
    return rows, sum(1 for ln in lines if ln.startswith("FAIL  "))


def environment(inv: Invocation) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0))}
    if inv.result is not None:
        env.update(python=inv.result["python"], numpy=inv.result["numpy"])
    return env


def _fail_note(workload: str, inv: Invocation):
    tail = "\n".join(inv.stderr.strip().splitlines()[-5:])
    print(f"{workload}: invocation failed (exit {inv.exit_code}, "
          f"{len(inv.report)} report bytes)\n{tail}", file=sys.stderr)


def _repeat(seconds: float):
    """Yield until another pass would end after `seconds`; once at least."""
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        yield
        now = perf_counter()
        if (now - t_start) + (now - t0) > seconds:
            return


class Tally:
    """Judged invocations of one workload: report rows attempted and failed."""

    def __init__(self, workload: str, workdir: Path, seed_reports: dict):
        self.workload, self.workdir = workload, workdir
        self.seed_reports = seed_reports
        self.attempted = self.failed = 0

    def invoke(self, trace: bool = False):
        """(invocation, its report rows)."""
        inv = invoke(self.workload, self.workdir, trace=trace)
        rows, bad = judge(self.workload, inv, self.seed_reports)
        self.attempted += rows
        self.failed += bad
        if bad:
            _fail_note(self.workload, inv)
        return inv, rows


def measure(workload: str, seconds: float, workdir: Path, seed_reports):
    """End-to-end run: repeat the command for `seconds`."""
    tally = Tally(workload, workdir, seed_reports)
    done, rows = [], []
    for _ in _repeat(seconds):
        inv, n = tally.invoke()
        rows.append(n)
        if inv.result is not None and "verify_s" in inv.result:
            done.append(inv.result)
    env = environment(inv)
    if not done:
        return tally.attempted, tally.failed, {}, env

    def median(key):
        return statistics.median(r[key] for r in done)

    metrics = {
        "verify_s": median("verify_s"),
        "setup_s": median("setup_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "checks": min(rows),
    }
    env.update(invocations=len(rows), verify_wall_s=median("verify_wall_s"),
               setup_wall_s=median("setup_wall_s"))
    return tally.attempted, tally.failed, metrics, env


def measure_traced(workload: str, seconds: float, workdir: Path,
                   seed_reports, names):
    """Per-layer run: pairs of one untraced and one traced invocation."""
    tally = Tally(workload, workdir, seed_reports)
    traces, overheads = [], []
    for _ in _repeat(seconds):
        plain, _ = tally.invoke()
        traced, _ = tally.invoke(trace=True)
        if plain.result is None or traced.result is None:
            continue
        traces.append(dict(traced.result["trace"],
                           **{"cli.report_bytes": len(traced.report)}))
        overheads.append(
            100.0 * (traced.result["run_s"] / plain.result["run_s"] - 1))
    env = environment(traced)
    if not traces:
        return tally.attempted, tally.failed, {}, env
    metrics = {n: statistics.median(t.get(n, 0) for t in traces)
               for n in names if n != "trace.overhead"}
    metrics["trace.overhead"] = statistics.median(overheads)
    env.update(pairs=len(overheads))
    return tally.attempted, tally.failed, metrics, env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tcube" / "cli.py").is_file():
        print(f"error: no tcube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    seed_reports = load_json(HERE / "seed_reports.json")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}

    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            attempted, failed, values, env = measure_traced(
                args.workload, args.seconds, workdir, seed_reports,
                list(units))
        else:
            attempted, failed, values, env = measure(
                args.workload, args.seconds, workdir, seed_reports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in values.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
