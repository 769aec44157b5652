"""One `tcube` CLI invocation in a fresh process, timed from outside the package.

    python3 perfbench/probe.py --result OUT.json --report REPORT [--trace] -- verify --d 7 ...

The package is imported from `src/` of the checkout this file sits in.  The
probe wraps every binding of `cube.build_context` with a timer, sends the
CLI's stdout to REPORT and writes a JSON result:

    exit_code       the CLI's return code (also the probe's own exit code)
    setup_wall_s    wall time inside build_context(D)
    verify_wall_s   wall time from the built context to the closed report
    wall_s          wall time of the whole CLI call
    setup_s, verify_s, run_s   the same three intervals rescaled to a
                    reference speed (see SpeedSampler)
    peak_rss_mb     peak resident memory of this process
    trace           per-layer metrics (with --trace; see tracer.py), with the
                    kernel runs left out and self times rescaled like run_s
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import rebind

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_tcube():
    sys.path.insert(0, str(SRC))
    import tcube
    from tcube import cli, cube
    if not Path(tcube.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"probe: imported tcube from {tcube.__file__}, "
                         f"not from {SRC}")
    return cli, cube


def _speed_kernel():
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return s


class SpeedSampler:
    """Rescales wall time to a fixed reference speed of the machine.

    The cores are shared with other tenants, and the speed of this process
    drifts by tens of percent within seconds to minutes.  The drift is not
    time taken from the process: its CPU time (user + system) over the verify
    interval matches the wall time within 0.3 % and spreads as much from run
    to run, so neither can serve as the benchmark's time.  The sampler times
    a fixed pure-Python kernel BURST times before the measured work and then
    on a SIGALRM every PERIOD_S seconds during it.  Each stretch of work
    between two kernel runs is scaled by REF_KERNEL_S over the median kernel
    time of the SMOOTH nearest samples; kernel time itself is left out.  The
    kernel calls no tcube code, so no change to the program changes its
    work; it runs in the measured process to feel the speed of the core that
    process is on.
    """

    PERIOD_S = 0.05
    BURST = 25
    SMOOTH = 9
    REF_KERNEL_S = 0.0008

    def __init__(self):
        self.samples = []   # (start, duration) of each kernel run

    def _run_kernel(self, *_):
        t0 = perf_counter()
        _speed_kernel()
        self.samples.append((t0, perf_counter() - t0))

    def start(self):
        for _ in range(self.BURST):
            self._run_kernel()
        signal.signal(signal.SIGALRM, self._run_kernel)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _speed_at(self, k):
        """Median kernel time of the SMOOTH samples nearest to sample k."""
        lo = max(0, min(k - self.SMOOTH // 2, len(self.samples) - self.SMOOTH))
        return statistics.median(d for _, d in self.samples[lo:lo + self.SMOOTH])

    def wall_and_rescaled(self, t0, t1):
        """(wall time, rescaled time) of [t0, t1] outside kernel runs."""
        wall = rescaled = 0.0
        start = t0
        inside = [k for k, (s, _) in enumerate(self.samples) if t0 <= s < t1]
        for k in inside:
            s, d = self.samples[k]
            wall += s - start
            rescaled += (s - start) * self.REF_KERNEL_S / self._speed_at(k)
            start = s + d
        last = inside[-1] if inside else max(
            (k for k, (s, _) in enumerate(self.samples) if s < t0), default=0)
        wall += t1 - start
        rescaled += (t1 - start) * self.REF_KERNEL_S / self._speed_at(last)
        return wall, rescaled


def _time_setup(cube, spans):
    build = cube.build_context

    def timed_build_context(*args, **kwargs):
        t0 = perf_counter()
        ctx = build(*args, **kwargs)
        spans.append((t0, perf_counter()))
        return ctx

    rebind(build, timed_build_context)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    if "--" not in argv:
        raise SystemExit("probe.py: CLI arguments after -- are required")
    k = argv.index("--")
    argv, cli_args = argv[:k], argv[k + 1:]
    p = argparse.ArgumentParser(prog="probe.py")
    p.add_argument("--result", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    cli, cube = _import_tcube()
    import numpy
    result = {"python": platform.python_version(), "numpy": numpy.__version__}
    setup = []
    _time_setup(cube, setup)
    run = cli.main
    tracer = None
    if args.trace:
        from tracer import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
        run = tracer.wrap("cli.main", run)

    saved = sys.stdout
    sampler = SpeedSampler()
    sampler.start()
    t0 = perf_counter()
    try:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            sys.stdout = fh
            code = run(cli_args)
    finally:
        sys.stdout = saved
        sampler.stop()
    t1 = perf_counter()

    result["wall_s"], result["run_s"] = sampler.wall_and_rescaled(t0, t1)
    if setup:
        (b0, b1), = setup
        result["setup_wall_s"], result["setup_s"] = \
            sampler.wall_and_rescaled(b0, b1)
        result["verify_wall_s"], result["verify_s"] = \
            sampler.wall_and_rescaled(b1, t1)
    if tracer is not None:
        result["trace"] = tracer.metrics(
            pauses=sampler.samples, scale=result["run_s"] / result["wall_s"])
    result.update(exit_code=code, peak_rss_mb=_peak_rss_mb())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
