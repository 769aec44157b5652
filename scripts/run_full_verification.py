#!/usr/bin/env python3
"""Run `tcube verify --suite all` over a range of dimensions and summarize.

Each dimension is one call of the CLI's own `run_suite(ctx, "all")`, so
this script checks exactly what `tcube verify` reports.

Example:
    python scripts/run_full_verification.py --dmax 6
"""

import argparse
import math
import sys
import time

from tcube.cli import run_suite
from tcube.cube import build_context


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dmax", type=int, default=6)
    args = ap.parse_args()

    failures = 0
    for D in range(1, args.dmax + 1):
        t0 = time.monotonic()
        rows = run_suite(build_context(D), "all")
        elapsed = time.monotonic() - t0
        bad = [r[0] for r in rows if not r[3]]
        failures += len(bad)
        status = "ok" if not bad else f"FAILED: {', '.join(bad[:5])}" + (
            f" and {len(bad) - 5} more" if len(bad) > 5 else "")
        # one module per seed: C(D, r) - C(D, r - 1) summed over r
        modules = math.comb(D, D // 2)
        print(f"D={D}: {modules:3d} modules, {len(rows)} checks, "
              f"{elapsed:6.1f}s  {status}")
    print("all suites passed" if not failures else f"{failures} check "
          "failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
