#!/usr/bin/env python3
"""Print the 6 bases x 3 operators representation grid for one module.

Example:
    python scripts/show_module_matrices.py --d 4 --r 1 --index 0
"""

import argparse
import sys

from tcube.cube import build_context
from tcube.decomposition import decompose
from tcube.leonard import (BASIS_LABELS, OPERATOR_LABELS, build_six_bases,
                           cube_representations)


def compact(g):
    if g.is_zero():
        return "."
    parts = []
    if g.re:
        parts.append(str(g.re))
    if g.im:
        if abs(g.im) == 1:
            parts.append("i" if g.im > 0 else "-i")
        else:
            parts.append(f"{g.im}i")
    return ("+" if g.re and g.im > 0 else "").join(parts) \
        if len(parts) > 1 else parts[0]


def fmt(matrix):
    cells = [[compact(e) for e in row] for row in matrix.to_rows()]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", dest="D", type=int, required=True)
    ap.add_argument("--r", type=int, default=0)
    ap.add_argument("--index", type=int, default=0)
    args = ap.parse_args()

    ctx = build_context(args.D)
    dec = decompose(ctx)
    try:
        mod = next(m for m in dec.modules
                   if m.r == args.r and m.index == args.index)
    except StopIteration:
        print(f"no module r={args.r} index={args.index} for D={args.D}",
              file=sys.stderr)
        return 2
    bases = build_six_bases(ctx, mod)
    print(f"module r={mod.r} d={mod.d} index={mod.index} of Q_{args.D}")
    for label in BASIS_LABELS:
        reps = cube_representations(ctx, bases, label)
        for op_name, rep in zip(OPERATOR_LABELS, reps):
            print(f"\n{op_name} in basis {label}:")
            print(fmt(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
