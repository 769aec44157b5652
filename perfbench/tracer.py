"""Spans and counts around tcube's public entry points, installed from outside.

`instrument(tracer)` replaces the listed functions and methods of an imported
`tcube` with wrappers that record one span per call: (name, parent span,
start, end).  Self time is a span's duration minus the durations of its
direct children.  `GaussRat` construction is counted, not timed, because it
happens hundreds of thousands of times per run.

Free functions are imported by name into several modules (`cli` binds
`build_context`, `cube` binds `rank`, ...), so each wrapper replaces every
`tcube.*` binding of the original object, not only the defining one.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import accumulate
from time import perf_counter


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []   # (name, parent index or -1, start, end)
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn, work=None):
        """`fn` wrapped in a span; `work(*args)` adds to `<name>.madds`."""
        spans, open_, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            if work is not None:
                counts[name + ".madds"] += work(*args)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_.pop()
                spans[idx] = (name, parent, t0, t1)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def metrics(self, pauses=(), scale=1.0) -> dict:
        """`<name>.s` self time and `<name>.calls` per span name, plus counts.

        `pauses` are sorted (start, duration) intervals in which no traced
        code ran (signal handlers); each lies wholly inside the spans open
        at its start and is subtracted from them.  Self times are then
        multiplied by `scale`.
        """
        starts = [s for s, _ in pauses]
        paused = list(accumulate((d for _, d in pauses), initial=0.0))

        def busy(t0, t1):
            return t1 - t0 - (paused[bisect_left(starts, t1)]
                              - paused[bisect_left(starts, t0)])

        dur = [busy(t0, t1) for _, _, t0, t1 in self.spans]
        child = [0.0] * len(self.spans)
        for k, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[k]
        self_s = defaultdict(float)
        calls = Counter()
        for k, (name, _, _, _) in enumerate(self.spans):
            self_s[name] += (dur[k] - child[k]) * scale
            calls[name] += 1
        out = {f"{n}.s": v for n, v in self_s.items()}
        out.update({f"{n}.calls": v for n, v in calls.items()})
        out.update(self.counts)
        return out


def rebind(original, replacement):
    """Point every `tcube.*` module attribute that is `original` at
    `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tcube"
                               or mod_name.startswith("tcube.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _matmul_madds(a, b):
    # Only matrix-matrix products: `A @ v` delegates to the traced matvec.
    return a.rows * a.cols * b.cols if hasattr(b, "cols") else 0


def _matvec_madds(a, v):
    return a.rows * a.cols


def instrument(tracer: Tracer) -> None:
    """Install spans on the layer entry points of the imported tcube."""
    from tcube import cli, cube, decomposition, leonard, linalg, scalar

    for mod, layer, names in (
            (cube, "cube", ("build_context", "verify_idempotent_families",
                            "verify_conjugation", "verify_commutators")),
            (linalg, "linalg", ("rank", "kernel_basis", "gram_schmidt",
                                "inner")),
            (decomposition, "decomposition", ("decompose",)),
            (leonard, "leonard", ("build_six_bases", "verify_rep_matrices",
                                  "verify_inner_products",
                                  "transition_matrices", "is_leonard_triple"))):
        for name in names:
            fn = getattr(mod, name)
            rebind(fn, tracer.wrap(f"{layer}.{name}", fn))

    # Lazy idempotent families: every access is a span; only the first one
    # builds, later ones return the cached tuple.
    for prop in ("E", "Estar", "Eeps"):
        fget = getattr(cube.CubeContext, prop).fget
        setattr(cube.CubeContext, prop,
                property(tracer.wrap(f"cube.{prop}", fget), doc=fget.__doc__))

    M = linalg.ExactMatrix
    matmul = M.__matmul__
    traced_matmul = tracer.wrap("linalg.matmul", matmul, _matmul_madds)
    M.__matmul__ = lambda a, b: (traced_matmul(a, b) if isinstance(b, M)
                                 else matmul(a, b))
    M.matvec = tracer.wrap("linalg.matvec", M.matvec, _matvec_madds)
    M.__init__ = tracer.wrap("linalg.ExactMatrix", M.__init__)
    M.diagonal = classmethod(tracer.wrap("linalg.diagonal",
                                         M.diagonal.__func__))

    S = leonard.BasisSolver
    S.__init__ = tracer.wrap("leonard.BasisSolver", S.__init__)
    S.coords = tracer.wrap("leonard.BasisSolver.coords", S.coords)

    scalar.GaussRat.__init__ = tracer.count("scalar.GaussRat.calls",
                                            scalar.GaussRat.__init__)

    # Formatting and emitting the report rows.
    cli._rows_to_text = tracer.wrap("cli.report", cli._rows_to_text)
    cli._emit = tracer.wrap("cli.report", cli._emit)
