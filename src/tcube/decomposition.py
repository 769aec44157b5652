"""Decomposition of the standard module into irreducible T-modules.

Seeding strategy: the adjacency operator splits as A = L + R where L lowers
the distance slice by one and R raises it (the flat part vanishes because the
cube has no odd cycles).  For each endpoint r the kernel of L on slice r has
one seed per module, and the module attached to a seed w is
span{w, Rw, R^2 w, ...}.  The standard module of Q_D is the D-fold tensor
power of that of Q_1, and L, R and Astar act on it as sl_2 does (Go, Europ.
J. Combin. 23 (2002)), so the seeds have a closed Clebsch-Gordan recursion
over the last coordinate, with vertex 2x + t of Q_D the vertex x of Q_(D-1)
followed by the bit t:

  (a) w (x) e0 for each seed w of Q_(D-1) with endpoint r;
  (b) (R w') (x) e0 - d' (w' (x) e1) for each seed w' of Q_(D-1) with
      endpoint r - 1 and diameter d' = D - 2r + 1, which L annihilates
      because L R w' = d' w'.

They are integer vectors, exactly orthogonal, C(D,r) - C(D,r-1) of them
per r, and need no elimination and no context (`closed_form_seeds`).  The
recursion itself does not have to be trusted: every structural claim used
downstream (thinness, nonvanishing windows, closure, orthogonality,
dimension count) is re-verified on the constructed data against the
context's operators, and `decompose` says why these checks prove that the
seeds span the kernel of L on each slice.

A module's slice basis B is stored as one block, a (d+1) x 2^D matrix with
one vector b_k per row; the context's block operators (`CubeContext.apply`)
give L, R, A, Astar, Aeps and P of a whole block in one call each.  The
modules with one endpoint r are isomorphic (Go), so `decompose` works one
endpoint at a time: the slice bases of its m modules form one slice-major
stack, row k m + j holding b_k of module j, built by d + 1 R gathers on the
m seeds, and one call of each operator on the stack serves every module
(A's images are L's plus R's, which the ladder holds).
The endpoint is certified once over its m 2^D columns: its *frame*
(`ModuleFrame`) is the exact (d+1) x (d+1) matrix of each of A, Astar,
Aeps and P in the basis B, read off the images of its first module and
certified on all of them at once by reconstructing their images, with the
diagonal Gram B B^* divided by <u*, u*>, which the module keeps as its
`norm`.  By the tensor structure these Grams are positive multiples of one
another, which one cross-multiplication of the row norms certifies, so the
modules of an endpoint hold one frame, the very object that `decompose`
certified, and the checks that are a function of it run once per
endpoint.  From then on a module is (d+1)-dimensional: its idempotents are
the spectral idempotents of the frame's matrices (`spectral_parts`), and
its seeds, the six bases and every check on them are coordinates in B
(`leonard`); only --emit-seeds maps the seeds back over 2^D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .cube import CubeContext
from .linalg import ExactMatrix, ExactVector, ints, inverse_diagonal
from .report import check_true
from .scalar import GaussRat


class InvariantViolation(RuntimeError):
    """A constructed module failed one of its structural invariants."""


def multiplicity(D: int, r: int) -> int:
    """Number of irreducible modules with endpoint r: C(D,r) - C(D,r-1)."""
    if not 0 <= 2 * r <= D:
        raise ValueError(f"endpoint r={r} out of range for D={D}")
    low = math.comb(D, r - 1) if r >= 1 else 0
    return math.comb(D, r) - low


def proportional_rows(x: ExactMatrix, y: ExactMatrix):
    """Boolean array: whether row k of x is c * (row k of y) for some
    scalar c; y has one row per row of x, or a single row that every row
    of x is compared with.  A zero row of y has only the zero multiple.

    Cross-multiplies at the first nonzero entry p of y's row: x = c y
    exactly when x * y[p] = x[p] * y.  The denominators are common to a
    block's rows and do not matter.  Each cross entry sums four products
    of numerators, so 4 max|x| max|y| bounds it (`ints`).
    """
    bound = 4 * max(x._max(), 1) * max(y._max(), 1)
    (xr, xi), (yr, yi) = x.ints(bound), y.ints(bound)
    y_nonzero = y.nonzero()
    p = y_nonzero.argmax(axis=1)[:, None]
    ypr = np.take_along_axis(yr, p, axis=1)
    ypi = np.take_along_axis(yi, p, axis=1)
    p = np.broadcast_to(p, (x.rows, 1))
    xpr = np.take_along_axis(xr, p, axis=1)
    xpi = np.take_along_axis(xi, p, axis=1)
    cross_r = (xr * ypr - xi * ypi) - (xpr * yr - xpi * yi)
    cross_i = (xr * ypi + xi * ypr) - (xpr * yi + xpi * yr)
    same_line = ~(np.not_equal(cross_r, 0) | np.not_equal(cross_i, 0)).any(axis=1)
    return same_line & (y_nonzero.any(axis=1) | ~x.nonzero().any(axis=1))


# The seeds in the row order of IrreducibleModule.seeds
SEED_NAMES = ("u", "u*", "ue")

# The operators of a frame, in the row-block order of its certification
FRAME_OPS = ("A", "Astar", "Aeps", "P")


@dataclass(frozen=True, eq=False)
class ModuleFrame:
    """How A, Astar, Aeps and P act on a module W, in its slice basis B.

    A vector of W is x B for a coordinate row x of length d + 1, and
    op (x B) = (x M_op) B: row k of M_op holds the coordinates of op b_k.
    `gram` is B B^* / <u*, u*>, diagonal with positive real entries and
    gram[0, 0] = 1, so <x B, y B> = <u*, u*> x gram y^*; the scale
    <u*, u*> = <b_0, b_0>, which no verdict reads, is the module's `norm`.
    A frame compares and hashes by identity: the modules of one endpoint
    hold the one frame that `decompose` certified, and a memo keyed on it
    finds their entry with no hash of its matrices."""

    A: ExactMatrix
    Astar: ExactMatrix
    Aeps: ExactMatrix
    P: ExactMatrix
    gram: ExactMatrix

    def apply(self, op: str, block: ExactMatrix) -> ExactMatrix:
        """op applied to every coordinate row of block: block @ M_op."""
        return block @ getattr(self, op)

    def gram_of(self, coords: ExactMatrix) -> ExactMatrix:
        """Entry (a, b) is <x_a B, x_b B> / <u*, u*> for the rows x_a of
        coords."""
        return coords @ self.gram @ coords.adjoint()


@dataclass(frozen=True)
class IrreducibleModule:
    """One irreducible T-module: endpoint r, diameter d = D - 2r, its slice
    basis B, a block with one vector per distance slice, its certified
    frame, which holds the coordinates in B of its three seeds
    (`seed_coordinates`), and norm = <u*, u*>, the scale that the frame's
    Gram leaves out."""

    r: int
    d: int
    index: int
    slice_basis: ExactMatrix
    frame: ModuleFrame
    norm: Fraction

    @property
    def dim(self) -> int:
        return self.d + 1

    @property
    def seeds(self) -> ExactMatrix:
        """The seeds over 2^D, which no check reads: 3 x 2^D."""
        return seed_coordinates(self.frame) @ self.slice_basis

    @property
    def u(self) -> ExactVector:
        return self.seeds.row(0)

    @property
    def u_star(self) -> ExactVector:
        return self.seeds.row(1)

    @property
    def u_eps(self) -> ExactVector:
        return self.seeds.row(2)

    def to_json(self) -> dict:
        return {"r": self.r, "d": self.d, "index": self.index, "dim": self.dim}


@dataclass(frozen=True)
class Decomposition:
    D: int
    modules: Tuple[IrreducibleModule, ...]
    multiplicities: Dict[int, int]

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "modules": [m.to_json() for m in self.modules],
            "multiplicities": {str(r): c
                               for r, c in sorted(self.multiplicities.items())},
        }


def _fail(r, index, what):
    raise InvariantViolation(f"module r={r} index={index}: {what}")


def _raise(w):
    """R w for each row w of an integer array over the vertices of Q_m:
    entry x sums w over the vertices x - 2^k, one for each bit k set in x."""
    rows, n = w.shape
    out = np.zeros_like(w)
    h = 1
    while h < n:
        shape = (rows, n // (2 * h), 2, h)
        out.reshape(shape)[:, :, 1, :] += w.reshape(shape)[:, :, 0, :]
        h *= 2
    return out


def _append_bit(even, odd):
    """even (x) e0 + odd (x) e1 for arrays of rows over the vertices of
    Q_(D-1): entry 2x + t of a row is even[x] for t = 0 and odd[x] for
    t = 1."""
    return np.stack([even, odd], axis=2).reshape(len(even), -1)


def _seed_step(prev, D: int):
    """The seeds of Q_D, {r: one seed per row}, from those of Q_(D-1) by the
    recursion (a), (b) of the module docstring, the (a) seeds first.  An
    entry of R w' sums r entries of w' and d' <= D, so every new entry is at
    most D times the largest old one, the bound handed to `ints`."""
    bound = D * max(int(abs(w).max()) for w in prev.values())
    prev = {r: ints(bound, w)[0] for r, w in prev.items()}
    out = {}
    for r in range(D // 2 + 1):
        parts = []
        if r in prev:
            parts.append(_append_bit(prev[r], 0 * prev[r]))
        if r - 1 in prev:
            w = prev[r - 1]
            parts.append(_append_bit(_raise(w), -(D - 2 * r + 1) * w))
        out[r] = np.concatenate(parts)
    return out


def closed_form_seeds(D: int):
    """{r: seeds} for r = 0..D//2: the closed-form seeds of the modules of
    Q_D with endpoint r, one integer vector of length 2^D per row, by the
    recursion from the single vertex of Q_0."""
    seeds = {0: np.ones((1, 1), dtype=np.int64)}
    for m in range(1, D + 1):
        seeds = _seed_step(seeds, m)
    return seeds


def _lagrange_denominator(d: int, k: int) -> int:
    """prod_(j != k) (theta_k - theta_j) for theta_j = d - 2j, that is
    prod_(j != k) 2 (j - k) = 2^d (-1)^k k! (d - k)!."""
    return 2 ** d * (-1) ** k * math.factorial(k) * math.factorial(d - k)


@lru_cache(maxsize=None)
def _lagrange_table(d: int) -> ExactMatrix:
    """Row k holds the coefficients of the Lagrange polynomial
    prod_(j != k) (x - theta_j) / (theta_k - theta_j) of theta_k over
    theta_j = d - 2j, that of x^i in column i: integers over
    `_lagrange_denominator`, each of which divides 2^d d!."""
    common = 2 ** d * math.factorial(d)
    rows = []
    for k in range(d + 1):
        coeffs = [1]
        for j in range(d + 1):
            if j != k:
                # times (x - theta_j)
                coeffs = [low - (d - 2 * j) * high for low, high
                          in zip([0] + coeffs, coeffs + [0])]
        rows.append([c * (common // _lagrange_denominator(d, k))
                     for c in coeffs])
    rows = np.array(rows, dtype=object)
    return ExactMatrix.from_numerators(rows, 0 * rows, common)


@lru_cache(maxsize=None)
def spectral_parts(m: ExactMatrix):
    """(parts, failure) for a frame matrix m, (d+1) x (d+1), and the
    eigenvalues theta_k = d - 2k that A has on E_(r+k) W (and Aeps on
    Eeps_(r+k) W).

    parts[k] = prod_(j != k) (m - theta_j) / (theta_k - theta_j)
    = sum_i W[k, i] m^i, for W the coefficients of the Lagrange
    polynomials (`_lagrange_table`): the powers m^0 .. m^d, each flattened
    to one row, and one product W @ powers, whose row k is part k
    flattened, so that reshaped to (d+1)^2 x (d+1) it is the parts stacked,
    part k in rows k (d+1) .. (k+1) (d+1) - 1.  failure is None when the certificate holds: the parts sum to I (one
    product of a ones row with the flattened parts), parts[k] m =
    theta_k parts[k] (one product of the stacked parts with m, against the
    stack with block k scaled by theta_k), and every part is nonzero.
    Otherwise it names the first check that fails, as ("sum", None), else
    ("eigen", k) or ("zero", k), by k and for each k in that order.
    Memoized on m's exact entries: modules with equal frames share one
    computation."""
    n = m.rows
    d = n - 1
    powers = [ExactMatrix.identity(n), m]
    while len(powers) < n:
        powers.append(powers[-1] @ m)
    flat = _lagrange_table(d) @ ExactMatrix.stack(
        [p.reshape(1, n * n) for p in powers[:n]])
    stacked = flat.reshape(n * n, n)
    parts = tuple(stacked.block(slice(k * n, (k + 1) * n), slice(None))
                  for k in range(n))
    ones = np.ones((1, n), dtype=np.int64)
    total = ExactMatrix.from_numerators(ones, 0 * ones, 1) @ flat
    if total != ExactMatrix.identity(n).reshape(1, n * n):
        return parts, ("sum", None)
    scaled = _scale_rows(stacked, np.repeat(d - 2 * np.arange(n), n))
    eigen = (stacked @ m).entries_equal(scaled).reshape(n, n * n).all(axis=1)
    nonzero = flat.nonzero().any(axis=1)
    for k in range(n):
        if not eigen[k]:
            return parts, ("eigen", k)
        if not nonzero[k]:
            return parts, ("zero", k)
    return parts, None


def spectral_failure(failure, r: int, d: int, label: str, op: str) -> str:
    """The message for a `spectral_parts` failure of operator op, whose
    parts are the family `label` on a module with endpoint r."""
    kind, k = failure
    if kind == "sum":
        return f"the {label}_i W do not sum to W"
    i = r + k
    if kind == "eigen":
        return f"{op} {label}_{i} W != {d - 2 * k} {label}_{i} W"
    return f"{label}_{i} W vanished inside the window"


def _note(failures, bad, what):
    """Record `what` as the failure of each module j with bad[j] that has
    none yet, so that checks noted in order keep each module's first."""
    for j in np.flatnonzero(bad):
        if failures[j] is None:
            failures[j] = what


def _scale_rows(block: ExactMatrix, factors) -> ExactMatrix:
    """diag(factors) @ block for integer factors: row k times factors[k],
    bounded by max|block| max|factors|."""
    f = np.asarray(factors)[:, None]
    re, im = block.ints(max(block._max(), 1) * max(int(abs(f).max()), 1))
    return ExactMatrix.from_numerators(re * f, im * f, block._den)


def _row_norms(block: ExactMatrix):
    """Numerators of <b, b> over den^2 for each row b of block: the sum of
    re^2 + im^2, a complex dot of length cols, bounded by
    2 cols max|block|^2."""
    re, im = block.ints(2 * block.cols * max(block._max(), 1) ** 2)
    return (re * re).sum(axis=1) + (im * im).sum(axis=1)


def _read(image: ExactMatrix, basis: ExactMatrix,
          inverse: ExactMatrix) -> ExactMatrix:
    """The coordinates in an orthogonal basis B of the rows of image,
    image @ B^* times the inverse norms; exact when the rows lie in W."""
    return (image @ basis.adjoint()) @ inverse


def _ladder_failures(ctx: CubeContext, r: int, stack: ExactMatrix,
                     top: ExactMatrix, norms, failures) -> ExactMatrix:
    """Note the first failing slice-ladder check of each module with
    endpoint r, and return L of the stack.  stack holds b_k of module j in
    row k m + j, norms[k, j] its norm (`_row_norms`), and top its image
    R b_d in row j.

    R's table joins each vertex y only to the y ^ e_k one slice below it
    (`CubeContext._gather_table`), whatever signs a flip changes, so
    b_k = R^k b_0 lies on slice r + k once the seed b_0 lies on slice r:
    only the seeds can leave their slice."""
    m, d = len(failures), len(norms) - 1
    seeds_off = stack.block(slice(0, m), np.flatnonzero(ctx._dist != r))
    _note(failures, norms[0] == 0, "slice basis vector 0 is zero")
    _note(failures, seeds_off.nonzero().any(axis=1),
          f"slice basis vector 0 leaves slice {r}")
    for k in range(1, d + 1):
        _note(failures, norms[k] == 0, f"slice basis vector {k} is zero")
    # closure under A = L + R along the slice ladder: L b_k is a nonzero
    # multiple of b_(k-1), and of the zero vector for k = 0; the rows are
    # tested part by part, with no stack-sized mask
    lowered = ctx.apply("L", stack)
    lowered_nonzero = lowered._re.any(axis=1) | lowered._im.any(axis=1)
    _note(failures, lowered_nonzero[:m],
          "seed not annihilated by the lowering operator")
    if d:
        onto = lowered_nonzero[m:] & proportional_rows(
            lowered.block(slice(m, None), slice(None)),
            stack.block(slice(0, d * m), slice(None)))
        for k in range(1, d + 1):
            _note(failures, ~onto[(k - 1) * m:k * m],
                  f"L does not map slice {k} onto slice {k - 1}")
    _note(failures, top.nonzero().any(axis=1),
          "raising the top slice does not vanish")
    return lowered


def _diagonal(norms, den) -> ExactMatrix:
    """diag(norms) / den for a column of integer row norms."""
    diag = np.diag(norms)
    return ExactMatrix.from_numerators(diag, 0 * diag, int(den))


def _own_read(image: ExactMatrix, basis: ExactMatrix, norms, den: int):
    """The matrix of an op on one module read off its own images, for a
    slice basis whose row norms are norms / den, or None when it does not
    rebuild them exactly: the op does not map W into W.  For a module that
    the matrix of its endpoint does not rebuild, which a corrupted context
    alone makes."""
    coords = _read(image, basis, inverse_diagonal(_diagonal(norms, den)))
    return coords if (coords @ basis).entries_equal(image).all() else None


def _endpoint_modules(ctx: CubeContext, r: int, numerators):
    """The modules with endpoint r, one per seed row of `numerators`,
    certified together (see `decompose`)."""
    m, d, n = len(numerators), ctx.D - 2 * r, ctx.n
    steps = [ExactMatrix.from_numerators(numerators, 0 * numerators, 1)]
    for _ in range(d + 1):
        steps.append(ctx.apply("R", steps[-1]))
    top = steps.pop()
    # slice-major: row k m + j of stack is b_k of module j, and in the free
    # view (d+1) x (m 2^D) module j owns the columns j 2^D ... (j+1) 2^D - 1
    stack = ExactMatrix.stack(steps)
    del steps
    view = stack.reshape(d + 1, m * n)

    def owned(block: ExactMatrix, j: int) -> ExactMatrix:
        return block.block(slice(None), slice(j * n, (j + 1) * n))

    failures = [None] * m
    norms = _row_norms(stack).reshape(d + 1, m)
    lowered = _ladder_failures(ctx, r, stack, top, norms, failures)
    # A's images need no gather: the block operators L and R split A's
    # gather between them, and R b_k is b_(k+1), or top for k = d
    images = {"A": lowered + ExactMatrix.stack(
        [stack.block(slice(m, None), slice(None)), top])}
    del lowered
    den = stack._den ** 2
    basis = owned(view, 0)
    inverse = inverse_diagonal(_diagonal(norms[:, 0], den))
    scaled_by = np.repeat(ctx.D - 2 * (r + np.arange(d + 1)), m)
    # the frame read off module 0, and for each op the modules whose images
    # it rebuilds: one product over the whole view, one operator at a time.
    # A module that it does not rebuild has its own matrix for that op read
    # off its part of the image, None if it escapes W under the op.  A
    # module whose Astar images pass the scale check has the frame matrix
    # diag(theta) for Astar, as module 0 then has, so Astar needs none.
    shared, own = {}, [{} for _ in range(m)]
    for op in FRAME_OPS:
        image = images.pop(op) if op in images else ctx.apply(op, stack)
        if op == "Astar":
            same = image.entries_equal(_scale_rows(stack, scaled_by))
            for k in range(d + 1):
                _note(failures, ~same[k * m:(k + 1) * m].all(axis=1),
                      f"Astar does not scale slice {k}")
            del same
        image = image.reshape(d + 1, m * n)
        shared[op] = _read(owned(image, 0), basis, inverse)
        if op != "Astar":
            fits = (shared[op] @ view).entries_equal(image).reshape(
                d + 1, m, n).all(axis=(0, 2))
            for j in np.flatnonzero(~fits):
                own[j][op] = _own_read(owned(image, j), owned(view, j),
                                       norms[:, j], den)
        del image
    # after the ladder and Astar checks, the first op in FRAME_OPS order
    # under which a module leaves W
    for op in FRAME_OPS:
        _note(failures, [op in o and o[op] is None for o in own],
              f"{op} does not map W into W")
    # the rebuilt modules, with no matrix of their own, whose Grams are
    # positive multiples of module 0's hold one frame, the group's, and
    # share its checks (see decompose); every product is at most
    # max(norms)^2
    nn = ints(max(int(norms.max()), 1) ** 2, norms)[0]
    rebuilt = np.array([not o for o in own])
    shares = rebuilt & (nn * nn[0, 0] == nn[:, :1] * nn[0]).all(axis=0)
    group = None
    modules = []
    for j in range(m):
        if failures[j] is not None:
            _fail(r, j, failures[j])
        basis = owned(view, j)
        if shares[j] and group is not None:
            frame = group
        else:
            frame = ModuleFrame(**{**shared, **own[j]},
                                gram=_diagonal(norms[:, j], norms[0, j]))
            _check_seeds(r, j, frame)
            if shares[j]:
                group = frame
        modules.append(IrreducibleModule(
            r=r, d=d, index=j, slice_basis=basis, frame=frame,
            norm=Fraction(int(norms[0, j]), den)))
    return modules


def _check_seeds(r: int, index: int, frame: ModuleFrame) -> None:
    """The checks of a certified frame's seeds, in order: the spectral
    certificates of A and Aeps, the seeds u and ue nonzero, and the
    pairings <u*,u>, <u,ue>, <ue,u*> nonzero.  Each is a function of the
    frame: the norm of B, which its Gram leaves out, is positive and does
    not change whether a pairing vanishes."""
    d = frame.A.rows - 1
    for op, label in (("A", "E"), ("Aeps", "Eeps")):
        failure = spectral_parts(getattr(frame, op))[1]
        if failure is not None:
            _fail(r, index, spectral_failure(failure, r, d, label, op))
    coords = seed_coordinates(frame)
    seed_nonzero = coords.nonzero().any(axis=1)
    for k in (0, 2):
        if not seed_nonzero[k]:
            _fail(r, index, f"seed {SEED_NAMES[k]} is zero")
    pairings = frame.gram_of(coords)
    for a, b in (("u*", "u"), ("u", "ue"), ("ue", "u*")):
        if not pairings[SEED_NAMES.index(a), SEED_NAMES.index(b)]:
            _fail(r, index, f"<{a},{b}> vanished")


@lru_cache(maxsize=None)
def seed_coordinates(frame: ModuleFrame) -> ExactMatrix:
    """The seeds u = E_r u*, u* = b_0 and ue = Eeps_r u* in coordinates, in
    SEED_NAMES order: row 0 of the parts for theta_r of the frame's A and
    Aeps, and the unit row e_0.  Meaningful once the spectral certificates
    of both hold, which `decompose` checks.  The frame is the one owner of
    a module's seeds; memoized on it, by identity."""
    rows = [spectral_parts(getattr(frame, op))[0][0].block([0], slice(None))
            for op in ("A", "Aeps")]
    unit = ExactMatrix.identity(frame.A.rows).block([0], slice(None))
    return ExactMatrix.stack([rows[0], unit, rows[1]])


def _check_orthogonal_sum(ctx: CubeContext, modules) -> None:
    """The dimensions sum to 2^D and the modules are pairwise orthogonal.

    Rests on decompose's slice-support check: vector k of a module with
    endpoint r lies on slice r + k.  So vectors on different slices are
    orthogonal without any product, and the check is one Gram per slice s,
    of the vectors on slice s restricted to the slice's C(D, s) columns,
    which must vanish off the pairs of one module.  Only those vectors are
    gathered for it, as one matrix of their numerators: each numerator row
    is its vector times its module's positive denominator, which leaves the
    zero pattern of the Gram as it is.  The pair named is the first in the
    row-major order of the Gram of all the vectors."""
    owner = np.repeat(np.arange(len(modules)), [m.dim for m in modules])
    if len(owner) != ctx.n:
        raise InvariantViolation(
            f"module dimensions sum to {len(owner)}, expected {ctx.n}")
    on_slice = np.concatenate([m.r + np.arange(m.dim) for m in modules])
    crossing = []
    for s in range(ctx.D + 1):
        rows = np.flatnonzero(on_slice == s)
        cols = np.array(ctx.slice_indices(s))
        picked = [(modules[j].slice_basis, s - modules[j].r)
                  for j in owner[rows]]
        vectors = ExactMatrix.from_numerators(
            np.stack([b._re[k, cols] for b, k in picked]),
            np.stack([b._im[k, cols] for b, k in picked]), 1)
        gram = vectors @ vectors.adjoint()
        cross = gram.nonzero() & (owner[rows][:, None] != owner[rows][None, :])
        if cross.any():
            a, b = np.argwhere(cross)[0]
            crossing.append((rows[a], rows[b]))
    if crossing:
        a, b = min(crossing)
        raise InvariantViolation(
            f"modules {owner[a]} and {owner[b]} are not orthogonal")


def decompose(ctx: CubeContext) -> Decomposition:
    """Split C^(2^D) into irreducible T-modules and validate every invariant.

    The seeds are `closed_form_seeds`; the checks prove that those with
    endpoint r span the kernel of L on slice r.  Each seed is a nonzero
    vector on slice r that L, read off this context's A, annihilates.  The
    modules are pairwise orthogonal (one Gram per slice) and their
    dimensions sum to 2^D, so C^(2^D) is their direct sum; each is closed
    under L, which maps its slice vector k >= 1 to a nonzero multiple of
    vector k - 1.  A vector v on slice r with L v = 0 then splits into one
    component per module, each on slice r and each killed by L, so each is
    a multiple of that module's seed if its endpoint is r, and zero
    otherwise.  The count C(D,r) - C(D,r-1) per r is checked as well.

    Each module's frame is certified: W = span(b_k) is closed under A,
    Astar, Aeps and P, with exact matrices M_A, ... in the basis B.  The
    frame's spectral certificates then stand in for projections over 2^D.
    The parts F_k of M_A (`spectral_parts`) sum to I, satisfy
    F_k M_A = theta_(r+k) F_k and are nonzero, for the d + 1 distinct
    eigenvalues theta_(r+k) = d - 2k, so W splits into d + 1 nonzero
    eigenspaces of A, each of dimension 1.  E_i = p_i(A) for the Lagrange
    polynomial p_i of theta_i over the spectrum of A, so on W it acts as
    p_i(M_A) = sum_k p_i(theta_(r+k)) F_k: that is F_(i-r) inside the
    window r <= i <= r+d and 0 outside it.  Hence dim E_i W is 1 on the
    window and 0 off it (W is thin, with a nonvanishing window), and
    u = E_r u* = (row 0 of F_0) B.  The same argument with Aeps, M_Aeps
    and Eeps_i gives the same for Eeps, and ue = Eeps_r u*.

    The work is done one endpoint at a time, on the slice-major stack of
    the endpoint's m slice bases (row k m + j is b_k of module j): d + 1 R
    gathers on the m seeds build it, and one L, Astar and Aeps gather and
    one P pass on it cover every module; A's images are those of L plus
    those of R, which the ladder holds, since the block operators split
    A's gather between L and R.  The ladder and slice checks run on the
    stack.  The frame is read off module 0 and certifies every module at
    once, by the exact reconstruction M_op B_j = op B_j for all j as one
    (d+1) x (d+1) by (d+1) x (m 2^D) product for each of A, Aeps and P;
    Astar's is diag(theta) on every module that passes the slice scale
    check.  Since the coordinates in an orthogonal basis are unique, a
    module the frame rebuilds has exactly that frame's four matrices.  Each
    module's diagonal Gram B B^* is read off its row norms: the slice
    support check puts b_k on slice r + k, so the vectors are orthogonal and
    nonzero, and "the slice basis is not orthogonal" is implied rather than
    tested.  A module that the shared frame does not rebuild under an op
    (only on a corrupted context) has its matrix for that op read off its
    own columns of the same image, and the shared matrices for the others,
    which are its own as well.  The seeds
    are their coordinates in B, which the frame holds
    (`seed_coordinates`), checked on the frame (`_check_seeds`), as the
    ladder checks make B injective.

    The rebuilt modules whose norms are positive multiples of module 0's,
    norms[k, j] norms[0, 0] = norms[k, 0] norms[0, j] for every k, have
    equal normalized Grams and hold one frame object, the group's.  The
    spectral certificates, the seeds nonzero and the seed pairings nonzero
    are functions of it (a positive scale of the Gram leaves whether a
    pairing vanishes), so they run on the first module of the group, and
    the others take its verdict with its frame.  Every other
    module, which a corrupted context alone makes, holds a frame of its
    own and runs them on it.  Every check is made for all
    modules of an endpoint; the error names the first module in index
    order, at its first failing check in the order ladder, Astar, frame,
    spectral, seed nonzero, seed pairings: a shared verdict that fails
    fails at the first module that shares it."""
    modules = []
    mults = {}
    for r, numerators in closed_form_seeds(ctx.D).items():
        if len(numerators) != multiplicity(ctx.D, r):
            raise InvariantViolation(
                f"endpoint {r}: {len(numerators)} seeds, expected "
                f"C(D,r) - C(D,r-1) = {multiplicity(ctx.D, r)}")
        modules.extend(_endpoint_modules(ctx, r, numerators))
        mults[r] = len(numerators)
    _check_orthogonal_sum(ctx, modules)
    return Decomposition(D=ctx.D, modules=tuple(modules), multiplicities=mults)


# -- seed inner products ---------------------------------------------------------


def verify_seed_norms(mod: IrreducibleModule):
    """Norms of the three seeds against the product of their mutual inner
    products, plus positivity of the invariant scalar.

    Each identity is homogeneous of degree 1 in the scale of the Gram, and
    the scalar scales by its positive cube, so the verdicts are a function
    of the frame, which holds the seed coordinates and whose Gram leaves the
    module's norm out, and are computed once per frame."""
    return list(_seed_norm_checks(mod.frame))


@lru_cache(maxsize=None)
def _seed_norm_checks(frame: ModuleFrame):
    gram = frame.gram_of(seed_coordinates(frame))

    def inner(first, second):
        return gram[SEED_NAMES.index(first), SEED_NAMES.index(second)]

    one_plus_i_d = GaussRat(1, 1) ** (frame.A.rows - 1)
    a = inner("u", "u*")
    b = inner("u*", "ue")
    c = inner("ue", "u")
    scalar = a * b * c * one_plus_i_d
    return (
        check_true("seed_norm_u", inner("u", "u")
                   == one_plus_i_d * a * c / inner("ue", "u*")),
        check_true("seed_norm_ustar", inner("u*", "u*")
                   == one_plus_i_d * b * a / inner("u", "ue")),
        check_true("seed_norm_ueps", inner("ue", "ue")
                   == one_plus_i_d * c * b / inner("u*", "u")),
        check_true("seed_product_positive",
                   scalar.is_real() and scalar.re > 0),
    )
