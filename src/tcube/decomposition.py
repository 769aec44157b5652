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
certified on all of them at once by reconstructing their images, and each
module keeps its own diagonal Gram B B^*.  From then on a module is
(d+1)-dimensional: its idempotents are the spectral idempotents of the
frame's matrices (`spectral_parts`), and the six bases and every check on
them are coordinates in B (`leonard`).  By the tensor structure the frame
depends only on the endpoint, once the Gram is divided by <u*, u*>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .cube import CubeContext
from .linalg import (ExactMatrix, ExactVector, _as_object, _fits, _max_abs,
                     _numerators, fits_i64, inverse_diagonal)
from .report import check_true
from .scalar import GaussRat


class InvariantViolation(RuntimeError):
    """A constructed module failed one of its structural invariants."""


class InfeasibleTargets(ValueError):
    """Requested seed inner products cannot be realized at all."""


class FieldExtensionRequired(ValueError):
    """Targets are feasible over C but need a square root outside Q(i)."""


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
    of numerators, so int64 holds it when fits_i64(2, max|x|, max|y|).
    """
    fits = fits_i64(2, x._max(), y._max())
    (xr, xi), (yr, yi) = _numerators(x, fits), _numerators(y, fits)
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


@dataclass(frozen=True)
class ModuleFrame:
    """How A, Astar, Aeps and P act on a module W, in its slice basis B.

    A vector of W is x B for a coordinate row x of length d + 1, and
    op (x B) = (x M_op) B: row k of M_op holds the coordinates of op b_k.
    `gram` is B B^*, diagonal with positive real entries, so
    <x B, y B> = x gram y^*."""

    A: ExactMatrix
    Astar: ExactMatrix
    Aeps: ExactMatrix
    P: ExactMatrix
    gram: ExactMatrix

    def apply(self, op: str, block: ExactMatrix) -> ExactMatrix:
        """op applied to every coordinate row of block: block @ M_op."""
        return block @ getattr(self, op)

    @cached_property
    def normalized(self) -> "ModuleFrame":
        """This frame with its Gram divided by <b_0, b_0> = <u*, u*>: what
        remains when the scale of B is forgotten, which no verdict reads."""
        return replace(self, gram=self.gram.scale(1 / self.gram[0, 0]))


@dataclass(frozen=True)
class IrreducibleModule:
    """One irreducible T-module: endpoint r, diameter d = D - 2r, its three
    seeds as the rows of one block in SEED_NAMES order, its slice basis, a
    block with one vector per distance slice, and its certified frame."""

    r: int
    d: int
    index: int
    seeds: ExactMatrix
    slice_basis: ExactMatrix
    frame: ModuleFrame

    @property
    def dim(self) -> int:
        return self.d + 1

    @property
    def u(self) -> ExactVector:
        return self.seeds.row(0)

    @property
    def u_star(self) -> ExactVector:
        return self.seeds.row(1)

    @property
    def u_eps(self) -> ExactVector:
        return self.seeds.row(2)

    @cached_property
    def seed_gram(self) -> ExactMatrix:
        """seeds @ seeds^*: entry (a, b) is <seed a, seed b>."""
        return self.seeds @ self.seeds.adjoint()

    def seed_inner(self, first: str, second: str) -> GaussRat:
        return self.seed_gram[SEED_NAMES.index(first),
                              SEED_NAMES.index(second)]

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
    most D times the largest old one: int64 when _fits(max, D), else on
    Python ints."""
    if not all(_fits(_max_abs(w), D) for w in prev.values()):
        prev = {r: _as_object(w) for r, w in prev.items()}
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
def spectral_parts(m: ExactMatrix):
    """(parts, failure) for a frame matrix m, (d+1) x (d+1), and the
    eigenvalues theta_k = d - 2k that A has on E_(r+k) W (and Aeps on
    Eeps_(r+k) W).

    parts[k] = prod_(j != k) (m - theta_j) / (theta_k - theta_j), by
    prefix and suffix products.  failure is None when the certificate
    holds: the parts sum to I, parts[k] m = theta_k parts[k], and every
    part is nonzero.  Otherwise it names the first check that fails, as
    ("sum", None), ("eigen", k) or ("zero", k).  Memoized on m's exact
    entries: modules with equal frames share one computation."""
    n = m.rows
    d = n - 1
    ident = ExactMatrix.identity(n)
    factors = [m - ident.scale(d - 2 * j) for j in range(n)]
    before, after = [ident], [ident]
    for j in range(d):
        before.append(before[-1] @ factors[j])
        after.append(factors[d - j] @ after[-1])
    parts = tuple((before[k] @ after[d - k]).scale(
        Fraction(1, _lagrange_denominator(d, k))) for k in range(n))
    total = parts[0]
    for f in parts[1:]:
        total = total + f
    if total != ident:
        return parts, ("sum", None)
    for k, f in enumerate(parts):
        if f @ m != f.scale(d - 2 * k):
            return parts, ("eigen", k)
        if f.is_zero():
            return parts, ("zero", k)
    return parts, None


def _spectral_failure(failure, r: int, d: int, label: str, op: str) -> str:
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
    on int64 when _fits(max, max|factors|)."""
    f = np.asarray(factors)[:, None]
    re, im = _numerators(block, _fits(block._max(), int(abs(f).max())))
    return ExactMatrix.from_numerators(re * f, im * f, block._den)


def _row_norms(block: ExactMatrix):
    """Numerators of <b, b> over den^2 for each row b of block: the sum of
    re^2 + im^2, on int64 when fits_i64(cols, max, max) bounds it."""
    re, im = _numerators(block, fits_i64(block.cols, block._max(),
                                         block._max()))
    return (re * re).sum(axis=1) + (im * im).sum(axis=1)


def _read(image: ExactMatrix, basis: ExactMatrix,
          inverse: ExactMatrix) -> ExactMatrix:
    """The coordinates in an orthogonal basis B of the rows of image,
    image @ B^* times the inverse norms; exact when the rows lie in W."""
    return (image @ basis.adjoint()) @ inverse


def _ladder_failures(ctx: CubeContext, r: int, stack: ExactMatrix,
                     top: ExactMatrix, failures) -> ExactMatrix:
    """Note the first failing slice-ladder check of each module with
    endpoint r, and return L of the stack.  stack holds b_k of module j in
    row k m + j, and top its image R b_d in row j."""
    m = len(failures)
    d = stack.rows // m - 1
    nonzero = stack.nonzero()
    slices = np.repeat(r + np.arange(d + 1), m)
    leaves = (nonzero & (ctx._dist[None, :] != slices[:, None])).any(axis=1)
    zero = ~nonzero.any(axis=1)
    del nonzero
    for k in range(d + 1):
        rows = slice(k * m, (k + 1) * m)
        _note(failures, zero[rows], f"slice basis vector {k} is zero")
        _note(failures, leaves[rows], f"slice basis vector {k} leaves slice "
                                   f"{r + k}")
    # closure under A = L + R along the slice ladder: L b_k is a nonzero
    # multiple of b_(k-1), and of the zero vector for k = 0
    lowered = ctx.apply("L", stack)
    lowered_nonzero = lowered.nonzero().any(axis=1)
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


def _own_frame(ctx: CubeContext, r: int, index: int, basis: ExactMatrix,
               gram: ExactMatrix) -> ModuleFrame:
    """The frame of one module read off the images of its own slice basis
    and certified by their exact reconstruction, op by op in FRAME_OPS
    order; for a module that the frame of its endpoint does not rebuild,
    which a corrupted context alone makes."""
    inverse = inverse_diagonal(gram)
    coords = {}
    for op in FRAME_OPS:
        image = ctx.apply(op, basis)
        coords[op] = _read(image, basis, inverse)
        if not (coords[op] @ basis).entries_equal(image).all():
            _fail(r, index, f"{op} does not map W into W")
    return ModuleFrame(**coords, gram=gram)


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
    lowered = _ladder_failures(ctx, r, stack, top, failures)
    # A's images need no gather: the block operators L and R split A's
    # gather between them, and R b_k is b_(k+1), or top for k = d
    images = {"A": lowered + ExactMatrix.stack(
        [stack.block(slice(m, None), slice(None)), top])}
    del lowered
    norms = _row_norms(stack).reshape(d + 1, m)
    grams = [ExactMatrix.from_numerators(np.diag(norms[:, j]),
                                         np.zeros((d + 1, d + 1), np.int64),
                                         stack._den ** 2) for j in range(m)]
    basis = owned(view, 0)
    inverse = inverse_diagonal(grams[0])
    scaled_by = np.repeat(ctx.D - 2 * (r + np.arange(d + 1)), m)
    # the frame read off module 0, and for each op the modules whose images
    # it rebuilds: one product over the whole view, one operator at a time.
    # A module whose Astar images pass the scale check has the frame matrix
    # diag(theta) for Astar, as module 0 then has, so Astar needs none.
    shared, rebuilt = {}, np.ones(m, dtype=bool)
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
            rebuilt &= (shared[op] @ view).entries_equal(image).reshape(
                d + 1, m, n).all(axis=(0, 2))
        del image
    seeds = _seed_coordinates(shared["A"], shared["Aeps"]) @ view
    modules = []
    for j in range(m):
        if failures[j] is not None:
            _fail(r, j, failures[j])
        basis = owned(view, j)
        if rebuilt[j]:
            frame = ModuleFrame(**shared, gram=grams[j])
        else:
            frame = _own_frame(ctx, r, j, basis, grams[j])
        for op, label in (("A", "E"), ("Aeps", "Eeps")):
            failure = spectral_parts(getattr(frame, op))[1]
            if failure is not None:
                _fail(r, j, _spectral_failure(failure, r, d, label, op))
        # a copy of the module's columns, so that the endpoint's product is
        # freed once every module holds its own
        own = (seeds.columns(np.arange(j * n, (j + 1) * n)) if rebuilt[j]
               else seed_coordinates(frame) @ basis)
        seed_nonzero = own.nonzero().any(axis=1)
        for k in (0, 2):
            if not seed_nonzero[k]:
                _fail(r, j, f"seed {SEED_NAMES[k]} is zero")
        mod = IrreducibleModule(r=r, d=d, index=j, seeds=own,
                                slice_basis=basis, frame=frame)
        _check_seed_pairings(mod)
        modules.append(mod)
    return modules


def seed_coordinates(frame: ModuleFrame) -> ExactMatrix:
    """The seeds u = E_r u*, u* = b_0 and ue = Eeps_r u* in coordinates, in
    SEED_NAMES order: row 0 of the parts for theta_r of the frame's A and
    Aeps, and the unit row e_0.  Meaningful once the spectral certificates
    of both hold, which `decompose` checks."""
    return _seed_coordinates(frame.A, frame.Aeps)


@lru_cache(maxsize=None)
def _seed_coordinates(a: ExactMatrix, aeps: ExactMatrix) -> ExactMatrix:
    rows = [spectral_parts(m)[0][0].block([0], slice(None)) for m in (a, aeps)]
    unit = ExactMatrix.identity(a.rows).block([0], slice(None))
    return ExactMatrix.stack([rows[0], unit, rows[1]])


def _check_seed_pairings(mod: IrreducibleModule) -> None:
    for a, b in (("u*", "u"), ("u", "ue"), ("ue", "u*")):
        if not mod.seed_inner(a, b):
            _fail(mod.r, mod.index, f"<{a},{b}> vanished")


def _check_orthogonal_sum(ctx: CubeContext, modules) -> None:
    """The dimensions sum to 2^D and the modules are pairwise orthogonal.

    Rests on decompose's slice-support check: vector k of a module with
    endpoint r lies on slice r + k.  So vectors on different slices are
    orthogonal without any product, and the check is one Gram per slice s,
    of the vectors on slice s restricted to the slice's C(D, s) columns,
    which must vanish off the pairs of one module.  Only those vectors are
    gathered for it.  The pair named is the first in the row-major order of
    the Gram of all the vectors."""
    owner = np.repeat(np.arange(len(modules)), [m.dim for m in modules])
    if len(owner) != ctx.n:
        raise InvariantViolation(
            f"module dimensions sum to {len(owner)}, expected {ctx.n}")
    on_slice = np.concatenate([m.r + np.arange(m.dim) for m in modules])
    crossing = []
    for s in range(ctx.D + 1):
        rows = np.flatnonzero(on_slice == s)
        cols = ctx.slice_indices(s)
        vectors = ExactMatrix.stack([
            modules[j].slice_basis.block(slice(s - modules[j].r,
                                               s - modules[j].r + 1), cols)
            for j in owner[rows]])
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
    module the frame rebuilds has exactly that frame.  Such modules share
    the four frame matrices, each with its own diagonal Gram B B^* read off
    its row norms: the slice support check puts b_k on slice r + k, so the
    vectors are orthogonal and nonzero, and "the slice basis is not
    orthogonal" is implied rather than tested.  A module that the shared
    frame does not rebuild (only on a corrupted context) has its frame read
    off its own images.  The seeds are seed_coordinates(frame) times the
    view, once per endpoint, and the spectral parts are computed once per
    distinct frame matrix.  Every check is made for all modules of an
    endpoint; the error names the first module in index order, at its first
    failing check in the order ladder, Astar, frame, spectral, seed
    nonzero, seed pairings."""
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
    products, plus positivity of the invariant scalar."""
    one_plus_i_d = GaussRat(1, 1) ** mod.d
    a = mod.seed_inner("u", "u*")
    b = mod.seed_inner("u*", "ue")
    c = mod.seed_inner("ue", "u")
    nu = mod.seed_inner("u", "u")
    nus = mod.seed_inner("u*", "u*")
    nue = mod.seed_inner("ue", "ue")
    scalar = a * b * c * one_plus_i_d
    return [
        check_true("seed_norm_u",
                   nu == one_plus_i_d * a * c / mod.seed_inner("ue", "u*")),
        check_true("seed_norm_ustar",
                   nus == one_plus_i_d * b * a / mod.seed_inner("u", "ue")),
        check_true("seed_norm_ueps",
                   nue == one_plus_i_d * c * b / mod.seed_inner("u*", "u")),
        check_true("seed_product_positive",
                   scalar.is_real() and scalar.re > 0),
    ]


def _rational_sqrt(q: Fraction):
    if q <= 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def normalize_seeds(mod: IrreducibleModule, a, b, c) -> IrreducibleModule:
    """Rescale the seeds so that <u,u*> = a, <u*,ue> = b, <ue,u> = c.

    The rescaling follows the existence construction: with delta =
    a*b*c*(1+i)^d / ||c*u*||^2 the three scale factors involve delta^(1/2),
    so the targets are realizable over Q(i) exactly when delta is the square
    of a rational.
    """
    a, b, c = GaussRat._coerce(a), GaussRat._coerce(b), GaussRat._coerce(c)
    if a is None or b is None or c is None:
        raise TypeError("targets must be elements of Q(i)")
    product = a * b * c * GaussRat(1, 1) ** mod.d
    if not product.is_real() or product.re <= 0:
        raise InfeasibleTargets("infeasible targets")
    nus = mod.seed_inner("u*", "u*").re
    delta = product.re / (c.abs_sq() * nus)
    root = _rational_sqrt(delta)
    if root is None:
        raise FieldExtensionRequired("targets require field extension")
    inv_root = GaussRat(1 / root)
    lam = a * inv_root / mod.seed_inner("u", "u*")
    lam_star = GaussRat(root)
    lam_eps = b.conj() * inv_root / mod.seed_inner("ue", "u*")
    out = replace(
        mod,
        seeds=ExactMatrix.diagonal([lam, lam_star, lam_eps]) @ mod.seeds,
        slice_basis=mod.slice_basis.scale(lam_star),
        frame=replace(mod.frame, gram=mod.frame.gram.scale(root * root)),
    )
    got = (out.seed_inner("u", "u*"), out.seed_inner("u*", "ue"),
           out.seed_inner("ue", "u"))
    if got != (a, b, c):
        raise InvariantViolation(f"normalization produced {got} instead of "
                                 f"the requested targets")
    return out
