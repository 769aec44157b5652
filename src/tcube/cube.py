"""Operators of the hypercube Q_D relative to the all-zeros base vertex.

Vertices are bit strings (t_1, ..., t_D) indexed by sum(t_k * 2^(D-k)), i.e.
the first coordinate is the most significant bit.  With that convention every
operator factors through Kronecker products of its Q_1 counterpart, and each
operator that admits two independent constructions (combinatorial definition
vs. Kronecker identity) is built both ways with exact agreement enforced.

Operators:
  A      adjacency matrix (vertices differing in one coordinate)
  Astar  diagonal with (y,y)-entry D - 2*dist(y)
  Aeps   -i(A Astar - Astar A)/2, supported on edges with entries +-i
  P      kron_power(P1, D) with P1 = [[1, 1], [-i, i]]; conjugation by P
         cycles A -> Astar -> Aeps -> A
  A_k    distance-k indicator matrices
  E, Estar, Eeps   the three idempotent families (spectral projections)

The idempotent families come from closed forms, with no interpolation
products: E_i = 2^-D sum_h K_i(h) A_h with the Krawtchouk numbers K_i(h),
certified against A (sum to I, A E_i = theta_i E_i); Estar_i is the
indicator of slice i; and Eeps_i = S^-1 E_i S with S = diag(i^dist), the
same diagonal phase that takes A to Aeps.

These dense matrices serve the whole-matrix suites.  The module layer uses
the block operators instead (`CubeContext.apply` and `project`), which act
on many vectors at once without a dense 2^D x 2^D product: A, Aeps and the
ladder operators L, R are gathers over the D neighbours of each vertex,
Astar is a diagonal scale, P is D butterfly passes of P1, and the images
under E_i come from two fast Walsh-Hadamard transforms, certified against
A on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import numpy as np

from .linalg import (I64_LIMIT, ExactMatrix, _numerators, fits_i64, kron,
                     kron_power)
from .report import check_equal, check_true
from .scalar import GaussRat

DEFAULT_D_LIMIT = 10

P1 = ExactMatrix([[GaussRat(1), GaussRat(1)],
                  [GaussRat(0, -1), GaussRat(0, 1)]])
A1 = ExactMatrix([[0, 1], [1, 0]])
ASTAR1 = ExactMatrix.diagonal([1, -1])
I1 = ExactMatrix.identity(2)


class ConstructionError(RuntimeError):
    """A self-check between two independent constructions disagreed."""


def _require(cond: bool, msg: str):
    if not cond:
        raise ConstructionError(msg)


def vertex_of_index(idx: int, D: int) -> Tuple[int, ...]:
    return tuple((idx >> (D - 1 - k)) & 1 for k in range(D))


def index_of_vertex(t) -> int:
    idx = 0
    for bit in t:
        idx = (idx << 1) | bit
    return idx


def _times_i_power(re, im, k):
    """(re + i im) * i^k entrywise, for an integer array k (taken mod 4)
    that broadcasts against re and im."""
    k = k % 4
    odd = k % 2 == 1
    sign = np.where(k >= 2, -1, 1)
    # i^k (re + i im) is (re, im), (-im, re), (-re, -im), (im, -re) for k = 0..3
    return np.where(odd, -im, re) * sign, np.where(odd, re, im) * sign


def _phase_conjugate(m: ExactMatrix, phase) -> ExactMatrix:
    """S^-1 m S for S = diag(i^dist): entry (x, y) times i^phase[x, y],
    where `phase` holds dist(y) - dist(x) mod 4."""
    re, im = _times_i_power(m._re, m._im, phase)
    return ExactMatrix.from_numerators(re, im, m._den)


# -- kernels of the block operators ------------------------------------------------
#
# A block holds one vector per row.  The kernels below act on the rows of its
# numerator arrays, which are int64 when the caller has checked a bound and
# object arrays of Python ints otherwise (`linalg._numerators`); the code is
# the same for both.


def _walsh_hadamard(a):
    """a @ H for H[x, z] = (-1)^popcount(x & z), on a copy of a: one
    butterfly pass per bit, each at most doubling the largest entry."""
    a = a.copy()
    rows, n = a.shape
    h = 1
    while h < n:
        v = a.reshape(rows, n // (2 * h), 2, h)
        lo, hi = v[:, :, 0, :], v[:, :, 1, :]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h *= 2
    return a


def _p_butterflies(re, im):
    """Each row v of re + i im replaced by P v, P = kron_power(P1, D), on
    copies: per bit, (v0, v1) -> (v0 + v1, i (v1 - v0)); each pass at most
    doubles the largest entry."""
    re, im = re.copy(), im.copy()
    rows, n = re.shape
    h = 1
    while h < n:
        vr = re.reshape(rows, n // (2 * h), 2, h)
        vi = im.reshape(rows, n // (2 * h), 2, h)
        r0, r1 = vr[:, :, 0, :], vr[:, :, 1, :]
        i0, i1 = vi[:, :, 0, :], vi[:, :, 1, :]
        # i (v1 - v0) = (i0 - i1) + i (r1 - r0)
        new_r1, new_i1 = i0 - i1, r1 - r0
        r0 += r1
        i0 += i1
        r1[...], i1[...] = new_r1, new_i1
        h *= 2
    return re, im


def _flip_bit(a, s):
    """a[:, y ^ s] over the columns y, for s = 0 or a power of two: the two
    halves of every run of 2s columns trade places."""
    if s == 0:
        return a
    rows, n = a.shape
    return a.reshape(rows, n // (2 * s), 2, s)[:, :, ::-1, :].reshape(rows, n)


class _Gather:
    """A matrix M supported on the pairs (y, y ^ shifts[k]), with
    M[y, y ^ shifts[k]] = (re + i im)[y, k] / den: its values, an int64
    copy of them when they fit, and its largest numerator."""

    def __init__(self, shifts, re, im, den):
        self.shifts, self.re, self.den = shifts, re, den
        self.im = im if im.any() else None
        self.max = max(int(abs(re).max()), int(abs(im).max()))
        self.c64 = None
        if self.max < I64_LIMIT:
            self.c64 = (re.astype(np.int64),
                        None if self.im is None else im.astype(np.int64))

    @classmethod
    def of(cls, m: ExactMatrix, shifts) -> "_Gather":
        rows = np.arange(m.rows)[:, None]
        cols = rows ^ np.array(shifts)
        return cls(shifts, m._re[rows, cols], m._im[rows, cols], m._den)

    def masked(self, keep) -> "_Gather":
        im = self.re * 0 if self.im is None else self.im
        return _Gather(self.shifts, self.re * keep, im * keep, self.den)

    def apply(self, re, im):
        """Numerators (over den) of every row x of re + i im times M:
        (M x)[y] = sum_k M[y, y ^ shifts[k]] x[y ^ shifts[k]].  int64
        arrays must satisfy fits_i64(len(shifts), self.max, max |x|)."""
        vr, vi = self.c64 if re.dtype == np.int64 else (self.re, self.im)
        out_re = out_im = 0
        for k, s in enumerate(self.shifts):
            xr, xi = _flip_bit(re, s), _flip_bit(im, s)
            out_re = out_re + xr * vr[:, k]
            out_im = out_im + xi * vr[:, k]
            if vi is not None:
                out_re = out_re - xi * vi[:, k]
                out_im = out_im + xr * vi[:, k]
        return out_re, out_im


def krawtchouk_table(D: int):
    """K[h, i] = K_i(h) = sum_j (-1)^j C(h, j) C(D - h, i - j), the i-th
    eigenvalue of the distance-h matrix of Q_D (object array of ints)."""
    return np.array([[sum((-1) ** j * math.comb(h, j) * math.comb(D - h, i - j)
                          for j in range(i + 1))
                      for i in range(D + 1)]
                     for h in range(D + 1)], dtype=object)


def _kron_sum(factor: ExactMatrix, D: int) -> ExactMatrix:
    """sum over positions of I1^(x i) (x) factor (x) I1^(x (D-1-i)), by the
    recursion K_1 = factor, K_(k+1) = K_k (x) I1 + I_(2^k) (x) factor."""
    total = factor
    for k in range(1, D):
        total = kron(total, I1) + kron(ExactMatrix.identity(2 ** k), factor)
    return total


class CubeContext:
    """All operators of Q_D for one dimension; immutable after construction.

    The idempotent families and the distance matrices are built lazily and
    cached; the operators are constructed eagerly with the dual-construction
    cross-checks.
    """

    def __init__(self, D: int, d_limit: int = DEFAULT_D_LIMIT):
        if not 1 <= D <= d_limit:
            raise ValueError(f"D must satisfy 1 <= D <= {d_limit}, got {D}")
        self.D = D
        self.n = 2 ** D
        self.dist = np.array([bin(v).count("1") for v in range(self.n)],
                             dtype=object)
        self.theta = [D - 2 * i for i in range(D + 1)]
        dist = self.dist.astype(int)
        idx = np.arange(self.n)
        # distance between vertices x and y, and dist(y) - dist(x) mod 4
        self.hamming = dist[idx[:, None] ^ idx[None, :]]
        self._phase = (dist[None, :] - dist[:, None]) % 4
        self._dist = dist
        self._slice_masks = dist[None, :] == np.arange(D + 1)[:, None]

        self.A = self._build_adjacency()
        self.Astar = self._build_dual_adjacency()
        self.Aeps = self._build_imaginary_adjacency()
        self.P = kron_power(P1, D)
        self.Pinv = self.P.adjoint().scale(Fraction(1, self.n))
        _require(self.P @ self.Pinv == ExactMatrix.identity(self.n),
                 "P inverse construction failed")
        self._E = None
        self._Estar = None
        self._Eeps = None
        self._gathers = {}

    # -- operator constructions ------------------------------------------------

    @cached_property
    def dist_matrices(self):
        """The distance-k indicator matrices A_k, k = 0..D."""
        return tuple(ExactMatrix.from_numerators(ones, 0 * ones, 1)
                     for ones in ((self.hamming == k).astype(np.int64)
                                  for k in range(self.D + 1)))

    def _build_adjacency(self) -> ExactMatrix:
        ones = (self.hamming == 1).astype(np.int64)
        a = ExactMatrix.from_numerators(ones, 0 * ones, 1)
        _require(a == _kron_sum(A1, self.D),
                 "adjacency: Hamming and Kronecker constructions disagree")
        return a

    def _build_dual_adjacency(self) -> ExactMatrix:
        astar = ExactMatrix.diagonal([self.D - 2 * int(self.dist[y])
                                      for y in range(self.n)])
        _require(astar == _kron_sum(ASTAR1, self.D),
                 "dual adjacency: distance and Kronecker constructions disagree")
        return astar

    def _build_imaginary_adjacency(self) -> ExactMatrix:
        by_def = (self.A @ self.Astar - self.Astar @ self.A).scale(
            GaussRat(0, Fraction(-1, 2)))
        # entrywise: i * (dist(z) - dist(y)) on edges
        im = self.A._re * (self.dist[None, :] - self.dist[:, None])
        by_entries = ExactMatrix.from_numerators(
            np.zeros((self.n, self.n), dtype=object), im, 1)
        _require(by_def == by_entries,
                 "imaginary adjacency: commutator and entry formula disagree")
        aeps1 = (A1 @ ASTAR1 - ASTAR1 @ A1).scale(GaussRat(0, Fraction(-1, 2)))
        _require(by_def == _kron_sum(aeps1, self.D),
                 "imaginary adjacency: Kronecker construction disagrees")
        _require(by_def == _phase_conjugate(self.A, self._phase),
                 "imaginary adjacency: diagonal phase conjugate of A disagrees")
        return by_def

    # -- idempotent families ------------------------------------------------------

    @property
    def E(self):
        """Primitive idempotents of A: E_i = 2^-D sum_h K_i(h) A_h.

        Certified on the first build against this context's A: sum_i E_i = I
        and A E_i = theta_i E_i.  These force E_i = p_i(A) for the Lagrange
        polynomial p_i with p_i(theta_k) = [i = k], since
        p_i(A) = p_i(A) sum_k E_k = sum_k p_i(theta_k) E_k = E_i.
        """
        if self._E is None:
            K = krawtchouk_table(self.D)
            zeros = np.zeros((self.n, self.n), dtype=object)
            family = tuple(ExactMatrix.from_numerators(K[:, i][self.hamming],
                                                       zeros, self.n)
                           for i in range(self.D + 1))
            self._certify_idempotents(family)
            self._E = family
        return self._E

    def _certify_idempotents(self, family) -> None:
        total = ExactMatrix.zeros(self.n, self.n)
        for e in family:
            total = total + e
        self._certify(total == ExactMatrix.identity(self.n),
                      (self.A @ e == e.scale(self.theta[i])
                       for i, e in enumerate(family)))

    def _certify(self, sums_to_identity: bool, eigen) -> None:
        """The certificate of the closed-form E: the parts sum to the
        identity, then A E_i = theta_i E_i for i = 0..D (`eigen` yields one
        bool per i and is read only up to the first failure)."""
        _require(sums_to_identity,
                 "idempotent closed form: the E_i do not sum to I")
        for i, ok in enumerate(eigen):
            _require(ok, f"idempotent closed form: "
                         f"A E_{i} != {self.theta[i]} E_{i}")

    @property
    def Estar(self):
        """Dual idempotents: diagonal indicators of the distance slices."""
        if self._Estar is None:
            self._Estar = tuple(
                ExactMatrix.from_numerators(ones, 0 * ones, 1)
                for ones in (np.diag(self._dist == i).astype(np.int64)
                             for i in range(self.D + 1)))
        return self._Estar

    @property
    def Eeps(self):
        """Imaginary idempotents S^-1 E_i S with S = diag(i^dist).

        Aeps = S^-1 A S is a construction check and Aeps = Pinv A P is
        verified by the conjugation suite, so these equal Pinv E_i P.
        """
        if self._Eeps is None:
            self._Eeps = tuple(_phase_conjugate(e, self._phase)
                               for e in self.E)
        return self._Eeps

    # -- block operators -------------------------------------------------------------
    #
    # The module layer applies operators to blocks, one vector per row, and
    # never builds a dense 2^D x 2^D matrix for them.  The gathers read their
    # values off this context's own matrices, so a flipped sign shows.

    def _gather_table(self, op: str) -> _Gather:
        """A, Aeps, L or R as a gather over the D neighbours y ^ (1 << k), or
        Astar over the diagonal, after checking that the support allows it."""
        table = self._gathers.get(op)
        if table is not None:
            return table
        if op in ("A", "Aeps"):
            m = getattr(self, op)
            _require(not (m.nonzero() & (self.hamming != 1)).any(),
                     f"{op}: support leaves the cube edges")
            table = _Gather.of(m, [1 << k for k in range(self.D)])
        elif op == "Astar":
            _require(not (self.Astar.nonzero() & (self.hamming != 0)).any(),
                     "Astar: support leaves the diagonal")
            table = _Gather.of(self.Astar, [0])
        elif op in ("L", "R"):
            # L = A towards the slice above (bit k of y clear), R the rest
            up = (np.arange(self.n)[:, None] >> np.arange(self.D)) & 1 == 0
            table = self._gather_table("A").masked(up if op == "L" else ~up)
        else:
            raise ValueError(f"unknown block operator {op!r}")
        self._gathers[op] = table
        return table

    def apply(self, op: str, block: ExactMatrix) -> ExactMatrix:
        """op applied to every row of block, i.e. the rows of block @ op^T.

        op is A, Astar, Aeps, L or R (gathers, see `_gather_table`) or P
        (D butterfly passes of P1).  The kernels run in int64 when a bound
        on the block's and the operator's numerators shows that they fit.
        """
        if block.cols != self.n:
            raise ValueError(f"block has {block.cols} columns, expected {self.n}")
        if op == "P":
            re, im = _p_butterflies(
                *_numerators(block, block._max() * self.n < I64_LIMIT))
            return ExactMatrix.from_numerators(re, im, block._den)
        table = self._gather_table(op)
        fits = fits_i64(len(table.shifts), table.max, block._max())
        re, im = table.apply(*_numerators(block, fits))
        return ExactMatrix.from_numerators(re, im, block._den * table.den)

    def project(self, family: str, block: ExactMatrix):
        """(F_0 V, ..., F_D V) for the rows V of block and the family F = E,
        Estar or Eeps, without building F.

        Estar_i V masks slice i.  E_i V = 2^-D (V H) diag(wt = i) H with the
        Walsh-Hadamard matrix H, since E_i = 2^-D H diag(wt = i) H; every
        call is certified against this context's A: sum_i E_i V = V and
        A (E_i V) = theta_i E_i V.  These force each E_i V to be the exact
        theta_i-component of V: the second puts E_i V in ker(A - theta_i),
        kernels for distinct theta_i are independent, so the first is the
        unique split of V along them.  Eeps_i V = S^-1 E_i (S V) with
        S = diag(i^dist); it is certified through E on S V, not against
        Aeps.
        """
        if block.cols != self.n:
            raise ValueError(f"block has {block.cols} columns, expected {self.n}")
        if family == "Estar":
            re, im = _numerators(block, block._max() < I64_LIMIT)
            return tuple(ExactMatrix.from_numerators(re * mask, im * mask,
                                                     block._den)
                         for mask in self._slice_masks)
        if family not in ("E", "Eeps"):
            raise ValueError(f"unknown idempotent family {family!r}")
        re, im = block._re, block._im
        if family == "Eeps":
            re, im = _times_i_power(re, im, self._dist)
        parts = self._spectral_parts(re, im, block._max())
        out = []
        for zr, zi in parts:
            if family == "Eeps":
                zr, zi = _times_i_power(zr, zi, -self._dist)
            out.append(ExactMatrix.from_numerators(zr, zi, block._den * self.n))
        return tuple(out)

    def _spectral_parts(self, re, im, m: int):
        """Numerators, over 2^D, of E_i x for every row x of re + i im (object
        arrays with entries bounded by m), certified against A."""
        n, D = self.n, self.D
        a = self._gather_table("A")
        # |x H| <= n m and each part is at most n^2 m; their sum, theta_i
        # times one and A times one stay below (2D + 2) n^2 m a.max a.den
        if m * n * n * (2 * D + 2) * a.max * a.den < I64_LIMIT:
            re, im = re.astype(np.int64), im.astype(np.int64)
        rows = re.shape[0]
        spectrum = _walsh_hadamard(np.concatenate([re, im]))
        masked = spectrum[None, :, :] * self._slice_masks[:, None, :]
        parts = _walsh_hadamard(masked.reshape(-1, n)).reshape(D + 1, 2, rows, n)
        zr, zi = parts[:, 0], parts[:, 1]
        ar, ai = a.apply(zr.reshape(-1, n), zi.reshape(-1, n))
        ar, ai = ar.reshape(D + 1, rows, n), ai.reshape(D + 1, rows, n)
        self._certify(
            np.array_equal(zr.sum(axis=0), n * re)
            and np.array_equal(zi.sum(axis=0), n * im),
            (np.array_equal(ar[i], self.theta[i] * a.den * zr[i])
             and np.array_equal(ai[i], self.theta[i] * a.den * zi[i])
             for i in range(D + 1)))
        return list(zip(zr, zi))

    # -- slices --------------------------------------------------------------------

    def slice_indices(self, k: int):
        """Vertex indices at distance k from the base point, ascending."""
        return [y for y in range(self.n) if int(self.dist[y]) == k]

    # -- testing hook ----------------------------------------------------------------

    def with_flipped_sign(self, op: str, r: int, c: int) -> "CubeContext":
        """Copy of this context with one entry of an operator sign-flipped.

        Bypasses the construction cross-checks on purpose; used to confirm the
        verification suites actually detect corruption.  The idempotent
        families and the block operators are rebuilt from the clone's
        operators on first use.
        """
        clone = object.__new__(CubeContext)
        clone.__dict__.update(self.__dict__)
        clone._E = clone._Estar = clone._Eeps = None
        clone._gathers = {}
        m = getattr(clone, op)
        re, im = m._re.copy(), m._im.copy()
        re[r, c], im[r, c] = -re[r, c], -im[r, c]
        setattr(clone, op, ExactMatrix.from_numerators(re, im, m._den))
        return clone


def build_context(D: int, d_limit: int = DEFAULT_D_LIMIT) -> CubeContext:
    return CubeContext(D, d_limit)


def coordinate_transposition(ctx: CubeContext, a: int, b: int) -> ExactMatrix:
    """Permutation matrix of the automorphism swapping coordinates a and b
    (0-based positions, coordinate 0 most significant)."""
    D, n = ctx.D, ctx.n
    pa, pb = D - 1 - a, D - 1 - b
    re = np.zeros((n, n), dtype=object)
    for y in range(n):
        ba, bb = (y >> pa) & 1, (y >> pb) & 1
        z = y & ~(1 << pa) & ~(1 << pb) | (bb << pa) | (ba << pb)
        re[y, z] = 1
    return ExactMatrix.from_numerators(re, np.zeros((n, n), dtype=object), 1)


# -- spectra -------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumTable:
    """(eigenvalue, multiplicity) pairs, eigenvalue descending."""

    entries: Tuple[Tuple[int, int], ...]

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def to_json(self) -> dict:
        return {"spectrum": [[ev, m] for ev, m in self.entries]}


_FAMILIES = {"adjacency": "E", "dual": "Estar", "imaginary": "Eeps"}


def spectrum(ctx: CubeContext, which: str) -> SpectrumTable:
    """Eigenvalue table read off the idempotent ranks of the chosen family,
    which are traces: E is certified when built, Estar is 0/1 diagonal and
    Eeps is a phase conjugate of E, so every family is idempotent."""
    if which not in _FAMILIES:
        raise ValueError(f"unknown operator family {which!r}")
    family = getattr(ctx, _FAMILIES[which])
    return SpectrumTable(tuple((ctx.D - 2 * i, int(family[i].trace().re))
                               for i in range(ctx.D + 1)))


# -- verification suites ----------------------------------------------------------------


def verify_commutators(ctx: CubeContext):
    """The three commutator identities and the two quadratic relations."""
    A, As, Ae = ctx.A, ctx.Astar, ctx.Aeps
    two_i = GaussRat(0, 2)
    checks = [
        check_equal("commutator_A_Astar", A @ As - As @ A, Ae.scale(two_i)),
        check_equal("commutator_Astar_Aeps", As @ Ae - Ae @ As, A.scale(two_i)),
        check_equal("commutator_Aeps_A", Ae @ A - A @ Ae, As.scale(two_i)),
        check_equal("quadratic_dual",
                    As @ As @ A - (As @ A @ As).scale(2) + A @ As @ As,
                    A.scale(4)),
        check_equal("quadratic_adjacency",
                    A @ A @ As - (A @ As @ A).scale(2) + As @ A @ A,
                    As.scale(4)),
    ]
    return checks


def verify_idempotent_families(ctx: CubeContext):
    """Sum-to-identity, symmetry/reality, orthogonal idempotence and ranks
    for all three families.

    The rank of an idempotent is its trace, so F_rank[i] passes when
    F_product[i,i] proved F_i idempotent and its trace is C(D, i)."""
    n, D = ctx.n, ctx.D
    ident = ExactMatrix.identity(n)
    checks = []
    ones = np.ones((n, n), dtype=np.int64)
    allones = ExactMatrix.from_numerators(ones, 0 * ones, 1)
    checks.append(check_equal("E_trivial_allones", ctx.E[0].scale(n), allones))
    for label, family in (("E", ctx.E), ("Estar", ctx.Estar), ("Eeps", ctx.Eeps)):
        total = ExactMatrix.zeros(n, n)
        for e in family:
            total = total + e
        checks.append(check_equal(f"{label}_sum_identity", total, ident))
        for i, e in enumerate(family):
            if label == "Eeps":
                checks.append(check_equal(f"{label}_adjoint[{i}]", e.adjoint(), e))
            else:
                checks.append(check_equal(f"{label}_transpose[{i}]",
                                          e.transpose(), e))
                checks.append(check_equal(f"{label}_conj[{i}]", e.conj(), e))
        for i in range(D + 1):
            for j in range(D + 1):
                expected = family[i] if i == j else ExactMatrix.zeros(n, n)
                checks.append(check_equal(f"{label}_product[{i},{j}]",
                                          family[i] @ family[j], expected))
    spectral = ExactMatrix.zeros(n, n)
    for i, e in enumerate(ctx.Eeps):
        spectral = spectral + e.scale(D - 2 * i)
        checks.append(check_equal(f"Eeps_eigen[{i}]", ctx.Aeps @ e,
                                  e.scale(D - 2 * i)))
        checks.append(check_equal(f"Eeps_eigen_right[{i}]", e @ ctx.Aeps,
                                  e.scale(D - 2 * i)))
    checks.append(check_equal("Aeps_spectral_sum", spectral, ctx.Aeps))
    proven = {c.identity: c.passed for c in checks}
    for label, family in (("E", ctx.E), ("Estar", ctx.Estar),
                          ("Eeps", ctx.Eeps)):
        for i, e in enumerate(family):
            checks.append(check_true(f"{label}_rank[{i}]",
                                     proven[f"{label}_product[{i},{i}]"]
                                     and e.trace() == math.comb(D, i)))
    return checks


def verify_conjugation(ctx: CubeContext):
    """Scaled unitarity and cube of P, and the conjugation cycle on the
    operators and on the idempotent families."""
    n, D = ctx.n, ctx.D
    ident = ExactMatrix.identity(n)
    scaled = ident.scale(n)
    p3_scalar = GaussRat(1, -1) ** D * n
    checks = [
        check_equal("P_unitary_scaled", ctx.P @ ctx.P.adjoint(), scaled),
        check_equal("P_unitary_scaled_right", ctx.P.adjoint() @ ctx.P, scaled),
        check_equal("P_cubed", ctx.P @ ctx.P @ ctx.P, ident.scale(p3_scalar)),
        check_equal("conj_A_to_Astar", ctx.P @ ctx.A @ ctx.Pinv, ctx.Astar),
        check_equal("conj_Astar_to_Aeps", ctx.P @ ctx.Astar @ ctx.Pinv, ctx.Aeps),
        check_equal("conj_Aeps_to_A", ctx.P @ ctx.Aeps @ ctx.Pinv, ctx.A),
    ]
    for i in range(D + 1):
        checks.append(check_equal(f"conj_E_to_Estar[{i}]",
                                  ctx.P @ ctx.E[i] @ ctx.Pinv, ctx.Estar[i]))
        checks.append(check_equal(f"conj_Estar_to_Eeps[{i}]",
                                  ctx.P @ ctx.Estar[i] @ ctx.Pinv, ctx.Eeps[i]))
        checks.append(check_equal(f"conj_Eeps_to_E[{i}]",
                                  ctx.P @ ctx.Eeps[i] @ ctx.Pinv, ctx.E[i]))
    return checks

