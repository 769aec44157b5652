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

The block operators (`CubeContext.apply`) act on many vectors at once
without a dense 2^D x 2^D product: A, Aeps and the ladder operators L, R
are gathers over the D neighbours of each vertex, Astar is a diagonal
scale and P is D butterfly passes of P1.  The module layer needs no
idempotent over 2^D: it certifies how these operators act on each module's
slice basis and takes the idempotents there (`decomposition`).

The three whole-matrix suites close the module: the commutator and
quadratic relations, the idempotent families (whose `F_rank[i]` rows are
the eigenvalue multiplicities: F_i idempotent with trace C(D, i)), and
conjugation by P.  The idempotent and conjugation suites read every entry
of the stored families and of P, but multiply no two of them densely: the
families lie in the Bose-Mesner algebra of Q_D, the group algebra of
Z_2^D, where every E_i is translation-invariant, every Estar_i is
diagonal, Eeps_i is S^-1 E_i S and P is S^-1 H for the +-1 Walsh-Hadamard
matrix H.  Each suite certifies that structure on the stored matrices
entrywise, then compares each family identity on one row or one diagonal,
computed by Walsh-Hadamard transforms (`_Structure`); a family without the
structure, which only a replaced one lacks, is multiplied densely.  The
operators whose signs `verify --corrupt` flips (A, Astar, Aeps) are not
certified: A and Aeps act on the families by edge gathers
(`CubeContext.eigen_discrepancy`), and the operator rows of the
conjugation suite stay dense products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import (I64_LIMIT, ExactMatrix, _numerators, _scaled,
                     first_discrepancy, fits_i64, kron, kron_power)
from .report import IdentityCheck, check_equal, check_true
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
# numerator arrays: the block's own int64 arrays when the caller has checked
# a bound, and object copies, on which numpy computes with Python ints,
# otherwise (`linalg._numerators`); the code is the same for both.


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


def _walsh_hadamard(a):
    """Each row v of a replaced by H v, H[x, z] = (-1)^|x AND z|, on a copy:
    per bit, (v0, v1) -> (v0 + v1, v0 - v1).  Each pass at most doubles the
    largest entry, so an int64 a needs 2^D max|a| < 2^62, which the caller
    checks; on an object a numpy computes with Python ints.  H is symmetric
    and H H = 2^D I."""
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


def _flip_bit(a, s):
    """a[:, y ^ s] over the columns y, for s = 0 or a power of two: the two
    halves of every run of 2s columns trade places."""
    if s == 0:
        return a
    rows, n = a.shape
    return a.reshape(rows, n // (2 * s), 2, s)[:, :, ::-1, :].reshape(rows, n)


class _Gather:
    """A matrix M supported on the pairs (y, y ^ shifts[k]), with
    M[y, y ^ shifts[k]] = (re + i im)[y, k] / den: its values, stored as
    M's numerators are, and its largest numerator."""

    def __init__(self, shifts, re, im, den):
        self.shifts, self.re, self.im, self.den = shifts, re, im, den
        self.max = max(int(abs(re).max()), int(abs(im).max()))

    @classmethod
    def of(cls, m: ExactMatrix, shifts) -> "_Gather":
        rows = np.arange(m.rows)[:, None]
        cols = rows ^ np.array(shifts)
        return cls(shifts, m._re[rows, cols], m._im[rows, cols], m._den)

    def masked(self, keep) -> "_Gather":
        return _Gather(self.shifts, self.re * keep, self.im * keep, self.den)

    def transposed(self) -> "_Gather":
        """The gather of M^T: M^T[y, y ^ s] = M[y ^ s, y]."""
        rows = np.arange(len(self.re))[:, None] ^ np.array(self.shifts)
        cols = np.arange(len(self.shifts))
        return _Gather(self.shifts, self.re[rows, cols], self.im[rows, cols],
                       self.den)

    def apply(self, re, im):
        """Numerators (over den) of every row x of re + i im times M:
        (M x)[y] = sum_k M[y, y ^ shifts[k]] x[y ^ shifts[k]].  int64
        arrays must satisfy fits_i64(len(shifts), self.max, max |x|); object
        arrays make every product one of Python ints.  An all-zero part of
        x (a real block, such as every slice basis) or of M (A is real, Aeps
        imaginary) costs no flip and no product."""
        vr = self.re if self.re.any() else None
        vi = self.im if self.im.any() else None
        xi_zero = not im.any()
        out_re, out_im, term = (np.zeros_like(re), np.zeros_like(re),
                                np.empty_like(re))
        for k, s in enumerate(self.shifts):
            xr = _flip_bit(re, s)
            xi = None if xi_zero else _flip_bit(im, s)
            if vr is not None:
                out_re += np.multiply(xr, vr[:, k], out=term)
                if xi is not None:
                    out_im += np.multiply(xi, vr[:, k], out=term)
            if vi is not None:
                out_im += np.multiply(xr, vi[:, k], out=term)
                if xi is not None:
                    out_re -= np.multiply(xi, vi[:, k], out=term)
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
        self._structure = None

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
        values = np.diag(self.D - 2 * self._dist).astype(np.int64)
        astar = ExactMatrix.from_numerators(values, 0 * values, 1)
        _require(astar == _kron_sum(ASTAR1, self.D),
                 "dual adjacency: distance and Kronecker constructions disagree")
        return astar

    def _build_imaginary_adjacency(self) -> ExactMatrix:
        by_def = (self.A @ self.Astar - self.Astar @ self.A).scale(
            GaussRat(0, Fraction(-1, 2)))
        # entrywise: i * (dist(z) - dist(y)) on edges
        im = self.A._re * (self._dist[None, :] - self._dist[:, None])
        by_entries = ExactMatrix.from_numerators(0 * im, im, 1)
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
        and A E_i = theta_i E_i, the latter by A's edge gather.  These force
        E_i = p_i(A) for the Lagrange polynomial p_i with
        p_i(theta_k) = [i = k], since
        p_i(A) = p_i(A) sum_k E_k = sum_k p_i(theta_k) E_k = E_i.  The
        numerators |K_i(h)| <= C(D, i) are int64.
        """
        if self._E is None:
            K = krawtchouk_table(self.D).astype(np.int64)
            zeros = np.zeros((self.n, self.n), dtype=np.int64)
            family = tuple(ExactMatrix.from_numerators(K[:, i][self.hamming],
                                                       zeros, self.n)
                           for i in range(self.D + 1))
            self._certify_idempotents(family)
            self._E = family
        return self._E

    def _certify_idempotents(self, family) -> None:
        self._certify(
            ExactMatrix.combination(family) == ExactMatrix.identity(self.n),
            ((i, self.eigen_discrepancy("A", e, self.theta[i]) is None)
             for i, e in enumerate(family)))

    def _certify(self, sums_to_identity: bool, eigen) -> None:
        """The certificate of the closed-form E: the parts sum to the
        identity, then A E_i = theta_i E_i for each part i (`eigen` yields
        one pair (i, bool) per part and is read only up to the first
        failure)."""
        _require(sums_to_identity,
                 "idempotent closed form: the E_i do not sum to I")
        for i, ok in eigen:
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

    @property
    def structure(self) -> "_Structure":
        """The Bose-Mesner structure of the families and P, certified once
        and shared by the idempotent and conjugation suites."""
        if self._structure is None:
            self._structure = _Structure(self)
        return self._structure

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

    def eigen_discrepancy(self, op: str, m: ExactMatrix, theta: int,
                          right: bool = False):
        """None when op @ m, or m @ op when right, equals theta m, else the
        (row, col) of its first differing entry, row-major; op = A or
        Aeps.  The product is the full one, by the edge gather of this
        context's op, so a flipped sign shows: op @ m = (m^T op^T)^T is
        the rows of m^T through op's gather, and m @ op the rows of m
        through the gather of op^T.  It is compared with theta m on
        numerators over one denominator, with no matrix built."""
        table = self._gather_table(op)
        if right:
            table, block = table.transposed(), m
        else:
            block = m.transpose()
        fits = fits_i64(len(table.shifts), table.max, block._max())
        re, im = table.apply(*_numerators(block, fits))
        want_re, want_im = _scaled(block, theta * table.den)
        differ = np.not_equal(re, want_re) | np.not_equal(im, want_im)
        if not differ.any():
            return None
        return tuple(np.argwhere(differ if right else differ.T)[0].tolist())

    # -- slices --------------------------------------------------------------------

    def slice_indices(self, k: int):
        """Vertex indices at distance k from the base point, ascending."""
        return np.flatnonzero(self._dist == k).tolist()

    # -- testing hook ----------------------------------------------------------------

    def with_flipped_sign(self, op: str, r: int, c: int) -> "CubeContext":
        """Copy of this context with one entry of an operator sign-flipped.

        Bypasses the construction cross-checks on purpose; used to confirm the
        verification suites actually detect corruption.  The idempotent
        families, their structure and the block operators are rebuilt from
        the clone's operators on first use.
        """
        clone = object.__new__(CubeContext)
        clone.__dict__.update(self.__dict__)
        clone._E = clone._Estar = clone._Eeps = clone._structure = None
        clone._gathers = {}
        m = getattr(clone, op)
        re, im = m._re.copy(), m._im.copy()
        re[r, c], im[r, c] = -re[r, c], -im[r, c]
        setattr(clone, op, ExactMatrix.from_numerators(re, im, m._den))
        return clone


def build_context(D: int, d_limit: int = DEFAULT_D_LIMIT) -> CubeContext:
    return CubeContext(D, d_limit)


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


# -- Bose-Mesner structure of the families ----------------------------------------------
#
# A matrix M is translation-invariant when M[x, y] = M[0, x ^ y]: it is the
# XOR convolution by its first row r, and H M H = n diag(H r).  The product
# of two such matrices is one again, and its first row is the convolution of
# theirs.  So two invariant matrices are equal exactly when their first rows
# are, and the first entry k where the rows differ is their first row-major
# difference, (0, k).  The same holds for S^-1 M S with S = diag(i^dist),
# whose entries are M's times powers of i, and for two diagonal matrices on
# their diagonals, with (k, k).


def _as_int64_below(arr, bound):
    """arr as int64 when `bound`, a bound on every value computed from it,
    is below 2^62, else as Python ints."""
    return arr.astype(np.int64 if bound < I64_LIMIT else object)


def _row(re, im, den) -> ExactMatrix:
    """The 1 x n matrix (re + i im) / den, in lowest terms."""
    return ExactMatrix.from_numerators(re[None, :], im[None, :], den)


def _check_rows(name, lhs, rhs, diagonal=False) -> IdentityCheck:
    """check_equal of two matrices that are both translation-invariant,
    both S^-1 conjugates of such, or both diagonal, given by their first
    rows, or diagonals, lhs and rhs (1 x n): see the note above."""
    if lhs == rhs:
        return IdentityCheck(name, True)
    _, k = first_discrepancy(lhs, rhs)
    return IdentityCheck(name, False, (k, k) if diagonal else (0, k))


class _Structure:
    """The Bose-Mesner structure of a context's stored families and P,
    certified entrywise, in O(n^2) per matrix.

    E       the first rows r_i / den_i of the E_i (1 x n) when every E_i
            is real and translation-invariant, else None;
    Estar   the diagonals of the Estar_i when every one is supported on
            its diagonal, else None;
    Eeps    True when E is certified and every Eeps_i equals
            S^-1 E_i S (`_phase_conjugate`), so that S Eeps_i S^-1 has
            the first row r_i / den_i;
    P       True when the stored P is S^-1 H entrywise,
            P[x, y] = (-i)^dist(x) (-1)^|x AND y|, and Pinv is P^* / n,
            so Pinv = H S / n = P^-1.
    """

    def __init__(self, ctx: CubeContext):
        n = ctx.n
        self.n = n
        idx = np.arange(n)
        xor = idx[:, None] ^ idx[None, :]
        self.E = [e.block(slice(0, 1), slice(None)) for e in ctx.E]
        if not all(not e._im.any() and np.array_equal(e._re, e._re[0][xor])
                   for e in ctx.E):
            self.E = None
        self.Estar = [_row(f._re.diagonal(), f._im.diagonal(), f._den)
                      for f in ctx.Estar]
        if not all(np.count_nonzero(f._re) == np.count_nonzero(r._re)
                   and np.count_nonzero(f._im) == np.count_nonzero(r._im)
                   for f, r in zip(ctx.Estar, self.Estar)):
            self.Estar = None
        # a unit factor per entry keeps lowest terms: f = S^-1 e S exactly
        # when f has e's denominator and e's real numerators times
        # i^phase = cos + i sin, with the phase dist(y) - dist(x) mod 4
        self.Eeps = self.E is not None
        if self.Eeps:
            cos = np.array([1, 0, -1, 0])[ctx._phase]
            sin = np.array([0, 1, 0, -1])[ctx._phase]
            self.Eeps = all(f._den == e._den
                            and np.array_equal(f._re, e._re * cos)
                            and np.array_equal(f._im, e._re * sin)
                            for e, f in zip(ctx.E, ctx.Eeps))
        self._ctx = ctx

    @cached_property
    def P(self) -> bool:
        ctx, idx = self._ctx, np.arange(self.n)
        sign = 1 - 2 * (ctx._dist[idx[:, None] & idx[None, :]] % 2)
        re, im = _times_i_power(sign, 0 * sign, -ctx._dist[:, None])
        return (ctx.P == ExactMatrix.from_numerators(re, im, 1)
                and ctx.Pinv == ctx.P.adjoint().scale(Fraction(1, self.n)))

    @cached_property
    def E_products(self):
        """E_products[i][j]: the first row of E_i E_j, the XOR convolution
        sum_z r_i[z] r_j[z ^ k] = (H (H r_i o H r_j))[k] / n, with o
        entrywise, over n den_i den_j.  With m the largest numerator,
        |H r| <= n m and the second transform stays within n^3 m^2."""
        n, rows = self.n, self.E
        m = max(r._max() for r in rows)
        spectra = _walsh_hadamard(_as_int64_below(
            np.vstack([r._re for r in rows]), n ** 3 * m * m))
        conv = _walsh_hadamard(
            (spectra[:, None, :] * spectra[None, :, :]).reshape(-1, n))
        return [[_row(conv[i * len(rows) + j], 0 * conv[0],
                      n * a._den * b._den)
                 for j, b in enumerate(rows)]
                for i, a in enumerate(rows)]

    @cached_property
    def E_spectra(self):
        """The numerators H r_i for the first rows r_i of E, at most n m."""
        m = max(r._max() for r in self.E)
        return _walsh_hadamard(_as_int64_below(
            np.vstack([r._re for r in self.E]), self.n * m))

    def products(self, label: str):
        """(rows, products, diagonal) for the products F_i F_j of family
        F = E, Estar or Eeps on its certified rows, or None.
        Eeps_i Eeps_j = S^-1 E_i E_j S compares the rows of E_i E_j, and
        Estar_i Estar_j is the entrywise product of the diagonals."""
        if label == "Estar":
            if self.Estar is None:
                return None
            return self.Estar, [[a.entrywise(b) for b in self.Estar]
                                for a in self.Estar], True
        if self.E is None or (label == "Eeps" and not self.Eeps):
            return None
        return self.E, self.E_products, False

    def conjugation(self, kind: str, i: int):
        """(row of P F_i Pinv, row of its expected value, diagonal) for the
        family row `kind`[i] of `verify_conjugation`, or None without the
        structure that it needs."""
        if self.E is None or not self.P:
            return None
        n, r = self.n, self.E[i]
        if kind == "conj_E_to_Estar":
            if self.Estar is None:
                return None
            spectrum = self.E_spectra[i]
            return _row(spectrum, 0 * spectrum, r._den), self.Estar[i], True
        if not self.Eeps:
            return None
        if kind == "conj_Eeps_to_E":
            # a theorem on this structure (see verify_conjugation)
            return r, r, False
        if self.Estar is None:
            return None
        s = self.Estar[i]
        re, im = (_walsh_hadamard(_as_int64_below(x, n * s._max()))
                  for x in (s._re, s._im))
        return _row(re[0], im[0], n * s._den), r, False


def verify_idempotent_families(ctx: CubeContext):
    """Sum-to-identity, symmetry/reality, orthogonal idempotence and ranks
    for all three families.

    The sums, the transpose, conjugate and adjoint rows, E_0 n = J and the
    Aeps spectral sum compare every entry of the stored matrices.  The
    products F_i F_j = delta_ij F_i compare one row of n entries each, on
    the structure that `_Structure` certifies first, once per context
    (`CubeContext.structure`):
    - E_i E_j: the first row of the product, by Walsh-Hadamard transforms,
      against that of E_i or 0.  Both sides are translation-invariant, so
      the rest of the matrix follows;
    - Eeps_i Eeps_j = S^-1 E_i E_j S: the same row, since the Eeps_i are
      S^-1 E_i S;
    - Estar_i Estar_j: the diagonal of the entrywise product against that
      of Estar_i or 0, every other entry being 0 on both sides.
    A family without that structure (it has none only when replaced) is
    compared by dense products.  Aeps Eeps_i and Eeps_i Aeps are full
    products by Aeps's edge gather, which reads a flipped sign
    (`CubeContext.eigen_discrepancy`).

    The rank of an idempotent is its trace, so F_rank[i] passes when
    F_product[i,i] proved F_i idempotent and its trace is C(D, i)."""
    n, D = ctx.n, ctx.D
    ident = ExactMatrix.identity(n)
    checks = []
    ones = np.ones((n, n), dtype=np.int64)
    allones = ExactMatrix.from_numerators(ones, 0 * ones, 1)
    checks.append(check_equal("E_trivial_allones", ctx.E[0].scale(n), allones))
    structure = ctx.structure
    for label, family in (("E", ctx.E), ("Estar", ctx.Estar), ("Eeps", ctx.Eeps)):
        checks.append(check_equal(f"{label}_sum_identity",
                                  ExactMatrix.combination(family), ident))
        for i, e in enumerate(family):
            if label == "Eeps":
                checks.append(check_equal(f"{label}_adjoint[{i}]", e.adjoint(), e))
            else:
                checks.append(check_equal(f"{label}_transpose[{i}]",
                                          e.transpose(), e))
                checks.append(check_equal(f"{label}_conj[{i}]", e.conj(), e))
        rows = structure.products(label)
        for i in range(D + 1):
            for j in range(D + 1):
                name = f"{label}_product[{i},{j}]"
                if rows is None:
                    expected = family[i] if i == j else ExactMatrix.zeros(n, n)
                    checks.append(check_equal(name, family[i] @ family[j],
                                              expected))
                else:
                    first, products, diagonal = rows
                    expected = first[i] if i == j else ExactMatrix.zeros(1, n)
                    checks.append(_check_rows(name, products[i][j], expected,
                                              diagonal))
    for i, e in enumerate(ctx.Eeps):
        for name, right in ((f"Eeps_eigen[{i}]", False),
                            (f"Eeps_eigen_right[{i}]", True)):
            spot = ctx.eigen_discrepancy("Aeps", e, D - 2 * i, right)
            checks.append(IdentityCheck(name, spot is None, spot))
    checks.append(check_equal("Aeps_spectral_sum",
                              ExactMatrix.combination(ctx.Eeps, ctx.theta),
                              ctx.Aeps))
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
    operators and on the idempotent families.

    The six operator rows (P P^*, P^* P, P^3 and P X Pinv for X = A, Astar,
    Aeps) are dense products of the stored matrices.  The family rows
    compare one row or diagonal each, on the structure that `_Structure`
    certifies (`CubeContext.structure`, shared with the idempotent suite):
    P = S^-1 H and Pinv = P^-1 = H S / n, with H H = n I and
    S = diag(i^dist) diagonal.  An invariant E_i = Inv(r_i) / den_i, with
    Inv(r)[x, y] = r[x ^ y], satisfies Inv(r) = H diag(H r) H / n, and
    H diag(s) H = n Inv(H s / n).  So
    - P E_i Pinv = S^-1 H Inv(r_i) H S / (n den_i) = diag(H r_i) / den_i:
      its diagonal against that of Estar_i;
    - P Estar_i Pinv = S^-1 H diag(s_i) H S / n = S^-1 Inv(H s_i / n) S:
      the row H s_i / n against the first row of S Eeps_i S^-1, which is
      r_i / den_i;
    - P Eeps_i Pinv = Pinv D_i P for D_i = diag(H r_i) / den_i: P^3 is
      (1-i)^D n I, since P1^3 = 2 (1-i) I, so conjugation by P has order
      3, and P D_i Pinv = S^-1 Inv(H H r_i / n) S / den_i = Eeps_i by the
      second case, as H H = n I.  So P Eeps_i Pinv = P^2 D_i P^-2 =
      Pinv D_i P = H diag(H r_i) H / (n den_i) = Inv(H H r_i / n) / den_i
      = Inv(r_i) / den_i = E_i.  This row follows from the certified
      structure alone and cannot fail on it, so it compares r_i with
      itself and costs no transform.
    The rest of each matrix follows as the note on the structure says.
    Family rows whose factors lack the structure (only a replaced family
    or P does) are dense products."""
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
    structure = ctx.structure
    E, Estar, Eeps = ctx.E, ctx.Estar, ctx.Eeps
    for i in range(D + 1):
        for kind, src, dst in (("conj_E_to_Estar", E, Estar),
                               ("conj_Estar_to_Eeps", Estar, Eeps),
                               ("conj_Eeps_to_E", Eeps, E)):
            name = f"{kind}[{i}]"
            rows = structure.conjugation(kind, i)
            if rows is None:
                checks.append(check_equal(name, ctx.P @ src[i] @ ctx.Pinv,
                                          dst[i]))
            else:
                checks.append(_check_rows(name, *rows))
    return checks

