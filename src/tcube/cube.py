"""Operators of the hypercube Q_D relative to the all-zeros base vertex.

Vertices are bit strings (t_1, ..., t_D) indexed by sum(t_k * 2^(D-k)), i.e.
the first coordinate is the most significant bit.  With that convention every
operator factors through Kronecker products of its Q_1 counterpart.  A,
Astar and Aeps are stored once, as gather tables built from their vertex by
vertex definitions and certified against a second construction
(`CubeContext._certify_tables`); every dense matrix is derived on first use.

Operators:
  A      adjacency matrix (vertices differing in one coordinate)
  Astar  diagonal with (y,y)-entry D - 2*dist(y)
  Aeps   -i(A Astar - Astar A)/2, supported on edges with entries +-i
  P      kron_power(P1, D) = S^-1 H with P1 = [[1, 1], [-i, i]] (see below);
         conjugation by P cycles A -> Astar -> Aeps -> A
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
scale and P = S^-1 H is a Walsh-Hadamard pass.  The module layer needs no
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
matrix H.  Each suite requires the part of that structure that it reads,
certified on the stored matrices entrywise (`_Structure`, which names the
clause that fails), then compares each family identity on one row or one
diagonal, computed by Walsh-Hadamard transforms.  The operators whose signs
`verify --corrupt` flips (A, Astar, Aeps) are read from their stored
tables.  The commutator suite multiplies the tables themselves: a product
of two tables M[y, y ^ s] is one over the shifts s1 ^ s2
(`_Gather.__matmul__`).  A and Aeps act on the families as their clean
tables, certified at construction, plus the sparse defect that a flipped
sign makes: the clean part by one first row, the defect's rows or columns
in full (`CubeContext.family_eigen_discrepancy`).  The operator rows of
the conjugation suite stay dense products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import (I64_LIMIT, ExactMatrix, _fits, _numerators,
                     first_discrepancy, fits_i64, kron_power)
from .report import IdentityCheck, check_equal, check_true
from .scalar import GaussRat

DEFAULT_D_LIMIT = 10

P1 = ExactMatrix([[GaussRat(1), GaussRat(1)],
                  [GaussRat(0, -1), GaussRat(0, 1)]])


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
    """A matrix M over the Gaussian integers supported on the pairs
    (y, y ^ shifts[k]), with M[y, y ^ shifts[k]] = (re + i im)[y, k]: its
    integer values, int64 for the stored operators, and their largest
    magnitude."""

    def __init__(self, shifts, re, im):
        self.shifts, self.re, self.im = shifts, re, im
        self.max = max(int(abs(re).max()), int(abs(im).max()))

    def columns(self):
        """The column y ^ shifts[k] of each entry (y, k)."""
        return np.arange(len(self.re))[:, None] ^ np.array(self.shifts)

    def dense(self) -> ExactMatrix:
        """M as a dense matrix: one scatter of the table."""
        n = len(self.re)
        re, im = np.zeros((n, n), np.int64), np.zeros((n, n), np.int64)
        rows, cols = np.arange(n)[:, None], self.columns()
        re[rows, cols], im[rows, cols] = self.re, self.im
        return ExactMatrix.from_numerators(re, im, 1)

    def scaled(self, factor) -> "_Gather":
        """The gather of M with entry (y, k) times factor[y, k]."""
        return _Gather(self.shifts, self.re * factor, self.im * factor)

    def times_i(self) -> "_Gather":
        """The gather of i M."""
        return _Gather(self.shifts, -self.im, self.re)

    def __matmul__(self, other: "_Gather") -> "_Gather":
        """The table of M N over the shifts s ^ t, for s of M and t of N:
        (M N)[y, y ^ s ^ t] sums M[y, y ^ s] N[y ^ s, y ^ s ^ t] over the
        pairs (s, t) with that s ^ t, at most one per s.  int64 when
        fits_i64(len(self.shifts), self.max, other.max), else Python ints."""
        shifts = sorted({s ^ t for s in self.shifts for t in other.shifts})
        dtype = (np.int64 if fits_i64(len(self.shifts), self.max, other.max)
                 else object)
        n = len(self.re)
        re, im = (np.zeros((n, len(shifts)), dtype) for _ in "ri")
        y = np.arange(n)
        for k, s in enumerate(self.shifts):
            ar, ai = (a[:, k:k + 1].astype(dtype) for a in (self.re, self.im))
            br, bi = (b[y ^ s].astype(dtype) for b in (other.re, other.im))
            # s ^ t is distinct over t, so the columns are too
            cols = [shifts.index(s ^ t) for t in other.shifts]
            re[:, cols] += ar * br - ai * bi
            im[:, cols] += ar * bi + ai * br
        return _Gather(shifts, re, im)

    @staticmethod
    def combination(terms) -> "_Gather":
        """sum_k w_k M_k over the pairs (M_k, w_k), integer weights w_k,
        over the union of their shifts."""
        shifts = sorted({s for table, _ in terms for s in table.shifts})
        bound = sum(abs(w) * table.max for table, w in terms)
        dtype = np.int64 if bound < I64_LIMIT else object
        n = len(terms[0][0].re)
        re, im = (np.zeros((n, len(shifts)), dtype) for _ in "ri")
        for table, w in terms:
            cols = [shifts.index(s) for s in table.shifts]
            re[:, cols] += table.re.astype(dtype) * w
            im[:, cols] += table.im.astype(dtype) * w
        return _Gather(shifts, re, im)

    def first_nonzero(self):
        """(y, y ^ s) of M's first nonzero entry in row-major order: the
        first row with one, at its least column; None when M is 0."""
        nonzero = (self.re != 0) | (self.im != 0)
        rows = np.flatnonzero(nonzero.any(axis=1))
        if not len(rows):
            return None
        y = int(rows[0])
        return y, min(y ^ s for s, hit in zip(self.shifts, nonzero[y]) if hit)

    def apply(self, re, im):
        """Numerators of every row x of re + i im times M:
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


def _first_spot(n, W, lines, differ, right):
    """The first row-major (x, y) where an n x n product differs from its
    expected value, or None: off the defect lines it differs exactly at the
    (x, y) with x ^ y in W, and on them as `differ` says, whose row j holds
    line lines[j], a row of the product, or a column when `right`.

    Every row x off the lines differs at x ^ W when W is not empty, so on
    the left the first of them is the least row off the lines.  On the
    right, row x differs off the lines at the y in x ^ W that are not
    lines; for one w in W, x ^ w is a line for at most len(lines) rows x,
    so one of the first len(lines) + 1 rows has such a y."""
    on_lines = np.zeros(n, bool)
    on_lines[lines] = True

    def off_lines(x):
        return (x ^ W)[~on_lines[x ^ W]]

    rows = (np.flatnonzero(differ.any(axis=0)) if right
            else lines[differ.any(axis=1)]).tolist()
    if len(W):
        for x in range(min(n, len(lines) + 1)):
            if off_lines(x).size if right else not on_lines[x]:
                rows.append(x)
                break
    if not rows:
        return None
    x = min(rows)
    if right:
        cols = np.concatenate([off_lines(x), lines[differ[:, x]]])
    elif on_lines[x]:
        cols = np.flatnonzero(differ[np.searchsorted(lines, x)])
    else:
        cols = x ^ W
    return x, int(cols.min())


def krawtchouk_table(D: int):
    """K[h, i] = K_i(h) = sum_j (-1)^j C(h, j) C(D - h, i - j), the i-th
    eigenvalue of the distance-h matrix of Q_D (object array of ints)."""
    return np.array([[sum((-1) ** j * math.comb(h, j) * math.comb(D - h, i - j)
                          for j in range(i + 1))
                      for i in range(D + 1)]
                     for h in range(D + 1)], dtype=object)


# The operators stored as gather tables, with their Q_1 factors as (re, im)
# numerators: [[0, 1], [1, 0]], diag(1, -1) and [[0, i], [-i, 0]].
KRON_FACTORS = {"A": ([[0, 1], [1, 0]], [[0, 0], [0, 0]]),
                "Astar": ([[1, 0], [0, -1]], [[0, 0], [0, 0]]),
                "Aeps": ([[0, 0], [0, 0]], [[0, 1], [-1, 0]])}


def _kron_sum_agrees(table: _Gather, factor, bits) -> bool:
    """Whether the table holds the Kronecker sum of the Q_1 factor F over
    the D positions: sum_k F[b, b] at (y, y) and F[b, 1 - b] at
    (y, y ^ e_k), for b = bits[y, k], bit k of y, and nothing else."""
    on_edges = table.shifts != [0]
    for part, f in zip((table.re, table.im), map(np.array, factor)):
        kron = f[bits, bits].sum(axis=1)[:, None], f[bits, 1 - bits]
        if kron[not on_edges].any() or \
                not np.array_equal(part, kron[on_edges]):
            return False
    return True


class CubeContext:
    """All operators of Q_D for one dimension.

    A, Astar and Aeps are their gather tables, certified at construction.
    Every dense 2^D x 2^D matrix (the operators, P, the distance tables,
    the idempotent families) is derived on first use and cached.
    """

    def __init__(self, D: int, d_limit: int = DEFAULT_D_LIMIT):
        if not 1 <= D <= d_limit:
            raise ValueError(f"D must satisfy 1 <= D <= {d_limit}, got {D}")
        self.D = D
        self.n = 2 ** D
        self.dist = np.array([bin(v).count("1") for v in range(self.n)],
                             dtype=object)
        self.theta = [D - 2 * i for i in range(D + 1)]
        self._dist = dist = self.dist.astype(int)
        # A[y, y ^ e_k] = 1, Aeps[y, y ^ e_k] = i (dist(y ^ e_k) - dist(y))
        # and Astar[y, y] = D - 2 dist(y)
        a = _Gather([1 << k for k in range(D)], np.ones((self.n, D), np.int64),
                    np.zeros((self.n, D), np.int64))
        astar = (D - 2 * dist)[:, None]
        self._gathers = {"A": a, "Astar": _Gather([0], astar, 0 * astar),
                         "Aeps": _Gather(a.shifts, a.im,
                                         dist[a.columns()] - dist[:, None])}
        self._certify_tables()
        # the certified tables; `with_flipped_sign` replaces only _gathers'
        self._clean = dict(self._gathers)
        self._E = None
        self._Estar = None
        self._Eeps = None
        self._structure = None

    # -- operator constructions ------------------------------------------------

    def _certify_tables(self) -> None:
        """Each table against a second construction, in O(nD): the
        Kronecker sum of its Q_1 factor, and for Aeps, on each edge,
        -i [A, Astar] / 2 (its entry (y, z) is
        -i A[y, z] (Astar[z, z] - Astar[y, y]) / 2) and S^-1 A S (its
        entry is A[y, z] i^(dist(z) - dist(y)))."""
        a, astar, aeps = (self._gathers[op] for op in KRON_FACTORS)
        bits = (np.arange(self.n)[:, None] >> np.arange(self.D)) & 1
        _require(_kron_sum_agrees(a, KRON_FACTORS["A"], bits),
                 "adjacency: Hamming and Kronecker constructions disagree")
        _require(_kron_sum_agrees(astar, KRON_FACTORS["Astar"], bits),
                 "dual adjacency: distance and Kronecker constructions disagree")
        cols = a.columns()
        sr, si = astar.re[:, 0], astar.im[:, 0]
        dr, di = sr[cols] - sr[:, None], si[cols] - si[:, None]
        cr, ci = a.re * dr - a.im * di, a.re * di + a.im * dr
        # -i (cr + i ci) / 2 = (ci - i cr) / 2
        _require(np.array_equal(2 * aeps.re, ci)
                 and np.array_equal(2 * aeps.im, -cr),
                 "imaginary adjacency: commutator and entry formula disagree")
        _require(_kron_sum_agrees(aeps, KRON_FACTORS["Aeps"], bits),
                 "imaginary adjacency: Kronecker construction disagrees")
        pr, pi = _times_i_power(a.re, a.im,
                                self._dist[cols] - self._dist[:, None])
        _require(np.array_equal(aeps.re, pr) and np.array_equal(aeps.im, pi),
                 "imaginary adjacency: diagonal phase conjugate of A disagrees")

    A = cached_property(lambda self: self._gathers["A"].dense())
    Astar = cached_property(lambda self: self._gathers["Astar"].dense())
    Aeps = cached_property(lambda self: self._gathers["Aeps"].dense())
    # certified equal to apply("P"), S^-1 H, by `_Structure.certify_p`
    P = cached_property(lambda self: kron_power(P1, self.D))
    Pinv = cached_property(
        lambda self: self.P.adjoint().scale(Fraction(1, self.n)))
    # distance between vertices x and y, and dist(y) - dist(x) mod 4
    hamming = cached_property(lambda self: self._dist[
        np.arange(self.n)[:, None] ^ np.arange(self.n)])
    _phase = cached_property(
        lambda self: (self._dist[None, :] - self._dist[:, None]) % 4)

    @cached_property
    def dist_matrices(self):
        """The distance-k indicator matrices A_k, k = 0..D."""
        return tuple(ExactMatrix.from_numerators(ones, 0 * ones, 1)
                     for ones in ((self.hamming == k).astype(np.int64)
                                  for k in range(self.D + 1)))

    # -- idempotent families ------------------------------------------------------

    @property
    def E(self):
        """Primitive idempotents of A: E_i = 2^-D sum_h K_i(h) A_h.

        Certified on the first build against this context's A: sum_i E_i = I
        and A E_i = theta_i E_i.  These force E_i = p_i(A) for the Lagrange
        polynomial p_i with p_i(theta_k) = [i = k], since
        p_i(A) = p_i(A) sum_k E_k = sum_k p_i(theta_k) E_k = E_i.  Each E_i
        is translation-invariant by construction, its entry (x, y) being
        K_i(dist(x ^ y)) / 2^D, so A E_i is compared on E_i's first row and
        on the rows that a flipped sign of A touches
        (`family_eigen_discrepancy`).  The numerators |K_i(h)| <= C(D, i)
        are int64.
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
        """The certificate of `E` on a family of translation-invariant
        matrices."""
        self._certify(
            ExactMatrix.combination(family) == ExactMatrix.identity(self.n),
            ((i, self.family_eigen_discrepancy(
                "A", e, e.block(slice(0, 1), slice(None)),
                self.theta[i]) is None)
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
        """The Bose-Mesner structure of the families, certified once and
        shared by the idempotent and conjugation suites."""
        if self._structure is None:
            self._structure = _Structure(self)
        return self._structure

    # -- block operators -------------------------------------------------------------
    #
    # The module layer applies operators to blocks, one vector per row, and
    # never builds a dense 2^D x 2^D matrix for them.  The gathers are this
    # context's operators, so a flipped sign shows in every reader.

    def _gather_table(self, op: str) -> _Gather:
        """A, Astar, Aeps, or L or R: A's table on the edges towards the
        slice above (bit k of y clear) and on the rest."""
        table = self._gathers.get(op)
        if table is None:
            if op not in ("L", "R"):
                raise ValueError(f"unknown block operator {op!r}")
            up = (np.arange(self.n)[:, None] >> np.arange(self.D)) & 1 == 0
            table = self._gathers["A"].scaled(up if op == "L" else ~up)
            self._gathers[op] = table
        return table

    def apply(self, op: str, block: ExactMatrix) -> ExactMatrix:
        """op applied to every row of block, i.e. the rows of block @ op^T.

        op is A, Astar, Aeps, L or R (gathers, see `_gather_table`) or P
        (S^-1 H: one Walsh-Hadamard pass, then (-i)^dist(y) on column y).
        The kernels run in int64 when a bound on the block's and the
        operator's numerators shows that they fit.
        """
        if block.cols != self.n:
            raise ValueError(f"block has {block.cols} columns, expected {self.n}")
        if op == "P":
            re, im = _numerators(block, block._max() * self.n < I64_LIMIT)
            both = _walsh_hadamard(np.vstack([re, im]))
            re, im = _times_i_power(both[:block.rows], both[block.rows:],
                                    -self._dist)
            return ExactMatrix.from_numerators(re, im, block._den)
        table = self._gather_table(op)
        fits = fits_i64(len(table.shifts), table.max, block._max())
        re, im = table.apply(*_numerators(block, fits))
        return ExactMatrix.from_numerators(re, im, block._den)

    def first_nonzero(self, op: str):
        """(row, col) of the first nonzero entry of A, Astar or Aeps in
        row-major order, read off its table."""
        return self._gathers[op].first_nonzero()

    def family_eigen_discrepancy(self, op: str, m: ExactMatrix,
                                 first: ExactMatrix, theta: int,
                                 right: bool = False):
        """None when op @ m, or m @ op when right, equals theta m, else the
        (row, col) of its first differing entry, row-major.  Either op = A
        and m = E_i = Inv(r) / den, or op = Aeps and m = S^-1 E_i S, for a
        translation-invariant E_i, Inv(r)[x, y] = r[x ^ y], with first row
        `first` = r / den; the caller certifies that structure.

        The stored op is its clean table, certified at construction, plus
        the defect that `with_flipped_sign` makes (`_defect`).  The clean
        A times E_i, on either side, is Inv(q) / den with
        q[w] = sum_k r[w ^ e_k], since the group algebra of Z_2^D is
        commutative; the clean Aeps = S^-1 A S times S^-1 E_i S is
        S^-1 Inv(q) S / den, whose entries are those of Inv(q) / den times
        units.  So the clean product differs from theta m exactly at the
        (x, y) with x ^ y in W = {w : q[w] != theta r[w]}, found in O(nD).
        The defect changes only the product's rows that hold a defect
        entry, or for m @ op its columns, and each of them is computed in
        full, in O(nD), from the stored table and m."""
        table, n = self._gathers[op], self.n
        shifts = np.array(table.shifts)
        dtype = np.int64 if (fits_i64(len(shifts), 1, first._max())
                             and _fits(first._max(), theta)) else object
        rr, ri = (a[0].astype(dtype) for a in (first._re, first._im))
        nbrs = np.arange(n)[:, None] ^ shifts
        W = np.flatnonzero((rr[nbrs].sum(axis=1) != theta * rr)
                           | (ri[nbrs].sum(axis=1) != theta * ri))
        rows, ks = self._defect(op)
        on_lines = np.zeros(n, bool)
        on_lines[rows ^ shifts[ks] if right else rows] = True
        lines = np.flatnonzero(on_lines)
        differ = np.zeros((len(lines), n), bool)
        if len(lines):
            dtype = np.int64 if (fits_i64(len(shifts), table.max, m._max())
                                 and _fits(m._max(), theta)) else object
            mr, mi = m._re, m._im
            nbrs = lines[:, None] ^ shifts
            if right:
                # column z of m @ op: sum_k m[:, z ^ e_k] op[z ^ e_k, z]
                k = np.arange(len(shifts))
                vr, vi = (a[nbrs, k].astype(dtype) for a in (table.re,
                                                             table.im))
                xr, xi = (a.T[nbrs].astype(dtype) for a in (mr, mi))
                want = (a.T[lines].astype(dtype) for a in (mr, mi))
            else:
                # row x of op @ m: sum_k op[x, x ^ e_k] m[x ^ e_k, :]
                vr, vi = (a[lines].astype(dtype) for a in (table.re,
                                                           table.im))
                xr, xi = (a[nbrs].astype(dtype) for a in (mr, mi))
                want = (a[lines].astype(dtype) for a in (mr, mi))
            vr, vi = vr[:, :, None], vi[:, :, None]
            want_r, want_i = want
            differ = (((vr * xr - vi * xi).sum(axis=1) != theta * want_r)
                      | ((vr * xi + vi * xr).sum(axis=1) != theta * want_i))
        return _first_spot(n, W, lines, differ, right)

    def _defect(self, op: str):
        """(rows, k) of the entries (y, y ^ shifts[k]) where op's stored
        table differs from the one certified at construction."""
        table, clean = self._gathers[op], self._clean[op]
        return np.nonzero((table.re != clean.re) | (table.im != clean.im))

    # -- slices --------------------------------------------------------------------

    def slice_indices(self, k: int):
        """Vertex indices at distance k from the base point, ascending."""
        return np.flatnonzero(self._dist == k).tolist()

    # -- testing hook ----------------------------------------------------------------

    def with_flipped_sign(self, op: str, r: int, c: int) -> "CubeContext":
        """Copy of this context with entry (r, c) of A, Astar or Aeps
        sign-flipped in its table (an entry off the table is 0).

        Bypasses the construction cross-checks on purpose; used to confirm the
        verification suites actually detect corruption.  Every matrix,
        family and block operator built from the tables is rebuilt from the
        clone's on first use, so every reader sees the same flip.  The
        tables certified at construction stay the clean reference against
        which `_defect` finds the flips.
        """
        clone = object.__new__(CubeContext)
        clone.__dict__.update((k, v) for k, v in self.__dict__.items()
                              if k not in KRON_FACTORS)
        clone._E = clone._Estar = clone._Eeps = clone._structure = None
        clone._gathers = {name: self._gathers[name] for name in KRON_FACTORS}
        table = self._gathers[op]
        at = (np.arange(self.n)[:, None] == r) & (table.columns() == c)
        clone._gathers[op] = table.scaled(1 - 2 * at)
        return clone


def build_context(D: int, d_limit: int = DEFAULT_D_LIMIT) -> CubeContext:
    return CubeContext(D, d_limit)


# -- verification suites ----------------------------------------------------------------


def _check_tables(name, *terms) -> IdentityCheck:
    """check_equal of lhs and rhs, given the pairs (table, weight) of
    lhs - rhs: they differ where that sum is nonzero, first at its first
    nonzero entry (y, y ^ s)."""
    spot = _Gather.combination(terms).first_nonzero()
    return IdentityCheck(name, spot is None, spot)


def verify_commutators(ctx: CubeContext):
    """The three commutator identities and the two quadratic relations.

    A, Astar and Aeps are this context's stored tables M[y, y ^ s], so a
    flipped sign shows, and every product is one of tables
    (`_Gather.__matmul__`), over at most 1 + D + C(D, 2) shifts: each row
    is a table identity, in O(n D^2), with no 2^D x 2^D matrix."""
    A, As, Ae = (ctx._gathers[op] for op in KRON_FACTORS)
    A_As, As_A = A @ As, As @ A
    return [
        _check_tables("commutator_A_Astar",
                      (A_As, 1), (As_A, -1), (Ae.times_i(), -2)),
        _check_tables("commutator_Astar_Aeps",
                      (As @ Ae, 1), (Ae @ As, -1), (A.times_i(), -2)),
        _check_tables("commutator_Aeps_A",
                      (Ae @ A, 1), (A @ Ae, -1), (As.times_i(), -2)),
        _check_tables("quadratic_dual",
                      (As @ As_A, 1), (As_A @ As, -2), (A_As @ As, 1), (A, -4)),
        _check_tables("quadratic_adjacency",
                      (A @ A_As, 1), (A_As @ A, -2), (As_A @ A, 1), (As, -4)),
    ]


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
    certified entrywise, in O(n^2) per matrix; a clause that fails raises
    ConstructionError naming it.

    E       the first rows r_i / den_i of the E_i (1 x n), every E_i being
            real and translation-invariant;
    Estar   the diagonals of the Estar_i, every one supported on its
            diagonal;
    and every Eeps_i equals S^-1 E_i S (`_phase_conjugate`), so that
    S Eeps_i S^-1 has the first row r_i / den_i.  The clause on P, which
    only the conjugation suite reads, is `certify_p`.
    """

    def __init__(self, ctx: CubeContext):
        n = ctx.n
        self.n = n
        idx = np.arange(n)
        xor = idx[:, None] ^ idx[None, :]
        for i, e in enumerate(ctx.E):
            _require(not e._im.any() and np.array_equal(e._re, e._re[0][xor]),
                     f"Bose-Mesner structure: E_{i} is not real and "
                     f"translation-invariant")
        self.E = [e.block(slice(0, 1), slice(None)) for e in ctx.E]
        self.Estar = [_row(f._re.diagonal(), f._im.diagonal(), f._den)
                      for f in ctx.Estar]
        for i, (f, r) in enumerate(zip(ctx.Estar, self.Estar)):
            _require(np.count_nonzero(f._re) == np.count_nonzero(r._re)
                     and np.count_nonzero(f._im) == np.count_nonzero(r._im),
                     f"Bose-Mesner structure: Estar_{i} is not diagonal")
        # a unit factor per entry keeps lowest terms: f = S^-1 e S exactly
        # when f has e's denominator and e's real numerators times
        # i^phase = cos + i sin, with the phase dist(y) - dist(x) mod 4
        cos = np.array([1, 0, -1, 0])[ctx._phase]
        sin = np.array([0, 1, 0, -1])[ctx._phase]
        for i, (e, f) in enumerate(zip(ctx.E, ctx.Eeps)):
            _require(f._den == e._den and np.array_equal(f._re, e._re * cos)
                     and np.array_equal(f._im, e._re * sin),
                     f"Bose-Mesner structure: Eeps_{i} is not S^-1 E_{i} S")
        self._ctx = ctx

    def certify_p(self) -> None:
        """The stored P is S^-1 H entrywise,
        P[x, y] = (-i)^dist(x) (-1)^|x AND y|, and Pinv is P^* / n, so
        Pinv = H S / n = P^-1."""
        ctx, idx = self._ctx, np.arange(self.n)
        sign = 1 - 2 * (ctx._dist[idx[:, None] & idx[None, :]] % 2)
        re, im = _times_i_power(sign, 0 * sign, -ctx._dist[:, None])
        _require(ctx.P == ExactMatrix.from_numerators(re, im, 1),
                 "Bose-Mesner structure: P is not S^-1 H")
        _require(ctx.Pinv == ctx.P.adjoint().scale(Fraction(1, self.n)),
                 "Bose-Mesner structure: Pinv is not P^* / n")

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
        F = E, Estar or Eeps on its certified rows.
        Eeps_i Eeps_j = S^-1 E_i E_j S compares the rows of E_i E_j, and
        Estar_i Estar_j is the entrywise product of the diagonals."""
        if label == "Estar":
            return self.Estar, [[a.entrywise(b) for b in self.Estar]
                                for a in self.Estar], True
        return self.E, self.E_products, False

    def conjugation(self, kind: str, i: int):
        """(row of P F_i Pinv, row of its expected value, diagonal) for the
        family row `kind`[i] of `verify_conjugation`, once `certify_p`
        has passed."""
        n, r = self.n, self.E[i]
        if kind == "conj_E_to_Estar":
            spectrum = self.E_spectra[i]
            return _row(spectrum, 0 * spectrum, r._den), self.Estar[i], True
        if kind == "conj_Eeps_to_E":
            # a theorem on this structure (see verify_conjugation)
            return r, r, False
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
    A family without that structure stops the suite with the
    ConstructionError that names the clause.  Aeps Eeps_i and Eeps_i Aeps
    are compared with theta_i Eeps_i on the same structure: the part of
    the clean Aeps on the first row of E_i, and the rows or columns that a
    flipped sign of the stored Aeps touches in full
    (`CubeContext.family_eigen_discrepancy`).

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
        first, products, diagonal = structure.products(label)
        for i in range(D + 1):
            for j in range(D + 1):
                expected = first[i] if i == j else ExactMatrix.zeros(1, n)
                checks.append(_check_rows(f"{label}_product[{i},{j}]",
                                          products[i][j], expected, diagonal))
    for i, (e, row) in enumerate(zip(ctx.Eeps, structure.E)):
        for name, right in ((f"Eeps_eigen[{i}]", False),
                            (f"Eeps_eigen_right[{i}]", True)):
            spot = ctx.family_eigen_discrepancy("Aeps", e, row, D - 2 * i,
                                                right)
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
    The family rows need the structure, P's clause included
    (`_Structure.certify_p`): without it the suite stops with the
    ConstructionError that names the clause."""
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
    structure.certify_p()
    for i in range(D + 1):
        for kind in ("conj_E_to_Estar", "conj_Estar_to_Eeps",
                     "conj_Eeps_to_E"):
            checks.append(_check_rows(f"{kind}[{i}]",
                                      *structure.conjugation(kind, i)))
    return checks

