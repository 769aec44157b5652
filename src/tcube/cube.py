"""Operators of the hypercube Q_D relative to the all-zeros base vertex.

Vertices are bit strings (t_1, ..., t_D) indexed by sum(t_k * 2^(D-k)), i.e.
the first coordinate is the most significant bit.  With that convention every
operator factors through Kronecker products of its Q_1 counterpart.  A,
Astar and Aeps are stored once, as gather tables built from their vertex by
vertex definitions and certified against a second construction
(`CubeContext._certify_tables`); every dense matrix is derived on demand.

Operators:
  A      adjacency matrix (vertices differing in one coordinate)
  Astar  diagonal with (y,y)-entry D - 2*dist(y)
  Aeps   -i(A Astar - Astar A)/2, supported on edges with entries +-i
  P      S^-1 H, which realizes the Kronecker power P1^(x D) of
         P1 = [[1, 1], [-i, i]] (see below); conjugation by P cycles
         A -> Astar -> Aeps -> A
  A_k    distance-k indicator matrices
  E, Estar, Eeps   the three idempotent families (spectral projections)

The idempotent families are stored as one row each, from closed forms
(`_Structure`): E_i[x, y] = K_i(dist(x ^ y)) / 2^D with the Krawtchouk
numbers K_i(h), certified against A (sum to I, A E_i = theta_i E_i), by its
first row; Estar_i, the indicator of slice i, by its diagonal; and
Eeps_i = S^-1 E_i S with S = diag(i^dist), the same diagonal phase that
takes A to Aeps, by the row of E_i.

The block operators (`CubeContext.apply`) act on many vectors at once
without a dense 2^D x 2^D product: A, Aeps and the ladder operators L, R
are gathers over the D neighbours of each vertex, Astar is a diagonal
scale and P = S^-1 H is a Walsh-Hadamard pass.  The module layer needs no
idempotent over 2^D: it certifies how these operators act on each module's
slice basis and takes the idempotents there (`decomposition`).

The three whole-matrix suites close the module: the commutator and
quadratic relations, the idempotent families (whose `F_rank[i]` rows are
the eigenvalue multiplicities: F_i idempotent with trace C(D, i)), and
conjugation by P, with no 2^D x 2^D matrix.  The families lie in the
Bose-Mesner algebra of Q_D, the group algebra of Z_2^D, so every family
identity is compared on one row or one diagonal, computed by Walsh-Hadamard
transforms, and the rest of the matrix follows.  The operators whose signs
`verify --corrupt` flips (A, Astar, Aeps) are read from their stored
tables.  The commutator suite multiplies the tables themselves: a product
of two tables M[y, y ^ s] is one over the shifts s1 ^ s2
(`_Gather.__matmul__`).  A and Aeps act on the families as their clean
tables, certified at construction, plus the sparse defect that a flipped
sign makes: with no defect a test on one first row decides, and otherwise
a row scan of the stored product locates the first discrepancy
(`CubeContext.family_eigen_discrepancy`).  P is certified by its 2 x 2
factor P1, and conjugation compares only the defects of the tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import ExactMatrix, first_discrepancy, ints
from .report import IdentityCheck, check_true
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


# -- kernels of the block operators ------------------------------------------------
#
# A block holds one vector per row.  The kernels below act on the rows of its
# numerator arrays, given with a bound m on their entries.  Each kernel
# bounds the values it forms from m and hands that bound to `linalg.ints`,
# which keeps int64 arrays below 2^62 and gives object arrays, on which
# numpy computes with Python ints, otherwise; the code is the same for both.


def _walsh_hadamard(a, m):
    """Each row v of a replaced by H v, H[x, z] = (-1)^|x AND z|, on a copy,
    for entries of a bounded by m: per bit, (v0, v1) -> (v0 + v1, v0 - v1).
    Each pass at most doubles the largest entry, so the result is bounded
    by 2^D m.  H is symmetric and H H = 2^D I."""
    a = ints(a.shape[1] * m, a)[0].copy()
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


def _hadamard(re, im, m):
    """(H re, H im) for the parts of a block with entries bounded by m
    (`_walsh_hadamard`); an all-zero part, such as that of a real block,
    is returned as it is, with no transform and no copy."""
    return tuple(_walsh_hadamard(a, m) if a.any() else a for a in (re, im))


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
    magnitude (0 for no shifts)."""

    def __init__(self, shifts, re, im):
        self.shifts, self.re, self.im = shifts, re, im
        self.max = int(max(abs(re).max(initial=0), abs(im).max(initial=0)))

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
        pairs (s, t) with that s ^ t, at most one per s: complex dots of
        length len(self.shifts)."""
        shifts = sorted({s ^ t for s in self.shifts for t in other.shifts})
        sr, si, tr, ti = ints(2 * len(self.shifts) * max(self.max, 1)
                              * max(other.max, 1),
                              self.re, self.im, other.re, other.im)
        n = len(self.re)
        re, im = (np.zeros_like(sr, shape=(n, len(shifts))) for _ in "ri")
        y = np.arange(n)
        for k, s in enumerate(self.shifts):
            ar, ai = sr[:, k:k + 1], si[:, k:k + 1]
            br, bi = tr[y ^ s], ti[y ^ s]
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
        bound = sum(max(abs(w), 1) * table.max for table, w in terms)
        parts = [ints(bound, table.re, table.im) for table, _ in terms]
        n = len(terms[0][0].re)
        re, im = (np.zeros_like(parts[0][0], shape=(n, len(shifts)))
                  for _ in "ri")
        for (table, w), (tr, ti) in zip(terms, parts):
            cols = [shifts.index(s) for s in table.shifts]
            re[:, cols] += tr * w
            im[:, cols] += ti * w
        return _Gather(shifts, re, im)

    def defect(self, clean: "_Gather"):
        """(rows, cols, re, im): the entries (y, y ^ s) where M differs from
        `clean`, a table over the same shifts, and M - clean there."""
        rows, ks = np.nonzero((self.re != clean.re) | (self.im != clean.im))
        cols = rows ^ np.array(self.shifts, dtype=rows.dtype)[ks]
        return (rows, cols, self.re[rows, ks] - clean.re[rows, ks],
                self.im[rows, ks] - clean.im[rows, ks])

    def first_nonzero(self):
        """(y, y ^ s) of M's first nonzero entry in row-major order: the
        first row with one, at its least column; None when M is 0."""
        nonzero = (self.re != 0) | (self.im != 0)
        rows = np.flatnonzero(nonzero.any(axis=1))
        if not len(rows):
            return None
        y = int(rows[0])
        return y, min(y ^ s for s, hit in zip(self.shifts, nonzero[y]) if hit)

    def apply(self, re, im, m):
        """Numerators of every row x of re + i im times M, for entries of x
        bounded by m: (M x)[y] = sum_k M[y, y ^ shifts[k]] x[y ^ shifts[k]],
        a complex dot of length len(shifts).  An all-zero part of x (a real
        block, such as every slice basis) or of M (A is real, Aeps
        imaginary) costs no flip and no product."""
        re, im, vr, vi = ints(2 * len(self.shifts) * max(self.max, 1)
                              * max(m, 1), re, im, self.re, self.im)
        vr = vr if vr.any() else None
        vi = vi if vi.any() else None
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


def _first_spot(n, differ, start, width):
    """The first row-major (x, y) where an n x n comparison differs, or
    None, given that its rows above `start` agree: differ(xs) is the
    boolean block of rows xs, each entry formed from `width` terms.  The
    rows are scanned in order up to the first block with a difference;
    blocks double from one row up to about 2^16 terms."""
    most = max(1, 2 ** 16 // (n * width))
    lo, step = start, 1
    while lo < n:
        hits = np.argwhere(differ(np.arange(lo, min(n, lo + step))))
        if len(hits):
            return lo + int(hits[0][0]), int(hits[0][1])
        lo, step = lo + step, min(2 * step, most)
    return None


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

    A, Astar and Aeps are their gather tables, certified at construction,
    and the idempotent families their rows (`structure`).  The dense
    2^D x 2^D matrices are views for `build` and the tests, derived on
    demand: the operators, P and the distance tables are cached, the
    families built on each call.
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
        # the certified tables; `with_flipped_sign` replaces only _gathers',
        # each with its defect against them (`_Gather.defect`)
        self._clean = dict(self._gathers)
        self._defects = dict.fromkeys(KRON_FACTORS, (np.zeros(0, int),) * 4)
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
    # the rows of I P^T by the block operator P = S^-1 H (`apply`)
    P = cached_property(lambda self: self.apply(
        "P", ExactMatrix.identity(self.n)).transpose())
    # distance between vertices x and y
    hamming = cached_property(lambda self: self._dist[
        np.arange(self.n)[:, None] ^ np.arange(self.n)])

    @cached_property
    def dist_matrices(self):
        """The distance-k indicator matrices A_k, k = 0..D."""
        return self._family("dist_matrices")

    # -- idempotent families ------------------------------------------------------

    @property
    def E(self):
        """Primitive idempotents of A: E_i = Inv(r_i) / den_i,
        Inv(r)[x, y] = r[x ^ y], for the certified first rows r_i / den_i."""
        return self._family("E")

    @property
    def Estar(self):
        """Dual idempotents: diagonal indicators of the distance slices."""
        return self._family("Estar")

    @property
    def Eeps(self):
        """Imaginary idempotents S^-1 E_i S with S = diag(i^dist).

        Aeps = S^-1 A S is a construction check and Aeps = Pinv A P is
        verified by the conjugation suite, so these equal Pinv E_i P.
        """
        return self._family("Eeps")

    def _family(self, family: str):
        return tuple(self.member(family, i) for i in range(self.D + 1))

    def member(self, family: str, i: int) -> ExactMatrix:
        """Member i of the family E, Estar, Eeps or dist_matrices as a dense
        2^D x 2^D matrix, built alone: the families above are these members
        for i = 0..D."""
        if family == "dist_matrices":
            ones = (self.hamming == i).astype(np.int64)
            return ExactMatrix.from_numerators(ones, 0 * ones, 1)
        if family == "Estar":
            r = self.structure.Estar[i]
            return ExactMatrix.from_numerators(np.diag(r._re[0]),
                                               np.diag(r._im[0]), r._den)
        if family not in ("E", "Eeps"):
            raise ValueError(f"unknown family {family!r}")
        r = self.structure.E[i]
        xor = np.arange(self.n)[:, None] ^ np.arange(self.n)
        re, im = r._re[0][xor], r._im[0][xor]
        if family == "Eeps":
            re, im = _times_i_power(re, im, self._dist[None, :]
                                    - self._dist[:, None])
        return ExactMatrix.from_numerators(re, im, r._den)

    @property
    def structure(self) -> "_Structure":
        """The families as their rows, certified once (`_Structure`)."""
        if self._structure is None:
            self._structure = _Structure(self)
        return self._structure

    def _certify_idempotents(self, rows) -> None:
        """The certificate of `E` on the first rows of the invariant E_i:
        they sum to that of I, and A E_i = theta_i E_i.  These force
        E_i = p_i(A) for the Lagrange polynomial p_i with
        p_i(theta_k) = [i = k], since
        p_i(A) = p_i(A) sum_k E_k = sum_k p_i(theta_k) E_k = E_i."""
        self._certify(
            ExactMatrix.combination(rows) == _indicator(
                np.arange(self.n) == 0),
            ((i, self.family_eigen_discrepancy("A", r, self.theta[i]) is None)
             for i, r in enumerate(rows)))

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
        The kernels bound what they compute from the block's and the
        operator's numerators and run on int64 when `ints` admits it.
        """
        if block.cols != self.n:
            raise ValueError(f"block has {block.cols} columns, expected {self.n}")
        if op == "P":
            re, im = _times_i_power(*_hadamard(block._re, block._im,
                                               block._max()), -self._dist)
        else:
            re, im = self._gather_table(op).apply(block._re, block._im,
                                                  block._max())
        return ExactMatrix.from_numerators(re, im, block._den)

    def first_nonzero(self, op: str):
        """(row, col) of the first nonzero entry of A, Astar or Aeps in
        row-major order, read off its table."""
        return self._gathers[op].first_nonzero()

    def family_eigen_discrepancy(self, op: str, first: ExactMatrix,
                                 theta: int, right: bool = False):
        """None when op @ m, or m @ op when right, equals theta m, else the
        (row, col) of its first differing entry, row-major.  Either op = A
        and m = E_i = Inv(r) / den, or op = Aeps and m = S^-1 E_i S, for a
        translation-invariant E_i, Inv(r)[x, y] = r[x ^ y], given by its
        first row `first` = r / den alone.

        The stored op is its clean table, certified at construction, plus
        the defect that `with_flipped_sign` makes (`_defects`).  Let T = op
        for A and T = S op S^-1 for Aeps, whose clean table is A's.  Then
        op @ m - theta m is T E_i - theta E_i for A and
        S^-1 (T E_i - theta E_i) S for Aeps, likewise on the right, so
        both are zero at the same entries.  The clean T times E_i, on
        either side, is Inv(q) / den with q[w] = sum_k r[w ^ e_k], since
        the group algebra of Z_2^D is commutative.  So with no defect the
        first-row test q = theta r, in O(nD), decides.  Otherwise a row
        scan (`_first_spot`) locates the spot, on the rows of T E_i, or
        E_i T, from T's table and r.  On the left, with q = theta r, only
        the defect's rows can differ, and the scan starts at the first of
        them."""
        table, n = self._gathers[op], self.n
        shifts = np.array(table.shifts)
        # the row sums over the shifts and the products with the table are
        # dots of length len(shifts), the expected values theta times m
        bound = max(2 * len(shifts) * max(table.max, 1),
                    abs(theta)) * max(first._max(), 1)
        rr, ri = (a[0] for a in first.ints(bound))
        y = np.arange(n)
        nbrs = y[:, None] ^ shifts
        clean = (np.array_equal(rr[nbrs].sum(axis=1), theta * rr)
                 and np.array_equal(ri[nbrs].sum(axis=1), theta * ri))
        rows = self._defects[op][0]
        if clean and not len(rows):
            return None
        tr, ti = ints(bound, table.re, table.im)
        if op == "Aeps":
            # T[y, y ^ s] = op[y, y ^ s] i^-delta = -i delta op[y, y ^ s]
            # for delta = dist(y ^ s) - dist(y), +-1 on an edge
            delta = self._dist[nbrs] - self._dist[:, None]
            tr, ti = delta * ti, -delta * tr
        # entry (x, z) of T E_i sums T[x, x ^ s] r[x ^ s ^ z], and of E_i T
        # sums r[x ^ z ^ s] T[z ^ s, z], over the shifts s
        if right:
            k = np.arange(len(shifts))
            tr, ti = tr[nbrs, k].T, ti[nbrs, k].T

        def differ(xs):
            terms = xs[:, None, None] ^ nbrs.T
            xr, xi = rr[terms], ri[terms]
            vr, vi = ((tr, ti) if right
                      else (tr[xs][:, :, None], ti[xs][:, :, None]))
            want = xs[:, None] ^ y
            return (((vr * xr - vi * xi).sum(axis=1) != theta * rr[want])
                    | ((vr * xi + vi * xr).sum(axis=1) != theta * ri[want]))

        start = int(rows.min()) if clean and not right else 0
        return _first_spot(n, differ, start, len(shifts))

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
        tables certified at construction stay the clean reference: the
        flipped table's defect against its clean one is computed here,
        once, so flips compose and a second flip of an entry undoes the
        first.
        """
        clone = object.__new__(CubeContext)
        clone.__dict__.update((k, v) for k, v in self.__dict__.items()
                              if k not in KRON_FACTORS)
        clone._structure = None
        clone._gathers = {name: self._gathers[name] for name in KRON_FACTORS}
        table = self._gathers[op]
        at = (np.arange(self.n)[:, None] == r) & (table.columns() == c)
        clone._gathers[op] = table.scaled(1 - 2 * at)
        clone._defects = {**self._defects,
                          op: clone._gathers[op].defect(self._clean[op])}
        return clone


def build_context(D: int, d_limit: int = DEFAULT_D_LIMIT) -> CubeContext:
    return CubeContext(D, d_limit)


# -- verification suites ----------------------------------------------------------------


def _check_tables(name, *terms) -> IdentityCheck:
    """The check lhs == rhs, with its first discrepancy, given the pairs
    (table, weight) of lhs - rhs: they differ where that sum is nonzero,
    first at its first nonzero entry (y, y ^ s)."""
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
# XOR convolution by its first row r, Inv(r), and H M H = n diag(H r).
# Such a matrix is symmetric, and its conjugate, or adjoint, is Inv(conj r).
# The product of two such matrices is one again, and its first row is the
# convolution of theirs.  So two invariant matrices are equal exactly when
# their first rows are, and the first entry k where the rows differ is
# their first row-major difference, (0, k).  The same holds for S^-1 M S
# with S = diag(i^dist), whose entries are M's times powers of i, and for
# two diagonal matrices on their diagonals, with (k, k).


def _row(re, im, den) -> ExactMatrix:
    """The 1 x n matrix (re + i im) / den, in lowest terms."""
    return ExactMatrix.from_numerators(re[None, :], im[None, :], den)


def _indicator(mask) -> ExactMatrix:
    """The 1 x n row that is 1 where the boolean mask holds, else 0."""
    ones = mask.astype(np.int64)
    return _row(ones, 0 * ones, 1)


def _check_rows(name, lhs, rhs, diagonal=False) -> IdentityCheck:
    """The check that two matrices are equal, with its first discrepancy,
    for two that are both translation-invariant, both S^-1 conjugates of
    such, or both diagonal, given by their first rows, or diagonals, lhs
    and rhs (1 x n): see the note above."""
    if lhs == rhs:
        return IdentityCheck(name, True)
    _, k = first_discrepancy(lhs, rhs)
    return IdentityCheck(name, False, (k, k) if diagonal else (0, k))


class _Structure:
    """The three idempotent families of a context as rows (1 x n), built
    from their closed forms in O(nD):

    E       the first rows r_i / den_i = K_i(dist(.)) / n of the
            E_i = Inv(r_i) / den_i, certified against the context's A
            (`CubeContext._certify_idempotents`, which raises
            ConstructionError naming the clause that fails);
    Estar   the diagonals of the Estar_i, the indicators of the slices;
    and Eeps_i = S^-1 E_i S, whose rows are those of E.
    """

    def __init__(self, ctx: CubeContext):
        n, D = ctx.n, ctx.D
        self.n = n
        # |K_i(h)| <= C(D, i) <= n
        K = ints(n, krawtchouk_table(D))[0]
        zeros = np.zeros(n, np.int64)
        self.E = [_row(K[:, i][ctx._dist], zeros, n) for i in range(D + 1)]
        ctx._certify_idempotents(self.E)
        self.Estar = [_indicator(ctx._dist == i) for i in range(D + 1)]

    @cached_property
    def E_spectra(self):
        """(re, im): the numerators H r_i for the first rows r_i of E, at
        most n m for the largest numerator m."""
        m = max(r._max() for r in self.E)
        return _hadamard(np.vstack([r._re for r in self.E]),
                         np.vstack([r._im for r in self.E]), m)

    @cached_property
    def E_products(self):
        """E_products[i][j]: the first row of E_i E_j, the XOR convolution
        sum_z r_i[z] r_j[z ^ k] = (H (H r_i o H r_j))[k] / n, with o
        entrywise, over n den_i den_j.  |H r| <= n m, so the complex
        products stay within 2 n^2 m^2 and the second transform within
        2 n^3 m^2."""
        n, rows = self.n, self.E
        bound = 2 * (n * max(r._max() for r in rows)) ** 2
        sr, si = (a[:, None, :] for a in ints(bound, *self.E_spectra))
        tr, ti = (a.transpose(1, 0, 2) for a in (sr, si))
        conv_r, conv_i = _hadamard((sr * tr - si * ti).reshape(-1, n),
                                   (sr * ti + si * tr).reshape(-1, n), bound)
        k = len(rows)
        return [[_row(conv_r[i * k + j], conv_i[i * k + j],
                      n * a._den * b._den)
                 for j, b in enumerate(rows)]
                for i, a in enumerate(rows)]

    def conjugation(self, kind: str, i: int):
        """(row of P F_i Pinv, row of its expected value, diagonal) for the
        family row `kind`[i] of `verify_conjugation`."""
        n, r = self.n, self.E[i]
        if kind == "conj_E_to_Estar":
            sr, si = (a[i] for a in self.E_spectra)
            return _row(sr, si, r._den), self.Estar[i], True
        if kind == "conj_Eeps_to_E":
            # a theorem on this structure (see verify_conjugation)
            return r, r, False
        s = self.Estar[i]
        re, im = _hadamard(s._re, s._im, s._max())
        return _row(re[0], im[0], n * s._den), r, False


def verify_idempotent_families(ctx: CubeContext):
    """Sum-to-identity, symmetry/reality, orthogonal idempotence and ranks
    for all three families, on their rows (`CubeContext.structure`).

    Each side of every row is translation-invariant, an S^-1 conjugate of
    such, or diagonal, so each row compares one first row or diagonal and
    the rest of the matrix follows (see the note above):
    - E_0 n = J and the sums against I: the rows of the two sides;
    - F_conj[i] and Eeps_adjoint[i]: conj(r_i) against r_i; F_transpose[i]
      follows from invariance, or diagonality, and passes on it;
    - E_i E_j and Eeps_i Eeps_j = S^-1 E_i E_j S: the first row of E_i E_j,
      by Walsh-Hadamard transforms (`_Structure.E_products`);
      Estar_i Estar_j: the entrywise product of the diagonals;
    - Aeps Eeps_i and Eeps_i Aeps against theta_i Eeps_i: the clean Aeps on
      the row of E_i, and a row scan of the stored product when that fails
      or a flipped sign makes a defect
      (`CubeContext.family_eigen_discrepancy`);
    - sum_i theta_i Eeps_i = S^-1 Inv(q) S / den, for the row q / den of
      sum_i theta_i E_i, as a table over the shifts where q is nonzero,
      against the stored table of Aeps.
    The rank of an idempotent is its trace, so F_rank[i] passes when
    F_product[i,i] proved F_i idempotent and its trace, n r_i[0] / den_i or
    the sum of Estar_i's diagonal, is C(D, i)."""
    n, D = ctx.n, ctx.D
    s = ctx.structure
    families = (("E", s.E, False), ("Estar", s.Estar, True),
                ("Eeps", s.E, False))
    ones, zero = _indicator(np.ones(n, bool)), ExactMatrix.zeros(1, n)
    checks = [_check_rows("E_trivial_allones", s.E[0].scale(n), ones)]
    for label, rows, diagonal in families:
        identity = ones if diagonal else _indicator(np.arange(n) == 0)
        checks.append(_check_rows(f"{label}_sum_identity",
                                  ExactMatrix.combination(rows), identity,
                                  diagonal))
        for i, r in enumerate(rows):
            if label != "Eeps":
                checks.append(IdentityCheck(f"{label}_transpose[{i}]", True))
            name = "adjoint" if label == "Eeps" else "conj"
            checks.append(_check_rows(f"{label}_{name}[{i}]", r.conj(), r,
                                      diagonal))
        products = ([[a.entrywise(b) for b in rows] for a in rows]
                    if diagonal else s.E_products)
        for i in range(D + 1):
            for j in range(D + 1):
                expected = rows[i] if i == j else zero
                checks.append(_check_rows(f"{label}_product[{i},{j}]",
                                          products[i][j], expected, diagonal))
    for i, r in enumerate(s.E):
        for name, right in ((f"Eeps_eigen[{i}]", False),
                            (f"Eeps_eigen_right[{i}]", True)):
            spot = ctx.family_eigen_discrepancy("Aeps", r, ctx.theta[i], right)
            checks.append(IdentityCheck(name, spot is None, spot))
    q = ExactMatrix.combination(s.E, ctx.theta)
    shifts = np.flatnonzero(q.nonzero()[0])
    phase = ctx._dist[np.arange(n)[:, None] ^ shifts] - ctx._dist[:, None]
    spectral = _Gather(shifts.tolist(), *_times_i_power(
        q._re[0][shifts], q._im[0][shifts], phase))
    checks.append(_check_tables("Aeps_spectral_sum", (spectral, 1),
                                (ctx._gathers["Aeps"], -q._den)))
    proven = {c.identity: c.passed for c in checks}
    for label, rows, diagonal in families:
        for i, r in enumerate(rows):
            trace = (r @ ones.transpose())[0, 0] if diagonal else r[0, 0] * n
            checks.append(check_true(f"{label}_rank[{i}]",
                                     proven[f"{label}_product[{i},{i}]"]
                                     and trace == math.comb(D, i)))
    return checks


# The conjugation cycle X -> Y = P X Pinv on the operators.
_P_CYCLE = (("A", "Astar"), ("Astar", "Aeps"), ("Aeps", "A"))


def _certify_p_factor() -> None:
    """The factor of P = S^-1 H, in exact 2 x 2 arithmetic: H and S^-1
    are the Kronecker powers of H1 and S1^-1, so P = P1^(x D) for
    P1 = S1^-1 H1, which the kernels of `CubeContext.apply` (a
    Walsh-Hadamard pass, then (-i)^dist) are checked to give.  With it,
    P1 P1^* = 2 I, P1^3 = 2 (1 - i) I and P1 X1 P1^-1 = Y1 on each step
    X -> Y of the cycle for the Q_1 factors of KRON_FACTORS.  A clause
    that fails raises ConstructionError naming it."""
    two = ExactMatrix.identity(2).scale(2)
    _require(P1 @ P1.adjoint() == two, "P factor: P1 P1^* != 2 I")
    _require(P1 @ P1 @ P1 == two.scale(GaussRat(1, -1)),
             "P factor: P1^3 != 2 (1 - i) I")
    factor = {op: ExactMatrix.from_numerators(*map(np.array, parts), 1)
              for op, parts in KRON_FACTORS.items()}
    p1_inv = P1.adjoint().scale(Fraction(1, 2))
    for x, y in _P_CYCLE:
        _require(P1 @ factor[x] @ p1_inv == factor[y],
                 f"P factor: P1 {x}1 P1^-1 != {y}1")
    h1 = _walsh_hadamard(np.identity(2, dtype=np.int64), 1)
    s1h1 = _times_i_power(h1, 0 * h1, -np.array([[0], [1]]))
    _require(P1 == ExactMatrix.from_numerators(*s1h1, 1),
             "P factor: P1 != S1^-1 H1")


def _conjugation_spot(ctx: CubeContext, x: str, y: str):
    """None when P X Pinv equals Y for the stored X and Y, else the
    (row, col) of its first differing entry, row-major.

    With the factor certified, P X Pinv = Y on the clean tables, so
    P X Pinv - Y = P dX Pinv - dY for the defects of the stored tables
    (`CubeContext._defects`).  Without dX the spot is dY's first entry.
    Else, for dX = sum_j v_j at (r_j, c_j), P = S^-1 H and Pinv = H S / n,
    row x of n P dX Pinv is (-i)^dist(x) sum_j H[x, r_j] v_j H[c_j, .]
    i^dist(.), whose entries are at most |dX| times the largest defect
    entry: a row scan (`_first_spot`) computes them in order, up to the
    first that differs from n dY's."""
    n, dist = ctx.n, ctx._dist
    rx, cx, vr, vi = ctx._defects[x]
    ry, cy, ur, ui = ctx._defects[y]
    if not len(rx):
        # the defect is in row-major order of its rows
        return (int(ry[0]), int(cy[ry == ry[0]].min())) if len(ry) else None
    bound = max(len(rx), n) * max(ctx._gathers[op].max + ctx._clean[op].max
                                  for op in (x, y))
    vr, vi, ur, ui = ints(bound, vr, vi, ur, ui)
    h = 1 - 2 * (dist[cx[:, None] & np.arange(n)] % 2)
    right_r, right_i = _times_i_power(vr[:, None] * h, vi[:, None] * h, dist)

    def differ(xs):
        h = 1 - 2 * (dist[xs[:, None] & rx] % 2)
        got_r, got_i = _times_i_power(h @ right_r, h @ right_i,
                                      -dist[xs][:, None])
        want_r, want_i = np.zeros_like(got_r), np.zeros_like(got_i)
        on = (ry >= xs[0]) & (ry <= xs[-1])
        want_r[ry[on] - xs[0], cy[on]] = n * ur[on]
        want_i[ry[on] - xs[0], cy[on]] = n * ui[on]
        return (got_r != want_r) | (got_i != want_i)

    return _first_spot(n, differ, 0, len(rx))


def verify_conjugation(ctx: CubeContext):
    """Scaled unitarity and cube of P, and the conjugation cycle on the
    operators and on the idempotent families.

    P = S^-1 H realizes P1^(x D), and the clean tables of A, Astar and
    Aeps are certified Kronecker sums of their Q_1 factors, so the
    certificate of P1 (`_certify_p_factor`) gives P P^* = P^* P = n I,
    P^3 = (1 - i)^D n I and P X Pinv = Y on the clean tables:
    P_unitary_scaled, P_unitary_scaled_right and P_cubed pass on it alone,
    and a clause that fails stops the suite with the ConstructionError that
    names it.  The rows conj_X_to_Y compare the defects of the tables
    (`_conjugation_spot`).

    The family rows compare one row or diagonal each, on the rows of
    `CubeContext.structure`, with P = S^-1 H and Pinv = H S / n, H H = n I
    and S = diag(i^dist).  An invariant E_i = Inv(r_i) / den_i satisfies
    Inv(r) = H diag(H r) H / n, and H diag(s) H = n Inv(H s / n).  So
    - P E_i Pinv = S^-1 H Inv(r_i) H S / (n den_i) = diag(H r_i) / den_i:
      its diagonal against that of Estar_i;
    - P Estar_i Pinv = S^-1 H diag(s_i) H S / n = S^-1 Inv(H s_i / n) S:
      the row H s_i / n against r_i / den_i, the first row of
      S Eeps_i S^-1;
    - P Eeps_i Pinv = E_i follows: with D_i = P E_i Pinv = diag(H r_i) /
      den_i, P D_i Pinv = Eeps_i by the second case, as H H = n I, and P^3
      is scalar, so P Eeps_i Pinv = P^2 D_i P^-2 = Pinv D_i P =
      H diag(H r_i) H / (n den_i) = Inv(r_i) / den_i.  This row cannot
      fail, so it compares r_i with itself and costs no transform.
    The rest of each matrix follows as the note on the structure says."""
    _certify_p_factor()
    checks = [IdentityCheck(name, True) for name in (
        "P_unitary_scaled", "P_unitary_scaled_right", "P_cubed")]
    for x, y in _P_CYCLE:
        spot = _conjugation_spot(ctx, x, y)
        checks.append(IdentityCheck(f"conj_{x}_to_{y}", spot is None, spot))
    structure = ctx.structure
    for i in range(ctx.D + 1):
        for kind in ("conj_E_to_Estar", "conj_Estar_to_Eeps",
                     "conj_Eeps_to_E"):
            checks.append(_check_rows(f"{kind}[{i}]",
                                      *structure.conjugation(kind, i)))
    return checks
