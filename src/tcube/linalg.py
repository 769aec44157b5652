"""Dense exact linear algebra over Q(i).

Matrices and vectors store Gaussian-integer numerators (numpy object arrays of
Python ints, one array for the real and one for the imaginary part) together
with a single positive integer denominator, reduced so the gcd of all
numerators and the denominator is 1.  This keeps arithmetic exact while
letting products run through int64 numpy kernels whenever a conservative
magnitude bound allows; otherwise they fall back to object-dtype numpy ops,
which are still exact.

Matrices are built from numerator arrays, never from grids of scalars: a
diagonal from its values, a stack of vectors or matrices on their common
denominator.  Entrywise equality (`entries_equal`) compares numerators
across the two denominators, so blocks on different denominators compare
without being brought to lowest terms.

Elimination is fraction-free: rows are combined over the Gaussian integers
and divided by their integer content after each step, which bounds
coefficient growth without ever leaving Z[i].  The forward pass gives the
rank; the Gauss-Jordan pass, which also clears each pivot column above the
pivot, gives kernel vectors and the one exact inverse, `pivot_inverse`: the
pivot columns of a matrix with independent rows and the inverse of its
square submatrix on them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .scalar import GaussRat, as_gauss

I64_LIMIT = 2 ** 62


def _obj_zeros(shape):
    return np.zeros(shape, dtype=object)


def _max_abs(arr) -> int:
    if arr.size == 0:
        return 0
    return int(abs(arr).max())


def _content(den: int, *arrays) -> int:
    """gcd of den and all array entries, with early exit at 1 after each
    chunk of entries."""
    g = den
    for arr in arrays:
        flat = arr.ravel()
        for start in range(0, flat.size, 1024):
            g = math.gcd(g, *flat[start:start + 1024].tolist())
            if g == 1:
                return 1
    return g


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _i64_parts(x):
    """Cached int64 copies of a matrix/vector's numerator arrays.

    Returns (re64, im64_or_None, has_imag); only valid when the caller has
    already checked that combined products stay below the int64 ceiling.
    """
    cached = x._c64
    if cached is None:
        has_imag = _max_abs(x._im) > 0
        cached = (x._re.astype(np.int64),
                  x._im.astype(np.int64) if has_imag else None,
                  has_imag)
        object.__setattr__(x, "_c64", cached)
    return cached


def fits_i64(length: int, ma: int, mb: int) -> bool:
    """True when both operands convert to int64 and every complex dot of the
    given length over entries bounded by ma and mb stays below 2^62."""
    return (ma < I64_LIMIT and mb < I64_LIMIT
            and 2 * length * ma * mb < I64_LIMIT)


def _product(a, b, dot):
    """Exact complex product of the numerator arrays of a and b via `dot`.

    Uses int64 numpy kernels when the result provably fits, otherwise
    object-dtype numpy ops on Python ints.  Zero real/imaginary parts are
    skipped entirely.
    """
    ar, ai, br, bi = a._re, a._im, b._re, b._im
    inner = ar.shape[-1] if ar.ndim > 1 else ar.shape[0]
    if fits_i64(inner, a._max(), b._max()):
        ar_, ai_, a_im = _i64_parts(a)
        br_, bi_, b_im = _i64_parts(b)
        cr = dot(ar_, br_)
        if a_im and b_im:
            cr = cr - dot(ai_, bi_)
        ci = None
        if b_im:
            ci = dot(ar_, bi_)
        if a_im:
            t = dot(ai_, br_)
            ci = t if ci is None else ci + t
        cr = cr.astype(object)
        ci = ci.astype(object) if ci is not None else _obj_zeros(cr.shape)
        return cr, ci
    a_im = _max_abs(ai) > 0
    b_im = _max_abs(bi) > 0
    cr = dot(ar, br)
    if a_im and b_im:
        cr = cr - dot(ai, bi)
    ci = None
    if b_im:
        ci = dot(ar, bi)
    if a_im:
        t = dot(ai, br)
        ci = t if ci is None else ci + t
    if ci is None:
        ci = _obj_zeros(cr.shape)
    return cr, ci


def _entry_gauss(re, im, den) -> GaussRat:
    return GaussRat(Fraction(int(re), den), Fraction(int(im), den))


def _common_denominator(rows_of_entries):
    """lcm of all component denominators in a grid (or list) of scalars."""
    flat = []
    for row in rows_of_entries:
        flat.extend(row)
    den = 1
    for g in flat:
        den = math.lcm(den, g.re.denominator, g.im.denominator)
    return den


class ExactVector:
    """Immutable vector over Q(i)."""

    __slots__ = ("length", "_re", "_im", "_den", "_mx", "_c64")

    def __init__(self, entries):
        entries = [as_gauss(e) for e in entries]
        den = _common_denominator([entries])
        re = np.array([int(e.re * den) for e in entries], dtype=object)
        im = np.array([int(e.im * den) for e in entries], dtype=object)
        self._init_raw(re, im, den)

    def _init_raw(self, re, im, den, reduce=True):
        if reduce and den > 1:
            g = _content(den, re, im)
            if g > 1:
                re, im, den = re // g, im // g, den // g
        object.__setattr__(self, "length", int(re.shape[0]))
        object.__setattr__(self, "_re", _freeze(re))
        object.__setattr__(self, "_im", _freeze(im))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_mx", None)
        object.__setattr__(self, "_c64", None)

    @classmethod
    def _raw(cls, re, im, den, reduce=True):
        v = cls.__new__(cls)
        v._init_raw(np.asarray(re, dtype=object), np.asarray(im, dtype=object),
                    den, reduce)
        return v

    @classmethod
    def zeros(cls, n):
        return cls._raw(_obj_zeros(n), _obj_zeros(n), 1, reduce=False)

    @classmethod
    def basis_vector(cls, n, k):
        re = _obj_zeros(n)
        re[k] = 1
        return cls._raw(re, _obj_zeros(n), 1, reduce=False)

    def __setattr__(self, name, value):
        raise AttributeError("ExactVector is immutable")

    def _max(self) -> int:
        m = self._mx
        if m is None:
            m = max(_max_abs(self._re), _max_abs(self._im))
            object.__setattr__(self, "_mx", m)
        return m

    def __len__(self):
        return self.length

    def __getitem__(self, k) -> GaussRat:
        return _entry_gauss(self._re[k], self._im[k], self._den)

    def entries(self):
        return [self[k] for k in range(self.length)]

    def is_zero(self) -> bool:
        return self._max() == 0

    def support(self):
        return [k for k in range(self.length) if self._re[k] or self._im[k]]

    def take(self, positions) -> "ExactVector":
        """The entries at the given positions, in that order."""
        return ExactVector._raw(self._re[positions], self._im[positions],
                                self._den)

    def __eq__(self, other):
        if not isinstance(other, ExactVector):
            return NotImplemented
        return (self.length == other.length and self._den == other._den
                and np.array_equal(self._re, other._re)
                and np.array_equal(self._im, other._im))

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, ExactVector):
            return NotImplemented
        if self.length != other.length:
            raise ValueError("vector length mismatch")
        l = math.lcm(self._den, other._den)
        fa, fb = l // self._den, l // other._den
        return ExactVector._raw(self._re * fa + other._re * fb,
                                self._im * fa + other._im * fb, l)

    def __sub__(self, other):
        if not isinstance(other, ExactVector):
            return NotImplemented
        if self.length != other.length:
            raise ValueError("vector length mismatch")
        l = math.lcm(self._den, other._den)
        fa, fb = l // self._den, l // other._den
        return ExactVector._raw(self._re * fa - other._re * fb,
                                self._im * fa - other._im * fb, l)

    def __neg__(self):
        return ExactVector._raw(-self._re, -self._im, self._den, reduce=False)

    def scale(self, c) -> "ExactVector":
        c = as_gauss(c)
        cr = c.re.numerator * c.im.denominator
        ci = c.im.numerator * c.re.denominator
        cd = c.re.denominator * c.im.denominator
        return ExactVector._raw(self._re * cr - self._im * ci,
                                self._re * ci + self._im * cr,
                                self._den * cd)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def conj(self) -> "ExactVector":
        return ExactVector._raw(self._re, -self._im, self._den, reduce=False)

    def primitive(self) -> "ExactVector":
        """Same line, scaled so entries are Gaussian integers with content 1."""
        g = _content(0, self._re, self._im)
        if g <= 1:
            return ExactVector._raw(self._re, self._im, 1, reduce=False)
        return ExactVector._raw(self._re // g, self._im // g, 1, reduce=False)

    def to_dump(self) -> dict:
        ent = []
        for k in range(self.length):
            g = self[k]
            if g:
                ent.append([k, f"{g.re.numerator}/{g.re.denominator}",
                            f"{g.im.numerator}/{g.im.denominator}"])
        return {"length": self.length, "entries": ent}

    @staticmethod
    def from_dump(d: dict) -> "ExactVector":
        ent = [GaussRat(0)] * d["length"]
        for k, re, im in d["entries"]:
            ent[k] = GaussRat(Fraction(re), Fraction(im))
        return ExactVector(ent)

    def __repr__(self):
        return f"ExactVector({[str(e) for e in self.entries()]})"


class ExactMatrix:
    """Immutable dense matrix over Q(i) with exact entrywise equality."""

    __slots__ = ("rows", "cols", "_re", "_im", "_den", "_mx", "_c64")

    def __init__(self, rows_of_entries):
        grid = [[as_gauss(e) for e in row] for row in rows_of_entries]
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        if any(len(r) != ncols for r in grid):
            raise ValueError("ragged rows")
        den = _common_denominator(grid)
        re = np.array([[int(e.re * den) for e in row] for row in grid],
                      dtype=object).reshape(nrows, ncols)
        im = np.array([[int(e.im * den) for e in row] for row in grid],
                      dtype=object).reshape(nrows, ncols)
        self._init_raw(re, im, den)

    def _init_raw(self, re, im, den, reduce=True):
        if reduce and den > 1:
            g = _content(den, re, im)
            if g > 1:
                re, im, den = re // g, im // g, den // g
        object.__setattr__(self, "rows", int(re.shape[0]))
        object.__setattr__(self, "cols", int(re.shape[1]))
        object.__setattr__(self, "_re", _freeze(re))
        object.__setattr__(self, "_im", _freeze(im))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_mx", None)
        object.__setattr__(self, "_c64", None)

    @classmethod
    def _raw(cls, re, im, den, reduce=True):
        m = cls.__new__(cls)
        m._init_raw(np.asarray(re, dtype=object), np.asarray(im, dtype=object),
                    den, reduce)
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._raw(_obj_zeros((rows, cols)), _obj_zeros((rows, cols)), 1,
                        reduce=False)

    @classmethod
    def identity(cls, n):
        re = _obj_zeros((n, n))
        for k in range(n):
            re[k, k] = 1
        return cls._raw(re, _obj_zeros((n, n)), 1, reduce=False)

    @classmethod
    def diagonal(cls, values, offset=0):
        """Square matrix holding `values` on the diagonal `offset` places
        above the main one (below it when negative), zero elsewhere."""
        values = [as_gauss(v) for v in values]
        den = _common_denominator([values])
        re = np.array([int(v.re * den) for v in values], dtype=object)
        im = np.array([int(v.im * den) for v in values], dtype=object)
        return cls._raw(np.diag(re, offset), np.diag(im, offset), den)

    @classmethod
    def stack(cls, items):
        """The matrix whose rows are the given vectors, or the rows of the
        given matrices in turn, on their common denominator; ValueError for
        no items or unequal lengths."""
        den = math.lcm(*(x._den for x in items))
        re = np.vstack([x._re * (den // x._den) for x in items])
        im = np.vstack([x._im * (den // x._den) for x in items])
        return cls._raw(re, im, den)

    @classmethod
    def from_numerators(cls, re, im, den):
        """The matrix (re + i im) / den from integer arrays, int64 or object,
        in lowest terms.  The content of int64 arrays is taken with
        np.gcd.reduce, so they are divided before they become Python ints."""
        if re.dtype != np.int64:
            return cls._raw(re, im, den)
        g = math.gcd(den, int(np.gcd.reduce(re, axis=None)),
                     int(np.gcd.reduce(im, axis=None)))
        if g > 1:
            re, im, den = re // g, im // g, den // g
        return cls._raw(re, im, den, reduce=False)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _max(self) -> int:
        m = self._mx
        if m is None:
            m = max(_max_abs(self._re), _max_abs(self._im))
            object.__setattr__(self, "_mx", m)
        return m

    def __getitem__(self, rc) -> GaussRat:
        r, c = rc
        return _entry_gauss(self._re[r, c], self._im[r, c], self._den)

    def row(self, r) -> ExactVector:
        return ExactVector._raw(self._re[r].copy(), self._im[r].copy(), self._den)

    def column(self, c) -> ExactVector:
        return ExactVector._raw(self._re[:, c].copy(), self._im[:, c].copy(),
                                self._den)

    def columns(self, positions) -> "ExactMatrix":
        """The columns at the given positions, in that order."""
        return ExactMatrix._raw(self._re[:, positions], self._im[:, positions],
                                self._den)

    def block(self, rows: slice, cols: slice) -> "ExactMatrix":
        """The submatrix on the given row and column slices."""
        return ExactMatrix._raw(self._re[rows, cols], self._im[rows, cols],
                                self._den)

    def to_rows(self):
        return [[self[r, c] for c in range(self.cols)] for r in range(self.rows)]

    def is_zero(self) -> bool:
        return self._max() == 0

    def nonzero(self):
        """Boolean array marking the nonzero entries."""
        return np.not_equal(self._re, 0) | np.not_equal(self._im, 0)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.shape == other.shape and self._den == other._den
                and np.array_equal(self._re, other._re)
                and np.array_equal(self._im, other._im))

    __hash__ = None

    def entries_equal(self, other: "ExactMatrix"):
        """Boolean array: whether entry (r, c) of self equals that of other,
        compared across the two denominators."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return (np.equal(self._re * other._den, other._re * self._den)
                & np.equal(self._im * other._den, other._im * self._den))

    def row_equal(self, other: "ExactMatrix"):
        """Boolean array: whether row k of self equals row k of other."""
        return self.entries_equal(other).all(axis=1)

    # -- additive structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        l = math.lcm(self._den, other._den)
        fa, fb = l // self._den, l // other._den
        return ExactMatrix._raw(self._re * fa + other._re * fb,
                                self._im * fa + other._im * fb, l)

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        l = math.lcm(self._den, other._den)
        fa, fb = l // self._den, l // other._den
        return ExactMatrix._raw(self._re * fa - other._re * fb,
                                self._im * fa - other._im * fb, l)

    def __neg__(self):
        return ExactMatrix._raw(-self._re, -self._im, self._den, reduce=False)

    def scale(self, c) -> "ExactMatrix":
        c = as_gauss(c)
        cr = c.re.numerator * c.im.denominator
        ci = c.im.numerator * c.re.denominator
        cd = c.re.denominator * c.im.denominator
        return ExactMatrix._raw(self._re * cr - self._im * ci,
                                self._re * ci + self._im * cr,
                                self._den * cd)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    # -- multiplicative structure ----------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, ExactVector):
            return self.matvec(other)
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimensions disagree: {self.shape} @ {other.shape}")
        cr, ci = _product(self, other, np.dot)
        return ExactMatrix._raw(cr, ci, self._den * other._den)

    def matvec(self, v: ExactVector) -> ExactVector:
        if not isinstance(v, ExactVector):
            raise TypeError("matvec expects an ExactVector")
        if self.cols != v.length:
            raise ValueError(
                f"inner dimensions disagree: {self.shape} @ ({v.length},)")
        cr, ci = _product(self, v, np.dot)
        return ExactVector._raw(cr, ci, self._den * v._den)

    # -- involutions ------------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._raw(self._re.T.copy(), self._im.T.copy(), self._den,
                                reduce=False)

    def conj(self) -> "ExactMatrix":
        return ExactMatrix._raw(self._re, -self._im, self._den, reduce=False)

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return ExactMatrix._raw(self._re.T.copy(), -self._im.T.copy(), self._den,
                                reduce=False)

    def trace(self) -> GaussRat:
        tr = sum(int(self._re[k, k]) for k in range(min(self.shape)))
        ti = sum(int(self._im[k, k]) for k in range(min(self.shape)))
        return _entry_gauss(tr, ti, self._den)

    # -- dump format -------------------------------------------------------------

    def to_dump(self) -> dict:
        ent = []
        for r in range(self.rows):
            for c in range(self.cols):
                g = self[r, c]
                if g:
                    ent.append([r, c, f"{g.re.numerator}/{g.re.denominator}",
                                f"{g.im.numerator}/{g.im.denominator}"])
        return {"rows": self.rows, "cols": self.cols, "entries": ent}

    @staticmethod
    def from_dump(d: dict) -> "ExactMatrix":
        grid = [[GaussRat(0)] * d["cols"] for _ in range(d["rows"])]
        for r, c, re, im in d["entries"]:
            grid[r][c] = GaussRat(Fraction(re), Fraction(im))
        return ExactMatrix(grid)

    def to_json(self) -> str:
        return json.dumps(self.to_dump(), sort_keys=True)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, den={self._den})"


# -- free functions -------------------------------------------------------------


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; result row index = u * b.rows + u' (first factor
    most significant)."""
    a_im = _max_abs(a._im) > 0
    b_im = _max_abs(b._im) > 0
    re = np.kron(a._re, b._re)
    if a_im and b_im:
        re = re - np.kron(a._im, b._im)
    shape = (a.rows * b.rows, a.cols * b.cols)
    im = _obj_zeros(shape)
    if b_im:
        im = im + np.kron(a._re, b._im)
    if a_im:
        im = im + np.kron(a._im, b._re)
    return ExactMatrix._raw(re.reshape(shape), im.reshape(shape),
                            a._den * b._den)


def kron_power(a: ExactMatrix, k: int) -> ExactMatrix:
    if k < 0:
        raise ValueError("kron_power needs k >= 0")
    result = ExactMatrix.identity(1)
    for _ in range(k):
        result = kron(result, a)
    return result


def inner(u: ExactVector, v: ExactVector) -> GaussRat:
    """Hermitian inner product; the second argument is conjugated."""
    if u.length != v.length:
        raise ValueError("vector length mismatch")
    if u.length == 0:
        return GaussRat(0)
    if fits_i64(u.length, u._max(), v._max()):
        ur, ui, u_im = _i64_parts(u)
        vr, vi, v_im = _i64_parts(v)
        if ui is None:
            ui = np.zeros(u.length, dtype=np.int64)
        if vi is None:
            vi = np.zeros(v.length, dtype=np.int64)
        re = int(ur @ vr + ui @ vi)
        im = int(ui @ vr - ur @ vi)
    else:
        re = int(np.dot(u._re, v._re) + np.dot(u._im, v._im))
        im = int(np.dot(u._im, v._re) - np.dot(u._re, v._im))
    return _entry_gauss(re, im, u._den * v._den)


def norm_sq(u: ExactVector) -> Fraction:
    return inner(u, u).re


def first_discrepancy(a: ExactMatrix, b: ExactMatrix):
    """(row, col) of the first differing entry in row-major order, else None."""
    if a.shape != b.shape:
        return (0, 0)
    if a == b:
        return None
    for r in range(a.rows):
        for c in range(a.cols):
            if a[r, c] != b[r, c]:
                return (r, c)
    return None


# -- fraction-free elimination ----------------------------------------------------


def _reduce_rows(re, im):
    """Divide each row of (re, im) by the gcd of its entries, in place."""
    g = np.gcd.reduce(np.concatenate([re, im], axis=1), axis=1)
    for k in np.nonzero(g > 1)[0]:
        re[k] //= g[k]
        im[k] //= g[k]


def _echelon(re, im, jordan=False):
    """Fraction-free row echelon over Z[i] with per-row content reduction.

    Returns (rank, pivot_cols, re, im); rows at index >= rank are zero.
    Pivots are chosen as the first row with a nonzero entry in the leftmost
    unfinished column, so the result is deterministic.  With `jordan` each
    pivot also clears its column above it (Gauss-Jordan), so every pivot
    column ends with a single nonzero entry.
    """
    re = re.copy()
    im = im.copy()
    nrows, ncols = re.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for rr in range(r, nrows):
            if re[rr, c] or im[rr, c]:
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            re[[r, piv]] = re[[piv, r]]
            im[[r, piv]] = im[[piv, r]]
        pvr, pvi = re[r, c], im[r, c]
        top = 0 if jordan else r + 1
        nz = top + np.nonzero(np.not_equal(re[top:, c], 0)
                              | np.not_equal(im[top:, c], 0))[0]
        nz = nz[nz != r]
        if len(nz):
            br, bi = re[nz], im[nz]
            fr, fi = re[nz, c][:, None], im[nz, c][:, None]
            pr, pi = re[r][None, :], im[r][None, :]
            new_r = (pvr * br - pvi * bi) - (fr * pr - fi * pi)
            new_i = (pvr * bi + pvi * br) - (fr * pi + fi * pr)
            _reduce_rows(new_r, new_i)
            re[nz] = new_r
            im[nz] = new_i
        pivots.append(c)
        r += 1
    return r, pivots, re, im


def rank(m: ExactMatrix) -> int:
    """Exact rank via fraction-free elimination (denominator irrelevant)."""
    r, _, _, _ = _echelon(m._re, m._im)
    return r


def _divide_rows(re, im, pr, pi):
    """Row k of re + i*im divided by the Gaussian integer pr[k] + i*pi[k]
    (column arrays): (numerator re, numerator im, common denominator)."""
    norms = pr * pr + pi * pi
    den = math.lcm(*norms.flat)
    f = den // norms
    # x / p = x * conj(p) / |p|^2
    return (re * pr + im * pi) * f, (im * pr - re * pi) * f, den


def kernel_basis(m: ExactMatrix):
    """Exact basis of the right null space, one vector per free column.

    Deterministic given entry order: free columns ascending, the free
    coordinate set to 1, the other free coordinates 0 and the pivot
    coordinates read off the Gauss-Jordan form.
    """
    rk, pivots, ere, eim = _echelon(m._re, m._im, jordan=True)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    d = np.arange(rk)
    xr, xi, den = _divide_rows(-ere[:rk, free], -eim[:rk, free],
                               ere[d, pivots][:, None], eim[d, pivots][:, None])
    basis = []
    for j, f in enumerate(free):
        re, im = _obj_zeros(m.cols), _obj_zeros(m.cols)
        re[pivots], im[pivots] = xr[:, j], xi[:, j]
        re[f] = den
        basis.append(ExactVector._raw(re, im, den))
    return basis


class SingularMatrixError(ValueError):
    """The rows of a matrix handed to an exact inverse are dependent."""


def pivot_inverse(m: ExactMatrix):
    """Pivot columns of m and the exact inverse of m restricted to them.

    m must have independent rows.  A forward elimination picks the pivot
    columns (as in `rank`); fraction-free Gauss-Jordan on [S | I], with S
    the square submatrix of m's numerators on those columns, then leaves
    diag(p) on the left and T on the right, so S^-1 = diag(p)^-1 T, and
    m's submatrix S / den has inverse den * S^-1.  Returns (pivot_cols,
    that inverse).  Raises SingularMatrixError on dependent rows.
    """
    k = m.rows
    rk, pivots, _, _ = _echelon(m._re, m._im)
    if rk < k:
        raise SingularMatrixError(f"rank {rk} < {k} rows")
    d = np.arange(k)
    ident = _obj_zeros((k, k))
    ident[d, d] = 1
    aug_re = np.concatenate([m._re[:, pivots], ident], axis=1)
    aug_im = np.concatenate([m._im[:, pivots], _obj_zeros((k, k))], axis=1)
    _, _, re, im = _echelon(aug_re, aug_im, jordan=True)
    tr, ti, den = _divide_rows(re[:, k:], im[:, k:], re[d, d][:, None],
                               im[d, d][:, None])
    return pivots, ExactMatrix._raw(tr * m._den, ti * m._den, den)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix; SingularMatrixError if singular."""
    if m.rows != m.cols:
        raise ValueError(f"inverse needs a square matrix, got {m.shape}")
    return pivot_inverse(m)[1]


def gram_schmidt(vectors):
    """Pairwise-orthogonalize without normalizing (lengths stay in Q(i)).

    Each output is rescaled to a primitive Gaussian-integer vector, which
    preserves orthogonality and span.  Raises ValueError on dependent input.
    """
    out = []
    norms = []
    for v in vectors:
        w = v
        for u, nu in zip(out, norms):
            c = inner(w, u) / nu
            if c:
                w = w - u.scale(c)
        if w.is_zero():
            raise ValueError("gram_schmidt: linearly dependent input")
        w = w.primitive()
        out.append(w)
        norms.append(inner(w, w))
    return out
