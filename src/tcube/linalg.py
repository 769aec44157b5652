"""Dense exact linear algebra over Q(i).

Vectors and matrices share one numerator-array core: two numpy object
arrays of Python ints, the real and the imaginary numerators, over one
positive integer denominator, in lowest terms (the gcd of every numerator
and the denominator is 1).  Lowest terms are unique, so equality compares
arrays.  `ExactVector` and `ExactMatrix` share the body that stores, reduces,
indexes, compares, adds, scales and conjugates these arrays; each adds only
its shape, its grid constructor and its dump format.

Integer arrays, int64 or object, enter through one constructor,
`from_numerators`; scalars only through the grid constructors and
`diagonal`.  Every complex product (matrix times matrix or vector, the
Kronecker product, the inner product) is one kernel, `_product`, which runs
on int64 copies of the numerators when `fits_i64` bounds every result entry
and on Python ints otherwise; the results are identical.  Entrywise
equality (`entries_equal`) compares numerators across the two denominators,
so blocks on different denominators compare without being brought to
lowest terms.

Elimination is fraction-free: rows are combined over the Gaussian integers
and divided by their integer content after each step, which bounds
coefficient growth without ever leaving Z[i].  The forward pass gives the
rank; the Gauss-Jordan pass, which also clears each pivot column above the
pivot, gives kernel vectors and, on [m | I], the one exact inverse,
`pivot_inverse`: the pivot columns of a matrix with independent rows and
the inverse of its square submatrix on them.
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


def _entry_gauss(re, im, den) -> GaussRat:
    return GaussRat(Fraction(int(re), den), Fraction(int(im), den))


def _numerators_of(scalars):
    """(re, im, den): the flat object numerator arrays of the given scalars
    over den, the lcm of their denominators.  That den is the least common
    one, so the arrays are in lowest terms."""
    scalars = [as_gauss(s) for s in scalars]
    den = math.lcm(*(f.denominator for g in scalars for f in (g.re, g.im)))
    re = np.array([int(g.re * den) for g in scalars], dtype=object)
    im = np.array([int(g.im * den) for g in scalars], dtype=object)
    return re, im, den


def _numerators(x, i64: bool):
    """The numerator arrays (re, im) of x: int64 copies, converted once per
    object, when `i64` (the caller has checked that a bound below 2^62
    holds), else x's own object arrays.  A zero imaginary part becomes a
    read-only zero view that takes no memory."""
    if not i64:
        return x._re, x._im
    if x._c64 is None:
        im = (x._im.astype(np.int64) if x._im.any()
              else np.broadcast_to(np.int64(0), x._im.shape))
        object.__setattr__(x, "_c64", (x._re.astype(np.int64), im))
    return x._c64


def fits_i64(length: int, ma: int, mb: int) -> bool:
    """True when both operands convert to int64 and every complex dot of the
    given length over entries bounded by ma and mb stays below 2^62."""
    return (ma < I64_LIMIT and mb < I64_LIMIT
            and 2 * length * ma * mb < I64_LIMIT)


def _product(a, b, dot):
    """(re, im) numerator arrays, over a._den * b._den, of the complex
    product of a and b under the bilinear `dot` (np.dot or np.kron).

    Runs on int64 when fits_i64 holds for the length of a's last axis: an
    entry of a dot sums that many complex products, and an entry of a
    Kronecker product is one, so the bound covers both.  Otherwise on
    Python ints.  A zero imaginary part costs no dot.
    """
    fits = fits_i64(a._re.shape[-1], a._max(), b._max())
    ar, ai = _numerators(a, fits)
    br, bi = _numerators(b, fits)
    a_im, b_im = ai.any(), bi.any()
    cr = dot(ar, br)
    if a_im and b_im:
        cr = cr - dot(ai, bi)
    ci = None
    if b_im:
        ci = dot(ar, bi)
    if a_im:
        t = dot(ai, br)
        ci = t if ci is None else ci + t
    return cr, np.zeros_like(cr) if ci is None else ci


class _NumeratorArray:
    """(re + i im) / den for numpy object arrays re, im of Python ints and
    an integer den > 0, in lowest terms; immutable.  The body shared by
    ExactVector and ExactMatrix: `_mx` caches the largest numerator and
    `_c64` the int64 copies of the arrays."""

    __slots__ = ("_re", "_im", "_den", "_mx", "_c64")

    def _init(self, re, im, den, reduce=True):
        re = np.asarray(re, dtype=object)
        im = np.asarray(im, dtype=object)
        if reduce and den > 1:
            g = _content(den, re, im)
            if g > 1:
                re, im, den = re // g, im // g, den // g
        object.__setattr__(self, "_re", _freeze(re))
        object.__setattr__(self, "_im", _freeze(im))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_mx", None)
        object.__setattr__(self, "_c64", None)

    @classmethod
    def _raw(cls, re, im, den, reduce=True):
        """From numerator arrays; reduce=False only for arrays already in
        lowest terms."""
        x = cls.__new__(cls)
        x._init(re, im, den, reduce)
        return x

    @classmethod
    def from_numerators(cls, re, im, den):
        """(re + i im) / den from integer arrays, int64 or object, in lowest
        terms.  The content of int64 arrays is taken with np.gcd.reduce, so
        they are divided before they become Python ints."""
        if re.dtype != np.int64:
            return cls._raw(re, im, den)
        if den > 1:
            g = math.gcd(den, int(np.gcd.reduce(re, axis=None)),
                         int(np.gcd.reduce(im, axis=None)))
            if g > 1:
                re, im, den = re // g, im // g, den // g
        return cls._raw(re, im, den, reduce=False)

    @classmethod
    def zeros(cls, *shape):
        return cls._raw(_obj_zeros(shape), _obj_zeros(shape), 1, reduce=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _max(self) -> int:
        m = self._mx
        if m is None:
            m = max(_max_abs(self._re), _max_abs(self._im))
            object.__setattr__(self, "_mx", m)
        return m

    def __getitem__(self, index) -> GaussRat:
        return _entry_gauss(self._re[index], self._im[index], self._den)

    def is_zero(self) -> bool:
        return self._max() == 0

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self._re.shape == other._re.shape and self._den == other._den
                and np.array_equal(self._re, other._re)
                and np.array_equal(self._im, other._im))

    __hash__ = None

    def _combine(self, other, sign):
        """self + sign * other on the lcm of the two denominators."""
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._re.shape != other._re.shape:
            raise ValueError(
                f"shape mismatch {self._re.shape} vs {other._re.shape}")
        l = math.lcm(self._den, other._den)
        fa, fb = l // self._den, sign * (l // other._den)
        return self._raw(self._re * fa + other._re * fb,
                         self._im * fa + other._im * fb, l)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._raw(-self._re, -self._im, self._den, reduce=False)

    def scale(self, c):
        c = as_gauss(c)
        cr = c.re.numerator * c.im.denominator
        ci = c.im.numerator * c.re.denominator
        cd = c.re.denominator * c.im.denominator
        return self._raw(self._re * cr - self._im * ci,
                         self._re * ci + self._im * cr, self._den * cd)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def conj(self):
        return self._raw(self._re, -self._im, self._den, reduce=False)

    # -- dump format ----------------------------------------------------------------

    def _dump_entries(self):
        """[*index, "p/q", "p/q"] for each nonzero entry, row-major, with
        the real and imaginary parts in lowest terms."""
        nonzero = np.not_equal(self._re, 0) | np.not_equal(self._im, 0)
        out = []
        for index in np.argwhere(nonzero).tolist():
            g = self[tuple(index)]
            out.append(index + [f"{g.re.numerator}/{g.re.denominator}",
                                f"{g.im.numerator}/{g.im.denominator}"])
        return out

    @classmethod
    def _from_dump_entries(cls, shape, entries):
        scalars = [GaussRat(0)] * math.prod(shape)
        for *index, re, im in entries:
            flat = int(np.ravel_multi_index(index, shape))
            scalars[flat] = GaussRat(Fraction(re), Fraction(im))
        re, im, den = _numerators_of(scalars)
        return cls._raw(re.reshape(shape), im.reshape(shape), den,
                        reduce=False)


class ExactVector(_NumeratorArray):
    """Immutable vector over Q(i)."""

    __slots__ = ()

    def __init__(self, entries):
        self._init(*_numerators_of(entries), reduce=False)

    @classmethod
    def basis_vector(cls, n, k):
        re = _obj_zeros(n)
        re[k] = 1
        return cls._raw(re, _obj_zeros(n), 1, reduce=False)

    @property
    def length(self) -> int:
        return self._re.shape[0]

    def __len__(self):
        return self.length

    def entries(self):
        return [self[k] for k in range(self.length)]

    def take(self, positions) -> "ExactVector":
        """The entries at the given positions, in that order."""
        return ExactVector._raw(self._re[positions], self._im[positions],
                                self._den)

    def primitive(self) -> "ExactVector":
        """Same line, scaled so entries are Gaussian integers with content 1."""
        g = _content(0, self._re, self._im)
        if g <= 1:
            return ExactVector._raw(self._re, self._im, 1, reduce=False)
        return ExactVector._raw(self._re // g, self._im // g, 1, reduce=False)

    def to_dump(self) -> dict:
        return {"length": self.length, "entries": self._dump_entries()}

    @staticmethod
    def from_dump(d: dict) -> "ExactVector":
        return ExactVector._from_dump_entries((d["length"],), d["entries"])

    def __repr__(self):
        return f"ExactVector({[str(e) for e in self.entries()]})"


class ExactMatrix(_NumeratorArray):
    """Immutable dense matrix over Q(i) with exact entrywise equality."""

    __slots__ = ()

    def __init__(self, rows_of_entries):
        grid = [list(row) for row in rows_of_entries]
        shape = (len(grid), len(grid[0]) if grid else 0)
        if any(len(row) != shape[1] for row in grid):
            raise ValueError("ragged rows")
        re, im, den = _numerators_of([e for row in grid for e in row])
        self._init(re.reshape(shape), im.reshape(shape), den, reduce=False)

    @classmethod
    def identity(cls, n):
        return cls._raw(np.identity(n, dtype=object), _obj_zeros((n, n)), 1,
                        reduce=False)

    @classmethod
    def diagonal(cls, values, offset=0):
        """Square matrix holding `values` on the diagonal `offset` places
        above the main one (below it when negative), zero elsewhere."""
        re, im, den = _numerators_of(values)
        return cls._raw(np.diag(re, offset), np.diag(im, offset), den,
                        reduce=False)

    @classmethod
    def stack(cls, items):
        """The matrix whose rows are the given vectors, or the rows of the
        given matrices in turn, on their common denominator; ValueError for
        no items or unequal lengths."""
        den = math.lcm(*(x._den for x in items))
        re = np.vstack([x._re * (den // x._den) for x in items])
        im = np.vstack([x._im * (den // x._den) for x in items])
        return cls._raw(re, im, den)

    @property
    def shape(self):
        return self._re.shape

    @property
    def rows(self) -> int:
        return self._re.shape[0]

    @property
    def cols(self) -> int:
        return self._re.shape[1]

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

    def nonzero(self):
        """Boolean array marking the nonzero entries."""
        return np.not_equal(self._re, 0) | np.not_equal(self._im, 0)

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

    def __matmul__(self, other):
        if isinstance(other, ExactVector):
            return self.matvec(other)
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimensions disagree: {self.shape} @ {other.shape}")
        return ExactMatrix.from_numerators(*_product(self, other, np.dot),
                                           self._den * other._den)

    def matvec(self, v: ExactVector) -> ExactVector:
        if not isinstance(v, ExactVector):
            raise TypeError("matvec expects an ExactVector")
        if self.cols != v.length:
            raise ValueError(
                f"inner dimensions disagree: {self.shape} @ ({v.length},)")
        return ExactVector.from_numerators(*_product(self, v, np.dot),
                                           self._den * v._den)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._raw(self._re.T.copy(), self._im.T.copy(), self._den,
                                reduce=False)

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return ExactMatrix._raw(self._re.T.copy(), -self._im.T.copy(), self._den,
                                reduce=False)

    def trace(self) -> GaussRat:
        tr = sum(int(self._re[k, k]) for k in range(min(self.shape)))
        ti = sum(int(self._im[k, k]) for k in range(min(self.shape)))
        return _entry_gauss(tr, ti, self._den)

    def to_dump(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": self._dump_entries()}

    @staticmethod
    def from_dump(d: dict) -> "ExactMatrix":
        return ExactMatrix._from_dump_entries((d["rows"], d["cols"]),
                                              d["entries"])

    def to_json(self) -> str:
        return json.dumps(self.to_dump(), sort_keys=True)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, den={self._den})"


# -- free functions -------------------------------------------------------------


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; result row index = u * b.rows + u' (first factor
    most significant)."""
    return ExactMatrix._raw(*_product(a, b, np.kron), a._den * b._den)


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
    return _entry_gauss(*_product(u, v.conj(), np.dot), u._den * v._den)


def first_discrepancy(a: ExactMatrix, b: ExactMatrix):
    """(row, col) of the first differing entry in row-major order, (0, 0)
    when the shapes differ, else None."""
    if a.shape != b.shape:
        return (0, 0)
    hits = np.argwhere(~a.entries_equal(b))
    return tuple(hits[0].tolist()) if len(hits) else None


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

    m must have independent rows.  One fraction-free Gauss-Jordan pass on
    [m | I] takes m's leftmost independent columns as pivots (as `rank`
    does) and leaves diag(p) on them and M on the right, with M S = diag(p)
    for S the square submatrix of m's numerators on the pivots.  So
    S^-1 = diag(p)^-1 M, and m's submatrix S / den has inverse den * S^-1.
    Returns (pivot_cols, that inverse).  Dependent rows leave a pivot in
    the I block: SingularMatrixError.
    """
    k, n = m.shape
    aug_re = np.concatenate([m._re, np.identity(k, dtype=object)], axis=1)
    aug_im = np.concatenate([m._im, _obj_zeros((k, k))], axis=1)
    _, pivots, re, im = _echelon(aug_re, aug_im, jordan=True)
    rk = sum(c < n for c in pivots)
    if rk < k:
        raise SingularMatrixError(f"rank {rk} < {k} rows")
    d = np.arange(k)
    tr, ti, den = _divide_rows(re[:, n:], im[:, n:], re[d, pivots][:, None],
                               im[d, pivots][:, None])
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
