"""Dense exact linear algebra over Q(i).

Vectors and matrices share one numerator-array core: two numpy integer
arrays, the real and the imaginary numerators, over one positive integer
denominator, in lowest terms (the gcd of every numerator and the
denominator is 1).  The arrays are int64 exactly when every numerator is
below 2^62 in magnitude, and object arrays of Python ints otherwise, so the
storage is a function of the value.  Lowest terms are unique too, so
equality compares arrays, and the hash, of the same parts, lets exact
values key a memo.  `ExactVector` and `ExactMatrix` share the body
that stores, reduces, indexes, compares, adds, scales and conjugates these
arrays; each adds only its shape, its grid constructor and its dump format.

numpy wraps int64 overflow silently, so one rule, `ints(bound, *arrays)`,
decides where integer arithmetic runs: on int64 when the caller's bound on
every value it computes, and on the operands' own entries, is below 2^62,
and on Python ints otherwise.  Each caller states its own bound; the
numerator arrays reach the rule through `ints` on the exact array.

Integer arrays, int64 or object, enter through one constructor,
`from_numerators`; scalars only through the grid constructors and
`diagonal`.  Every complex product (matrix times matrix or vector, the
inner product) is a dot in one kernel, `_product`, with three tiers: it runs
on float64 BLAS when `fits_f64` keeps every value it forms an integer of
magnitude at most 2^53, so nothing rounds; past that bound, on int64 when
the rule admits its bound; and otherwise on Python ints.  The results are
identical.
Entrywise equality (`entries_equal`) compares numerators across the two
denominators, so blocks on different denominators compare without being
brought to lowest terms.

Elimination is one fraction-free Gauss-Jordan pass on Python ints: rows
are combined over the Gaussian integers and divided by their integer
content after each step, which bounds coefficient growth without ever
leaving Z[i].  Its pivot count is the rank; its pivot columns, each cleared
above and below the pivot, give kernel vectors and, on [m | I], the exact
inverse `pivot_inverse`: the pivot columns of a matrix with independent
rows and the inverse of its square submatrix on them.  No command runs it:
the Leonard recognizer reads its eigenbases off the certified spectral
parts (`leonard.is_leonard_triple`).  It stays for the names that
`perfbench/tracer.py` binds (`rank`, `kernel_basis`, and `pivot_inverse`
behind `leonard.BasisSolver`) and for the tests' oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalar import GaussRat, as_gauss

I64_LIMIT = 2 ** 62
F64_LIMIT = 2 ** 53
_INT64, _OBJECT = np.dtype(np.int64), np.dtype(object)


def _obj_zeros(shape):
    return np.zeros(shape, dtype=object)


def ints(bound: int, *arrays):
    """The integer arrays as int64 when `bound` is below 2^62, else as
    object arrays of Python ints; an array already stored that way is
    returned as it is, with no copy.  The one rule for int64 arithmetic:
    `bound` bounds in magnitude every value the caller computes from the
    arrays, and their own entries, so that numpy's silent int64 overflow
    cannot happen."""
    dtype = _INT64 if bound < I64_LIMIT else _OBJECT
    return [a if a.dtype is dtype else a.astype(dtype, copy=False)
            for a in arrays]


def _max_abs(arr) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return int(abs(arr).max())
    return max(int(np.maximum.reduce(arr, None)),
               -int(np.minimum.reduce(arr, None)))


def _stored(re, im):
    """(re, im, m) for integer arrays re and im: int64 arrays when every
    entry of both is below 2^62 in magnitude, else object arrays of Python
    ints; m is the largest magnitude, or None when an entry has no int64
    value."""
    re, im = np.asarray(re), np.asarray(im)
    try:
        re, im = re.astype(np.int64, copy=False), im.astype(np.int64,
                                                            copy=False)
    except OverflowError:
        return *ints(I64_LIMIT, re, im), None
    m = max(_max_abs(re), _max_abs(im))
    return *ints(m, re, im), m


def _content(den: int, *arrays) -> int:
    """gcd of den and all array entries, with early exit at 1 after each
    chunk of entries."""
    g = den
    for arr in arrays:
        flat = arr.ravel()
        for start in range(0, flat.size, 1024):
            chunk = flat[start:start + 1024]
            g = math.gcd(g, int(np.gcd.reduce(chunk))
                         if chunk.dtype == np.int64 else
                         math.gcd(*chunk.tolist()))
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


def _scaled(x, f: int):
    """x's numerator arrays times the integer f.  For f = 1 they are x's
    own (read-only) arrays."""
    if f == 1:
        return x._re, x._im
    re, im = x.ints(max(x._max(), 1) * abs(f))
    return re * f, im * f


def fits_f64(length: int, ma: int, mb: int) -> bool:
    """True when every product, partial sum and combined part of a complex
    dot of the given length over entries bounded by ma and mb is an integer
    of magnitude at most 2^53, which float64 holds exactly."""
    return 2 * length * ma * mb <= F64_LIMIT


def _product(a, b):
    """(re, im) numerator arrays, over a._den * b._den, of the complex dot
    of a and b.

    Every entry sums as many complex products as a's last axis is long,
    so 2 length max(|a|, 1) max(|b|, 1) bounds the result and both
    operands.  Three tiers:
    - float64: a dot under that bound which fits_f64 also admits runs on
      float64 copies of the int64 numerators, so on BLAS, which numpy has
      not for int64.  Every value it forms is an integer of magnitude at
      most 2^53, so none rounds, whatever BLAS's summation order, FMA use
      or thread count, and the result is cast back to int64 exactly.  It
      serves the large dots with small entries: `decompose`'s per-slice
      Grams (`_check_orthogonal_sum`) take 0.07 s on it at D = 12 and
      2.2 s on int64;
    - int64: otherwise, when `ints` admits the bound, on the stored arrays;
    - Python ints: otherwise, on object copies.
    The results are identical.  A zero imaginary part costs no dot.
    """
    length, ma, mb = a._re.shape[-1], a._max(), b._max()
    bound = 2 * length * max(ma, 1) * max(mb, 1)
    ar, ai, br, bi = ints(bound, a._re, a._im, b._re, b._im)
    a_im, b_im = ai.any(), bi.any()
    on_float = bound < I64_LIMIT and fits_f64(length, ma, mb)
    if on_float:
        ar, br = ar.astype(np.float64), br.astype(np.float64)
        ai = ai.astype(np.float64) if a_im else None
        bi = bi.astype(np.float64) if b_im else None
    cr = np.dot(ar, br)
    if a_im and b_im:
        cr = cr - np.dot(ai, bi)
    ci = None
    if b_im:
        ci = np.dot(ar, bi)
    if a_im:
        t = np.dot(ai, br)
        ci = t if ci is None else ci + t
    ci = np.zeros_like(cr) if ci is None else ci
    if on_float:
        return cr.astype(np.int64), ci.astype(np.int64)
    return cr, ci


class _NumeratorArray:
    """(re + i im) / den for integer arrays re, im and an integer den > 0,
    in lowest terms; immutable.  re and im are int64 when every numerator is
    below 2^62 in magnitude, else object arrays of Python ints.  The body
    shared by ExactVector and ExactMatrix: `_mx` caches the largest
    numerator."""

    __slots__ = ("_re", "_im", "_den", "_mx")

    def _init(self, re, im, den, reduce=True, bounded=False):
        """bounded: re and im are int64 arrays whose entries are known to
        be below 2^62 (parts of a stored int64 pair, or results of int64
        arithmetic under a bound that `ints` admitted, `_bounded`); they
        are kept as they are, with no scan, and their largest numerator is
        read on demand (`_max`)."""
        re, im, mx = (re, im, None) if bounded else _stored(re, im)
        if reduce and den > 1:
            g = _content(den, re, im)
            if g > 1:
                den //= g
                # with every numerator zero g is den, which may have no
                # int64 value; only den is divided then.  An object array
                # has a nonzero numerator, and a nonzero int64 one keeps g
                # below 2^62
                if re.dtype == object:
                    re, im, mx = _stored(re // g, im // g)
                elif g < I64_LIMIT:
                    re, im = re // g, im // g
                    mx = None if mx is None else mx // g
        object.__setattr__(self, "_re", _freeze(re))
        object.__setattr__(self, "_im", _freeze(im))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_mx", mx)

    @classmethod
    def _raw(cls, re, im, den, reduce=True, bounded=False):
        """From numerator arrays; reduce=False only for arrays already in
        lowest terms."""
        x = cls.__new__(cls)
        x._init(re, im, den, reduce, bounded)
        return x

    @classmethod
    def _bounded(cls, re, im, den):
        """(re + i im) / den for arrays computed under a bound that `ints`
        was given: int64 arrays are the results of its int64 tier, below
        2^62 by that bound, and need no scan; a Python-int result may fit
        int64 and goes through the storage rule."""
        return cls._raw(re, im, den, bounded=re.dtype != object)

    @classmethod
    def _product_of(cls, a, b):
        """The product of a and b (`_product`), as a cls; the int64 and
        float64 tiers bound every entry below 2^62 (`_bounded`)."""
        re, im = _product(a, b)
        return cls._bounded(re, im, a._den * b._den)

    @classmethod
    def from_numerators(cls, re, im, den):
        """(re + i im) / den from integer arrays, int64 or object, in lowest
        terms."""
        return cls._raw(re, im, den)

    def _part(self, cls, re, im):
        """re + i im over self's denominator, as a cls, for re and im taken
        from self's arrays: int64 parts of int64 arrays are kept without a
        scan; object ones go through the storage rule, since a part may
        fit int64."""
        return cls._raw(re, im, self._den, bounded=self._re.dtype != object)

    @classmethod
    def zeros(cls, *shape):
        zeros = np.zeros(shape, dtype=np.int64)
        return cls._raw(zeros, zeros, 1, reduce=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _max(self) -> int:
        """The largest magnitude of a numerator."""
        m = self._mx
        if m is None:
            m = max(_max_abs(self._re), _max_abs(self._im))
            object.__setattr__(self, "_mx", m)
        return m

    def ints(self, bound: int):
        """(re, im): the numerator arrays under the rule of `ints`, for a
        bound on every value computed from them and on their entries."""
        return ints(bound, self._re, self._im)

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

    def __hash__(self):
        # consistent with ==: the storage is a function of the value, so
        # equal arrays have equal dtypes, and int64 ones equal bytes
        def key(arr):
            return arr.tobytes() if arr.dtype != object else tuple(arr.flat)
        return hash((self._re.shape, self._den, key(self._re), key(self._im)))

    @classmethod
    def combination(cls, items, weights=None):
        """sum_k weights[k] items[k] (every integer weight 1 by default) on
        the lcm of the denominators: one scaled copy of each term, added in
        place, under the sum of the terms' bounds (`ints`)."""
        den = math.lcm(*(x._den for x in items))
        weights = [1] * len(items) if weights is None else weights
        factors = [w * (den // x._den) for x, w in zip(items, weights)]
        bound = sum(max(x._max(), 1) * max(abs(f), 1)
                    for x, f in zip(items, factors))
        re = im = None
        for x, f in zip(items, factors):
            xr, xi = x.ints(bound)
            if re is None:
                re, im = xr * f, xi * f
            else:
                re += xr * f
                im += xi * f
        return cls._bounded(re, im, den)

    def _combine(self, other, sign):
        """self + sign * other on the lcm of the two denominators."""
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._re.shape != other._re.shape:
            raise ValueError(
                f"shape mismatch {self._re.shape} vs {other._re.shape}")
        return self.combination((self, other), (1, sign))

    def entrywise(self, other):
        """The entrywise product of self and other (of one shape)."""
        bound = 2 * max(self._max(), 1) * max(other._max(), 1)
        ar, ai, br, bi = ints(bound, self._re, self._im, other._re,
                              other._im)
        return self._bounded(ar * br - ai * bi, ar * bi + ai * br,
                             self._den * other._den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _like(self, re, im):
        """(re + i im) / self's denominator, for arrays whose entries have
        the magnitudes of self's (a transpose, negation or conjugate), so
        in lowest terms and stored as self's are: self's storage and
        largest numerator pass through."""
        x = type(self).__new__(type(self))
        object.__setattr__(x, "_re", _freeze(re))
        object.__setattr__(x, "_im", _freeze(im))
        object.__setattr__(x, "_den", self._den)
        object.__setattr__(x, "_mx", self._mx)
        return x

    def __neg__(self):
        return self._like(-self._re, -self._im)

    def scale(self, c):
        c = as_gauss(c)
        cr = c.re.numerator * c.im.denominator
        ci = c.im.numerator * c.re.denominator
        cd = c.re.denominator * c.im.denominator
        re, im = self.ints(max(self._max(), 1) * max(abs(cr) + abs(ci), 1))
        return self._bounded(re * cr - im * ci, re * ci + im * cr,
                             self._den * cd)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def conj(self):
        return self._like(self._re, -self._im)

    # -- dump format ----------------------------------------------------------------

    def _dump_entries(self):
        """[*index, "p/q", "p/q"] for each nonzero entry, row-major, with
        the real and imaginary parts in lowest terms."""
        nonzero = np.not_equal(self._re, 0) | np.not_equal(self._im, 0)
        den = self._den
        parts = []
        # each part over its own denominator den / gcd(part, den), on
        # Python ints when den is too large for int64
        for arr in self.ints(max(den, self._max())):
            arr = arr[nonzero]
            g = np.gcd(arr, den)
            parts.append([f"{p}/{q}" for p, q in zip((arr // g).tolist(),
                                                      (den // g).tolist())])
        index = [axis.tolist() for axis in np.nonzero(nonzero)]
        return list(map(list, zip(*index, *parts)))

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

    @property
    def length(self) -> int:
        return self._re.shape[0]

    def __len__(self):
        return self.length

    def entries(self):
        return [self[k] for k in range(self.length)]

    def take(self, positions) -> "ExactVector":
        """The entries at the given positions, in that order."""
        return self._part(ExactVector, self._re[positions],
                          self._im[positions])

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
        return cls._raw(np.identity(n, dtype=np.int64),
                        np.zeros((n, n), dtype=np.int64), 1, reduce=False)

    @classmethod
    def diagonal(cls, values, offset=0):
        """Square matrix holding `values` on the diagonal `offset` places
        above the main one (below it when negative), zero elsewhere."""
        re, im, den = _numerators_of(values)
        return cls._raw(np.diag(re, offset), np.diag(im, offset), den,
                        reduce=False)

    @classmethod
    def _joined(cls, items, join):
        """The numerator arrays of items, on their common denominator,
        joined by the numpy function join."""
        den = math.lcm(*(x._den for x in items))
        parts = [_scaled(x, den // x._den) for x in items]
        return cls._raw(join([re for re, _ in parts]),
                        join([im for _, im in parts]), den)

    @classmethod
    def stack(cls, items):
        """The matrix whose rows are the given vectors, or the rows of the
        given matrices in turn, on their common denominator; ValueError for
        no items or unequal lengths."""
        return cls._joined(items, np.vstack)

    @classmethod
    def beside(cls, items):
        """The matrix whose columns are those of the given matrices in
        turn, on their common denominator; ValueError for no items or
        unequal row counts."""
        return cls._joined(items, np.hstack)

    @property
    def shape(self):
        return self._re.shape

    @property
    def rows(self) -> int:
        return self._re.shape[0]

    @property
    def cols(self) -> int:
        return self._re.shape[1]

    def reshape(self, rows: int, cols: int) -> "ExactMatrix":
        """The same entries in row-major order as a rows x cols matrix: a
        view of self's arrays when they are contiguous, else a copy."""
        return self._like(self._re.reshape(rows, cols),
                          self._im.reshape(rows, cols))

    def row(self, r) -> ExactVector:
        return self._part(ExactVector, self._re[r].copy(), self._im[r].copy())

    def column(self, c) -> ExactVector:
        return self._part(ExactVector, self._re[:, c].copy(),
                          self._im[:, c].copy())

    def columns(self, positions) -> "ExactMatrix":
        """The columns at the given positions, in that order."""
        return self._part(ExactMatrix, self._re[:, positions],
                          self._im[:, positions])

    def block(self, rows, cols) -> "ExactMatrix":
        """The submatrix on the given row and column slices; one of the two
        may be an index array instead, or both index arrays that broadcast
        to the shape of the result, entry (i, j) taken at
        (rows[i, j], cols[i, j])."""
        return self._part(ExactMatrix, self._re[rows, cols],
                          self._im[rows, cols])

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
        ar, ai = _scaled(self, other._den)
        br, bi = _scaled(other, self._den)
        return np.equal(ar, br) & np.equal(ai, bi)

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
        return ExactMatrix._product_of(self, other)

    def matvec(self, v: ExactVector) -> ExactVector:
        if not isinstance(v, ExactVector):
            raise TypeError("matvec expects an ExactVector")
        if self.cols != v.length:
            raise ValueError(
                f"inner dimensions disagree: {self.shape} @ ({v.length},)")
        return ExactVector._product_of(self, v)

    def transpose(self) -> "ExactMatrix":
        return self._like(self._re.T.copy(), self._im.T.copy())

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return self._like(self._re.T.copy(), -self._im.T.copy())

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

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, den={self._den})"


# -- free functions -------------------------------------------------------------


def inner(u: ExactVector, v: ExactVector) -> GaussRat:
    """Hermitian inner product; the second argument is conjugated."""
    if u.length != v.length:
        raise ValueError("vector length mismatch")
    return _entry_gauss(*_product(u, v.conj()), u._den * v._den)


def inverse_diagonal(m: ExactMatrix) -> ExactMatrix:
    """diag(1 / m[k, k]) for a square matrix m.  Entry k is z / den for a
    Gaussian integer z = a + b i, whose inverse den / z is den / a when
    z is real, as on the diagonal of a Gram matrix, and
    den (a - b i) / (a^2 + b^2) otherwise: den w / q, put over the lcm l of
    the q.  A zero entry stands in as 1."""
    inverses = [(a, -b, a * a + b * b) if b else (1, 0, a or 1)
                for a, b in zip(m._re.diagonal().tolist(),
                                m._im.diagonal().tolist())]
    l = math.lcm(*(q for _, _, q in inverses))
    re = np.diag(np.array([m._den * x * (l // q) for x, _, q in inverses],
                          dtype=object))
    im = np.diag(np.array([m._den * y * (l // q) for _, y, q in inverses],
                          dtype=object))
    return ExactMatrix.from_numerators(re, im, l)


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


def _echelon(re, im):
    """Fraction-free Gauss-Jordan over Z[i] with per-row content reduction.

    Runs on object copies of (re, im), so on Python ints.  Returns
    (rank, pivot_cols, re, im); rows at index >= rank are zero.
    Pivots are chosen as the first row with a nonzero entry in the leftmost
    unfinished column, so the result is deterministic.  Each pivot clears
    its column above and below it, so every pivot column ends with a single
    nonzero entry.
    """
    re = re.astype(object)
    im = im.astype(object)
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
        nz = np.nonzero(np.not_equal(re[:, c], 0)
                        | np.not_equal(im[:, c], 0))[0]
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
    """Exact rank: the pivot count of the Gauss-Jordan pass (denominator
    irrelevant)."""
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
    rk, pivots, ere, eim = _echelon(m._re, m._im)
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
    _, pivots, re, im = _echelon(aug_re, aug_im)
    rk = sum(c < n for c in pivots)
    if rk < k:
        raise SingularMatrixError(f"rank {rk} < {k} rows")
    d = np.arange(k)
    tr, ti, den = _divide_rows(re[:, n:], im[:, n:], re[d, pivots][:, None],
                               im[d, pivots][:, None])
    return pivots, ExactMatrix._raw(tr * m._den, ti * m._den, den)


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
