"""Shared fixtures and independent oracles.

Contexts, decompositions and six-bases bundles are cached per dimension for
the whole session; building them once keeps the exact-arithmetic suites fast.

The oracle helpers here deliberately avoid the library's own computational
paths (no Bareiss elimination, no incremental series) so that derived
expected values are confirmed through an independent route.  The one
exception is `elimination_seeds`: the exact elimination and Gram-Schmidt
that decompose's closed-form seeds replaced, kept as their oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from tcube.cube import build_context
from tcube.decomposition import InvariantViolation, decompose
from tcube.leonard import (TRANSITION_TABLE, BasisSolver, build_six_bases,
                           phi_matrix)
from tcube.linalg import (I64_LIMIT, ExactMatrix, ExactVector, gram_schmidt,
                          kernel_basis)
from tcube.scalar import GaussRat, I as IUNIT

_CTX = {}
_DEC = {}
_BUNDLES = {}
_PHI = {}


def get_ctx(D):
    if D not in _CTX:
        _CTX[D] = build_context(D)
    return _CTX[D]


def get_decomposition(D):
    if D not in _DEC:
        _DEC[D] = decompose(get_ctx(D))
    return _DEC[D]


def get_phi(d):
    if d not in _PHI:
        _PHI[d] = phi_matrix(d)
    return _PHI[d]


def get_bundles(D):
    """List of (module, six_bases, phi) for every module of dimension D."""
    if D not in _BUNDLES:
        ctx = get_ctx(D)
        _BUNDLES[D] = [(m, build_six_bases(ctx, m), get_phi(m.d))
                       for m in get_decomposition(D).modules]
    return _BUNDLES[D]


@pytest.fixture(scope="session")
def ctx_cache():
    return get_ctx


@pytest.fixture(scope="session")
def decomposition_cache():
    return get_decomposition


@pytest.fixture(scope="session")
def bundle_cache():
    return get_bundles


# -- constructors --------------------------------------------------------------------


def basis_vector(n, k):
    """The k-th unit vector of length n."""
    re = np.zeros(n, dtype=np.int64)
    re[k] = 1
    return ExactVector.from_numerators(re, 0 * re, 1)


def block_rows(block):
    """The rows of a block, as a list of vectors."""
    return [block.row(k) for k in range(block.rows)]


def representation_matrix(op, basis):
    """Matrix B with op @ v_j = sum_i B_ij v_i for the vectors v_j of basis,
    by exact solving (the recognizer's route, on any basis)."""
    solver = BasisSolver(list(basis))
    return solver.coords_matrix(solver.stacked @ op.transpose())


# -- independent oracles ----------------------------------------------------------


def naive_rank(rows) -> int:
    """Plain Gaussian elimination over Q(i) with division (no fraction-free
    machinery, no numpy): the independent rank oracle."""
    grid = [list(row) for row in rows]
    if not grid:
        return 0
    ncols = len(grid[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(grid)) if grid[r][col]), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        inv = GaussRat(1) / grid[rank][col]
        grid[rank] = [e * inv for e in grid[rank]]
        for r in range(len(grid)):
            if r != rank and grid[r][col]:
                f = grid[r][col]
                grid[r] = [a - f * b for a, b in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def naive_matrix_rank(m) -> int:
    return naive_rank(m.to_rows())


def assert_canonical_storage(x):
    """x's numerator arrays are int64 exactly when every numerator is below
    2^62 in magnitude, else object arrays, and x's cached largest numerator
    is right: the storage rule, checked on Python ints read one entry at a
    time."""
    largest = max((abs(int(v)) for arr in (x._re, x._im) for v in arr.flat),
                  default=0)
    assert x._max() == largest
    want = np.int64 if largest < I64_LIMIT else object
    assert x._re.dtype == want and x._im.dtype == want


def naive_inverse(rows):
    """Inverse of a square grid of scalars by plain Gauss-Jordan over Q(i)
    with division on the augmented grid [M | I]; None if M is singular.
    The independent oracle for the library's fraction-free inverse."""
    n = len(rows)
    aug = [list(row) + [GaussRat(1 if c == r else 0) for c in range(n)]
           for r, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = GaussRat(1) / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def naive_first_discrepancy(a, b):
    """(row, col) of the first entry, in row-major order, where the GaussRat
    entries of a and b differ; (0, 0) when the shapes differ, None when all
    agree.  The entry-by-entry oracle for linalg.first_discrepancy."""
    if a.shape != b.shape:
        return (0, 0)
    for r in range(a.rows):
        for c in range(a.cols):
            if a[r, c] != b[r, c]:
                return (r, c)
    return None


def interpolation_idempotents(m, theta):
    """E_i = prod_{j != i} (m - theta_j I) / (theta_i - theta_j) for each i:
    the spectral projections of a matrix m with distinct eigenvalues theta,
    by Lagrange interpolation in dense products.  The independent oracle for
    the library's closed-form idempotents."""
    ident = ExactMatrix.identity(m.rows)
    family = []
    for i, t_i in enumerate(theta):
        prod = ident
        scale = Fraction(1)
        for j, t_j in enumerate(theta):
            if j != i:
                prod = prod @ (m - ident.scale(t_j))
                scale /= t_i - t_j
        family.append(prod.scale(scale))
    return tuple(family)


def oracle_inner(kind: str, i: int, j: int, d: int, scalar: GaussRat,
                 phi) -> GaussRat:
    """The closed form of one inner-product formula kind at (i, j), times
    the seed scalar, in GaussRat arithmetic one cell at a time.  The
    independent oracle for the library's inner-product tables."""
    binom = math.comb(d, i)
    if kind == "delta":
        if i != j:
            return GaussRat(0)
        return scalar * Fraction(binom, 2 ** d)
    if kind == "delta_ipow":
        if i != j:
            return GaussRat(0)
        return scalar * (IUNIT ** i) * binom * (GaussRat(1, 1) ** (-d))
    pair = binom * math.comb(d, j) * phi.f(i, j)
    if kind == "f":
        return scalar * Fraction(pair, 2 ** d)
    if kind == "f_ipow_j":
        return scalar * Fraction(pair, 2 ** d) * IUNIT ** j
    if kind == "f_ipow_i":
        return scalar * Fraction(pair, 2 ** d) * IUNIT ** i
    if kind == "f_ipow_negij":
        return scalar * pair * (IUNIT ** (-i - j)) * (GaussRat(2, -2) ** (-d))
    raise ValueError(f"unknown formula kind {kind}")


ORACLE_POWERS = {
    "zero": lambda i, j: 0, "i": lambda i, j: i, "j": lambda i, j: j,
    "neg_i": lambda i, j: -i, "neg_j": lambda i, j: -j,
    "sum": lambda i, j: i + j, "neg_sum": lambda i, j: -i - j,
}


def oracle_pattern(pattern: str, scale: GaussRat, phi) -> ExactMatrix:
    """One transition pattern times scale, cell by cell: scale i^power(i,j)
    Phi_ij, or the diagonal scale i^k (D1) or scale i^-k (D2)."""
    n = phi.d + 1
    if pattern in ("D1", "D2"):
        sign = 1 if pattern == "D1" else -1
        return ExactMatrix([[scale * IUNIT ** (sign * i) if i == j
                             else GaussRat(0) for j in range(n)]
                            for i in range(n)])
    power = ORACLE_POWERS[pattern]
    return ExactMatrix([[scale * (IUNIT ** power(i, j)) * phi.phi(i, j)
                         for j in range(n)] for i in range(n)])


def oracle_transition(src: str, dst: str, scal, phi) -> ExactMatrix:
    """The closed-form transition matrix from basis src to basis dst for
    the seed scalars `scal`, with its prefactor in GaussRat arithmetic.  The
    independent oracle for the library's transition formulas."""
    d = phi.d
    if src == dst:
        return ExactMatrix.identity(d + 1)
    pattern, prefactor = TRANSITION_TABLE[(src, dst)]
    opi, omi = GaussRat(1, 1), GaussRat(1, -1)
    if prefactor[0] == "unit":
        scale = opi ** (-d) if prefactor[1] == "opi_inv" else omi ** (-d)
    else:
        key, norm, extra = prefactor
        scale = scal[key] / scal[norm]
        if extra == "omi":
            scale = scale * omi ** d
        elif extra == "opi":
            scale = scale * opi ** d
    return oracle_pattern(pattern, scale, phi)


def dense_orthogonal_sum(ctx, modules):
    """The dimensions of the modules sum to 2^D and their vectors are
    pairwise orthogonal, by one dense Gram of all of them, 2^D x 2^D; the
    first pair of modules that fails, in the Gram's row-major order, is
    named.  The oracle for the slice-blocked orthogonality check of
    decompose, which it raises as: InvariantViolation."""
    owner = np.repeat(np.arange(len(modules)), [m.dim for m in modules])
    if len(owner) != ctx.n:
        raise InvariantViolation(
            f"module dimensions sum to {len(owner)}, expected {ctx.n}")
    stacked = ExactMatrix.stack([m.slice_basis for m in modules])
    gram = stacked @ stacked.adjoint()
    cross = gram.nonzero() & (owner[:, None] != owner[None, :])
    if cross.any():
        a, b = np.argwhere(cross)[0]
        raise InvariantViolation(
            f"modules {owner[a]} and {owner[b]} are not orthogonal")


def elimination_seeds(ctx, r):
    """The seeds of endpoint r as an exact elimination finds them: a basis
    of the kernel of the rows of A on slice r - 1, restricted to the
    columns of slice r (L on slice r), orthogonalized by Gram-Schmidt and
    embedded in C^(2^D), one per row of the result.  The oracle for the
    closed-form seeds of decompose."""
    cols = ctx.slice_indices(r)
    rows = ctx.slice_indices(r - 1) if r >= 1 else []
    if rows:
        restricted = ExactMatrix.stack([ctx.A.row(y).take(cols) for y in rows])
    else:
        restricted = ExactMatrix.zeros(0, len(cols))
    seeds = ExactMatrix.stack(gram_schmidt(kernel_basis(restricted)))
    zeros = np.zeros((seeds.rows, ctx.n), dtype=object)
    re, im = zeros.copy(), zeros.copy()
    re[:, cols], im[:, cols] = seeds._re, seeds._im
    return ExactMatrix.from_numerators(re, im, seeds._den)


def dense_ladder(ctx):
    """(L, R): the entries of A towards the slice below and above, masked
    densely from A by the slice index.  The oracle for the block L and R."""
    grid = ctx.A.to_rows()
    zero = GaussRat(0)
    dist = [int(k) for k in ctx.dist]
    return tuple(ExactMatrix([[grid[y][z] if dist[z] == dist[y] + step else zero
                               for z in range(ctx.n)] for y in range(ctx.n)])
                 for step in (+1, -1))


def hamming_weight(v: int) -> int:
    return bin(v).count("1")


def brute_p_1j(D: int, h: int, j: int) -> int:
    """Intersection number p^h_{1j} counted directly on the vertex set:
    pick any pair at distance h and count common neighbours-at-1/distance-j."""
    y = 0
    z = (1 << h) - 1  # distance h from y
    count = 0
    for w in range(2 ** D):
        if hamming_weight(w ^ y) == 1 and hamming_weight(w ^ z) == j:
            count += 1
    return count


def series_2f1(i: int, j: int, d: int) -> Fraction:
    """2F1(-i,-j;-d;2) summed with explicit Pochhammer products (independent
    of the incremental-term evaluation in the library)."""
    def poch(a, n):
        out = 1
        for k in range(n):
            out *= a + k
        return out

    total = Fraction(0)
    fact = 1
    for n in range(d + 1):
        if n > 0:
            fact *= n
        num = poch(-i, n) * poch(-j, n) * 2 ** n
        den = poch(-d, n) * fact
        if num == 0:
            continue
        total += Fraction(num, den)
    return total
