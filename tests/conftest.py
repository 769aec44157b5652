"""Shared fixtures and independent oracles.

Contexts, decompositions and six-bases bundles are cached per dimension for
the whole session; building them once keeps the exact-arithmetic suites fast.

The oracle helpers here deliberately avoid the library's own computational
paths (no Bareiss elimination, no incremental series) so that derived
expected values are confirmed through an independent route.  The
exceptions keep a path that the library replaced as the oracle of its
replacement: `elimination_seeds`, the exact elimination and Gram-Schmidt
behind decompose's closed-form seeds, `oracle_decompose`, the module by
module decomposition behind its endpoint stacks, the module path over 2^D
columns (`project`, `oracle_six_bases`, `oracle_verdicts`), behind the module
frames, the three whole-matrix suites by dense products
(`dense_commutators`, `dense_idempotent_families`, `dense_conjugation`),
on the dense views of the families and of P, behind the suites on the
families' rows, on the operator tables and on the factor of P, which form
no dense matrix themselves, the full edge gather of an operator on a whole family
member (`gather_eigen_discrepancy`), behind the clean part plus sparse
defect of `CubeContext.family_eigen_discrepancy`, and the dense
constructions of A, Astar and Aeps (`kron_sum`, `commutator_aeps`,
`phase_conjugate`), behind their gather tables, of P (`kron_power`),
behind the Walsh-Hadamard pass that builds it, the Leonard recognizer
by per-candidate elimination (`naive_is_leonard_triple`), behind the one
on the spectral parts, the inner products, proportionality and
transitions block by block with GaussRat prefactors
(`cell_inner_checks`, `cell_transitions`, on the per-kind tables
`inner_tables` and `transition_tables`), behind the whole-table
comparisons, and the Phi checks in Fraction arithmetic
(`fraction_verify_phi`), behind `verify_phi` on integers.

It also holds what only tests use and no command reaches: `check_equal` and
`all_passed` over checks, `flipped_phi`, the one-entry mutation of a Phi
table, `seed_gram` and `seed_inner`, the seeds' inner products,
`normalize_seeds`, the paper's seed normalization, and `asa_triple`, a
module's operators in its basis AsA, which the recognizer's tests take as
inputs beside the frame's matrices that the commands hand it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from tcube import linalg
from tcube.cube import _Gather, _times_i_power, build_context
from tcube.decomposition import (FRAME_OPS, SEED_NAMES, Decomposition,
                                 InvariantViolation, IrreducibleModule,
                                 ModuleFrame, _fail, closed_form_seeds,
                                 decompose, multiplicity, proportional_rows,
                                 seed_coordinates, spectral_failure,
                                 spectral_parts)
from tcube.leonard import (_BASIS_SPEC, _FORM_BUILDERS, _P_SHIFTS,
                           _PROPORTIONAL_ROWS, _SEED_ROWS, BASIS_LABELS,
                           INNER_FORMULAS, OPERATOR_LABELS, REP_FORMS,
                           TRANSITION_TABLE, BasisError, BasisSolver,
                           LeonardVerdict, PhiMatrix, _POWER_PATTERNS,
                           _unit_power, build_six_bases, phi_matrix,
                           verify_rep_matrices)
from tcube.linalg import (I64_LIMIT, ExactMatrix, ExactVector,
                          first_discrepancy, gram_schmidt, ints,
                          inverse_diagonal, kernel_basis)
from tcube.report import IdentityCheck, check_true
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
        _BUNDLES[D] = [(m, build_six_bases(m), get_phi(m.d))
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


def in_space(bases, label=None):
    """The vectors over 2^D of a SixBases, or of its basis `label`: their
    coordinates times the module's slice basis."""
    block = bases.stacked if label is None else bases[label]
    return block @ bases.module.slice_basis


def asa_triple(bases):
    """The module's A, Astar and Aeps, in OPERATOR_LABELS order, as matrices
    in its basis AsA: the AsA cells of verify_rep_matrices."""
    matrices = {c.op: c.matrix for c in verify_rep_matrices(bases)
                if c.basis == "AsA"}
    return tuple(matrices[op] for op in OPERATOR_LABELS)


def representation_matrix(op, basis):
    """Matrix B with op @ v_j = sum_i B_ij v_i for the vectors v_j of basis,
    by exact solving (the recognizer's route, on any basis)."""
    solver = BasisSolver(list(basis))
    return solver.coords_matrix(solver.stacked @ op.transpose())


# -- checks and mutations that only tests make -------------------------------------


def check_equal(name, lhs, rhs):
    """The check lhs == rhs, with its first discrepancy."""
    if lhs == rhs:
        return IdentityCheck(name, True)
    return IdentityCheck(name, False, first_discrepancy(lhs, rhs))


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)


def flipped_phi(phi, i, j):
    """phi with the sign of one hypergeometric value flipped; the flipped
    Phi entry is C(d,j) times it."""
    grid = [list(row) for row in phi.hyper]
    grid[i][j] = -grid[i][j]
    return PhiMatrix(phi.d, tuple(tuple(row) for row in grid))


# -- the paper's seed normalization -------------------------------------------------


class InfeasibleTargets(ValueError):
    """Requested seed inner products cannot be realized at all."""


class FieldExtensionRequired(ValueError):
    """Targets are feasible over C but need a square root outside Q(i)."""


def _rational_sqrt(q: Fraction):
    if q <= 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def seed_gram(mod) -> ExactMatrix:
    """Entry (a, b) is <seed a, seed b>, in SEED_NAMES order: the Gram of
    the seed coordinates through the frame, times the module's norm."""
    return mod.frame.gram_of(seed_coordinates(mod.frame)).scale(mod.norm)


def seed_inner(mod, first: str, second: str) -> GaussRat:
    return seed_gram(mod)[SEED_NAMES.index(first), SEED_NAMES.index(second)]


def normalize_seeds(mod, a, b, c) -> ExactMatrix:
    """The coordinates in B, 3 x (d+1) in SEED_NAMES order, of the module's
    seeds rescaled so that <u,u*> = a, <u*,ue> = b, <ue,u> = c.

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
    nus = seed_inner(mod, "u*", "u*").re
    delta = product.re / (c.abs_sq() * nus)
    root = _rational_sqrt(delta)
    if root is None:
        raise FieldExtensionRequired("targets require field extension")
    inv_root = GaussRat(1 / root)
    lam = a * inv_root / seed_inner(mod, "u", "u*")
    lam_star = GaussRat(root)
    lam_eps = b.conj() * inv_root / seed_inner(mod, "ue", "u*")
    seeds = ExactMatrix.diagonal([lam, lam_star, lam_eps]) @ \
        seed_coordinates(mod.frame)
    gram = mod.frame.gram_of(seeds).scale(mod.norm)
    got = (gram[0, 1], gram[1, 2], gram[2, 0])
    if got != (a, b, c):
        raise InvariantViolation(f"normalization produced {got} instead of "
                                 f"the requested targets")
    return seeds


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


def naive_spectral_parts(m):
    """(parts, failure) of `decomposition.spectral_parts` by the oracle
    route: the parts by `interpolation_idempotents` over theta_k = d - 2k,
    stacked, and the certificate part by part, each a product or sum of
    its own: the parts summed against I, then for each k in turn
    parts[k] m against theta_k parts[k] and parts[k] against zero."""
    n = m.rows
    theta = [n - 1 - 2 * k for k in range(n)]
    parts = interpolation_idempotents(m, theta)
    stacked = ExactMatrix.stack(parts)
    total = parts[0]
    for f in parts[1:]:
        total = total + f
    if total != ExactMatrix.identity(n):
        return stacked, ("sum", None)
    for k, f in enumerate(parts):
        if f @ m != f.scale(theta[k]):
            return stacked, ("eigen", k)
        if f.is_zero():
            return stacked, ("zero", k)
    return stacked, None


def naive_irreducible_tridiagonal(m) -> bool:
    """Whether m is zero off the three central diagonals and nonzero on
    the sub- and superdiagonal, entry by entry."""
    return all(bool(m[i, j]) == (abs(i - j) == 1) or i == j
               for i in range(m.rows) for j in range(m.cols))


def naive_is_leonard_triple(b0, b1, b2):
    """`leonard.is_leonard_triple` by per-candidate elimination, the
    recognizer that the spectral path replaced: each operator's eigenbasis
    is the union of the kernels of m - theta over the candidates
    theta = d, d-2, ..., -d (`kernel_basis`), "unverifiable" when it has
    fewer than d + 1 vectors, and the other operators are represented in
    it by exact solving (`BasisSolver`).  Every operator with d + 1
    vectors has a representation entry here, one with a repeated
    eigenvalue too, whose kernel basis is one of many."""
    ops = (b0, b1, b2)
    n = b0.rows
    if any(m.rows != n or m.cols != n for m in ops):
        raise ValueError("operators must be square and of equal size")
    d = n - 1
    candidates = tuple(d - 2 * k for k in range(d + 1))
    bases = {}
    for t, m in enumerate(ops):
        vecs = []
        for theta in candidates:
            vecs.extend(kernel_basis(m - ExactMatrix.identity(n).scale(theta)))
        if len(vecs) != n:
            return LeonardVerdict(
                verdict="unverifiable",
                reason=f"operator {t}: eigenspaces over the candidate set "
                       f"span dimension {len(vecs)} of {n}",
                eigenvalue_order=candidates, tridiagonal={}, bases={},
                rep_matrices={})
        bases[t] = tuple(vecs)
    tri, reps = {}, {}
    for t in range(3):
        for o in range(3):
            if o != t:
                reps[(t, o)] = representation_matrix(ops[o], bases[t])
                tri[(t, o)] = naive_irreducible_tridiagonal(reps[(t, o)])
    ok = all(tri.values())
    return LeonardVerdict(
        verdict="true" if ok else "false",
        reason="all six off-diagonal representations are irreducible "
               "tridiagonal" if ok else
               "failed: " + ", ".join(f"op{o} in eigenbasis of op{t}"
                                      for (t, o), v in tri.items() if not v),
        eigenvalue_order=candidates, tridiagonal=tri, bases=bases,
        rep_matrices=reps)


def product_calls(monkeypatch, build, *args):
    """The number of calls of `linalg._product`, the one kernel behind
    every complex product, that build(*args) makes."""
    calls = []
    product = linalg._product

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_product", counted)
        build(*args)
    return len(calls)


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



# -- the module checks cell by cell --------------------------------------------------
#
# The inner products, the proportionality and the transitions as the library
# checked them before it compared whole tables: one block, one GaussRat
# prefactor and one record at a time, with the seed scalars as GaussRat.
# The oracles of `leonard._inner_checks` and `leonard._transitions`.


def _gauss_table(weights, power, unit, den) -> ExactMatrix:
    """The matrix weights * i ** power * unit / den from integer arrays
    (weights, power) and a Gaussian integer unit."""
    ur, ui = unit
    return ExactMatrix.from_numerators(
        *_times_i_power(weights * ur, weights * ui, power), den)


def ipow_diagonal(d: int, sign: int) -> ExactMatrix:
    """diag(i ** (sign k)) for k = 0..d."""
    k = np.arange(d + 1)
    return _gauss_table(np.diag(np.ones(d + 1, dtype=object)),
                        sign * k[:, None], (1, 0), 1)


def inner_tables(phi) -> dict:
    """Each formula kind of INNER_FORMULAS at every (i, j), before the seed
    scalar: with b_i = C(d,i) and f = 2F1(-i,-j;-d;2),

        delta         [i = j] b_i / 2^d
        delta_ipow    [i = j] b_i i^i (1+i)^-d
        f             b_i b_j f / 2^d
        f_ipow_j      b_i b_j f i^j / 2^d
        f_ipow_i      b_i b_j f i^i / 2^d
        f_ipow_negij  b_i b_j f i^(-i-j) (2-2i)^-d

    using (1+i)^-d = (1-i)^d / 2^d and (2-2i)^-d = (1+i)^d / 4^d."""
    d = phi.d
    i, j = np.indices((d + 1, d + 1))
    binom = np.array([math.comb(d, k) for k in range(d + 1)], dtype=object)
    num, q = phi.numerators
    pair = binom[:, None] * num
    delta = np.diag(binom)
    one = (1, 0)
    return {
        "delta": _gauss_table(delta, 0, one, 2 ** d),
        "delta_ipow": _gauss_table(delta, i, _unit_power(-1, d), 2 ** d),
        "f": _gauss_table(pair, 0, one, 2 ** d * q),
        "f_ipow_j": _gauss_table(pair, j, one, 2 ** d * q),
        "f_ipow_i": _gauss_table(pair, i, one, 2 ** d * q),
        "f_ipow_negij": _gauss_table(pair, -i - j, _unit_power(+1, d),
                                     4 ** d * q),
    }


def transition_tables(phi) -> dict:
    """Each pattern of TRANSITION_TABLE before its prefactor: i^power(i,j)
    Phi_ij for the power patterns, diag(i^k) for D1 and diag(i^-k) for
    D2."""
    d = phi.d
    i, j = np.indices((d + 1, d + 1))
    num, q = phi.numerators
    tables = {name: _gauss_table(num, power(i, j), (1, 0), q)
              for name, power in _POWER_PATTERNS.items()}
    tables["D1"] = ipow_diagonal(d, +1)
    tables["D2"] = ipow_diagonal(d, -1)
    return tables


def seed_scalars(bases) -> dict:
    """The nine seed scalars of a module's frame, keyed "a|b", as GaussRat
    entries of its seed Gram."""
    gram = bases.seed_gram
    return {f"{a}|{b}": gram[i, j] for i, a in enumerate(SEED_NAMES)
            for j, b in enumerate(SEED_NAMES)}


def prefactor(spec, d: int, scal) -> GaussRat:
    """The prefactor of a TRANSITION_TABLE spec, with its powers of 1 +- i
    on integers (`_unit_power`): (1 + i)^-d = (1 - i)^d / 2^d and
    (1 - i)^-d = (1 + i)^d / 2^d."""
    if spec[0] == "unit":
        re, im = _unit_power(-1 if spec[1] == "opi_inv" else +1, d)
        return GaussRat(Fraction(re, 2 ** d), Fraction(im, 2 ** d))
    key, norm, extra = spec
    scale = scal[key] / scal[norm]
    if extra is not None:
        scale = scale * GaussRat(*_unit_power(+1 if extra == "opi" else -1,
                                               d))
    return scale


def transition_formulas(scal, phi) -> dict:
    """The closed-form transition matrix of every (src, dst): the identity
    when src == dst, else the pattern table of TRANSITION_TABLE scaled by
    its prefactor, which `scal` (the seed scalars) determines."""
    d = phi.d
    tables = transition_tables(phi)
    ident = ExactMatrix.identity(d + 1)
    formulas = {}
    for src in BASIS_LABELS:
        for dst in BASIS_LABELS:
            if src == dst:
                formulas[(src, dst)] = ident
                continue
            pattern, spec = TRANSITION_TABLE[(src, dst)]
            formulas[(src, dst)] = tables[pattern].scale(
                prefactor(spec, d, scal))
    return formulas


def cell_inner_checks(bases, phi) -> list:
    """(check_id, i, j, passed) of every inner-product record: each block
    of the Gram of the six stacked bases against its kind's table scaled
    by the seed scalar, then the slicewise proportionality, vector i of x
    against i^i (1-i)^d key / norm times vector i of y."""
    n = bases.module.d + 1
    scal = seed_scalars(bases)
    tables = inner_tables(phi)
    checks = []
    for (x, y), (kind, key) in INNER_FORMULAS.items():
        ok = bases.gram.block(bases.rows(x), bases.rows(y)).entries_equal(
            tables[kind].scale(scal[key]))
        checks.extend((f"inner[{x}|{y}]", i, j, bool(ok[i, j]))
                      for i in range(n) for j in range(n))
    omi_d = GaussRat(*_unit_power(-1, n - 1))
    for x, y, key, norm in _PROPORTIONAL_ROWS:
        coeffs = ipow_diagonal(n - 1, +1).scale(omi_d * scal[key]
                                                 / scal[norm])
        ok = bases[x].row_equal(coeffs @ bases[y])
        checks.extend((f"proportional[{x}|{y}]", i, i, bool(v))
                      for i, v in enumerate(ok))
    return checks


def cell_transitions(bases, phi):
    """({(src, dst): (passed, computed, formula)}, [(identity, passed)]):
    each block of T = (stacked @ reads)^T against its closed form, then
    the inverse and composition rows, one product per middle basis."""
    computed = bases.coords(bases.stacked).transpose()
    formulas = transition_formulas(seed_scalars(bases), phi)
    rows = {label: bases.rows(label) for label in BASIS_LABELS}
    cells = {}
    for src in BASIS_LABELS:
        for dst in BASIS_LABELS:
            mat = computed.block(rows[src], rows[dst])
            formula = formulas[(src, dst)]
            cells[(src, dst)] = (mat == formula, mat, formula)
    every = slice(None)
    through = {b: computed.block(every, rows[b])
               @ computed.block(rows[b], every) for b in BASIS_LABELS}
    ident = ExactMatrix.identity(bases.module.d + 1)
    coherence = [(f"transition_inverse[{a}|{b}]",
                  through[b].block(rows[a], rows[a]) == ident)
                 for a in BASIS_LABELS for b in BASIS_LABELS if a < b]
    coherence += [(f"transition_composition[{a}|{b}|{c}]",
                   through[b].block(rows[a], rows[c])
                   == computed.block(rows[a], rows[c]))
                  for a in BASIS_LABELS for b in BASIS_LABELS
                  for c in BASIS_LABELS]
    return cells, coherence


def fraction_verify_phi(phi) -> list:
    """(name, passed) of every check of `leonard.verify_phi`, on the 2F1
    values in Fraction arithmetic."""
    d = phi.d
    checks = [(f"phi_row0[{j}]", phi.phi(0, j) == math.comb(d, j))
              for j in range(d + 1)]
    checks += [(f"phi_col0[{i}]", phi.f(i, 0) == 1) for i in range(d + 1)]
    for i in range(2, d + 1):
        for j in range(d + 1):
            rhs = (Fraction(d - 2 * j, d - i + 1) * phi.f(i - 1, j)
                   - Fraction(i - 1, d - i + 1) * phi.f(i - 2, j))
            checks.append((f"phi_recurrence[{i},{j}]", phi.f(i, j) == rhs))
    m = ExactMatrix([[phi.phi(i, j) for j in range(d + 1)]
                     for i in range(d + 1)])
    checks.append(("phi_self_inverse",
                   m @ m == ExactMatrix.identity(d + 1).scale(2 ** d)))
    return checks

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


def _validate_ladder(ctx, r, index, ladder):
    """The slice-ladder invariants of one module; ladder holds the seed u*
    and its images under R, R^2, ..., R^(d+1), one row each.  Returns the
    slice basis (the first d + 1 rows) and its image under Astar."""
    d = len(ladder) - 2
    block = ExactMatrix.stack(ladder[:-1])
    if d != ctx.D - 2 * r:
        _fail(r, index, "diameter is not D - 2r")
    nonzero = block.nonzero()
    slices = r + np.arange(d + 1)
    outside = nonzero & (ctx.dist[None, :] != slices[:, None])
    for k in range(d + 1):
        if not nonzero[k].any():
            _fail(r, index, f"slice basis vector {k} is zero")
        if outside[k].any():
            _fail(r, index, f"slice basis vector {k} leaves slice {r + k}")
    # closure under A = L + R along the slice ladder: L b_k is a nonzero
    # multiple of b_(k-1), and of the zero vector for k = 0
    lowered = ctx.apply("L", block)
    below = ExactMatrix.stack([ExactMatrix.zeros(1, ctx.n),
                               block.block(slice(0, d), slice(None))])
    onto = proportional_rows(lowered, below)
    if not onto[0]:
        _fail(r, index, "seed not annihilated by the lowering operator")
    lowered_nonzero = lowered.nonzero().any(axis=1)
    for k in range(1, d + 1):
        if not lowered_nonzero[k] or not onto[k]:
            _fail(r, index, f"L does not map slice {k} onto slice {k - 1}")
    if not ladder[-1].is_zero():
        _fail(r, index, "raising the top slice does not vanish")
    # closure under Astar is automatic for slice-supported vectors; verify.
    scaled = ExactMatrix.diagonal([ctx.D - 2 * (r + k)
                                   for k in range(d + 1)]) @ block
    astar = ctx.apply("Astar", block)
    for k, ok in enumerate(astar.row_equal(scaled)):
        if not ok:
            _fail(r, index, f"Astar does not scale slice {k}")
    return block, astar


def _certify_frame(ctx, r, index, block, astar):
    """The frame of the module with slice basis `block`, whose image under
    Astar is `astar`.  One A and one Aeps gather and one P pass on the
    block; the coordinates of every image are read off images @ B^* times
    the inverse norms and certified by the exact reconstruction
    coords @ B == images, which proves that the operator maps W into W.
    The Gram B B^* must be diagonal.  Returns the frame, whose Gram is
    B B^* / <b_0, b_0>, and the norm <b_0, b_0>."""
    n = block.rows
    gram = block @ block.adjoint()
    if (gram.nonzero() != np.eye(n, dtype=bool)).any():
        _fail(r, index, "the slice basis is not orthogonal")
    images = ExactMatrix.stack([ctx.apply("A", block), astar,
                                ctx.apply("Aeps", block),
                                ctx.apply("P", block)])
    coords = (images @ block.adjoint()) @ inverse_diagonal(gram)
    closed = (coords @ block).row_equal(images).reshape(len(FRAME_OPS), n)
    for op, ok in zip(FRAME_OPS, closed.all(axis=1)):
        if not ok:
            _fail(r, index, f"{op} does not map W into W")
    norm = gram[0, 0].re
    frame = ModuleFrame(*(coords.block(slice(k * n, (k + 1) * n), slice(None))
                          for k in range(len(FRAME_OPS))),
                        gram=gram.scale(1 / norm))
    return frame, norm


def _frame_seeds(r, index, block, frame):
    """The seeds u, u* and ue over 2^D, after the spectral certificates of
    the frame's A and Aeps: their coordinates mapped back through B."""
    d = block.rows - 1
    for op, label in (("A", "E"), ("Aeps", "Eeps")):
        failure = spectral_parts(getattr(frame, op))[1]
        if failure is not None:
            _fail(r, index, spectral_failure(failure, r, d, label, op))
    seeds = seed_coordinates(frame) @ block
    seed_nonzero = seeds.nonzero().any(axis=1)
    for k in (0, 2):
        if not seed_nonzero[k]:
            _fail(r, index, f"seed {SEED_NAMES[k]} is zero")
    return seeds


def oracle_endpoint_modules(ctx, r, numerators):
    """The modules with endpoint r one at a time: each seed up its own slice
    ladder, one R gather per step, and each module's frame read off and
    certified on its own images, every module checked in full before the
    next, its seed pairings on its seeds over 2^D.  The oracle for the
    endpoint stacks of decompose."""
    seeds = ExactMatrix.from_numerators(numerators, 0 * numerators, 1)
    d = ctx.D - 2 * r
    modules = []
    for index in range(seeds.rows):
        ladder = [seeds.block([index], slice(None))]
        for _ in range(d + 1):
            ladder.append(ctx.apply("R", ladder[-1]))
        block, astar = _validate_ladder(ctx, r, index, ladder)
        frame, norm = _certify_frame(ctx, r, index, block, astar)
        own = _frame_seeds(r, index, block, frame)
        gram = own @ own.adjoint()
        for a, b in (("u*", "u"), ("u", "ue"), ("ue", "u*")):
            if not gram[SEED_NAMES.index(a), SEED_NAMES.index(b)]:
                _fail(r, index, f"<{a},{b}> vanished")
        modules.append(IrreducibleModule(
            r=r, d=d, index=index, slice_basis=block, frame=frame,
            norm=norm))
    return modules


def oracle_decompose(ctx):
    """decompose module by module (`oracle_endpoint_modules`), with the
    modules' orthogonality by the dense Gram: the oracle of decompose,
    module for module and failure for failure."""
    modules = []
    mults = {}
    for r, numerators in closed_form_seeds(ctx.D).items():
        if len(numerators) != multiplicity(ctx.D, r):
            raise InvariantViolation(
                f"endpoint {r}: {len(numerators)} seeds, expected "
                f"C(D,r) - C(D,r-1) = {multiplicity(ctx.D, r)}")
        modules.extend(oracle_endpoint_modules(ctx, r, numerators))
        mults[r] = len(numerators)
    dense_orthogonal_sum(ctx, modules)
    return Decomposition(D=ctx.D, modules=tuple(modules), multiplicities=mults)


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


# -- the dense constructions of the operators ----------------------------------
#
# The context stores A, Astar and Aeps as gather tables and scatters each
# into a dense matrix on first use, and builds P by its Walsh-Hadamard pass.
# Their dense constructions, by the definitions, Kronecker sums and powers
# and dense products, are the oracles of those matrices.


def kron(a, b):
    """The Kronecker product, with row index u * b.rows + u' (the first
    factor most significant), by np.kron on Python-int numerators."""
    ar, ai, br, bi = (x.astype(object) for x in (a._re, a._im, b._re, b._im))
    return ExactMatrix.from_numerators(np.kron(ar, br) - np.kron(ai, bi),
                                       np.kron(ar, bi) + np.kron(ai, br),
                                       a._den * b._den)


def kron_power(a, k):
    """a (x) ... (x) a with k factors; the 1 x 1 identity for k = 0."""
    result = ExactMatrix.identity(1)
    for _ in range(k):
        result = kron(result, a)
    return result


A1 = ExactMatrix([[0, 1], [1, 0]])
ASTAR1 = ExactMatrix.diagonal([1, -1])
AEPS1 = ExactMatrix([[0, IUNIT], [-IUNIT, 0]])


def kron_sum(factor, D):
    """sum over positions k of I_2^(x k) (x) factor (x) I_2^(x (D-1-k)), by
    the recursion K_1 = factor, K_(k+1) = K_k (x) I_2 + I_(2^k) (x) factor."""
    total = factor
    for k in range(1, D):
        total = (kron(total, ExactMatrix.identity(2))
                 + kron(ExactMatrix.identity(2 ** k), factor))
    return total


def hamming_adjacency(D):
    """A by its definition: 1 at (x, y) when x and y differ in one bit."""
    n = 2 ** D
    return ExactMatrix([[int(hamming_weight(x ^ y) == 1) for y in range(n)]
                        for x in range(n)])


def dual_adjacency(D):
    """Astar by its definition: D - 2 dist(y) at (y, y)."""
    return ExactMatrix.diagonal([D - 2 * hamming_weight(y)
                                 for y in range(2 ** D)])


def commutator_aeps(a, astar):
    """-i (A Astar - Astar A) / 2, by dense products."""
    return (a @ astar - astar @ a).scale(GaussRat(0, Fraction(-1, 2)))


def phase_conjugate(a, D):
    """S^-1 a S for S = diag(i^dist), by dense products."""
    weights = [hamming_weight(y) for y in range(2 ** D)]
    return (ExactMatrix.diagonal([(-IUNIT) ** w for w in weights]) @ a
            @ ExactMatrix.diagonal([IUNIT ** w for w in weights]))


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


# -- the module path over 2^D columns, the oracle of the module frames ----------
#
# Before the frames, decompose projected every slice basis onto its window
# with fast Walsh-Hadamard transforms, and the six bases, their rep
# matrices, inner products and transitions were blocks over 2^D columns.
# That path is kept here, as the independent route that the coordinates of
# the frames are checked against.


class OutsideWindow(ValueError):
    """The rows of a block have content outside the window asked of
    `project`; `parts` holds all D + 1 of their parts, each certified as
    the full projection certifies it."""

    def __init__(self, parts):
        super().__init__("block has content outside the window")
        self.parts = parts


def walsh_hadamard(a):
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


def _slice_masks(ctx):
    return ctx._dist[None, :] == np.arange(ctx.D + 1)[:, None]


def _spectral_window(ctx, re, im, m, window):
    """Numerators, over 2^D, of E_i x for every row x of re + i im (stored
    numerator arrays with entries bounded by m) and every i in window: one
    Walsh-Hadamard pass for all of them, then one pass and one A gather per
    part in the window.  Certified against A as `project` says; None when
    the parts do not sum to every x."""
    n, D = ctx.n, ctx.D
    a = ctx._gather_table("A")
    # |x H| <= n m and each part is at most n^2 m; their sum, theta_i
    # times one and A times one stay below (2D + 2) n^2 m a.max
    re, im = ints(m * n * n * (2 * D + 2) * a.max, re, im)
    rows = re.shape[0]
    masks = _slice_masks(ctx)[list(window)]
    spectrum = walsh_hadamard(np.concatenate([re, im]))
    masked = spectrum[None, :, :] * masks[:, None, :]
    parts = walsh_hadamard(masked.reshape(-1, n)).reshape(
        len(masks), 2, rows, n)
    zr, zi = parts[:, 0], parts[:, 1]
    sums = (np.array_equal(zr.sum(axis=0), n * re)
            and np.array_equal(zi.sum(axis=0), n * im))
    if not sums and len(masks) <= D:
        return None
    ar, ai = a.apply(zr.reshape(-1, n), zi.reshape(-1, n), n * n * m)
    ar, ai = ar.reshape(zr.shape), ai.reshape(zi.shape)
    ctx._certify(
        sums,
        ((i, np.array_equal(ar[k], ctx.theta[i] * zr[k])
          and np.array_equal(ai[k], ctx.theta[i] * zi[k]))
         for k, i in enumerate(window)))
    return list(zip(zr, zi))


def project(ctx, family, block, window):
    """(F_i V for i in window) for the rows V of block and the family
    F = E, Estar or Eeps of ctx, without building F; window = range(D + 1)
    is the full projection.

    Estar_i V masks slice i.  E_i V = 2^-D (V H) diag(wt = i) H with the
    Walsh-Hadamard matrix H, since E_i = 2^-D H diag(wt = i) H; every call
    is certified against ctx's A: the window parts sum to V, and
    A (E_i V) = theta_i E_i V for each i in the window, which force each
    part to be the exact theta_i-component of V and every component
    outside the window to be zero.  Eeps_i V = S^-1 E_i (S V) with
    S = diag(i^dist), certified through E on S V, not against Aeps.  When
    the window parts do not sum to V, OutsideWindow carries the full
    projection, with the full certificate."""
    if block.cols != ctx.n:
        raise ValueError(f"block has {block.cols} columns, expected {ctx.n}")
    full = range(ctx.D + 1)
    if family == "Estar":
        masks = _slice_masks(ctx)[list(window)]
        if (block.nonzero() & ~masks.any(axis=0)).any():
            raise OutsideWindow(project(ctx, family, block, full))
        re, im = block._re, block._im
        return tuple(ExactMatrix.from_numerators(re * mask, im * mask,
                                                 block._den)
                     for mask in masks)
    if family not in ("E", "Eeps"):
        raise ValueError(f"unknown idempotent family {family!r}")
    re, im = block._re, block._im
    if family == "Eeps":
        re, im = _times_i_power(re, im, ctx._dist)
    parts = _spectral_window(ctx, re, im, block._max(), window)
    if parts is None:
        raise OutsideWindow(project(ctx, family, block, full))
    out = []
    for zr, zi in parts:
        if family == "Eeps":
            zr, zi = _times_i_power(zr, zi, -ctx._dist)
        out.append(ExactMatrix.from_numerators(zr, zi, block._den * ctx.n))
    return tuple(out)


def window_images(ctx, family, block, window):
    """{i: family_i V} for the rows V of block over the window, whose
    certificate proves every part outside it zero; when V has content
    outside the window, {i: family_i V} for every i = 0..D."""
    try:
        return dict(zip(window, project(ctx, family, block, window)))
    except OutsideWindow as exc:
        return dict(enumerate(exc.parts))


def check_images_thin(parts, r, d, index, label):
    """dim(family_i W) <= 1 with the nonvanishing window r <= i <= r+d;
    parts maps i to the images under family_i of the slice basis, one per
    row, in ascending i.  Raises InvariantViolation naming what fails."""
    def fail(what):
        raise InvariantViolation(f"module r={r} index={index}: {what}")
    for i, images in parts.items():
        nonzero = images.nonzero().any(axis=1)
        in_window = r <= i <= r + d
        if in_window and not nonzero.any():
            fail(f"{label}_{i} W vanished inside the window")
        if not in_window and nonzero.any():
            fail(f"{label}_{i} W nonzero outside the window")
        if nonzero.any():
            p = int(nonzero.argmax())
            first = images.block(slice(p, p + 1), slice(None))
            if not proportional_rows(images, first).all():
                fail(f"dim({label}_{i} W) > 1 (not thin)")


def oracle_seeds(ctx, mod):
    """[u, u*, ue] over 2^D by projection: u = E_r u* and ue = Eeps_r u*
    for u* the first vector of the slice basis, after the thinness checks
    of the slice basis under E and Eeps."""
    window = range(mod.r, mod.r + mod.d + 1)
    first = {}
    for family in ("E", "Eeps"):
        parts = window_images(ctx, family, mod.slice_basis, window)
        check_images_thin(parts, mod.r, mod.d, mod.index, family)
        first[family] = parts[mod.r].block([0], slice(None))
    return ExactMatrix.stack([first["E"], mod.slice_basis.block(
        [0], slice(None)), first["Eeps"]])


def oracle_six_bases(ctx, mod, seeds=None):
    """The six bases of a module over 2^D, (6(d+1)) x 2^D in BASIS_LABELS
    order: the idempotent families projected onto the seeds over the
    window, with the checks of the bases.  Every vector must be nonzero,
    the bases must sum back to their seeds, and each must be the P-image
    of the one before it in its orbit under the chained normalization.
    The seeds are the module's own unless given (rows u, u*, ue)."""
    r, d = mod.r, mod.d
    n = d + 1
    seeds = mod.seeds if seeds is None else seeds
    chained = [seeds.block([0], slice(None))]
    for _ in range(3):
        chained.append(ctx.apply("P", chained[-1]))
    seeds = ExactMatrix.stack([seeds] + chained[1:])
    span = range(r, r + n)
    window = {}
    for family in ("E", "Estar", "Eeps"):
        images = window_images(ctx, family, seeds, span)
        window[family] = ExactMatrix.stack([images[i] for i in span])

    def basis(family, seed):
        k = _SEED_ROWS[seed]
        return window[family].block(slice(k, None, len(_SEED_ROWS)),
                                    slice(None))

    stacked = ExactMatrix.stack([basis(*_BASIS_SPEC[label])
                                 for label in BASIS_LABELS])
    zero = ~stacked.nonzero().any(axis=1)
    if zero.any():
        z = int(zero.argmax())
        raise BasisError(f"basis {BASIS_LABELS[z // n]} vector {z % n} is "
                         f"zero (module r={r} index={mod.index})")
    ones = np.ones((1, n), dtype=np.int64)
    ones = ExactMatrix.from_numerators(ones, 0 * ones, 1)
    for label in BASIS_LABELS:
        k = _SEED_ROWS[_BASIS_SPEC[label][1]]
        if ones @ basis(*_BASIS_SPEC[label]) != \
                seeds.block(slice(k, k + 1), slice(None)):
            raise BasisError(f"basis {label} does not sum back to its seed")
    shifted = ctx.apply("P", ExactMatrix.stack([basis(*lhs)
                                                for _, lhs, _ in _P_SHIFTS]))
    targets = ExactMatrix.stack([basis(*rhs) for _, _, rhs in _P_SHIFTS])
    failed = ~shifted.row_equal(targets).reshape(len(_P_SHIFTS), n)
    if failed.any():
        i, k = np.argwhere(failed.T)[0]
        raise BasisError(f"P-shift {_P_SHIFTS[k][0]} failed at slice {i} "
                         f"(module r={r} index={mod.index})")
    return stacked


def oracle_verdicts(ctx, mod, phi):
    """Every verdict of a module over 2^D columns, by exact elimination
    (BasisSolver) and cell-by-cell closed forms: (rep, inner, transitions,
    coherence, leonard) with rep a list of (basis, op, passed) in the
    order of verify_rep_matrices, inner a list of (check_id, i, j, passed)
    in the order of verify_inner_products, transitions {(src, dst): passed},
    coherence a list of (identity, passed) and leonard the recognizer's
    verdict on the rep matrices in basis AsA."""
    seeds = oracle_seeds(ctx, mod)
    stacked = oracle_six_bases(ctx, mod, seeds)
    n = mod.d + 1
    rows = {label: block_rows(stacked.block(slice(k * n, (k + 1) * n),
                                            slice(None)))
            for k, label in enumerate(BASIS_LABELS)}
    rep, triple = [], {}
    for label in BASIS_LABELS:
        for op in OPERATOR_LABELS:
            matrix = representation_matrix(getattr(ctx, op), rows[label])
            form = _FORM_BUILDERS[REP_FORMS[(op, label)]](mod.d)
            rep.append((label, op, matrix == form))
            if label == "AsA":
                triple[op] = matrix
    gram = stacked @ stacked.adjoint()
    seed_gram = seeds @ seeds.adjoint()
    names = ("u", "u*", "ue")
    scal = {f"{a}|{b}": seed_gram[i, j] for i, a in enumerate(names)
            for j, b in enumerate(names)}
    where = {label: k * n for k, label in enumerate(BASIS_LABELS)}
    inner_checks = []
    for (x, y), (kind, key) in INNER_FORMULAS.items():
        for i in range(n):
            for j in range(n):
                want = oracle_inner(kind, i, j, mod.d, scal[key], phi)
                inner_checks.append((f"inner[{x}|{y}]", i, j,
                                     gram[where[x] + i, where[y] + j] == want))
    omi_d = GaussRat(1, -1) ** mod.d
    for x, y, key, norm in _PROPORTIONAL_ROWS:
        for i in range(n):
            c = IUNIT ** i * omi_d * scal[key] / scal[norm]
            inner_checks.append((f"proportional[{x}|{y}]", i, i,
                                 rows[x][i] == rows[y][i].scale(c)))
    blocks = {label: ExactMatrix.stack(rows[label]) for label in BASIS_LABELS}
    T = {}
    for src in BASIS_LABELS:
        solver = BasisSolver(rows[src])
        for dst in BASIS_LABELS:
            T[(src, dst)] = solver.coords_matrix(blocks[dst])
    transitions = {(s, t): T[(s, t)] == oracle_transition(s, t, scal, phi)
                   for (s, t) in T}
    ident = ExactMatrix.identity(n)
    coherence = [(f"transition_inverse[{a}|{b}]",
                  T[(a, b)] @ T[(b, a)] == ident)
                 for a in BASIS_LABELS for b in BASIS_LABELS if a < b]
    coherence += [(f"transition_composition[{a}|{b}|{c}]",
                   T[(a, b)] @ T[(b, c)] == T[(a, c)])
                  for a in BASIS_LABELS for b in BASIS_LABELS
                  for c in BASIS_LABELS]
    leonard = naive_is_leonard_triple(*(triple[op]
                                        for op in OPERATOR_LABELS)).verdict
    return rep, inner_checks, transitions, coherence, leonard


def dense_idempotent_families(ctx):
    """cube.verify_idempotent_families by dense 2^D x 2^D products: every
    identity of the suite on the full matrices, in the same order."""
    n, D = ctx.n, ctx.D
    ident = ExactMatrix.identity(n)
    checks = []
    ones = np.ones((n, n), dtype=np.int64)
    allones = ExactMatrix.from_numerators(ones, 0 * ones, 1)
    families = (("E", ctx.E), ("Estar", ctx.Estar), ("Eeps", ctx.Eeps))
    checks.append(check_equal("E_trivial_allones", families[0][1][0].scale(n),
                              allones))
    for label, family in families:
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
    for i, e in enumerate(families[2][1]):
        spectral = spectral + e.scale(D - 2 * i)
        checks.append(check_equal(f"Eeps_eigen[{i}]", ctx.Aeps @ e,
                                  e.scale(D - 2 * i)))
        checks.append(check_equal(f"Eeps_eigen_right[{i}]", e @ ctx.Aeps,
                                  e.scale(D - 2 * i)))
    checks.append(check_equal("Aeps_spectral_sum", spectral, ctx.Aeps))
    proven = {c.identity: c.passed for c in checks}
    for label, family in families:
        for i, e in enumerate(family):
            checks.append(check_true(f"{label}_rank[{i}]",
                                     proven[f"{label}_product[{i},{i}]"]
                                     and e.trace() == math.comb(D, i)))
    return checks


def p_inverse(ctx):
    """P^-1 = P^* / n, densely."""
    return ctx.P.adjoint().scale(Fraction(1, ctx.n))


def dense_conjugation(ctx):
    """cube.verify_conjugation by dense 2^D x 2^D products."""
    n, D = ctx.n, ctx.D
    pinv = p_inverse(ctx)
    ident = ExactMatrix.identity(n)
    scaled = ident.scale(n)
    p3_scalar = GaussRat(1, -1) ** D * n
    checks = [
        check_equal("P_unitary_scaled", ctx.P @ ctx.P.adjoint(), scaled),
        check_equal("P_unitary_scaled_right", ctx.P.adjoint() @ ctx.P, scaled),
        check_equal("P_cubed", ctx.P @ ctx.P @ ctx.P, ident.scale(p3_scalar)),
        check_equal("conj_A_to_Astar", ctx.P @ ctx.A @ pinv, ctx.Astar),
        check_equal("conj_Astar_to_Aeps", ctx.P @ ctx.Astar @ pinv, ctx.Aeps),
        check_equal("conj_Aeps_to_A", ctx.P @ ctx.Aeps @ pinv, ctx.A),
    ]
    E, Estar, Eeps = ctx.E, ctx.Estar, ctx.Eeps
    for i in range(D + 1):
        checks.append(check_equal(f"conj_E_to_Estar[{i}]",
                                  ctx.P @ E[i] @ pinv, Estar[i]))
        checks.append(check_equal(f"conj_Estar_to_Eeps[{i}]",
                                  ctx.P @ Estar[i] @ pinv, Eeps[i]))
        checks.append(check_equal(f"conj_Eeps_to_E[{i}]",
                                  ctx.P @ Eeps[i] @ pinv, E[i]))
    return checks


def gather_eigen_discrepancy(ctx, op, m, theta, right=False):
    """None when op @ m, or m @ op when right, equals theta m, else the
    (row, col) of its first differing entry, row-major; op = A or Aeps, m
    any n x n matrix.  The product is the full one, by the edge gather of
    ctx's stored op: op @ m = (m^T op^T)^T is the rows of m^T through op's
    gather, and m @ op the rows of m through the gather of op^T, with
    op^T[y, y ^ s] = op[y ^ s, y]."""
    table = ctx._gather_table(op)
    if right:
        rows, k = table.columns(), np.arange(len(table.shifts))
        table = _Gather(table.shifts, table.re[rows, k], table.im[rows, k])
        block = m
    else:
        block = m.transpose()
    top = block._max()
    re, im = table.apply(block._re, block._im, top)
    want_re, want_im = (a * theta for a in block.ints(
        max(top, 1) * max(abs(theta), 1)))
    differ = np.not_equal(re, want_re) | np.not_equal(im, want_im)
    if not differ.any():
        return None
    return tuple(np.argwhere(differ if right else differ.T)[0].tolist())


def dense_commutators(ctx):
    """cube.verify_commutators by dense 2^D x 2^D products."""
    A, As, Ae = ctx.A, ctx.Astar, ctx.Aeps
    two_i = GaussRat(0, 2)
    return [
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


def dense_certify_idempotents(ctx, family):
    """CubeContext._certify_idempotents by dense products: the parts sum
    to I, then A E_i = theta_i E_i for each part, with ctx's stored A."""
    ctx._certify(ExactMatrix.combination(family) == ExactMatrix.identity(ctx.n),
                 ((i, ctx.A @ e == e.scale(ctx.theta[i]))
                  for i, e in enumerate(family)))
