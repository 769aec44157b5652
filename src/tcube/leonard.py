"""Six bases per irreducible module and everything verified against them.

For a module with endpoint r and diameter d the six bases are labeled by
which operator acts diagonally and which seed generates them:

    AsA  = (Estar_{r+i} u)_i      AeA  = (Eeps_{r+i} u)_i
    AeAs = (Eeps_{r+i} u*)_i      AAs  = (E_{r+i} u*)_i
    AAe  = (E_{r+i} ue)_i         AsAe = (Estar_{r+i} ue)_i

with u, u*, ue the seeds in E_r W, Estar_r W, Eeps_r W.  The module provides:

  * the terminating hypergeometric values 2F1(-i,-j;-d;2) (Krawtchouk values
    at p = 1/2) and the matrix Phi_ij = C(d,j) * 2F1(-i,-j;-d;2);
  * exact representation matrices of A, Astar, Aeps in all six bases and a
    comparison against the four closed forms (one diagonal and three
    tridiagonal shapes);
  * the full grid of inner products between bases, checked against the
    closed-form values built from the seeds' mutual inner products;
  * the 36 transition matrices, computed by exact change of basis and
    compared to the closed-form tables, including inverse and composition
    coherence;
  * a generic Leonard-triple recognizer working over Q(i).

The six bases come from one call per idempotent family on the stacked seeds
(`CubeContext.project`), and every operator acts on a whole basis at once
(`CubeContext.apply`).  Each basis is the image of one seed under a family
of Hermitian orthogonal idempotents, so it is orthogonal: coordinates are
<t, b_k> / <b_k, b_k>, once the basis's Gram block is seen to be diagonal,
and every solve is certified by exact reconstruction.  Only the Leonard
recognizer, whose eigenbases need not be orthogonal, eliminates.

Each module's checks are whole-matrix operations.  The closed forms are
tables of Gaussian-integer numerators, built once per Phi matrix (one per
inner-product kind and one per transition pattern) and scaled per module by
one seed scalar; the nine seed inner products are computed once per module.
The inner products are the blocks of one Gram matrix of the six stacked
bases, each compared with its scaled table entry by entry.  The rep matrices
are one coordinate call per basis; the 36 transitions are one per source
basis on all six bases at once, and the inverse and composition rows are
the blocks of one product per middle basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .cube import CubeContext
from .decomposition import IrreducibleModule
from .linalg import (ExactMatrix, ExactVector, SingularMatrixError, inner,
                     kernel_basis, pivot_inverse)
from .report import IdentityCheck, check_true
from .scalar import GaussRat

BASIS_LABELS = ("AsA", "AeA", "AeAs", "AAs", "AAe", "AsAe")
OPERATOR_LABELS = ("A", "Astar", "Aeps")


class BasisError(RuntimeError):
    """A constructed basis violated its defining properties."""


# -- hypergeometric values and the Phi matrix -----------------------------------


def hypergeometric_2f1(i: int, j: int, d: int) -> Fraction:
    """Terminating 2F1(-i,-j;-d;2); the sum stops at n = min(i,j), before
    the (-d)_n factor can vanish."""
    if d < 0 or not (0 <= i <= d and 0 <= j <= d):
        raise ValueError(f"need 0 <= i,j <= d, got i={i} j={j} d={d}")
    top = min(i, j)
    total = Fraction(0)
    term = Fraction(1)
    for n in range(top + 1):
        total += term
        if n < top:
            term *= Fraction((-i + n) * (-j + n) * 2, (-d + n) * (n + 1))
    return total


@dataclass(frozen=True)
class PhiMatrix:
    """Phi_ij = C(d,j) * 2F1(-i,-j;-d;2); self-inverse up to 2^d."""

    d: int
    hyper: Tuple[Tuple[Fraction, ...], ...]

    def f(self, i: int, j: int) -> Fraction:
        return self.hyper[i][j]

    def phi(self, i: int, j: int) -> Fraction:
        return math.comb(self.d, j) * self.hyper[i][j]

    def numerators(self) -> Tuple[np.ndarray, int]:
        """Phi as an object array of integers over one positive
        denominator (1 unless an entry has been replaced)."""
        n = self.d + 1
        grid = [[self.phi(i, j) for j in range(n)] for i in range(n)]
        den = math.lcm(*(x.denominator for row in grid for x in row))
        num = np.array([[x.numerator * (den // x.denominator) for x in row]
                        for row in grid], dtype=object).reshape(n, n)
        return num, den

    def matrix(self) -> ExactMatrix:
        num, den = self.numerators()
        return ExactMatrix.from_numerators(num, np.zeros_like(num), den)

    def with_flipped_entry(self, i: int, j: int) -> "PhiMatrix":
        """Sign-flip one hypergeometric value (testing hook; the flipped
        Phi entry is C(d,j) times it)."""
        grid = [list(row) for row in self.hyper]
        grid[i][j] = -grid[i][j]
        return PhiMatrix(self.d, tuple(tuple(row) for row in grid))


@lru_cache(maxsize=None)
def phi_matrix(d: int) -> PhiMatrix:
    if d < 0:
        raise ValueError("d must be nonnegative")
    grid = tuple(tuple(hypergeometric_2f1(i, j, d) for j in range(d + 1))
                 for i in range(d + 1))
    phi = PhiMatrix(d, grid)
    bad = [c for c in verify_phi(phi) if not c.passed]
    if bad:
        raise BasisError(f"hypergeometric table failed self-checks: {bad[:3]}")
    return phi


def verify_phi(phi: PhiMatrix) -> List[IdentityCheck]:
    """Three-term recurrence (an independent route to the same values),
    boundary rows/columns, and self-inversion up to 2^d."""
    d = phi.d
    checks = []
    for j in range(d + 1):
        checks.append(check_true(f"phi_row0[{j}]",
                                 phi.phi(0, j) == math.comb(d, j)))
    for i in range(d + 1):
        checks.append(check_true(f"phi_col0[{i}]", phi.f(i, 0) == 1))
    for i in range(2, d + 1):
        for j in range(d + 1):
            lhs = phi.f(i, j)
            rhs = (Fraction(d - 2 * j, d - i + 1) * phi.f(i - 1, j)
                   - Fraction(i - 1, d - i + 1) * phi.f(i - 2, j))
            checks.append(check_true(f"phi_recurrence[{i},{j}]", lhs == rhs))
    m = phi.matrix()
    checks.append(check_true("phi_self_inverse",
                             m @ m == ExactMatrix.identity(d + 1).scale(2 ** d)))
    return checks


# -- exact coordinates in a basis -------------------------------------------------


class BasisSolver:
    """Exact coordinates with respect to a fixed independent list of vectors
    that need not be orthogonal (the Leonard recognizer's eigenbases).

    Elimination locates coordinate positions whose square submatrix is
    invertible; that inverse is computed once, and every solve is certified
    by reconstructing the targets exactly.  `stacked` holds the vectors as
    the rows of a block.
    """

    def __init__(self, vectors: List[ExactVector]):
        self.stacked = ExactMatrix.stack(list(vectors))
        try:
            self.positions, sub_inverse = pivot_inverse(self.stacked)
        except SingularMatrixError:
            raise BasisError("vectors are linearly dependent") from None
        # target[positions] = sub^T @ coords, with sub = stacked[:, positions]
        self.inverse = sub_inverse.transpose()

    def coords(self, target: ExactVector) -> ExactVector:
        """The coordinates of one target: the one-column coords_matrix."""
        return self.coords_matrix(ExactMatrix.stack([target])).column(0)

    def coords_matrix(self, targets: ExactMatrix) -> ExactMatrix:
        """The matrix whose j-th column holds the coordinates of row j of
        targets: inverse @ targets[:, positions]^T, certified by the one
        product coords^T @ stacked == targets."""
        coeffs = self.inverse @ targets.columns(self.positions).transpose()
        if coeffs.transpose() @ self.stacked != targets:
            raise BasisError("target is outside the span of the basis")
        return coeffs


def representation_matrix(op: ExactMatrix, basis: List[ExactVector],
                          solver: Optional[BasisSolver] = None) -> ExactMatrix:
    """Matrix B with op @ v_j = sum_i B_ij v_i, extracted by exact solving."""
    solver = solver or BasisSolver(basis)
    return solver.coords_matrix(solver.stacked @ op.transpose())


# -- the six bases ------------------------------------------------------------------


@dataclass(frozen=True)
class SixBases:
    module: IrreducibleModule
    vectors: Dict[str, Tuple[ExactVector, ...]]

    def __getitem__(self, label: str) -> Tuple[ExactVector, ...]:
        return self.vectors[label]

    @cached_property
    def stacked(self) -> ExactMatrix:
        """All six bases as the rows of one block, in BASIS_LABELS order;
        `rows(label)` is the slice of one basis."""
        return ExactMatrix.stack([v for label in BASIS_LABELS
                                  for v in self.vectors[label]])

    def rows(self, label: str) -> slice:
        n = self.module.d + 1
        k = BASIS_LABELS.index(label)
        return slice(k * n, (k + 1) * n)

    @cached_property
    def gram(self) -> ExactMatrix:
        """stacked @ stacked^*: entry (a, b) is <row a, row b>."""
        return self.stacked @ self.stacked.adjoint()

    def coords(self, label: str, targets: ExactMatrix) -> ExactMatrix:
        """The matrix whose j-th column holds the coordinates of row j of
        targets in basis `label`: coordinate k is <t, b_k> / <b_k, b_k>,
        once the basis's Gram block is seen to be diagonal with a nonzero
        diagonal, certified by the one product coords^T @ basis == targets."""
        rows = self.rows(label)
        norms = self.gram.block(rows, rows)
        if not np.array_equal(norms.nonzero(), np.eye(norms.rows, dtype=bool)):
            raise BasisError(f"basis {label} is not orthogonal (module "
                             f"r={self.module.r} index={self.module.index})")
        basis = self.stacked.block(rows, slice(None))
        inverse_norms = ExactMatrix.diagonal(
            [1 / norms[k, k] for k in range(norms.rows)])
        coeffs = inverse_norms @ (targets @ basis.adjoint()).transpose()
        if coeffs.transpose() @ basis != targets:
            raise BasisError("target is outside the span of the basis")
        return coeffs

    @cached_property
    def seed_scalars(self) -> Dict[str, GaussRat]:
        """The nine inner products of the seeds, once per module; the
        inner-product, proportionality and transition checks share them."""
        mod = self.module
        u, us, ue = mod.u, mod.u_star, mod.u_eps
        return {
            "u|u": inner(u, u), "u*|u*": inner(us, us), "ue|ue": inner(ue, ue),
            "u|u*": inner(u, us), "u*|u": inner(us, u),
            "u|ue": inner(u, ue), "ue|u": inner(ue, u),
            "u*|ue": inner(us, ue), "ue|u*": inner(ue, us),
        }


# Rows of the seed block of build_six_bases: the module's seeds u, u*, ue,
# then the chained seeds Pu, P^2 u, P^3 u.
_SEED_ROWS = {"u": 0, "u*": 1, "ue": 2, "Pu": 3, "P2u": 4, "P3u": 5}

# basis label -> (idempotent family, seed); vector i is family_(r+i) seed
_BASIS_SPEC = {"AsA": ("Estar", "u"), "AeA": ("Eeps", "u"),
               "AeAs": ("Eeps", "u*"), "AAs": ("E", "u*"),
               "AAe": ("E", "ue"), "AsAe": ("Estar", "ue")}

# With seeds chained by P (u* := Pu, ue := Pu*), each basis is the entrywise
# P-image of its predecessor: P family_a(seed_a) = family_b(seed_b).
_P_SHIFTS = (
    ("AsA->AeAs", ("Estar", "u"), ("Eeps", "Pu")),
    ("AeAs->AAe", ("Eeps", "Pu"), ("E", "P2u")),
    ("AAe->AsA", ("E", "P2u"), ("Estar", "P3u")),
    ("AeA->AAs", ("Eeps", "u"), ("E", "Pu")),
    ("AAs->AsAe", ("E", "Pu"), ("Estar", "P2u")),
    ("AsAe->AeA", ("Estar", "P2u"), ("Eeps", "P3u")),
)


def build_six_bases(ctx: CubeContext, mod: IrreducibleModule) -> SixBases:
    """Apply the idempotent families to the seeds; every vector must be
    nonzero, the seeds must decompose as the sums of their slices, and the
    bases must be P-images of each other under the chained normalization.

    One call per family on the block [u, u*, ue, Pu, P^2 u, P^3 u] gives
    every vector of the six bases and of the P-shift checks."""
    r, d = mod.r, mod.d
    chained = [ExactMatrix.stack([mod.u])]
    for _ in range(3):
        chained.append(ctx.apply("P", chained[-1]))
    seeds = ExactMatrix.stack([mod.u, mod.u_star, mod.u_eps]
                              + [c.row(0) for c in chained[1:]])
    window = {family: ctx.project(family, seeds)[r:r + d + 1]
              for family in ("E", "Estar", "Eeps")}

    def vector(family, seed, i):
        return window[family][i].row(_SEED_ROWS[seed])

    vectors = {}
    for label, (family, seed) in _BASIS_SPEC.items():
        vs = tuple(vector(family, seed, i) for i in range(d + 1))
        for i, v in enumerate(vs):
            if v.is_zero():
                raise BasisError(f"basis {label} vector {i} is zero "
                                 f"(module r={r} index={mod.index})")
        vectors[label] = vs
    for label, (_, seed) in _BASIS_SPEC.items():
        total = vectors[label][0]
        for v in vectors[label][1:]:
            total = total + v
        if total != seeds.row(_SEED_ROWS[seed]):
            raise BasisError(f"basis {label} does not sum back to its seed")
    _check_p_shift(ctx, mod, vector)
    return SixBases(module=mod, vectors=vectors)


def _check_p_shift(ctx: CubeContext, mod: IrreducibleModule, vector) -> None:
    """Each pair of _P_SHIFTS at each slice i, with one P pass over all the
    left-hand sides; vector(family, seed, i) is family_(r+i) seed."""
    rows = [(i, name, lhs, rhs) for i in range(mod.d + 1)
            for name, lhs, rhs in _P_SHIFTS]
    shifted = ctx.apply("P", ExactMatrix.stack([vector(*lhs, i)
                                                for i, _, lhs, _ in rows]))
    targets = ExactMatrix.stack([vector(*rhs, i) for i, _, _, rhs in rows])
    for (i, name, _, _), ok in zip(rows, shifted.row_equal(targets)):
        if not ok:
            raise BasisError(f"P-shift {name} failed at slice {i} "
                             f"(module r={mod.r} index={mod.index})")


# -- representation matrices ----------------------------------------------------------


@lru_cache(maxsize=None)
def diagonal_form(d: int) -> ExactMatrix:
    return ExactMatrix.diagonal([d - 2 * i for i in range(d + 1)])


def _tridiag(d: int, sub_sign: int, super_sign: int,
             imaginary: bool) -> ExactMatrix:
    sub = np.array([sub_sign * i for i in range(1, d + 1)], dtype=object)
    sup = np.array([super_sign * (d - i) for i in range(d)], dtype=object)
    band = np.diag(sub, -1) + np.diag(sup, 1)
    zero = np.zeros_like(band)
    re, im = (zero, band) if imaginary else (band, zero)
    return ExactMatrix.from_numerators(re, im, 1)


@lru_cache(maxsize=None)
def tridiagonal_form(d: int) -> ExactMatrix:
    """Real tridiagonal: subdiagonal 1..d, superdiagonal d..1, zero diagonal."""
    return _tridiag(d, +1, +1, imaginary=False)


@lru_cache(maxsize=None)
def itridiagonal_subneg_form(d: int) -> ExactMatrix:
    """i times the tridiagonal shape with negated subdiagonal."""
    return _tridiag(d, -1, +1, imaginary=True)


@lru_cache(maxsize=None)
def itridiagonal_superneg_form(d: int) -> ExactMatrix:
    """i times the tridiagonal shape with negated superdiagonal."""
    return _tridiag(d, +1, -1, imaginary=True)


REP_FORMS = {
    ("A", "AAs"): "diagonal", ("A", "AAe"): "diagonal",
    ("A", "AsA"): "tridiagonal", ("A", "AeA"): "tridiagonal",
    ("A", "AeAs"): "itridiagonal_subneg",
    ("A", "AsAe"): "itridiagonal_superneg",
    ("Astar", "AsA"): "diagonal", ("Astar", "AsAe"): "diagonal",
    ("Astar", "AeAs"): "tridiagonal", ("Astar", "AAs"): "tridiagonal",
    ("Astar", "AAe"): "itridiagonal_subneg",
    ("Astar", "AeA"): "itridiagonal_superneg",
    ("Aeps", "AeA"): "diagonal", ("Aeps", "AeAs"): "diagonal",
    ("Aeps", "AAe"): "tridiagonal", ("Aeps", "AsAe"): "tridiagonal",
    ("Aeps", "AsA"): "itridiagonal_subneg",
    ("Aeps", "AAs"): "itridiagonal_superneg",
}

_FORM_BUILDERS = {
    "diagonal": diagonal_form,
    "tridiagonal": tridiagonal_form,
    "itridiagonal_subneg": itridiagonal_subneg_form,
    "itridiagonal_superneg": itridiagonal_superneg_form,
}


@dataclass(frozen=True)
class RepCell:
    basis: str
    op: str
    form: str
    passed: bool
    matrix: ExactMatrix


def cube_representations(ctx: CubeContext, bases: SixBases,
                         label: str) -> Tuple[ExactMatrix, ...]:
    """The matrices of A, Astar and Aeps (OPERATOR_LABELS order) in basis
    `label`: one coordinate call on the stacked images of the basis under
    the three operators."""
    basis = bases.stacked.block(bases.rows(label), slice(None))
    coeffs = bases.coords(label, ExactMatrix.stack(
        [ctx.apply(op, basis) for op in OPERATOR_LABELS]))
    n = basis.rows
    return tuple(coeffs.block(slice(None), slice(k * n, (k + 1) * n))
                 for k in range(len(OPERATOR_LABELS)))


def verify_rep_matrices(ctx: CubeContext, bases: SixBases) -> List[RepCell]:
    """The full 6 bases x 3 operators grid against the closed forms."""
    d = bases.module.d
    cells = []
    for label in BASIS_LABELS:
        reps = cube_representations(ctx, bases, label)
        for op_name, got in zip(OPERATOR_LABELS, reps):
            form = REP_FORMS[(op_name, label)]
            cells.append(RepCell(basis=label, op=op_name, form=form,
                                 passed=got == _FORM_BUILDERS[form](d),
                                 matrix=got))
    return cells


# -- closed-form tables ----------------------------------------------------------------

# i ** k for k mod 4, as real and imaginary parts
_IPOW_RE = np.array([1, 0, -1, 0], dtype=object)
_IPOW_IM = np.array([0, 1, 0, -1], dtype=object)


def _unit_power(sign: int, d: int) -> Tuple[int, int]:
    """(1 + sign i) ** d as (real part, imaginary part)."""
    re, im = 1, 0
    for _ in range(d):
        re, im = re - sign * im, im + sign * re
    return re, im


def _gauss_table(weights, power, unit: Tuple[int, int],
                 den: int) -> ExactMatrix:
    """The matrix weights * i ** power * unit / den from integer arrays
    (weights, power) and a Gaussian integer unit."""
    k = np.mod(power, 4)
    pr, pi = _IPOW_RE[k], _IPOW_IM[k]
    ur, ui = unit
    return ExactMatrix.from_numerators(weights * (pr * ur - pi * ui),
                                       weights * (pr * ui + pi * ur), den)


@lru_cache(maxsize=None)
def _ipow_diagonal(d: int, sign: int) -> ExactMatrix:
    """diag(i ** (sign k)) for k = 0..d."""
    k = np.arange(d + 1)
    return _gauss_table(np.diag(np.ones(d + 1, dtype=object)),
                        sign * k[:, None], (1, 0), 1)


@lru_cache(maxsize=None)
def inner_tables(phi: PhiMatrix) -> Mapping[str, ExactMatrix]:
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
    num, q = phi.numerators()
    pair = binom[:, None] * num
    delta = np.diag(binom)
    one = (1, 0)
    return MappingProxyType({
        "delta": _gauss_table(delta, 0, one, 2 ** d),
        "delta_ipow": _gauss_table(delta, i, _unit_power(-1, d), 2 ** d),
        "f": _gauss_table(pair, 0, one, 2 ** d * q),
        "f_ipow_j": _gauss_table(pair, j, one, 2 ** d * q),
        "f_ipow_i": _gauss_table(pair, i, one, 2 ** d * q),
        "f_ipow_negij": _gauss_table(pair, -i - j, _unit_power(+1, d),
                                     4 ** d * q),
    })


@lru_cache(maxsize=None)
def transition_tables(phi: PhiMatrix) -> Mapping[str, ExactMatrix]:
    """Each pattern of TRANSITION_TABLE before its prefactor: i^power(i,j)
    Phi_ij for the power patterns, diag(i^k) for D1 and diag(i^-k) for
    D2."""
    d = phi.d
    i, j = np.indices((d + 1, d + 1))
    num, q = phi.numerators()
    tables = {name: _gauss_table(num, power(i, j), (1, 0), q)
              for name, power in _POWER_PATTERNS.items()}
    tables["D1"] = _ipow_diagonal(d, +1)
    tables["D2"] = _ipow_diagonal(d, -1)
    return MappingProxyType(tables)


# -- inner products ------------------------------------------------------------------


@dataclass(frozen=True)
class GridCheck:
    check_id: str
    i: int
    j: int
    passed: bool


# (first basis, second basis) -> (formula kind, seed scalar key); the value of
# <first[i], second[j]> is the kind evaluated at (i, j) times the seed scalar.
INNER_FORMULAS = {
    ("AsA", "AsA"): ("delta", "u|u"),
    ("AeA", "AeA"): ("delta", "u|u"),
    ("AeAs", "AeAs"): ("delta", "u*|u*"),
    ("AAs", "AAs"): ("delta", "u*|u*"),
    ("AAe", "AAe"): ("delta", "ue|ue"),
    ("AsAe", "AsAe"): ("delta", "ue|ue"),
    ("AAe", "AAs"): ("delta_ipow", "ue|u*"),
    ("AsA", "AsAe"): ("delta_ipow", "u|ue"),
    ("AeAs", "AeA"): ("delta_ipow", "u*|u"),
    ("AAs", "AsA"): ("f", "u*|u"),
    ("AsAe", "AeAs"): ("f", "ue|u*"),
    ("AeA", "AAe"): ("f", "u|ue"),
    ("AAs", "AsAe"): ("f_ipow_j", "u*|ue"),
    ("AsAe", "AeA"): ("f_ipow_j", "ue|u"),
    ("AeA", "AAs"): ("f_ipow_j", "u|u*"),
    ("AAe", "AsA"): ("f_ipow_i", "ue|u"),
    ("AsA", "AeAs"): ("f_ipow_i", "u|u*"),
    ("AeAs", "AAe"): ("f_ipow_i", "u*|ue"),
    ("AAs", "AeAs"): ("f_ipow_negij", "u*|u*"),
    ("AsAe", "AAe"): ("f_ipow_negij", "ue|ue"),
    ("AeA", "AsA"): ("f_ipow_negij", "u|u"),
}


def verify_inner_products(bases: SixBases, phi: PhiMatrix) -> List[GridCheck]:
    """Every pairing of the closed-form inner-product theorems, all (i, j):
    each block of the Gram matrix of the six stacked bases against its
    table scaled by the seed scalar."""
    n = bases.module.d + 1
    gram = bases.gram
    scal = bases.seed_scalars
    tables = inner_tables(phi)
    checks = []
    for (x, y), (kind, key) in INNER_FORMULAS.items():
        ok = gram.block(bases.rows(x), bases.rows(y)).entries_equal(
            tables[kind].scale(scal[key]))
        checks.extend(GridCheck(f"inner[{x}|{y}]", i, j, bool(ok[i, j]))
                      for i in range(n) for j in range(n))
    checks.extend(_verify_slice_proportionality(bases))
    return checks


def _verify_slice_proportionality(bases: SixBases) -> List[GridCheck]:
    """The slicewise proportionality between bases sharing an idempotent
    family: each AAe (resp. AsA, AeAs) vector is an explicit multiple of the
    matching AAs (resp. AsAe, AeA) vector, i^i (1-i)^d times a ratio of seed
    scalars."""
    d = bases.module.d
    stacked = bases.stacked
    scal = bases.seed_scalars
    omi_d = GaussRat(1, -1) ** d
    every = slice(None)
    checks = []
    for x, y, key, norm in (("AAe", "AAs", "ue|u*", "u*|u*"),
                            ("AsA", "AsAe", "u|ue", "ue|ue"),
                            ("AeAs", "AeA", "u*|u", "u|u")):
        coeffs = _ipow_diagonal(d, +1).scale(omi_d * scal[key] / scal[norm])
        ok = stacked.block(bases.rows(x), every).row_equal(
            coeffs @ stacked.block(bases.rows(y), every))
        checks.extend(GridCheck(f"proportional[{x}|{y}]", i, i, bool(v))
                      for i, v in enumerate(ok))
    return checks


# -- transition matrices ----------------------------------------------------------------


# (src, dst) -> (i-power pattern over the Phi grid | D1 | D2, prefactor kind)
# Prefactor kinds: ("unit", sign_exp) for (1 -+ i)^(+-d) alone, or
# (seed_key, norm_key, extra) with extra in {None, "omi", "opi"}.
TRANSITION_TABLE = {
    ("AsA", "AeA"): ("neg_sum", ("unit", "omi_inv")),
    ("AsA", "AeAs"): ("neg_i", ("u*|u", "u|u", None)),
    ("AsA", "AAs"): ("zero", ("u*|u", "u|u", None)),
    ("AsA", "AAe"): ("j", ("ue|u", "u|u", None)),
    ("AsA", "AsAe"): ("D2", ("ue|u", "u|u", "opi")),
    ("AeA", "AsA"): ("sum", ("unit", "opi_inv")),
    ("AeA", "AeAs"): ("D1", ("u*|u", "u|u", "omi")),
    ("AeA", "AAs"): ("neg_j", ("u*|u", "u|u", None)),
    ("AeA", "AAe"): ("zero", ("ue|u", "u|u", None)),
    ("AeA", "AsAe"): ("i", ("ue|u", "u|u", None)),
    ("AeAs", "AsA"): ("j", ("u|u*", "u*|u*", None)),
    ("AeAs", "AeA"): ("D2", ("u|u*", "u*|u*", "opi")),
    ("AeAs", "AAs"): ("neg_sum", ("unit", "omi_inv")),
    ("AeAs", "AAe"): ("neg_i", ("ue|u*", "u*|u*", None)),
    ("AeAs", "AsAe"): ("zero", ("ue|u*", "u*|u*", None)),
    ("AAs", "AsA"): ("zero", ("u|u*", "u*|u*", None)),
    ("AAs", "AeA"): ("i", ("u|u*", "u*|u*", None)),
    ("AAs", "AeAs"): ("sum", ("unit", "opi_inv")),
    ("AAs", "AAe"): ("D1", ("ue|u*", "u*|u*", "omi")),
    ("AAs", "AsAe"): ("neg_j", ("ue|u*", "u*|u*", None)),
    ("AAe", "AsA"): ("neg_i", ("u|ue", "ue|ue", None)),
    ("AAe", "AeA"): ("zero", ("u|ue", "ue|ue", None)),
    ("AAe", "AeAs"): ("j", ("u*|ue", "ue|ue", None)),
    ("AAe", "AAs"): ("D2", ("u*|ue", "ue|ue", "opi")),
    ("AAe", "AsAe"): ("neg_sum", ("unit", "omi_inv")),
    ("AsAe", "AsA"): ("D1", ("u|ue", "ue|ue", "omi")),
    ("AsAe", "AeA"): ("neg_j", ("u|ue", "ue|ue", None)),
    ("AsAe", "AeAs"): ("zero", ("u*|ue", "ue|ue", None)),
    ("AsAe", "AAs"): ("i", ("u*|ue", "ue|ue", None)),
    ("AsAe", "AAe"): ("sum", ("unit", "opi_inv")),
}

_POWER_PATTERNS = {
    "zero": lambda i, j: 0, "i": lambda i, j: i, "j": lambda i, j: j,
    "neg_i": lambda i, j: -i, "neg_j": lambda i, j: -j,
    "sum": lambda i, j: i + j, "neg_sum": lambda i, j: -i - j,
}


def _prefactor(spec, d: int, scal: Dict[str, GaussRat]) -> GaussRat:
    opi, omi = GaussRat(1, 1), GaussRat(1, -1)
    if spec[0] == "unit":
        return opi ** (-d) if spec[1] == "opi_inv" else omi ** (-d)
    key, norm, extra = spec
    scale = scal[key] / scal[norm]
    if extra == "omi":
        scale = scale * omi ** d
    elif extra == "opi":
        scale = scale * opi ** d
    return scale


def transition_formulas(scal: Dict[str, GaussRat], phi: PhiMatrix
                        ) -> Dict[Tuple[str, str], ExactMatrix]:
    """The closed-form transition matrix of every (src, dst): the identity
    when src == dst, else the pattern table of TRANSITION_TABLE scaled by
    its prefactor, which `scal` (the seed scalars) determines."""
    d = phi.d
    tables = transition_tables(phi)
    ident = ExactMatrix.identity(d + 1)
    scales = {}
    formulas = {}
    for src in BASIS_LABELS:
        for dst in BASIS_LABELS:
            if src == dst:
                formulas[(src, dst)] = ident
                continue
            pattern, spec = TRANSITION_TABLE[(src, dst)]
            if spec not in scales:
                scales[spec] = _prefactor(spec, d, scal)
            formulas[(src, dst)] = tables[pattern].scale(scales[spec])
    return formulas


@dataclass(frozen=True)
class TransitionCell:
    src: str
    dst: str
    passed: bool
    computed: ExactMatrix
    formula: ExactMatrix


@dataclass(frozen=True)
class TransitionReport:
    module: IrreducibleModule
    cells: Dict[Tuple[str, str], TransitionCell]
    coherence: Tuple[IdentityCheck, ...]

    def all_passed(self) -> bool:
        return (all(c.passed for c in self.cells.values())
                and all(c.passed for c in self.coherence))

    def failures(self) -> List[str]:
        out = [f"{s}->{t}" for (s, t), c in self.cells.items() if not c.passed]
        out.extend(c.identity for c in self.coherence if not c.passed)
        return out


def transition_matrices(bases: SixBases, phi: PhiMatrix) -> TransitionReport:
    """All 36 transitions: direct change-of-basis vs closed form, then
    inverse and composition coherence on the computed matrices.

    The coordinates of all six bases in one source basis are one coords
    call, so the transitions are the blocks of a 6(d+1) x 6(d+1) matrix T
    (row block src, column block dst); for each middle basis b, block (a, c)
    of T[:, b] @ T[b, :] is T(a,b) T(b,c)."""
    mod = bases.module
    computed = ExactMatrix.stack([bases.coords(label, bases.stacked)
                                  for label in BASIS_LABELS])
    formulas = transition_formulas(bases.seed_scalars, phi)
    rows = {label: bases.rows(label) for label in BASIS_LABELS}
    cells = {}
    for src in BASIS_LABELS:
        for dst in BASIS_LABELS:
            mat = computed.block(rows[src], rows[dst])
            formula = formulas[(src, dst)]
            cells[(src, dst)] = TransitionCell(src=src, dst=dst,
                                               passed=mat == formula,
                                               computed=mat, formula=formula)
    every = slice(None)
    through = {b: computed.block(every, rows[b])
               @ computed.block(rows[b], every) for b in BASIS_LABELS}
    agrees = {b: through[b].entries_equal(computed) for b in BASIS_LABELS}
    ident = ExactMatrix.identity(mod.d + 1)
    coherence = []
    for a in BASIS_LABELS:
        for b in BASIS_LABELS:
            if a < b:
                ok = through[b].block(rows[a], rows[a]) == ident
                coherence.append(check_true(f"transition_inverse[{a}|{b}]", ok))
    for a in BASIS_LABELS:
        for b in BASIS_LABELS:
            for c in BASIS_LABELS:
                ok = agrees[b][rows[a], rows[c]].all()
                coherence.append(
                    check_true(f"transition_composition[{a}|{b}|{c}]", ok))
    return TransitionReport(module=mod, cells=cells,
                            coherence=tuple(coherence))


# -- Leonard triple recognizer --------------------------------------------------------------


def _is_irreducible_tridiagonal(m: ExactMatrix) -> bool:
    nonzero = m.nonzero()
    off_band = np.abs(np.subtract.outer(np.arange(m.rows),
                                        np.arange(m.cols))) > 1
    return bool(not (nonzero & off_band).any()
                and np.diagonal(nonzero, -1).all()
                and np.diagonal(nonzero, 1).all())


@dataclass(frozen=True)
class LeonardVerdict:
    verdict: str  # "true" | "false" | "unverifiable"
    reason: str
    eigenvalue_order: Tuple[int, ...]
    tridiagonal: Dict[Tuple[int, int], bool]
    bases: Dict[int, Tuple[ExactVector, ...]]
    rep_matrices: Dict[Tuple[int, int], ExactMatrix]


def is_leonard_triple(b0: ExactMatrix, b1: ExactMatrix,
                      b2: ExactMatrix) -> LeonardVerdict:
    """Decide whether an ordered triple acts as a Leonard triple.

    Eigenvalues are searched in the integer candidate set {d, d-2, ..., -d}
    (d = size - 1); each operator's eigenbasis is ordered by descending
    eigenvalue and the other two operators are represented in it and tested
    for irreducible tridiagonality.  If some operator's candidate eigenspaces
    do not span, the verdict is "unverifiable" (a field limitation, not a
    disproof).
    """
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
            shifted = m - ExactMatrix.identity(n).scale(theta)
            vecs.extend(kernel_basis(shifted))
        if len(vecs) != n:
            return LeonardVerdict(
                verdict="unverifiable",
                reason=f"operator {t}: eigenspaces over the candidate set "
                       f"span dimension {len(vecs)} of {n}",
                eigenvalue_order=candidates, tridiagonal={}, bases={},
                rep_matrices={})
        bases[t] = tuple(vecs)
    tri = {}
    reps = {}
    for t in range(3):
        solver = BasisSolver(list(bases[t]))
        for o in range(3):
            if o == t:
                continue
            rep = representation_matrix(ops[o], list(bases[t]), solver)
            reps[(t, o)] = rep
            tri[(t, o)] = _is_irreducible_tridiagonal(rep)
    ok = all(tri.values())
    return LeonardVerdict(
        verdict="true" if ok else "false",
        reason="all six off-diagonal representations are irreducible "
               "tridiagonal" if ok else
               "failed: " + ", ".join(f"op{o} in eigenbasis of op{t}"
                                      for (t, o), v in tri.items() if not v),
        eigenvalue_order=candidates, tridiagonal=tri, bases=bases,
        rep_matrices=reps)


def module_triple(ctx: CubeContext, bases: SixBases):
    """The three operators restricted to the module, as matrices in the
    basis diagonalizing the dual adjacency operator."""
    return cube_representations(ctx, bases, "AsA")


# -- per-module report ------------------------------------------------------------------------


def module_report(ctx: CubeContext, bases: SixBases,
                  phi: Optional[PhiMatrix] = None) -> dict:
    mod = bases.module
    phi = phi or phi_matrix(mod.d)
    rep_cells = verify_rep_matrices(ctx, bases)
    rep_json: Dict[str, dict] = {}
    for cell in rep_cells:
        rep_json.setdefault(cell.basis, {})[cell.op] = {
            "form": cell.form, "passed": cell.passed}
    inner_checks = verify_inner_products(bases, phi)
    inner_json: Dict[str, bool] = {}
    for c in inner_checks:
        inner_json[c.check_id] = inner_json.get(c.check_id, True) and c.passed
    trans = transition_matrices(bases, phi)
    verdict = is_leonard_triple(*module_triple(ctx, bases))
    return {
        "D": ctx.D,
        "r": mod.r,
        "module_index": mod.index,
        "rep_matrices": rep_json,
        "inner_products": inner_json,
        "transitions": {"cells_checked": len(trans.cells),
                        "failures": sorted(trans.failures())},
        "leonard_triple": verdict.verdict,
    }
