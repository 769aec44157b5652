"""Six bases per irreducible module and everything verified against them.

For a module with endpoint r and diameter d the six bases are labeled by
which operator acts diagonally and which seed generates them:

    AsA  = (Estar_{r+i} u)_i      AeA  = (Eeps_{r+i} u)_i
    AeAs = (Eeps_{r+i} u*)_i      AAs  = (E_{r+i} u*)_i
    AAe  = (E_{r+i} ue)_i         AsAe = (Estar_{r+i} ue)_i

with u, u*, ue the seeds in E_r W, Estar_r W, Eeps_r W.  The triple is
cyclic: conjugation by P takes A -> Astar -> Aeps -> A, and with it the
families E -> Estar -> Eeps, the seeds u -> u* -> ue and the bases round the
orbits AsA -> AeAs -> AAe and AeA -> AAs -> AsAe (`_P_CYCLES`).  Every
closed-form table below is written for one representative per orbit of
this P-cycle and completed by turning it twice (`_orbits`).  The module
provides:

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
  * a generic Leonard-triple recognizer working over Q(i), on the spectral
    parts that `decomposition.spectral_parts` certifies.

Everything here is (d+1)-dimensional.  A module's certified frame
(`decomposition.ModuleFrame`) holds the matrices of A, Astar, Aeps and P in
its slice basis B and the diagonal Gram of B divided by <u*, u*>, and a
vector of the module is a coordinate row x, standing for x B.  The six
bases are one block of such coordinates, d + 1 rows per basis: E and Eeps
act through the spectral idempotents of the frame's A and Aeps, Estar
through the unit diagonals, and each operator through its frame matrix, on
all six bases at once.  Inner products go through the Gram:
<x B, y B> = <u*, u*> x gram y^*, and every check reads them with the
positive scale <u*, u*> left out.  B is a basis, so coordinates are equal
exactly when the vectors are, and every verdict is the one that the
vectors over 2^D columns give.  Each basis is the image of one seed under a
family of Hermitian orthogonal idempotents, so it is orthogonal:
coordinates are <t, b_k> / <b_k, b_k>, once the basis's Gram block is seen
to be diagonal.  Nothing here eliminates: the Leonard recognizer, whose
eigenbases need not be orthogonal, reads each coordinate off a rank-one
spectral part instead (`is_leonard_triple`).

Each module's checks are whole-matrix operations.  The closed forms are
tables of Gaussian-integer numerators, built once per Phi matrix (one per
inner-product kind and one per transition pattern) and scaled per module by
one seed scalar, read off the Gram matrix of the frame's seeds.
The inner products are the blocks of one Gram matrix of the six stacked
bases, each compared with its scaled table entry by entry.  Coordinates
have one read, reads = gram(B) stacked^* diag(1 / <b_k, b_k>), in all six
bases at once (`SixBases.coords`).  It is certified once per call, not per
target: with reads_b its column block of basis b and X_b the basis's
square block of rows, reads_b X_b = I, so the read inverts each basis and
every coordinate row is rebuilt exactly from its coordinates.  The rep
matrices read the images of the six stacked bases, one product per
operator, each image in its own basis, and compare each cell with its
closed form; the 36 transitions read the six bases themselves, and the
inverse and composition rows are the blocks of one product per middle
basis.

Every result is a function of the module's frame (whose Gram leaves out
<u*, u*>, a scale that no verdict reads) and of the Phi matrix, and all
modules of one endpoint hold one frame, the very object that `decompose`
certified for the endpoint.  So the six bases, the rep cells, the inner
products, the transitions and the recognizer are memoized on what they
read (`_memoized`, and a cache on `is_leonard_triple`), and each is
computed once per frame.  A frame compares and hashes by identity, so a
lookup for a later module of an endpoint finds its entry with no hash or
comparison of the frame's matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .cube import CubeContext, _times_i_power
from .decomposition import (SEED_NAMES, IrreducibleModule, ModuleFrame,
                            seed_coordinates, spectral_failure,
                            spectral_parts)
from .linalg import (ExactMatrix, ExactVector, SingularMatrixError,
                     inverse_diagonal, pivot_inverse)
from .report import IdentityCheck, check_true
from .scalar import GaussRat

# The P-cycle of the module docstring; the seeds turn as u* = Pu and
# ue = Pu* under the chained normalization.
_P_CYCLES = (("A", "Astar", "Aeps"), ("E", "Estar", "Eeps"),
             ("u", "u*", "ue"), ("AsA", "AeAs", "AAe"),
             ("AeA", "AAs", "AsAe"))
_NEXT = {x: cycle[(k + 1) % 3] for cycle in _P_CYCLES
         for k, x in enumerate(cycle)}


def _turn(x):
    """x with each name of _P_CYCLES replaced by the next one in its cycle,
    inside tuples and "a|b" seed keys; any other value is fixed."""
    if isinstance(x, tuple):
        return tuple(_turn(y) for y in x)
    if isinstance(x, str) and "|" in x:
        return "|".join(_turn(y) for y in x.split("|"))
    return _NEXT.get(x, x)


def _orbits(reps) -> tuple:
    """The representatives, then each of them turned once, then twice."""
    reps = tuple(reps)
    once = tuple(_turn(x) for x in reps)
    return reps + once + tuple(_turn(x) for x in once)


def _orbit_table(*groups) -> dict:
    """The dict of the _orbits of each group's items, group after group."""
    return {key: value for group in groups
            for key, value in _orbits(group.items())}


BASIS_LABELS = _orbits(("AsA", "AeA"))
OPERATOR_LABELS = _P_CYCLES[0]


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


@dataclass(frozen=True, eq=False)
class PhiMatrix:
    """Phi_ij = C(d,j) * 2F1(-i,-j;-d;2); self-inverse up to 2^d.

    Compares and hashes by identity: `phi_matrix(d)` hands one object per
    d, so the memos keyed on it find their entry with no hash of its
    values."""

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
    that need not be orthogonal.  No command uses it: it is the tests'
    oracle of every coordinate read, and `perfbench/tracer.py` binds it.

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


# -- the memo on the frame -----------------------------------------------------------


_MISSING = object()


def _memoized(key):
    """Decorator: the function's result is computed once per distinct
    key(*args) and returned, by one lookup, to every later call with an
    equal key.  The keys are a module's frame, which compares by identity,
    its six-basis coordinates and the Phi matrix, of which every
    (d+1)-dimensional result below is a function, so the modules that hold
    one frame share one computation.  A call that raises stores nothing, so
    each failing call raises its own error, naming its own module.  The
    memo lives as long as the process, with one entry per distinct key: a
    few per dimension, since a dimension D has D // 2 + 1 frames."""
    def decorate(fn):
        memo = {}

        @wraps(fn)
        def cached(*args):
            k = key(*args)
            result = memo.get(k, _MISSING)
            if result is _MISSING:
                result = memo[k] = fn(*args)
            return result
        return cached
    return decorate


# -- the six bases ------------------------------------------------------------------


@dataclass(frozen=True)
class SixBases:
    """The six bases of one module as the rows of one block, in BASIS_LABELS
    order, in coordinates: `stacked` is 6(d+1) x (d+1), and row k of
    `bases[label]`, times the module's slice basis B, is vector k of basis
    `label`.  Inner products go through the Gram of the module's frame."""

    module: IrreducibleModule
    stacked: ExactMatrix

    def __getitem__(self, label: str) -> ExactMatrix:
        return self.stacked.block(self.rows(label), slice(None))

    def rows(self, label: str) -> slice:
        n = self.module.d + 1
        k = BASIS_LABELS.index(label)
        return slice(k * n, (k + 1) * n)

    @cached_property
    def key(self):
        """The data that every result on these bases is a function of: the
        module's frame and the coordinates."""
        return (self.module.frame, self.stacked)

    @cached_property
    def weighted(self) -> ExactMatrix:
        """gram(B) @ stacked^*: row x of X @ weighted holds <x, b> for each
        row b of stacked, for coordinate rows X."""
        return self.module.frame.gram @ self.stacked.adjoint()

    @cached_property
    def gram(self) -> ExactMatrix:
        """Entry (a, b) is <row a, row b>."""
        return self.stacked @ self.weighted

    @cached_property
    def inverse_norms(self) -> ExactMatrix:
        """diag(1 / <b_k, b_k>) over the rows b_k of stacked.  A zero norm,
        which only a basis that is not orthogonal has, stands in as 1."""
        return inverse_diagonal(self.gram)

    def coords(self, targets: ExactMatrix) -> ExactMatrix:
        """Row t holds the coordinates of row t of targets (coordinate rows)
        in all six bases, column block b in basis b: coordinate k is
        <t, b_k> / <b_k, b_k>, so the coordinates are targets @ reads, with
        reads = weighted @ inverse_norms.  The read is certified basis by
        basis in BASIS_LABELS order: the Gram block of basis b is diagonal
        with a nonzero diagonal, then reads_b X_b = I, for reads_b its
        column block and X_b its (d+1) x (d+1) block of rows.  X_b is
        square, so reads_b inverts it, and every coordinate row, whatever
        the targets, is rebuilt exactly from its coordinates in basis b.
        As X_b is square, reads_b X_b = I holds exactly when
        X_b reads_b = I, and the six X_b reads_b are the diagonal blocks of
        one product, stacked @ reads, which is also the result when the
        targets are the bases themselves (`_transitions`).  The read is
        formed on each call, from the inverse norms as they stand."""
        n = self.module.d + 1
        reads = self.weighted @ self.inverse_norms
        nonzero = self.gram.nonzero()
        own = self.stacked @ reads
        inverts = own.entries_equal(ExactMatrix.identity(self.stacked.rows))
        for label in BASIS_LABELS:
            rows = self.rows(label)
            if not np.array_equal(nonzero[rows, rows], np.eye(n, dtype=bool)):
                raise BasisError(f"basis {label} is not orthogonal (module "
                                 f"r={self.module.r} "
                                 f"index={self.module.index})")
            if not inverts[rows, rows].all():
                raise BasisError("target is outside the span of the basis")
        return own if targets is self.stacked else targets @ reads

    @cached_property
    def seed_scalars(self) -> Dict[str, GaussRat]:
        """The nine inner products, keyed "a|b", of the frame's seeds
        u = E_r u*, u* and ue = Eeps_r u*, by `ModuleFrame.gram_of`; the
        inner-product, proportionality and transition checks share them."""
        frame = self.module.frame
        gram = frame.gram_of(seed_coordinates(frame))
        return {f"{a}|{b}": gram[i, j] for i, a in enumerate(SEED_NAMES)
                for j, b in enumerate(SEED_NAMES)}


# basis label -> (idempotent family, seed); vector i is family_(r+i) seed
_BASIS_SPEC = _orbit_table({"AsA": ("Estar", "u"), "AeA": ("Eeps", "u")})

# With seeds chained by P (u* := Pu, ue := Pu*), each basis is the entrywise
# P-image of the one before it in its orbit: P family(x) = turn(family)(P x).
# The pairs go once round each orbit over the chained seeds u, Pu, P^2 u,
# P^3 u, orbit after orbit.
_CHAINED = ("u", "Pu", "P2u", "P3u")
_P_SHIFTS = tuple(
    (f"{a}->{_turn(a)}", (_BASIS_SPEC[a][0], _CHAINED[k]),
     (_BASIS_SPEC[_turn(a)][0], _CHAINED[k + 1]))
    for rep in BASIS_LABELS[:2] for k, a in enumerate(_orbits((rep,))))

# Rows of the seed block of build_six_bases: the module's seeds u, u*, ue,
# then the chained seeds Pu, P^2 u, P^3 u.
_SEED_ROWS = {name: k for k, name in enumerate(SEED_NAMES + _CHAINED[1:])}


def build_six_bases(ctx: CubeContext, mod: IrreducibleModule) -> SixBases:
    """The six bases of a module, in coordinates in its slice basis.  ctx is
    not read: the module's certified frame holds all that they need."""
    return SixBases(module=mod, stacked=_six_bases_block(mod))


@lru_cache(maxsize=None)
def _unit_window(n: int) -> ExactMatrix:
    """[U_0 | ... | U_(n-1)] for the unit diagonals U_k = e_k^T e_k, the
    parts of Estar on a module of dimension n: entry (k, k n + k) is 1."""
    units = np.zeros((n, n * n), dtype=np.int64)
    units[np.arange(n), np.arange(n) * (n + 1)] = 1
    return ExactMatrix.from_numerators(units, 0 * units, 1)


def _family_windows(mod: IrreducibleModule):
    """{family: [F_r | ... | F_(r+d)]}, its parts on W side by side, as
    coordinate matrices x -> x @ F_i: the spectral parts of the frame's A
    (E) and Aeps (Eeps), and the unit diagonals (Estar, which masks slice
    r + i)."""
    windows = {"Estar": _unit_window(mod.d + 1)}
    for op, family in (("A", "E"), ("Aeps", "Eeps")):
        parts, failure = spectral_parts(getattr(mod.frame, op))
        if failure is not None:
            raise BasisError(
                f"{spectral_failure(failure, mod.r, mod.d, family, op)} "
                f"(module r={mod.r} index={mod.index})")
        windows[family] = ExactMatrix.beside(parts)
    return windows


@_memoized(lambda mod: mod.frame)
def _six_bases_block(mod: IrreducibleModule) -> ExactMatrix:
    """Apply the idempotent families to the seeds; every vector must be
    nonzero, and the bases must be P-images of each other under the
    chained normalization.

    The family parts act on the coordinate block [u, u*, ue, Pu, P^2 u,
    P^3 u] of the frame's seeds, one product per family with its parts
    side by side: seeds @ [F_r | ... | F_(r+d)] holds family_(r+i) applied
    to seed row k in columns i (d+1) .. (i+1) (d+1) - 1 of row k, so
    reshaped to 6(d+1) x (d+1) its row k (d+1) + i is that vector, and the
    basis generated by seed row k is the contiguous block of rows
    k (d+1) .. (k+1) (d+1) - 1.  A basis sums back to its seed because the
    parts sum to I."""
    frame = mod.frame
    n = mod.d + 1
    seeds = seed_coordinates(frame)
    chained = [seeds.block([0], slice(None))]
    for _ in range(3):
        chained.append(frame.apply("P", chained[-1]))
    seeds = ExactMatrix.stack([seeds] + chained[1:])
    window = {family: (seeds @ parts).reshape(len(_SEED_ROWS) * n, n)
              for family, parts in _family_windows(mod).items()}

    def basis(family, seed):
        k = _SEED_ROWS[seed]
        return window[family].block(slice(k * n, (k + 1) * n), slice(None))

    stacked = ExactMatrix.stack([basis(*_BASIS_SPEC[label])
                                 for label in BASIS_LABELS])
    zero = ~stacked.nonzero().any(axis=1)
    if zero.any():
        z = int(zero.argmax())
        raise BasisError(f"basis {BASIS_LABELS[z // n]} vector {z % n} is "
                         f"zero (module r={mod.r} index={mod.index})")
    _check_p_shift(frame, mod, basis)
    return stacked


def _check_p_shift(frame: ModuleFrame, mod: IrreducibleModule,
                   basis) -> None:
    """Each pair of _P_SHIFTS at each slice i, with one P pass over all the
    left-hand sides; basis(family, seed) is the block of family_(r+i) seed
    over i, so row (d+1)*k + i of the pass is pair k at slice i."""
    shifted = frame.apply("P", ExactMatrix.stack([basis(*lhs)
                                                  for _, lhs, _ in _P_SHIFTS]))
    targets = ExactMatrix.stack([basis(*rhs) for _, _, rhs in _P_SHIFTS])
    failed = ~shifted.row_equal(targets).reshape(len(_P_SHIFTS), mod.d + 1)
    if failed.any():
        i, k = np.argwhere(failed.T)[0]
        raise BasisError(f"P-shift {_P_SHIFTS[k][0]} failed at slice {i} "
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


# (operator, basis) -> closed form, from the six cells of A
REP_FORMS = _orbit_table({
    ("A", "AAs"): "diagonal", ("A", "AAe"): "diagonal",
    ("A", "AsA"): "tridiagonal", ("A", "AeA"): "tridiagonal",
    ("A", "AeAs"): "itridiagonal_subneg",
    ("A", "AsAe"): "itridiagonal_superneg",
})

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


def verify_rep_matrices(ctx: CubeContext, bases: SixBases) -> List[RepCell]:
    """The full 6 bases x 3 operators grid against the closed forms, with
    one operator pass and one coordinate read per distinct frame (see
    `_rep_cells`); ctx is not read."""
    return list(_rep_cells(bases))


@_memoized(lambda bases: bases.key)
def _rep_cells(bases: SixBases) -> Tuple[RepCell, ...]:
    """The 18 cells of `verify_rep_matrices`.

    Each operator is applied once to all six bases; row (o, b, j) of the
    stacked images is operator o applied to vector j of basis b, and its
    coordinates in basis b (`SixBases.coords`, whose certificate
    reads_b X_b = I makes them rebuild it exactly) are column j of cell
    (o, b), which is compared with its closed form."""
    d = bases.module.d
    n, nb = d + 1, len(BASIS_LABELS)
    images = ExactMatrix.stack([bases.module.frame.apply(op, bases.stacked)
                                for op in OPERATOR_LABELS])
    coeffs = bases.coords(images)
    cells = []
    for b, name in enumerate(BASIS_LABELS):
        cols = slice(b * n, (b + 1) * n)
        for o, op_name in enumerate(OPERATOR_LABELS):
            rows = slice((o * nb + b) * n, (o * nb + b + 1) * n)
            form = REP_FORMS[(op_name, name)]
            matrix = coeffs.block(rows, cols).transpose()
            cells.append(RepCell(basis=name, op=op_name, form=form,
                                 passed=matrix == _FORM_BUILDERS[form](d),
                                 matrix=matrix))
    return tuple(cells)


# -- closed-form tables ----------------------------------------------------------------


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
    ur, ui = unit
    return ExactMatrix.from_numerators(
        *_times_i_power(weights * ur, weights * ui, power), den)


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
# One kind after another, in the order of the report rows.
INNER_FORMULAS = _orbit_table(
    {("AsA", "AsA"): ("delta", "u|u"), ("AeA", "AeA"): ("delta", "u|u")},
    {("AAe", "AAs"): ("delta_ipow", "ue|u*")},
    {("AAs", "AsA"): ("f", "u*|u")},
    {("AAs", "AsAe"): ("f_ipow_j", "u*|ue")},
    {("AAe", "AsA"): ("f_ipow_i", "ue|u")},
    {("AAs", "AeAs"): ("f_ipow_negij", "u*|u*")},
)


def verify_inner_products(bases: SixBases, phi: PhiMatrix) -> List[GridCheck]:
    """Every pairing of the closed-form inner-product theorems, all (i, j),
    computed once per distinct frame and Phi (see `_inner_checks`)."""
    return list(_inner_checks(bases, phi))


@_memoized(lambda bases, phi: (bases.key, phi))
def _inner_checks(bases: SixBases, phi: PhiMatrix) -> Tuple[GridCheck, ...]:
    """The checks of `verify_inner_products`: each block of the Gram matrix
    of the six stacked bases against its table scaled by the seed scalar,
    then the slicewise proportionality."""
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
    return tuple(checks)


# (x, y, seed scalar key, norm key): vector i of x is i^i (1-i)^d times
# key / norm times vector i of y
_PROPORTIONAL_ROWS = _orbits((("AAe", "AAs", "ue|u*", "u*|u*"),))


def _verify_slice_proportionality(bases: SixBases) -> List[GridCheck]:
    """The slicewise proportionality between bases sharing an idempotent
    family: each AAe (resp. AsA, AeAs) vector is an explicit multiple of the
    matching AAs (resp. AsAe, AeA) vector, i^i (1-i)^d times a ratio of seed
    scalars."""
    d = bases.module.d
    scal = bases.seed_scalars
    omi_d = GaussRat(*_unit_power(-1, d))
    checks = []
    for x, y, key, norm in _PROPORTIONAL_ROWS:
        coeffs = _ipow_diagonal(d, +1).scale(omi_d * scal[key] / scal[norm])
        ok = bases[x].row_equal(coeffs @ bases[y])
        checks.extend(GridCheck(f"proportional[{x}|{y}]", i, i, bool(v))
                      for i, v in enumerate(ok))
    return checks


# -- transition matrices ----------------------------------------------------------------


# (src, dst) -> (i-power pattern over the Phi grid | D1 | D2, prefactor kind)
# Prefactor kinds: ("unit", sign_exp) for (1 -+ i)^(+-d) alone, or
# (seed_key, norm_key, extra) with extra in {None, "omi", "opi"}.  Written
# for the sources AsA and AeA, one basis of each orbit.
TRANSITION_TABLE = _orbit_table({
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
})

_POWER_PATTERNS = {
    "zero": lambda i, j: 0, "i": lambda i, j: i, "j": lambda i, j: j,
    "neg_i": lambda i, j: -i, "neg_j": lambda i, j: -j,
    "sum": lambda i, j: i + j, "neg_sum": lambda i, j: -i - j,
}


def _prefactor(spec, d: int, scal: Dict[str, GaussRat]) -> GaussRat:
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

    def failures(self) -> List[str]:
        out = [f"{s}->{t}" for (s, t), c in self.cells.items() if not c.passed]
        out.extend(c.identity for c in self.coherence if not c.passed)
        return out


def transition_matrices(bases: SixBases, phi: PhiMatrix) -> TransitionReport:
    """All 36 transitions: direct change-of-basis vs closed form, then
    inverse and composition coherence on the computed matrices."""
    cells, coherence = _transitions(bases, phi)
    return TransitionReport(module=bases.module, cells=dict(cells),
                            coherence=coherence)


@_memoized(lambda bases, phi: (bases.key, phi))
def _transitions(bases: SixBases, phi: PhiMatrix):
    """The cells and coherence checks of `transition_matrices`.

    The transitions are the blocks of the 6(d+1) x 6(d+1) matrix
    T = (stacked @ reads)^T, the coordinates of the six bases in each other
    (`SixBases.coords`; row block src, column block dst); for each middle
    basis b, block (a, c) of T[:, b] @ T[b, :] is T(a,b) T(b,c)."""
    computed = bases.coords(bases.stacked).transpose()
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
    ident = ExactMatrix.identity(bases.module.d + 1)
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
    return cells, tuple(coherence)


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


def _eigen_representations(parts, table: ExactMatrix):
    """(X, reps) for the certified spectral parts F_0 .. F_d of an operator,
    all nonzero, and table = [I | m_0 | m_1 | m_2]: column k of the
    eigenbasis X is column p_k of F_k, and block o of reps is
    X^-1 (block o of table) X, so block 0 is I.

    With d + 1 nonzero parts each F_k is the rank-one projection onto the
    eigenspace of theta_k along the others, so coordinate k of any w is
    (F_k w)[p_k] / F_k[p_k, p_k], and p_k is the first nonzero diagonal
    entry of F_k (its trace is 1).  For R the rows p_k of the F_k,
    R X = diag(F_k[p_k, p_k]) =: Delta.  So R table, reshaped so that row
    4 i + o is row i of R times block o, times X and reshaped back is
    Delta [I | X^-1 m_0 X | ...], and a third product divides out Delta.
    Its first block certifies the read: R X is diagonal with a nonzero
    diagonal, so Delta^-1 R inverts X."""
    n = len(parts)
    stacked = ExactMatrix.stack(parts)
    k = np.arange(n)
    pivot = np.diagonal(stacked.nonzero().reshape(n, n, n),
                        axis1=1, axis2=2).argmax(axis=1)
    rows = stacked.block(k * n + pivot, slice(None))
    eigenbasis = stacked.block(k * n + k[:, None], pivot)
    scaled = ((rows @ table).reshape(table.cols, n) @ eigenbasis).reshape(
        n, table.cols)
    delta = scaled.columns(k)
    if not np.array_equal(delta.nonzero(), np.eye(n, dtype=bool)):
        raise BasisError("the eigenvector read does not invert the "
                         "eigenbasis")
    return eigenbasis, inverse_diagonal(delta) @ scaled


@lru_cache(maxsize=None)
def is_leonard_triple(b0: ExactMatrix, b1: ExactMatrix,
                      b2: ExactMatrix) -> LeonardVerdict:
    """Decide whether an ordered triple acts as a Leonard triple.

    Eigenvalues are searched in the integer candidate set {d, d-2, ..., -d}
    (d = size - 1) through the certified Lagrange idempotents F_k of each
    operator (`decomposition.spectral_parts`); each operator's eigenbasis
    is ordered by descending eigenvalue and the other two operators are
    represented in it and tested for irreducible tridiagonality.  If some
    operator fails the eigen certificate F_k (m - theta_k) = 0, its
    candidate eigenspaces do not span, and the verdict is "unverifiable"
    (a field limitation, not a disproof); all three are checked for this
    first.  Otherwise every operator is diagonalizable, and one with a zero
    part has a repeated eigenvalue, so no eigenbasis of another makes it
    irreducible tridiagonal, whose eigenspaces have dimension 1: the
    verdict is "false", and the `tridiagonal`, `bases` and `rep_matrices`
    entries (t, o) are kept for the operators t with d + 1 distinct
    eigenvalues alone.  Their eigenbases are unique up to the scale of
    each vector, which moves no zero of a representation
    (`_eigen_representations`).  Memoized on the exact entries of the
    three operators."""
    ops = (b0, b1, b2)
    n = b0.rows
    if any(m.rows != n or m.cols != n for m in ops):
        raise ValueError("operators must be square and of equal size")
    candidates = tuple(range(n - 1, -n, -2))
    spectra = [spectral_parts(m) for m in ops]
    for t, (_, failure) in enumerate(spectra):
        # a zero part makes the minimal polynomial divide a product of
        # distinct candidate factors, so every eigen check then holds
        if failure and failure[0] != "zero":
            return LeonardVerdict(
                "unverifiable", f"operator {t}: its eigenspaces over the "
                "candidate set do not span", candidates, {}, {}, {})
    table = ExactMatrix.beside([ExactMatrix.identity(n), *ops])
    tri, bases, reps, failed = {}, {}, {}, []
    for t, (parts, failure) in enumerate(spectra):
        if failure:
            failed.append(f"op{t} has a repeated eigenvalue")
            continue
        eigenbasis, rep = _eigen_representations(parts, table)
        bases[t] = tuple(eigenbasis.column(j) for j in range(n))
        for o in range(3):
            if o != t:
                reps[t, o] = rep.block(slice(None),
                                       slice((o + 1) * n, (o + 2) * n))
                tri[t, o] = _is_irreducible_tridiagonal(reps[t, o])
                if not tri[t, o]:
                    failed.append(f"op{o} in eigenbasis of op{t}")
    return LeonardVerdict(
        "false" if failed else "true",
        "failed: " + ", ".join(failed) if failed else
        "all six off-diagonal representations are irreducible tridiagonal",
        candidates, tri, bases, reps)


def module_triple(cells: List[RepCell]) -> Tuple[ExactMatrix, ...]:
    """The three operators restricted to the module, in OPERATOR_LABELS
    order, as matrices in the basis AsA diagonalizing the dual adjacency
    operator: the AsA cells of verify_rep_matrices."""
    matrices = {c.op: c.matrix for c in cells if c.basis == "AsA"}
    return tuple(matrices[op] for op in OPERATOR_LABELS)


# -- per-module report ------------------------------------------------------------------------


def module_report(ctx: CubeContext, bases: SixBases) -> dict:
    mod = bases.module
    phi = phi_matrix(mod.d)
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
    verdict = is_leonard_triple(*module_triple(rep_cells))
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
