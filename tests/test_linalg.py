"""Exact matrix/vector algebra: the shared vector/matrix body, products,
adjoints, inner products, kernels, inverses, orthogonalization, dump
round-trips, first discrepancies."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_canonical_storage, basis_vector, get_ctx,
                      naive_first_discrepancy, naive_inverse,
                      naive_matrix_rank, naive_rank, p_inverse)
import tcube
from tcube.linalg import (ExactMatrix, ExactVector, SingularMatrixError,
                          _product, first_discrepancy, fits_f64, gram_schmidt,
                          inner, ints, inverse_diagonal, kernel_basis,
                          pivot_inverse, rank)
from tcube.scalar import GaussRat

small = st.integers(min_value=-6, max_value=6)
gauss_small = st.builds(lambda a, b: GaussRat(a, b), small, small)
rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
mixed_scalar = st.one_of(small, rational, gauss_small,
                         st.builds(GaussRat, rational, rational))


def mat_strategy(rows, cols):
    return st.lists(
        st.lists(gauss_small, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows).map(ExactMatrix)


def vec_strategy(n):
    return st.lists(gauss_small, min_size=n, max_size=n).map(ExactVector)


SWAP = ExactMatrix([[0, 1], [1, 0]])
P1 = ExactMatrix([[GaussRat(1), GaussRat(1)],
                  [GaussRat(0, -1), GaussRat(0, 1)]])


# -- the body shared by vectors and matrices --------------------------------------


@given(st.lists(mixed_scalar, min_size=3, max_size=3),
       st.lists(mixed_scalar, min_size=3, max_size=3),
       st.sampled_from(["drawn", "same", "zero"]), mixed_scalar,
       st.integers(0, 2))
def test_vector_matches_one_row_matrix(xs, ys, kind, c, k):
    if kind == "same":
        ys = xs
    elif kind == "zero":
        ys = [0, 0, 0]
    u, v = ExactVector(xs), ExactVector(ys)
    mu, mv = ExactMatrix([xs]), ExactMatrix([ys])
    for vec, mat in ((u + v, mu + mv), (u - v, mu - mv), (-v, -mv),
                     (u.scale(c), mu.scale(c)), (c * u, mu * c),
                     (u.conj(), mu.conj()), (v.conj(), mv.conj())):
        assert ExactMatrix.stack([vec]) == mat
        assert vec.is_zero() == mat.is_zero()
    assert (u == v) == (mu == mv)
    assert u[k] == mu[0, k] and v[k] == mv[0, k]
    assert v.is_zero() == mv.is_zero() == (kind == "zero" or not any(ys))
    # a vector never equals a matrix, not even its own one-row stack
    assert u != mu and not (u == ExactMatrix.stack([u]))


def test_identity_neutral():
    ident = ExactMatrix.identity(3)
    m = ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert ident @ m == m and m @ ident == m


def test_swap_squares_to_identity():
    assert SWAP @ SWAP == ExactMatrix.identity(2)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        ExactMatrix.identity(2) @ ExactMatrix.identity(3)
    with pytest.raises(ValueError):
        ExactMatrix.identity(2).matvec(ExactVector([1, 2, 3]))
    with pytest.raises(ValueError):
        inner(ExactVector([1]), ExactVector([1, 2]))


def test_kron_power_matches_entry_formula():
    # the context's P is the Kronecker power P1^(x D):
    # P_{yz} = prod_k (P1)_{y_k z_k} with the first bit most significant
    for D in (2, 3):
        p = get_ctx(D).P
        for y in range(2 ** D):
            for z in range(2 ** D):
                expect = GaussRat(1)
                for k in reversed(range(D)):
                    expect = expect * P1[y >> k & 1, z >> k & 1]
                assert p[y, z] == expect


@given(mat_strategy(2, 3), mat_strategy(3, 2), mat_strategy(2, 2))
def test_matmul_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


def test_adjoint_examples():
    d = ExactMatrix.diagonal([GaussRat(0, 1), GaussRat(0, -1)])
    assert d.adjoint() == ExactMatrix.diagonal([GaussRat(0, -1), GaussRat(0, 1)])
    assert SWAP.adjoint() == SWAP


@given(vec_strategy(3), vec_strategy(3), mat_strategy(3, 3))
def test_adjoint_moves_across_inner_product(u, v, b):
    assert inner(u, b.matvec(v)) == inner(b.adjoint().matvec(u), v)


def test_inner_examples():
    e0 = basis_vector(4, 0)
    assert inner(e0, e0) == GaussRat(1)
    v = ExactVector([GaussRat(1), GaussRat(0, 1)])
    assert inner(v, v) == GaussRat(2)


@given(vec_strategy(4), vec_strategy(4))
def test_inner_hermitian_symmetry(u, v):
    assert inner(u, v) == inner(v, u).conj()


def test_kernel_of_identity_empty():
    assert kernel_basis(ExactMatrix.identity(3)) == []


def test_kernel_of_zero_matrix():
    vecs = kernel_basis(ExactMatrix.zeros(2, 2))
    assert len(vecs) == 2
    assert vecs[0] == basis_vector(2, 0)
    assert vecs[1] == basis_vector(2, 1)


@settings(max_examples=60)
@given(mat_strategy(3, 4))
def test_kernel_vectors_annihilated_and_rank_nullity(m):
    vecs = kernel_basis(m)
    for v in vecs:
        assert m.matvec(v).is_zero()
    assert rank(m) + len(vecs) == m.cols
    # independent oracle: plain rational elimination
    assert rank(m) == naive_matrix_rank(m)


def test_gram_schmidt_example():
    out = gram_schmidt([ExactVector([1, 0]), ExactVector([1, 1])])
    assert out == [ExactVector([1, 0]), ExactVector([0, 1])]


def test_gram_schmidt_rejects_dependent():
    with pytest.raises(ValueError):
        gram_schmidt([ExactVector([1, 2]), ExactVector([2, 4])])


@settings(max_examples=40)
@given(st.lists(vec_strategy(4), min_size=2, max_size=3))
def test_gram_schmidt_orthogonal_and_span(vs):
    stacked = ExactMatrix([v.entries() for v in vs])
    if rank(stacked) < len(vs):
        return
    out = gram_schmidt(vs)
    for a in range(len(out)):
        for b in range(a):
            assert inner(out[a], out[b]).is_zero()
    # span preserved: every input lies in the span of the outputs
    for v in vs:
        w = v
        for u in out:
            c = inner(w, u) / inner(u, u)
            if c:
                w = w - u.scale(c)
        assert w.is_zero()


def test_matrix_dump_round_trip():
    m = ExactMatrix([[GaussRat(Fraction(1, 2), Fraction(-3, 4)), GaussRat(0)],
                     [GaussRat(0, 2), GaussRat(-5)]])
    d = m.to_dump()
    assert d["rows"] == 2 and d["cols"] == 2
    assert [e[:2] for e in d["entries"]] == [[0, 0], [1, 0], [1, 1]]
    assert ExactMatrix.from_dump(d) == m


def _naive_dump_entries(x, shape):
    """The dump entries of x read one entry at a time through Fraction."""
    out = []
    for index in np.ndindex(*shape):
        g = x[index]
        if g:
            out.append(list(index) + [f"{g.re.numerator}/{g.re.denominator}",
                                      f"{g.im.numerator}/{g.im.denominator}"])
    return out


@given(st.lists(st.lists(mixed_scalar, min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.sampled_from([1, Fraction(1, 2 ** 70), 2 ** 70,
                        GaussRat(Fraction(1, 3), 2)]))
def test_dump_entries_match_the_entrywise_format(grid, c):
    # the scales give int64 arrays over a denominator beyond int64 and
    # object arrays, besides small ones
    m = ExactMatrix(grid).scale(c)
    assert m.to_dump()["entries"] == _naive_dump_entries(m, m.shape)
    v = m.row(0)
    assert v.to_dump()["entries"] == _naive_dump_entries(v, (v.length,))


def test_vector_dump_round_trip():
    v = ExactVector([GaussRat(0), GaussRat(Fraction(2, 3), 1)])
    d = v.to_dump()
    assert d["length"] == 2 and len(d["entries"]) == 1
    assert ExactVector.from_dump(d) == v


def test_scalar_and_additive_ops():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m + (-m) == ExactMatrix.zeros(2, 2)
    assert m.scale(Fraction(1, 2)) + m.scale(Fraction(1, 2)) == m
    assert (m - m).is_zero()


def test_trace():
    m = ExactMatrix([[GaussRat(1, 2), GaussRat(5)], [GaussRat(7), GaussRat(3, -2)]])
    assert m.trace() == GaussRat(4)


def test_big_integer_matmul_falls_back_exactly():
    big = 2 ** 70
    a = ExactMatrix([[big, 1], [0, big]])
    sq = a @ a
    assert sq[0, 0] == GaussRat(big * big)
    assert sq[0, 1] == GaussRat(2 * big)


# -- array-native construction ---------------------------------------------------


@given(st.lists(mixed_scalar, max_size=5), st.integers(-2, 2))
def test_diagonal_matches_grid_constructor(values, offset):
    n = len(values) + abs(offset)
    grid = [[0] * n for _ in range(n)]
    for k, v in enumerate(values):
        r, c = (k, k + offset) if offset >= 0 else (k - offset, k)
        grid[r][c] = v
    assert ExactMatrix.diagonal(values, offset) == ExactMatrix(grid)


@given(st.lists(mixed_scalar, min_size=1, max_size=5), mixed_scalar)
def test_inverse_diagonal_inverts_each_diagonal_entry(values, off):
    # real and complex entries alike, whatever lies off the diagonal
    n = len(values)
    m = ExactMatrix([[values[r] if r == c else off for c in range(n)]
                     for r in range(n)])
    got = inverse_diagonal(m)
    assert got == ExactMatrix.diagonal([got[k, k] for k in range(n)])
    for k in range(n):
        if m[k, k]:
            assert got[k, k] * m[k, k] == 1


@given(st.lists(st.lists(mixed_scalar, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_stack_matches_grid_constructor(rows):
    assert ExactMatrix.stack([ExactVector(r) for r in rows]) \
        == ExactMatrix(rows)


@given(st.lists(st.lists(mixed_scalar, min_size=3, max_size=3),
                min_size=2, max_size=5), st.integers(1, 4))
def test_stack_of_matrices_is_the_stack_of_their_rows(rows, cut):
    cut = min(cut, len(rows) - 1)
    top, bottom = ExactMatrix(rows[:cut]), ExactMatrix(rows[cut:])
    assert ExactMatrix.stack([top, bottom]) == ExactMatrix(rows)
    assert ExactMatrix.stack([top, ExactVector(rows[cut])]) \
        == ExactMatrix(rows[:cut + 1])


@given(st.lists(st.lists(mixed_scalar, min_size=5, max_size=5),
                min_size=1, max_size=4), st.integers(1, 4))
def test_beside_is_the_matrix_of_their_columns(rows, cut):
    left = ExactMatrix([row[:cut] for row in rows])
    right = ExactMatrix([row[cut:] for row in rows])
    assert ExactMatrix.beside([left, right]) == ExactMatrix(rows)
    assert ExactMatrix.beside([left]) == left


@given(mat_strategy(4, 5), st.integers(0, 3), st.integers(1, 4),
       st.integers(0, 4), st.integers(1, 5))
def test_block_matches_the_grid(m, r0, r1, c0, c1):
    rows, cols = slice(r0, max(r0 + 1, r1)), slice(c0, max(c0 + 1, c1))
    grid = [row[cols] for row in m.to_rows()[rows]]
    assert m.block(rows, cols) == ExactMatrix(grid)


@given(mat_strategy(4, 6), st.sampled_from([(1, 24), (2, 12), (8, 3)]))
def test_reshape_is_a_row_major_view(m, shape):
    flat = [e for row in m.to_rows() for e in row]
    out = m.reshape(*shape)
    assert out == ExactMatrix([flat[k * shape[1]:(k + 1) * shape[1]]
                               for k in range(shape[0])])
    assert np.shares_memory(out._re, m._re)
    assert_canonical_storage(out)


@given(mat_strategy(3, 3), mat_strategy(3, 3), st.sampled_from(
    [1, Fraction(1, 3), GaussRat(2, -1), GaussRat(Fraction(1, 2), 3)]))
def test_entries_equal_compares_each_entry_by_value(a, b, c):
    # half the entries of `other` are those of a c, half those of b; the two
    # matrices sit on different denominators
    ga = a.scale(c).to_rows()
    mixed = [[ga[r][k] if (r + k) % 2 else e for k, e in enumerate(row)]
             for r, row in enumerate(b.to_rows())]
    other = ExactMatrix(mixed)
    mask = a.scale(c).entries_equal(other)
    assert mask.tolist() == [[ga[r][k] == mixed[r][k] for k in range(3)]
                             for r in range(3)]
    assert mask[1, 0] and mask[0, 1]
    assert a.scale(c).row_equal(other).tolist() == [all(row) for row in
                                                     mask.tolist()]
    assert a.entries_equal(a.scale(Fraction(6)).scale(Fraction(1, 6))).all()


def test_entries_equal_across_denominators():
    half = ExactMatrix([[Fraction(1, 2), 1, GaussRat(0, Fraction(1, 2))]])
    sixth = ExactMatrix([[Fraction(1, 2), Fraction(1, 3), GaussRat(0, 1)]])
    assert half.entries_equal(sixth).tolist() == [[True, False, False]]
    assert sixth.entries_equal(half).tolist() == [[True, False, False]]
    assert half.row_equal(sixth).tolist() == [False]


# -- storage ------------------------------------------------------------------------


def test_ints_is_int64_exactly_below_2_62():
    a = np.array([2 ** 62 - 1, -(2 ** 62 - 1)], dtype=np.int64)
    b = np.array([[1, -2]], dtype=np.int64)
    same_a, same_b = ints(2 ** 62 - 1, a, b)
    assert same_a is a and same_b is b
    wide = ints(2 ** 62, a)[0]
    assert wide.dtype == object and wide.tolist() == a.tolist()
    assert all(type(v) is int for v in wide)
    assert ints(2 ** 62, wide)[0] is wide
    narrow = ints(2 ** 62 - 1, np.array([5, -7], dtype=object))[0]
    assert narrow.dtype == np.int64 and narrow.tolist() == [5, -7]
    m = ExactMatrix([[1, GaussRat(2, -3)]])
    re, im = m.ints(2 ** 62 - 1)
    assert re is m._re and im is m._im
    re, im = m.ints(2 ** 62)
    assert re.dtype == im.dtype == object
    assert re.tolist() == [[1, 2]] and im.tolist() == [[0, -3]]


@pytest.mark.parametrize("module",
                         ["cube.py", "decomposition.py", "leonard.py"])
def test_module_reaches_linalg_only_through_public_names(module):
    # the int64-or-Python-int rule lives in linalg alone: these modules
    # import no private name and no I64_LIMIT from it
    tree = ast.parse((Path(tcube.__file__).parent / module).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[-1] == "linalg"
             for alias in node.names]
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "linalg"]
    assert names
    assert [n for n in names if n.startswith("_") or n == "I64_LIMIT"] == []


@pytest.mark.parametrize("top", [3, 2 ** 30, 2 ** 31, 2 ** 60, 2 ** 61,
                                 2 ** 70])
def test_sums_scales_and_entrywise_products_are_canonical(top):
    # each result beside the bound that its operands give `ints`: below
    # 2^62 the int64 tier runs, its result is below 2^62 by that bound and
    # is kept without a scan; past it the tier is Python ints, and a result
    # that fits int64 again (a - a) is stored so
    a = ExactMatrix([[top, GaussRat(0, top)], [1, -1]])
    b = ExactMatrix([[top, GaussRat(top, 1)], [3, -2]])
    results = [
        (2 * top + 1, a + b), (2 * top, a - a),
        (4 * top + 1, ExactMatrix.combination((a, b, a), (2, -1, 1))),
        (3 * top, a.scale(GaussRat(2, 1))), (top, a.scale(Fraction(1, 3))),
        (2 * top * (top + 1), a.entrywise(b)),
        (2 * top * top, a.entrywise(a.conj()))]
    for bound, x in results:
        if bound < 2 ** 62:
            assert x._mx is None
        assert_canonical_storage(x)
    assert (a - a).is_zero() and (a - a)._re.dtype == np.int64
    assert a.entrywise(b)[0, 0] == top * top


def test_leonard_reads_no_storage_and_no_private_decomposition_name():
    # leonard works on ExactMatrix values: it reads none of their numerator
    # arrays, denominator or bound, and imports only public names from
    # decomposition
    tree = ast.parse((Path(tcube.__file__).parent / "leonard.py").read_text())
    storage = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and node.attr in ("_re", "_im", "_den", "_max")]
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] == "decomposition"
               for alias in node.names if alias.name.startswith("_")]
    assert (storage, private) == ([], [])


@pytest.mark.parametrize("top", [3, 2 ** 26, 2 ** 60, 2 ** 70])
def test_products_on_both_sides_of_the_bound_are_canonical(top):
    # top = 3 runs on float64 and 2^26 on int64 (c @ [1, -1] on float64),
    # whose results are kept without a scan; 2^60 and 2^70 run on Python
    # ints, and c @ [1, -1] = -1 then fits int64 again
    a = ExactMatrix([[top, GaussRat(0, 1)], [Fraction(1, 2), -top]])
    b = ExactMatrix([[1, -1], [GaussRat(0, top), Fraction(1, 3)]])
    c = ExactMatrix([[top, top + 1]])
    for x in (a @ b, a @ a, a.matvec(b.row(1)), c @ c.transpose(),
              c @ ExactMatrix([[1], [-1]]), c.matvec(ExactVector([1, -1]))):
        if top < 2 ** 60:
            assert x._mx is None
        assert_canonical_storage(x)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("top", [2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1,
                                 2 ** 63 - 1, 2 ** 63, 2 ** 70])
def test_storage_is_int64_exactly_below_2_62(top, sign):
    big = sign * top
    grid = [[GaussRat(big, 1), GaussRat(0)], [GaussRat(0, -3), GaussRat(5)]]
    m = ExactMatrix(grid)
    assert (m._re.dtype == np.int64) == (top < 2 ** 62)
    re = np.array([[big, 0], [0, 5]], dtype=object)
    im = np.array([[1, 0], [-3, 0]], dtype=object)
    built = [m, ExactMatrix.from_numerators(re, im, 1)]
    if -2 ** 63 <= big < 2 ** 63:
        built.append(ExactMatrix.from_numerators(re.astype(np.int64),
                                                 im.astype(np.int64), 1))
    for x in built:
        assert_canonical_storage(x)
        assert x == m and x.to_rows() == grid
    v = m.row(0)
    for x in (-m, m.conj(), m.transpose(), m.adjoint(), v, m.column(0),
              m.block(slice(0, 1), slice(None)), m.columns([1, 0]),
              v.take([1, 0]), v.primitive(), m + m, m - m, m + m.scale(-1),
              m.scale(GaussRat(0, Fraction(1, 2))), m @ m, m.matvec(v),
              ExactMatrix.stack([m, v]), ExactMatrix.beside([m, m.conj()]),
              ExactMatrix.diagonal([big, GaussRat(0, 1)], 1),
              ExactMatrix.from_dump(m.to_dump()),
              ExactVector.from_dump(v.to_dump()), pivot_inverse(m)[1],
              *kernel_basis(ExactMatrix.stack([v])),
              ExactMatrix.identity(2), ExactMatrix.zeros(2, 3),
              basis_vector(3, 1)):
        assert_canonical_storage(x)


@pytest.mark.parametrize("top", [5, 2 ** 61 - 1, 2 ** 62 + 1, 2 ** 70 + 1])
def test_sign_and_transpose_pass_storage_through(top):
    # a negation, conjugate, transpose or adjoint has its source's
    # magnitudes and denominator, so its source's storage and largest
    # numerator, int64 below 2^62 and object arrays above
    grid = [[GaussRat(Fraction(top, 3), -1), GaussRat(0, Fraction(-top, 3))],
            [GaussRat(Fraction(1, 3)), GaussRat(2)]]
    m = ExactMatrix(grid)
    v = m.row(0)
    assert (m._re.dtype == object) == (top >= 2 ** 62)
    cols = [list(col) for col in zip(*grid)]
    cases = [(-m, [[-e for e in row] for row in grid]),
             (m.conj(), [[e.conj() for e in row] for row in grid]),
             (m.transpose(), cols),
             (m.adjoint(), [[e.conj() for e in row] for row in cols])]
    for x, want in cases:
        assert_canonical_storage(x)
        assert x._re.dtype == m._re.dtype and x._den == m._den
        assert x.to_rows() == want
    for x, want in ((-v, [-e for e in grid[0]]),
                    (v.conj(), [e.conj() for e in grid[0]])):
        assert_canonical_storage(x)
        assert x._re.dtype == v._re.dtype and x.entries() == want


def test_content_reduction_moves_storage_across_2_62():
    # over den 4 the numerators 3 * 2^62 and 2^62 reduce to 3 * 2^60 and
    # 2^60, which int64 holds; over den 2 to 3 * 2^61 and 2^61, which it
    # must not
    re = np.array([3 * 2 ** 62, 2 ** 62], dtype=object)
    for den, stored in ((4, np.int64), (2, object)):
        v = ExactVector.from_numerators(re, 0 * re, den)
        assert_canonical_storage(v)
        assert v._re.dtype == stored
        assert v.entries() == [GaussRat(Fraction(3 * 2 ** 62, den)),
                               GaussRat(Fraction(2 ** 62, den))]
    # zero numerators over any denominator are the zero vector over 1
    zeros = np.zeros(2, dtype=np.int64)
    zero = ExactVector.from_numerators(zeros, zeros, 2 ** 70)
    assert zero == ExactVector([0, 0]) and zero._den == 1


# Each selector takes a part of a 3 x 4 matrix by one of the methods that
# keep an int64 part without a scan, and names the numerator arrays of that
# part; none of them reads entry (0, 0).
PARTS = {
    "block_slices": (lambda m: m.block(slice(1, 3), slice(0, 2)),
                     lambda a: a[1:3, 0:2]),
    "block_rows_index": (lambda m: m.block([2, 0], slice(1, None)),
                         lambda a: a[[2, 0], 1:]),
    "columns": (lambda m: m.columns([3, 1]), lambda a: a[:, [3, 1]]),
    "row": (lambda m: m.row(1), lambda a: a[1]),
    "column": (lambda m: m.column(2), lambda a: a[:, 2]),
    "take": (lambda m: m.row(0).take([3, 1, 1]), lambda a: a[0, [3, 1, 1]]),
}


def _assert_part_of(part, parent, arrays):
    """part equals, hashes as and is stored as `from_numerators` of the
    same numerator arrays over parent's denominator, is in lowest terms,
    and reads its largest numerator on demand when parent is int64."""
    ref = type(part).from_numerators(*(arrays(a) for a in (parent._re,
                                                          parent._im)),
                                     parent._den)
    if parent._re.dtype == np.int64:
        assert part._mx is None
    assert part == ref and hash(part) == hash(ref)
    assert part._re.dtype == ref._re.dtype and part._im.dtype == ref._im.dtype
    assert part._max() == ref._max()
    assert_canonical_storage(part)
    assert math.gcd(part._den, *map(int, part._re.flat),
                    *map(int, part._im.flat)) == 1


@given(st.lists(st.lists(mixed_scalar, min_size=4, max_size=4),
                min_size=3, max_size=3), st.sampled_from(sorted(PARTS)))
def test_int64_parts_match_from_numerators(grid, name):
    take, arrays = PARTS[name]
    m = ExactMatrix(grid)
    assert m._re.dtype == np.int64
    _assert_part_of(take(m), m, arrays)


@pytest.mark.parametrize("name", sorted(PARTS))
def test_parts_reduce_to_lowest_terms(name):
    # over den 6 every numerator but that of (0, 0) is even, so every part
    # has a smaller denominator than its parent
    grid = [[Fraction(1, 6), 1, Fraction(2, 3), Fraction(2, 3)],
            [Fraction(1, 3), 0, Fraction(2, 3), GaussRat(0, 2)],
            [0, Fraction(1, 3), Fraction(4, 3), GaussRat(1, 1)]]
    m = ExactMatrix(grid)
    assert m._den == 6
    take, arrays = PARTS[name]
    part = take(m)
    assert part._den < m._den
    _assert_part_of(part, m, arrays)


def test_zero_int64_part_over_a_denominator_beyond_int64():
    # the content of an all-zero part is the denominator, which here has no
    # int64 value; the part is the zero vector over 1
    tiny = ExactVector([Fraction(1, 2 ** 70), 0, 0])
    assert tiny._re.dtype == np.int64
    zero = tiny.take([2, 1])
    assert zero == ExactVector([0, 0]) and zero._den == 1
    assert_canonical_storage(zero)


@pytest.mark.parametrize("name", sorted(PARTS))
def test_object_parent_parts_that_fit_int64_are_int64(name):
    # only entry (0, 0) is beyond int64, and no part reads it
    grid = [[Fraction(3 * 2 ** 70, 5), Fraction(2, 5), 1, GaussRat(0, 3)],
            [Fraction(1, 5), GaussRat(0, 2), Fraction(4, 5), 0],
            [2, Fraction(-3, 5), 0, Fraction(6, 5)]]
    m = ExactMatrix(grid)
    assert m._re.dtype == object
    take, arrays = PARTS[name]
    part = take(m)
    assert part._re.dtype == np.int64
    _assert_part_of(part, m, arrays)


def test_zero_operands_take_factors_beyond_int64():
    # a zero array counts as bounded by 1 in every guard: numpy refuses an
    # int64 array times a Python int without an int64 value, even zeros
    tiny = ExactVector([Fraction(1, 2 ** 70), 0])
    zero = ExactVector([0, 0])
    assert zero + tiny == tiny and tiny - zero == tiny
    assert zero.scale(2 ** 70).is_zero()
    assert ExactMatrix.stack([zero, tiny]) == ExactMatrix([[0, 0],
                                                           tiny.entries()])
    assert ExactMatrix.stack([zero]).entries_equal(
        ExactMatrix.stack([tiny])).tolist() == [[False, True]]


# -- exact inverse ------------------------------------------------------------------


square = st.integers(1, 4).flatmap(lambda n: mat_strategy(n, n))


@settings(max_examples=60)
@given(square, st.sampled_from([1, Fraction(1, 3), GaussRat(2, -1),
                                GaussRat(Fraction(1, 2), 3)]))
def test_inverse_matches_gauss_jordan_oracle(m, c):
    # on a nonsingular square matrix every column is a pivot
    m = m.scale(c)
    oracle = naive_inverse(m.to_rows())
    if oracle is None:
        with pytest.raises(SingularMatrixError):
            pivot_inverse(m)
        return
    pivots, inv = pivot_inverse(m)
    assert pivots == list(range(m.cols))
    assert inv == ExactMatrix(oracle)
    assert inv @ m == ExactMatrix.identity(m.rows)


def test_inverse_rejects_singular_and_non_square():
    with pytest.raises(SingularMatrixError):
        pivot_inverse(ExactMatrix([[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        pivot_inverse(ExactMatrix.zeros(3, 3))
    # more rows than columns: the rows are dependent
    with pytest.raises(SingularMatrixError):
        pivot_inverse(ExactMatrix([[1, 0], [0, 1], [1, 1]]))


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(lambda k: mat_strategy(k, 4)))
def test_pivot_inverse_on_leftmost_independent_columns(m):
    rows = m.to_rows()
    if naive_rank(rows) < m.rows:
        with pytest.raises(SingularMatrixError):
            pivot_inverse(m)
        return
    pivots, inv = pivot_inverse(m)
    # a column is a pivot exactly when it raises the rank of its prefix
    prefix_rank = [naive_rank([row[:c] for row in rows])
                   for c in range(m.cols + 1)]
    assert pivots == [c for c in range(m.cols)
                      if prefix_rank[c + 1] > prefix_rank[c]]
    sub = [[row[c] for c in pivots] for row in rows]
    assert inv == ExactMatrix(naive_inverse(sub))


# -- the float64 and int64 bounds of the product kernels ------------------------


def _int_complex_entries(draw, count, e):
    """count Gaussian integers with parts in [-2^e, 2^e], the first one
    on the boundary so the operand's largest magnitude is 2^e."""
    bound = 2 ** e
    part = st.one_of(st.sampled_from([bound, -bound, 0]),
                     st.integers(-bound, bound))
    first = (draw(st.sampled_from([bound, -bound])), draw(part))
    return [first] + [(draw(part), draw(part)) for _ in range(count - 1)]


def _odd_near(draw, e):
    """An odd integer in (2^e, 2^(e+1))."""
    return 2 ** e + 2 * draw(st.integers(0, 2 ** (e - 1) - 1)) + 1


@st.composite
def straddling_operands(draw):
    """Gaussian-integer numerators a (rows x n) over the odd denominator da
    and b (n x cols) over db.  Their magnitudes put the float64 test
    2 * n * max|a| * max|b| <= 2^53 and the int64 test < 2^62 on either side
    of their bounds; the denominators put max|a| * db and max|b| * da, the
    factors that a sum on the common denominator, a scale by db, a stack and
    an entrywise comparison apply, between 2^59 and 2^68, so on either side
    of 2^62 and past 2^63."""
    n = draw(st.integers(1, 4))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ea = draw(st.integers(18, 44))
    eb = draw(st.integers(47 - ea, 62 - ea))
    a = _int_complex_entries(draw, rows * n, ea)
    b = _int_complex_entries(draw, n * cols, eb)
    da = _odd_near(draw, draw(st.integers(59 - eb, 66 - eb)))
    db = _odd_near(draw, draw(st.integers(59 - ea, 66 - ea)))
    return n, rows, cols, a, b, da, db


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gauss(entry, den):
    return GaussRat(Fraction(entry[0], den), Fraction(entry[1], den))


def _as_matrix(entries, rows, cols, den=1):
    return ExactMatrix([[_gauss(entries[r * cols + c], den)
                         for c in range(cols)] for r in range(rows)])


def _assert_rows(m, rows):
    assert_canonical_storage(m)
    assert m.to_rows() == rows


@settings(max_examples=150)
@given(straddling_operands())
def test_products_across_int64_bound_match_python_ints(ops):
    n, rows, cols, a, b, da, db = ops
    am = _as_matrix(a, rows, n, da)
    bm = _as_matrix(b, n, cols, db)
    prod = am @ bm
    assert_canonical_storage(prod)
    for r in range(rows):
        for c in range(cols):
            terms = [_cmul(a[r * n + k], b[k * cols + c]) for k in range(n)]
            assert prod[r, c] == _gauss((sum(t[0] for t in terms),
                                         sum(t[1] for t in terms)), da * db)
    v = ExactVector([_gauss(b[k * cols], db) for k in range(n)])
    mv = am.matvec(v)
    assert_canonical_storage(mv)
    for r in range(rows):
        terms = [_cmul(a[r * n + k], b[k * cols]) for k in range(n)]
        assert mv[r] == _gauss((sum(t[0] for t in terms),
                                sum(t[1] for t in terms)), da * db)
    u = ExactVector([_gauss(a[k], da) for k in range(n)])
    conj_terms = [_cmul(a[k], (b[k * cols][0], -b[k * cols][1]))
                  for k in range(n)]
    assert inner(u, v) == _gauss((sum(t[0] for t in conj_terms),
                                  sum(t[1] for t in conj_terms)), da * db)


@settings(max_examples=150)
@given(straddling_operands())
def test_sums_scales_stacks_across_int64_bound_match_python_ints(ops):
    # every value on the left is built through the library's int64 guards,
    # every value on the right in GaussRat arithmetic one entry at a time
    n, rows, cols, a, b, da, db = ops
    x, y = _as_matrix(a, rows, n, da), _as_matrix(b, cols, n, db)
    gx = [[_gauss(a[r * n + k], da) for k in range(n)] for r in range(rows)]
    gy = [[_gauss(b[r * n + k], db) for k in range(n)] for r in range(cols)]
    u, w = x.row(0), y.row(0)
    for vec, want in ((u + w, [p + q for p, q in zip(gx[0], gy[0])]),
                      (u - w, [p - q for p, q in zip(gx[0], gy[0])]),
                      (w - u, [q - p for p, q in zip(gx[0], gy[0])])):
        assert_canonical_storage(vec)
        assert vec.entries() == want
    _assert_rows(x.block(slice(0, 1), slice(None))
                 + y.block(slice(0, 1), slice(None)),
                 [[p + q for p, q in zip(gx[0], gy[0])]])
    for c in (GaussRat(db), GaussRat(0, db), GaussRat(db, -db)):
        _assert_rows(x.scale(c), [[e * c for e in row] for row in gx])
    _assert_rows(ExactMatrix.stack([x, y]), gx + gy)
    _assert_rows(ExactMatrix.stack([u, y, w]), [gx[0]] + gy + [gy[0]])
    # x's first row over da against itself and y's rows over lcm(da, db):
    # the first rows agree, the others where two entries happen to
    xy = ExactMatrix(gx[:1] + gy)
    assert_canonical_storage(xy)
    firsts = ExactMatrix.stack([u] * (1 + cols))
    want = [[p == q for p, q in zip(row, gx[0])] for row in gx[:1] + gy]
    assert xy.entries_equal(firsts).tolist() == want
    assert firsts.entries_equal(xy).tolist() == want
    assert first_discrepancy(xy, firsts) == naive_first_discrepancy(xy,
                                                                    firsts)
    # x's and y's first rows over da and db
    want = [[p == q for p, q in zip(gx[0], gy[0])]]
    assert ExactMatrix.stack([u]).entries_equal(
        ExactMatrix.stack([w])).tolist() == want
    assert ExactMatrix.stack([w]).entries_equal(
        ExactMatrix.stack([u])).tolist() == want


def _aligned_dots(a_entries, b_entries, want):
    am = ExactMatrix([a_entries])
    bm = ExactMatrix([[e] for e in b_entries])
    assert (am @ bm)[0, 0] == want
    assert am.matvec(bm.column(0))[0] == want
    assert inner(ExactVector(a_entries), bm.column(0).conj()) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("bits", range(50, 64))
def test_aligned_extremes_at_int64_bound(n, bits):
    # every term of the dot has the largest magnitude and the same sign, so
    # the exact sums n * 2^(bits+1) reach and pass 2^53 and 2^63
    a, b = 2 ** (bits // 2), 2 ** (bits - bits // 2)
    for br, bi, want in ((b, -b, GaussRat(n * 2 * a * b, 0)),
                         (b, b, GaussRat(0, n * 2 * a * b))):
        _aligned_dots([GaussRat(a, a)] * n, [GaussRat(br, bi)] * n, want)
    # an odd sum 2^bits + 1, split as evenly as it goes over the 2n parts of
    # (1 + i) * b_k, so it is as large as the bound allows; from 2^53 on
    # float64 cannot hold it, and a float tier taken above the bound rounds
    total = 2 ** bits + 1
    q, r = divmod(total, 2 * n)
    parts = [q + 1] * r + [q] * (2 * n - r)
    ys, zs = parts[0::2], parts[1::2]
    skew = sum(ys) - sum(zs)
    _aligned_dots([GaussRat(1, 1)] * n,
                  [GaussRat(y, -z) for y, z in zip(ys, zs)],
                  GaussRat(total, skew))
    _aligned_dots([GaussRat(1, 1)] * n,
                  [GaussRat(y, z) for y, z in zip(ys, zs)],
                  GaussRat(skew, total))


@st.composite
def gauss_int_vectors(draw):
    """Two Gaussian-integer vectors whose largest parts are 2^ea and 2^eb,
    on either side of 2^62 and with products on either side of the float64
    and the int64 bound, over denominators 1, 3 or 12."""
    n = draw(st.integers(1, 4))
    ea = draw(st.integers(25, 66))
    eb = draw(st.integers(max(1, 47 - ea), 66))
    vectors = []
    for e in (ea, eb):
        parts = _int_complex_entries(draw, n, e)
        den = draw(st.sampled_from([1, 3, 12]))
        vectors.append(ExactVector([GaussRat(Fraction(re, den),
                                             Fraction(im, den))
                                    for re, im in parts]))
    return vectors


@settings(max_examples=150)
@given(gauss_int_vectors())
def test_inner_is_the_product_with_the_adjoint(uv):
    u, v = uv
    gram = ExactMatrix.stack([u]) @ ExactMatrix.stack([v]).adjoint()
    assert inner(u, v) == gram[0, 0]
    oracle = GaussRat(0)
    for k in range(u.length):
        oracle = oracle + u[k] * v[k].conj()
    assert inner(u, v) == oracle


def _object_dots(a, b):
    """The complex product's numerator arrays by np.dot on object copies of
    a's and b's numerators, so on Python ints."""
    ar, ai = a._re.astype(object), a._im.astype(object)
    br, bi = b._re.astype(object), b._im.astype(object)
    return (np.dot(ar, br) - np.dot(ai, bi), np.dot(ar, bi) + np.dot(ai, br))


@pytest.mark.parametrize("D", range(1, 7))
def test_float_tier_equals_python_int_dots_on_cube_matrices(D):
    # the whole-matrix products of the paper's identities: real (E_i E_j,
    # A A*), complex (Ee_i Ee_j, P P^-1) and mixed (A Ae, E_i Ee_i)
    ctx = get_ctx(D)
    pairs = [(ctx.A, ctx.Astar), (ctx.P, p_inverse(ctx)), (ctx.A, ctx.Aeps)]
    E, Eeps = ctx.E, ctx.Eeps
    for i in range(D + 1):
        pairs.append((E[i], Eeps[i]))
        for j in range(D + 1):
            pairs.append((E[i], E[j]))
            pairs.append((Eeps[i], Eeps[j]))
    for a, b in pairs:
        assert fits_f64(ctx.n, a._max(), b._max())
        cr, ci = _product(a, b)
        assert cr.dtype == ci.dtype == np.int64
        want_r, want_i = _object_dots(a, b)
        assert np.array_equal(cr, want_r) and np.array_equal(ci, want_i)


def test_zero_operand_with_entries_beyond_int64():
    # the float64 bound holds for any partner of a zero operand; 2^1100
    # has no float64 value, so that partner must not be converted
    for big in (2 ** 70, 2 ** 1100):
        assert (ExactMatrix([[big]]) @ ExactMatrix([[0]])).is_zero()
        assert ExactMatrix([[0]]).matvec(ExactVector([big])).is_zero()
        assert inner(ExactVector([big]), ExactVector([0])).is_zero()


# -- first discrepancy -------------------------------------------------------------


@given(mat_strategy(3, 4), mat_strategy(3, 4),
       st.lists(st.booleans(), min_size=12, max_size=12),
       st.sampled_from([Fraction(1, 3), GaussRat(Fraction(1, 2), 1),
                        GaussRat(0, Fraction(1, 5))]))
def test_first_discrepancy_matches_entry_oracle(a, b, keep, c):
    # `other` takes each entry from a c where `keep` says so, else from b / 2;
    # the two matrices sit on different denominators
    a = a.scale(c)
    ga, gb = a.to_rows(), b.scale(Fraction(1, 2)).to_rows()
    other = ExactMatrix([[ga[r][k] if keep[4 * r + k] else gb[r][k]
                          for k in range(4)] for r in range(3)])
    assert first_discrepancy(a, other) == naive_first_discrepancy(a, other)
    assert first_discrepancy(other, a) == naive_first_discrepancy(other, a)
    assert first_discrepancy(a, a.scale(Fraction(7, 7))) is None


def test_first_discrepancy_examples():
    half = ExactMatrix([[Fraction(1, 2), 1], [GaussRat(0, Fraction(1, 2)), 0]])
    sixth = ExactMatrix([[Fraction(1, 2), 1], [GaussRat(0, Fraction(1, 2)),
                                               Fraction(1, 3)]])
    assert first_discrepancy(half, sixth) == (1, 1)
    assert first_discrepancy(half, half) is None
    assert first_discrepancy(half, ExactMatrix.zeros(2, 3)) == (0, 0)
