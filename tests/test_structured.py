"""Block operators of the module layer against the dense matrices.

Every structured operator (`CubeContext.apply`), and every projection of
the 2^D oracle path (`conftest.project`), over the full range of i and over
a window of it, must equal, row for row, the stack of dense matvecs with
the context's own matrices, or for P with the Kronecker power of its
factor, on both sides of each int64 bound.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OutsideWindow, assert_canonical_storage, basis_vector,
                      dense_ladder, gather_eigen_discrepancy, get_ctx,
                      kron_power, project, window_images)
from tcube.cube import P1, ConstructionError
from tcube.linalg import I64_LIMIT, ExactMatrix, first_discrepancy
from tcube.scalar import GaussRat

OPERATORS = ("A", "Astar", "Aeps", "L", "R", "P")
FAMILIES = ("E", "Estar", "Eeps")


def _dense(ctx, op):
    if op in ("L", "R"):
        return dense_ladder(ctx)[op == "R"]
    if op == "P":
        # ctx.P is the block operator's own image of I
        return kron_power(P1, ctx.D)
    return getattr(ctx, op)


def _dense_rows(matrix, block):
    return ExactMatrix.stack([matrix.matvec(block.row(k))
                              for k in range(block.rows)])


def _random_block(rng, rows, n, big):
    """Gaussian rationals with small denominators; with `big`, numerators
    reach past 2^62 so every kernel takes its object fallback."""
    top = 2 ** 70 if big else 9

    def entry():
        return GaussRat(Fraction(rng.randint(-top, top), rng.randint(1, 6)),
                        Fraction(rng.randint(-top, top), rng.randint(1, 6)))
    return ExactMatrix([[entry() for _ in range(n)] for _ in range(rows)])


def _assert_window_images_equal_dense(ctx, family, block, window):
    """The images of block over the window (or over every i, when block
    has content outside it) equal the dense ones, in canonical storage, and
    every image left out is zero."""
    got = window_images(ctx, family, block, window)
    members = getattr(ctx, family)
    for i in range(ctx.D + 1):
        dense = _dense_rows(members[i], block)
        if i in got:
            assert_canonical_storage(got[i])
            assert got[i] == dense, (family, i)
        else:
            assert i not in window and dense.is_zero(), (family, i)


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("D", range(1, 8))
def test_block_operators_equal_dense_matvecs(D, big):
    ctx = get_ctx(D)
    block = _random_block(random.Random(D), 3, ctx.n, big)
    assert (block._max() >= I64_LIMIT) == big
    for op in OPERATORS:
        assert ctx.apply(op, block) == _dense_rows(_dense(ctx, op), block), op
    for family in FAMILIES:
        parts = project(ctx, family, block, range(D + 1))
        assert len(parts) == D + 1
        for i, (part, member) in enumerate(zip(parts, getattr(ctx, family))):
            assert part == _dense_rows(member, block), \
                (family, i)
        for lo in range(D + 1):
            for hi in range(lo + 1, D + 2):
                window = range(lo, hi)
                # every part of the random block is nonzero, so a window
                # short of the full range leaves content outside it
                if hi - lo <= D:
                    with pytest.raises(OutsideWindow) as exc:
                        project(ctx, family, block, window)
                    assert exc.value.parts == parts
                # the sum of the window parts is a block with content
                # inside the window only, and these are its parts there
                inside = parts[lo]
                for part in parts[lo + 1:hi]:
                    inside = inside + part
                assert project(ctx, family, inside, window) == parts[lo:hi], \
                    (family, lo, hi)


# -- the int64 bounds ------------------------------------------------------------
#
# Each kernel takes int64 when its bound holds for the block's largest
# numerator m:
#   gathers        2 * k * v * m < 2^62 for k entries per row of largest
#                  numerator v: k = D, v = 1 for A, Aeps, L and R, and
#                  k = 1, v = D for Astar
#   P              m * 2^D < 2^62
#   E and Eeps     m * 4^D * (2D + 2) < 2^62 (with A's numerators 1)


def _threshold_bits(op, D):
    """log2 of the largest m for which the kernel of op takes int64."""
    n = 2 ** D
    factor = {"P": n, "E": n * n * (2 * D + 2), "Eeps": n * n * (2 * D + 2),
              "Estar": 1}.get(op, 2 * D)
    return 62 - math.log2(factor)


@st.composite
def straddling_blocks(draw):
    """(D, op, block, window): entries up to 2^e with e on either side of
    the op's int64 threshold, or above it up to 2^61, where the block is
    still stored as int64 but its sums pass 2^63 unless the kernel takes its
    object fallback; the first entry at +-2^e.  The window is a range of
    the i of a projection."""
    D = draw(st.integers(1, 4))
    op = draw(st.sampled_from(OPERATORS + FAMILIES))
    center = int(_threshold_bits(op, D))
    e = draw(st.one_of(st.integers(center - 2, center + 2),
                       st.integers(min(center, 61), 61)))
    bound = 2 ** e
    part = st.one_of(st.sampled_from([bound, -bound, 0]),
                     st.integers(-bound, bound))
    n, rows = 2 ** D, draw(st.integers(1, 3))
    entries = [(draw(part), draw(part)) for _ in range(rows * n)]
    entries[0] = (draw(st.sampled_from([bound, -bound])), draw(part))
    lo = draw(st.integers(0, D))
    window = range(lo, draw(st.integers(lo + 1, D + 1)))
    return D, op, ExactMatrix([[GaussRat(*entries[r * n + c])
                                for c in range(n)] for r in range(rows)]), \
        window


@settings(max_examples=150, deadline=None)
@given(straddling_blocks())
def test_block_kernels_across_int64_bounds_equal_dense(case):
    D, op, block, window = case
    ctx = get_ctx(D)
    if op in FAMILIES:
        for i, part in enumerate(project(ctx, op, block, range(D + 1))):
            assert_canonical_storage(part)
            assert part == _dense_rows(getattr(ctx, op)[i], block)
        _assert_window_images_equal_dense(ctx, op, block, window)
    else:
        image = ctx.apply(op, block)
        assert_canonical_storage(image)
        assert image == _dense_rows(_dense(ctx, op), block)


@pytest.mark.parametrize("D", [1, 3, 5])
@pytest.mark.parametrize("op", OPERATORS + FAMILIES)
def test_aligned_extremes_at_int64_bounds(op, D):
    # every entry has the largest magnitude and the same sign, which makes
    # the sums of the Walsh-Hadamard, butterfly and gather kernels as large
    # as their bounds allow: just inside and just outside each bound, and
    # at 2^61 - 1, where a sum of four aligned terms passes 2^63
    ctx = get_ctx(D)
    bits = math.floor(_threshold_bits(op, D))
    for m in (2 ** bits - 1, 2 ** (bits + 1), 2 ** 61 - 1):
        block = ExactMatrix([[GaussRat(m, m)] * ctx.n, [m] * ctx.n])
        if op in FAMILIES:
            for i, part in enumerate(project(ctx, op, block, range(D + 1))):
                assert part == _dense_rows(getattr(ctx, op)[i], block)
            # constant rows lie in E_0 W alone: the window path at the bound
            _assert_window_images_equal_dense(ctx, op, block, range(1))
        else:
            assert ctx.apply(op, block) == _dense_rows(_dense(ctx, op), block)


# -- the checks behind the structured operators -------------------------------------


def _base_vertex_block(ctx):
    return ExactMatrix.stack([basis_vector(ctx.n, 0)])


@pytest.mark.parametrize("family", ["E", "Eeps"])
def test_block_certificate_rejects_flipped_adjacency(family):
    # the base vertex has content in every E_i, so a window short of the
    # full range fails its sum and the full certificate names E_0
    flipped = get_ctx(3).with_flipped_sign("A", 0, 1)
    for window in (range(4), range(1), range(1, 3)):
        with pytest.raises(ConstructionError, match=r"A E_0 != 3 E_0"):
            project(flipped, family, _base_vertex_block(flipped), window)


@pytest.mark.parametrize("family", ["E", "Eeps"])
def test_window_certificate_checks_each_part_against_adjacency(family):
    # content inside the window 1..2 only sums to the block, so each window
    # part must still be checked as an eigenvector of the flipped A
    parts = project(get_ctx(3), family, _base_vertex_block(get_ctx(3)),
                    range(4))
    flipped = get_ctx(3).with_flipped_sign("A", 0, 1)
    with pytest.raises(ConstructionError, match=r"A E_1 != 1 E_1"):
        project(flipped, family, parts[1] + parts[2], range(1, 3))


def test_block_certificate_not_tied_to_imaginary_adjacency():
    # Eeps is certified through E against A, never against Aeps
    flipped = get_ctx(3).with_flipped_sign("Aeps", 0, 1)
    block = _base_vertex_block(flipped)
    assert project(flipped, "Eeps", block, range(4)) == \
        project(get_ctx(3), "Eeps", block, range(4))
    every = ExactMatrix.identity(8)
    assert flipped.apply("Aeps", every) != get_ctx(3).apply("Aeps", every)


def test_flipped_sign_resets_block_operators():
    ctx = get_ctx(3)
    block = _base_vertex_block(ctx)
    ctx.apply("Astar", block)
    flipped = ctx.with_flipped_sign("Astar", 0, 0)
    assert flipped.apply("Astar", block) == ctx.apply("Astar", block).scale(-1)


def test_block_shape_and_names_are_checked():
    ctx = get_ctx(2)
    with pytest.raises(ValueError):
        ctx.apply("A", ExactMatrix.identity(3))
    with pytest.raises(ValueError):
        project(ctx, "E", ExactMatrix.identity(3), range(3))
    with pytest.raises(ValueError):
        ctx.apply("Estar", ExactMatrix.identity(4))
    with pytest.raises(ValueError):
        project(ctx, "A", ExactMatrix.identity(4), range(3))


@pytest.mark.parametrize("D", range(1, 7))
def test_gathers_on_real_and_complex_blocks_equal_dense(D):
    # a real block skips the flips and products of its zero imaginary part,
    # and P's transform of it
    ctx = get_ctx(D)
    complex_block = _random_block(random.Random(100 + D), 3, ctx.n, False)
    real_block = ExactMatrix.from_numerators(
        complex_block._re, 0 * complex_block._re, complex_block._den)
    for op in ("A", "Astar", "Aeps", "L", "R", "P"):
        for block in (real_block, complex_block):
            image = ctx.apply(op, block)
            assert_canonical_storage(image)
            assert image == block @ _dense(ctx, op).transpose(), op


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("flip", [None, "A", "Aeps"])
def test_eigen_discrepancy_equals_dense(flip, big):
    # op @ m and m @ op against theta m on a family member, by the clean
    # part on its first row plus the lines of the flipped entry, give the
    # first discrepancy of the dense products and of the full edge gather,
    # with the true and a wrong theta, on both sides of the int64 bound
    clean = get_ctx(3)
    ctx = clean if flip is None else clean.with_flipped_sign(flip, 0, 1)
    scale = 2 ** 70 if big else 1
    for op, family in (("A", clean.E), ("Aeps", clean.Eeps)):
        dense = getattr(ctx, op)
        for i, (e, member) in enumerate(zip(clean.E, family)):
            e, member = e.scale(scale), member.scale(scale)
            assert (member._max() >= I64_LIMIT) == big
            first = e.block(slice(0, 1), slice(None))
            for theta in (ctx.theta[i], ctx.theta[i] + 2):
                for right, product in ((False, dense @ member),
                                       (True, member @ dense)):
                    want = member.scale(theta)
                    expected = (None if product == want
                                else first_discrepancy(product, want))
                    assert ctx.family_eigen_discrepancy(
                        op, first, theta, right) == expected, \
                        (op, i, theta, right)
                    assert gather_eigen_discrepancy(
                        ctx, op, member, theta, right) == expected


@pytest.mark.parametrize("top", [3, 2 ** 61])
def test_combination_equals_repeated_sums(top):
    rng = random.Random(top % 97)
    terms = [_random_block(rng, 4, 4, False).scale(top) for _ in range(3)]
    weights = [2, -1, 5]
    total = ExactMatrix.zeros(4, 4)
    for t, w in zip(terms, weights):
        total = total + t.scale(w)
    got = ExactMatrix.combination(terms, weights)
    assert_canonical_storage(got)
    assert got == total
    assert ExactMatrix.combination(terms) == terms[0] + terms[1] + terms[2]
