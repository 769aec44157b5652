"""Module decomposition: ladder operators, kernel seeding, multiplicities,
invariant validation, seed normalization."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FieldExtensionRequired, InfeasibleTargets, all_passed,
                      basis_vector, block_rows, check_images_thin,
                      dense_ladder, dense_orthogonal_sum, elimination_seeds,
                      get_ctx, get_decomposition, naive_rank,
                      naive_spectral_parts, normalize_seeds,
                      oracle_decompose, oracle_endpoint_modules, oracle_seeds,
                      product_calls, project, representation_matrix,
                      seed_gram, seed_inner, window_images)
from tcube import cli, cube, decomposition
from tcube.cube import build_context
from tcube.decomposition import (FRAME_OPS, SEED_NAMES, InvariantViolation,
                                 _check_orthogonal_sum, _endpoint_modules,
                                 _seed_step, closed_form_seeds, decompose,
                                 multiplicity, proportional_rows,
                                 spectral_parts, verify_seed_norms)
from tcube.linalg import ExactMatrix, ExactVector, inner, rank
from tcube.scalar import GaussRat


def _restricted_lowering(ctx, r):
    """L restricted to slice r, as rows over the slice below (oracle input)."""
    cols = ctx.slice_indices(r)
    rows = ctx.slice_indices(r - 1) if r >= 1 else []
    return [[ctx.A[y, z] for z in cols] for y in rows]


def _block_matrix(ctx, op):
    """The dense matrix of a block operator: its images of the unit vectors
    are the rows of op^T."""
    return ctx.apply(op, ExactMatrix.identity(ctx.n)).transpose()


def test_lowering_plus_raising_is_adjacency():
    ctx = get_ctx(4)
    assert _block_matrix(ctx, "L") + _block_matrix(ctx, "R") == ctx.A
    assert (_block_matrix(ctx, "L"), _block_matrix(ctx, "R")) == \
        dense_ladder(ctx)


def test_lowering_kills_bottom_slice():
    ctx = get_ctx(3)
    bottom = ExactMatrix.stack([basis_vector(8, 0)])
    assert ctx.apply("L", bottom).is_zero()


def test_adjoint_of_lowering_is_raising():
    ctx = get_ctx(4)
    assert _block_matrix(ctx, "L").adjoint() == _block_matrix(ctx, "R")


def test_kernel_dimension_oracle_d3():
    # dim ker(L restricted to slice 1) = C(3,1) - C(3,0) = 2
    ctx = get_ctx(3)
    rows = _restricted_lowering(ctx, 1)
    assert len(rows[0]) - naive_rank(rows) == 2


def test_multiplicity_examples():
    assert multiplicity(4, 2) == 2
    assert multiplicity(5, 0) == 1
    with pytest.raises(ValueError):
        multiplicity(4, 3)
    # oracle for (4, 2): kernel dimension of L on slice 2
    ctx = get_ctx(4)
    rows = _restricted_lowering(ctx, 2)
    assert len(rows[0]) - naive_rank(rows) == 2


@pytest.mark.parametrize("D", range(1, 9))
def test_multiplicity_sum_is_total_dimension(D):
    assert sum(multiplicity(D, r) * (D - 2 * r + 1)
               for r in range(D // 2 + 1)) == 2 ** D


@pytest.mark.parametrize("D", range(1, 11))
def test_closed_form_seeds_are_an_orthogonal_kernel_basis(D):
    # for every endpoint r: multiplicity(D, r) nonzero integer vectors on
    # slice r, pairwise orthogonal (a Gram on Python ints) and annihilated
    # by the context's L
    ctx = get_ctx(D) if D <= 8 else build_context(D)
    seeds = closed_form_seeds(D)
    assert sorted(seeds) == list(range(D // 2 + 1))
    for r, w in seeds.items():
        assert w.dtype == np.int64
        assert w.shape == (multiplicity(D, r), ctx.n)
        cols = ctx.slice_indices(r)
        off_slice = np.delete(w, cols, axis=1)
        assert not off_slice.any()
        on_slice = w[:, cols].astype(object)
        gram = on_slice @ on_slice.T
        assert (gram[~np.eye(len(w), dtype=bool)] == 0).all()
        assert (np.diagonal(gram) > 0).all()
        block = ExactMatrix.from_numerators(w, 0 * w, 1)
        assert ctx.apply("L", block).is_zero()


@pytest.mark.parametrize("D", range(1, 9))
def test_closed_form_seeds_span_the_elimination_kernel(D):
    # the kernel basis by elimination and Gram-Schmidt spans the same space:
    # the two stacked have rank equal to the count
    ctx = get_ctx(D)
    for r, w in closed_form_seeds(D).items():
        oracle = elimination_seeds(ctx, r)
        assert oracle.rows == len(w)
        seeds = ExactMatrix.from_numerators(w, 0 * w, 1)
        assert rank(ExactMatrix.stack([seeds, oracle])) == len(w)


def test_seed_step_falls_to_python_ints_past_the_int64_bound():
    # a step multiplies the largest entry by at most D: 4 * 2^61 has no
    # int64 value, so the step from int64 seeds near 2^61 runs on Python
    # ints, and by linearity gives the scaled seeds of Q_4
    prev = closed_form_seeds(3)
    big = 2 ** 61 // max(int(abs(w).max()) for w in prev.values())
    scaled = _seed_step({r: w * big for r, w in prev.items()}, 4)
    for r, w in _seed_step(prev, 4).items():
        assert w.dtype == np.int64
        assert scaled[r].dtype == object
        assert (scaled[r] == w.astype(object) * big).all()


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_seed_count_is_checked(monkeypatch, change):
    # one seed too few or too many at endpoint 1 of Q_4 fails the count
    # before any module of that endpoint is built
    honest = closed_form_seeds(4)
    w = honest[1][:-1] if change == "drop" else honest[1][[0, 0, 1, 2]]
    monkeypatch.setattr(decomposition, "closed_form_seeds",
                        lambda _: {**honest, 1: w})
    with pytest.raises(InvariantViolation,
                       match=rf"^endpoint 1: {len(w)} seeds, expected "
                             r"C\(D,r\) - C\(D,r-1\) = 3$"):
        decompose(get_ctx(4))


def test_decompose_d1_single_module():
    dec = get_decomposition(1)
    assert len(dec.modules) == 1
    m = dec.modules[0]
    assert (m.r, m.d, m.dim) == (0, 1, 2)
    # spans C^2: the two slice vectors are the standard basis up to scale
    assert m.slice_basis.shape == (2, 2)
    assert not m.slice_basis.row(0).is_zero()
    assert not m.slice_basis.row(1).is_zero()


def test_decompose_d2_structure():
    dec = get_decomposition(2)
    shape = sorted((m.r, m.dim) for m in dec.modules)
    assert shape == [(0, 3), (1, 1)]
    assert dec.multiplicities == {0: 1, 1: 1}


def test_decompose_d3_structure():
    dec = get_decomposition(3)
    shape = sorted((m.r, m.dim) for m in dec.modules)
    assert shape == [(0, 4), (1, 2), (1, 2)]
    assert dec.multiplicities == {0: 1, 1: 2}


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_decompose_counts_match_closed_form(D):
    dec = get_decomposition(D)
    for r, count in dec.multiplicities.items():
        assert count == multiplicity(D, r)
    assert sum(m.dim for m in dec.modules) == 2 ** D


@pytest.mark.parametrize("D", [3, 4, 5])
def test_tridiagonal_action_on_slice_basis(D):
    ctx = get_ctx(D)
    for m in get_decomposition(D).modules:
        basis = block_rows(m.slice_basis)
        for k, b in enumerate(basis):
            image = ctx.A.matvec(b)
            below = basis[k - 1] if k >= 1 else None
            above = basis[k + 1] if k < m.d else None
            recon = ExactVector.zeros(ctx.n)
            for nb in (below, above):
                if nb is None:
                    continue
                coeff = inner(image, nb) / inner(nb, nb)
                recon = recon + nb.scale(coeff)
            assert image == recon


@pytest.mark.parametrize("D", [3, 4])
def test_module_p_cycle(D):
    # P maps E_i W -> Estar_i W -> Eeps_i W -> E_i W inside the window of
    # the same module W, by the projections over 2^D; decompose certifies
    # P W in W for every module through its frame
    ctx = get_ctx(D)
    for m in get_decomposition(D).modules:
        window = range(m.r, m.r + m.d + 1)
        seed = ExactMatrix.stack([m.u_star])
        e_vecs, eps_vecs = ([part.row(0)
                             for part in project(ctx, family, seed, window)]
                            for family in ("E", "Eeps"))
        star_vecs = block_rows(m.slice_basis)
        shifted = ctx.apply("P", ExactMatrix.stack(e_vecs + star_vecs
                                                   + eps_vecs))
        ok = proportional_rows(shifted, ExactMatrix.stack(
            star_vecs + eps_vecs + e_vecs))
        assert ok.all(), (m.r, m.index, ok.reshape(3, m.d + 1))


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_seed_norm_relations(D):
    for m in get_decomposition(D).modules:
        assert all_passed(verify_seed_norms(m))


def test_seed_window_nonvanishing_d4():
    ctx = get_ctx(4)
    E, Eeps = ctx.E, ctx.Eeps
    for m in get_decomposition(4).modules:
        for i in range(5):
            in_window = m.r <= i <= m.r + m.d
            assert (not E[i].matvec(m.u_star).is_zero()) == in_window
            assert (not Eeps[i].matvec(m.u_star).is_zero()) == in_window


def test_normalize_seeds_round_trip():
    dec = get_decomposition(3)
    m = dec.modules[1]
    a0 = seed_inner(m, "u", "u*")
    b0 = seed_inner(m, "u*", "ue")
    c0 = seed_inner(m, "ue", "u")
    # scaling the current products by the positive rational q = delta_0 makes
    # delta = q^2, a perfect square, so these targets are always realizable
    prod = (a0 * b0 * c0 * GaussRat(1, 1) ** m.d).re
    q = prod / (c0.abs_sq() * inner(m.u_star, m.u_star).re)
    targets = (a0 * q, b0 * q, c0 * q)
    seeds = normalize_seeds(m, *targets)
    gram = m.frame.gram_of(seeds).scale(m.norm)

    def rescaled(first, second):
        return gram[SEED_NAMES.index(first), SEED_NAMES.index(second)]

    assert rescaled("u", "u*") == targets[0]
    assert rescaled("u*", "ue") == targets[1]
    assert rescaled("ue", "u") == targets[2]
    # the rescaled seeds still satisfy the norm relations, and the invariant
    # scalar is positive (verify_seed_norms on them)
    a, b, c = targets
    one_plus_i_d = GaussRat(1, 1) ** m.d
    assert rescaled("u", "u") == one_plus_i_d * a * c / rescaled("ue", "u*")
    assert rescaled("u*", "u*") == \
        one_plus_i_d * b * a / rescaled("u", "ue")
    assert rescaled("ue", "ue") == \
        one_plus_i_d * c * b / rescaled("u*", "u")
    scalar = a * b * c * one_plus_i_d
    assert scalar.is_real() and scalar.re > 0


def test_normalize_seeds_rejects_zero_target():
    m = get_decomposition(3).modules[0]
    with pytest.raises(InfeasibleTargets):
        normalize_seeds(m, GaussRat(0), GaussRat(1), GaussRat(1))


def test_normalize_seeds_rejects_nonpositive_product():
    m = get_decomposition(3).modules[0]
    with pytest.raises(InfeasibleTargets):
        normalize_seeds(m, GaussRat(1), GaussRat(1), GaussRat(1, 1))


def test_normalize_seeds_field_extension():
    m = get_decomposition(3).modules[1]
    a0 = seed_inner(m, "u", "u*")
    b0 = seed_inner(m, "u*", "ue")
    c0 = seed_inner(m, "ue", "u")
    prod = (a0 * b0 * c0 * GaussRat(1, 1) ** m.d).re
    q = prod / (c0.abs_sq() * inner(m.u_star, m.u_star).re)
    # scaling all three targets by 2q makes delta = 2q^2: never a square in Q
    with pytest.raises(FieldExtensionRequired):
        normalize_seeds(m, a0 * (2 * q), b0 * (2 * q), c0 * (2 * q))


def test_scaling_seeds_by_i_preserves_inner_products():
    m = get_decomposition(2).modules[0]
    i_unit = GaussRat(0, 1)
    u, us, ue = m.u.scale(i_unit), m.u_star.scale(i_unit), m.u_eps.scale(i_unit)
    assert inner(u, us) == seed_inner(m, "u", "u*")
    assert inner(us, ue) == seed_inner(m, "u*", "ue")
    assert inner(ue, u) == seed_inner(m, "ue", "u")


@pytest.mark.parametrize("D", range(1, 9))
def test_seed_gram_holds_the_nine_inner_products(D):
    # the Gram of the seed coordinates through the frame's Gram, times the
    # module's norm, against the Gram of the seeds mapped back over 2^D
    for m in get_decomposition(D).modules:
        assert seed_gram(m) == m.seeds @ m.seeds.adjoint()


def test_cross_module_orthogonality_d4():
    modules = get_decomposition(4).modules
    for a in range(len(modules)):
        for b in range(a):
            for va in block_rows(modules[a].slice_basis):
                for vb in block_rows(modules[b].slice_basis):
                    assert inner(va, vb).is_zero()


def _with_slice_vector(mod, k, vector):
    rows = block_rows(mod.slice_basis)
    rows[k] = vector
    return replace(mod, slice_basis=ExactMatrix.stack(rows))


def _orthogonality_verdict(check, ctx, modules):
    try:
        check(ctx, modules)
    except InvariantViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("D", range(1, 9))
def test_sliced_orthogonality_check_agrees_with_dense(D):
    ctx = get_ctx(D)
    modules = list(get_decomposition(D).modules)
    cases = [modules, modules[:-1]]
    # the last module's first vector, on slice r, plus another module's
    # vector on that slice: same slice, not orthogonal to that module
    last = modules[-1]
    for other in modules[:-1]:
        if other.r <= last.r:
            shifted = last.slice_basis.row(0) + \
                other.slice_basis.row(last.r - other.r)
            cases.append(modules[:-1] + [_with_slice_vector(last, 0,
                                                            shifted)])
            break
    verdicts = [(_orthogonality_verdict(_check_orthogonal_sum, ctx, case),
                 _orthogonality_verdict(dense_orthogonal_sum, ctx, case))
                for case in cases]
    assert all(sliced == dense for sliced, dense in verdicts), verdicts
    assert verdicts[0] == (None, None)
    assert all(sliced is not None for sliced, _ in verdicts[1:])


def test_same_slice_non_orthogonal_vector_names_the_pair():
    # module 2 of Q_3 (r = 1) gets on its slice 1 the vector of module 0
    # (r = 0) on slice 1 added: the pair (0, 2) fails, first in the order
    # of the dense Gram
    ctx = get_ctx(3)
    modules = list(get_decomposition(3).modules)
    m0, m2 = modules[0], modules[2]
    assert (m0.r, m2.r) == (0, 1)
    modules[2] = _with_slice_vector(
        m2, 0, m2.slice_basis.row(0) + m0.slice_basis.row(1))
    for check in (_check_orthogonal_sum, dense_orthogonal_sum):
        with pytest.raises(InvariantViolation,
                           match=r"^modules 0 and 2 are not orthogonal$"):
            check(ctx, modules)


@pytest.mark.parametrize("family", ["E", "Eeps"])
def test_content_outside_the_window_is_named(family):
    # a module of Q_3 with r = 1 has the window 1..2; the image of the base
    # vertex under family_0 is content outside it
    ctx = get_ctx(3)
    m = next(m for m in get_decomposition(3).modules if m.r == 1)
    window = range(m.r, m.r + m.d + 1)
    parts = window_images(ctx, family, m.slice_basis, window)
    assert list(parts) == list(window)
    stray = project(ctx, family, ExactMatrix.identity(ctx.n),
                    range(ctx.D + 1))[0]
    block = ExactMatrix.stack([m.slice_basis.row(0) + stray.row(0),
                               m.slice_basis.row(1)])
    parts = window_images(ctx, family, block, window)
    assert list(parts) == list(range(ctx.D + 1))
    with pytest.raises(InvariantViolation, match=rf"^module r=1 index="
                       rf"{m.index}: {family}_0 W nonzero outside the "
                       rf"window$"):
        check_images_thin(parts, m.r, m.d, m.index, family)


def test_proportional_helper():
    def proportional(v, w):
        return bool(proportional_rows(ExactMatrix.stack([v]),
                                      ExactMatrix.stack([w]))[0])

    v = ExactVector([2, 4])
    assert proportional(v.scale(GaussRat(0, 3)), v)
    assert not proportional(ExactVector([1, 0]), ExactVector([0, 1]))
    assert proportional(ExactVector.zeros(2), ExactVector.zeros(2))
    assert not proportional(ExactVector([1, 0]), ExactVector.zeros(2))
    assert proportional(ExactVector.zeros(2), ExactVector([0, 1]))


def test_proportional_rows_against_one_row_and_row_by_row():
    x = ExactMatrix([[2, GaussRat(0, 4)], [0, 0], [1, 1]])
    ref = ExactMatrix([[GaussRat(0, 1), -2]])
    assert proportional_rows(x, ref).tolist() == [True, True, False]
    y = ExactMatrix([[1, GaussRat(0, 2)], [0, 0], [0, 0]])
    assert proportional_rows(x, y).tolist() == [True, True, False]
    big = ExactMatrix([[2 ** 70, GaussRat(0, 2 ** 71)], [2 ** 70, 1]])
    assert proportional_rows(big, ExactMatrix(
        [[1, GaussRat(0, 2)]])).tolist() == [True, False]
    # 2^61 * 8 wraps to 0 in int64, so this pair must not take int64
    assert not proportional_rows(ExactMatrix([[2 ** 61, 0]]),
                                 ExactMatrix([[8, 8]]))[0]


def test_thinness_check_on_blocks():
    # parts[i] holds family_i of a two-vector basis; window r..r+d = 1..1
    zero = ExactMatrix.zeros(2, 3)
    line = ExactMatrix([[1, 2, 0], [0, 0, 0]])

    def parts(*images):
        return dict(enumerate(images))
    check_images_thin(parts(zero, line, zero), 1, 0, 0, "E")
    check_images_thin({1: line}, 1, 0, 0, "E")
    with pytest.raises(InvariantViolation, match=r"dim\(E_1 W\) > 1"):
        check_images_thin(
            parts(zero, ExactMatrix([[1, 2, 0], [1, 0, 0]]), zero),
            1, 0, 0, "E")
    with pytest.raises(InvariantViolation, match="E_1 W vanished inside"):
        check_images_thin(parts(zero, zero, zero), 1, 0, 0, "E")
    with pytest.raises(InvariantViolation, match="Eeps_2 W nonzero outside"):
        check_images_thin(parts(zero, line, line), 1, 0, 0, "Eeps")


def test_decomposition_report_shape():
    doc = get_decomposition(3).to_json()
    assert doc["D"] == 3
    assert doc["multiplicities"] == {"0": 1, "1": 2}
    assert doc["modules"][0] == {"r": 0, "d": 3, "index": 0, "dim": 4}


# -- module frames ------------------------------------------------------------------


@pytest.mark.parametrize("D", range(1, 6))
def test_frame_is_the_action_on_the_slice_basis(D):
    # row k of M_op holds the coordinates of op b_k: the transpose of the
    # representation matrix by exact elimination over 2^D
    ctx = get_ctx(D)
    for m in get_decomposition(D).modules:
        basis = block_rows(m.slice_basis)
        for op in FRAME_OPS:
            assert getattr(m.frame, op) == representation_matrix(
                getattr(ctx, op), basis).transpose(), (m.r, m.index, op)
        assert m.frame.gram.scale(m.norm) == \
            m.slice_basis @ m.slice_basis.adjoint()
        assert m.frame.gram[0, 0] == 1


@pytest.mark.parametrize("D", range(1, 8))
def test_frame_seeds_equal_the_window_projections(D):
    # u = E_r u* and ue = Eeps_r u* from the frame's spectral parts, against
    # the projections over 2^D, which also check that E and Eeps are thin
    # on every module with the nonvanishing window
    ctx = get_ctx(D)
    for m in get_decomposition(D).modules:
        assert m.seeds == oracle_seeds(ctx, m), (m.r, m.index)


@pytest.mark.parametrize("D", range(1, 9))
def test_modules_of_one_endpoint_share_one_normalized_frame(D):
    # one object per endpoint, whose Gram is each module's own B B^*
    # divided by <b_0, b_0>
    first = {}
    for m in get_decomposition(D).modules:
        gram = m.slice_basis @ m.slice_basis.adjoint()
        assert m.frame.gram == gram.scale(1 / gram[0, 0]), m.index
        assert m.norm == gram[0, 0], m.index
        assert first.setdefault(m.r, m.frame) is m.frame, (m.r, m.index)
    assert sorted(first) == list(range(D // 2 + 1))


def test_non_proportional_norms_hold_a_frame_of_their_own(monkeypatch):
    # b_1 of module r=1 index=1 at D = 4 with its norm doubled, as in
    # test_cli.py::test_non_proportional_norms_take_the_per_module_path:
    # its Gram is no positive multiple of module 0's, so it holds a frame
    # object of its own, with the group's four operator matrices
    honest = decomposition._row_norms

    def doubled(block):
        norms = honest(block)
        if block.rows == 3 * 3:  # the stack of r = 1: 3 modules, d = 2
            norms = norms.copy()
            norms[3 + 1] *= 2
        return norms

    monkeypatch.setattr(decomposition, "_row_norms", doubled)
    first, second, third = [m for m in decompose(get_ctx(4)).modules
                            if m.r == 1]
    assert third.frame is first.frame
    assert second.frame is not first.frame
    for op in FRAME_OPS:
        assert getattr(second.frame, op) == getattr(first.frame, op), op
    assert second.frame.gram == ExactMatrix.diagonal([1, 2, 1]) @ \
        first.frame.gram


def test_spectral_parts_certificate_names_the_first_failure():
    tri = ExactMatrix([[0, 1, 0], [2, 0, 2], [0, 1, 0]])
    parts, failure = spectral_parts(tri)
    assert failure is None
    assert [p.trace() for p in parts] == [1, 1, 1]
    # eigenvalues 1, 1, -1 instead of 2, 0, -2
    assert spectral_parts(ExactMatrix.diagonal([1, 1, -1]))[1] == ("eigen", 0)
    # eigenvalue 2 missing: its part is zero and the others hold
    assert spectral_parts(ExactMatrix.diagonal([0, 0, -2]))[1] == ("zero", 0)


@pytest.mark.parametrize("D", range(1, 9))
def test_spectral_parts_equal_the_oracle_on_every_frame(D):
    # the parts from one power table and the certificate in whole-table
    # products against the Lagrange products and the certificate part by
    # part, on the frame matrices of A and Aeps of every endpoint
    for frame in {m.frame for m in get_decomposition(D).modules}:
        for op in ("A", "Aeps"):
            m = getattr(frame, op)
            assert spectral_parts(m) == naive_spectral_parts(m), op


def _reads_under_corruption(monkeypatch, D):
    """Every frame matrix that the endpoints of Q_D read (`_read`) with one
    entry of a --corrupt operator flipped, for a sample of about 16 entries
    per operator, as (whether `_own_read` read it, the matrix)."""
    reads, owning = [], []
    read, own_read = decomposition._read, decomposition._own_read

    def spied_read(*args):
        out = read(*args)
        reads.append((bool(owning), out))
        return out

    def spied_own_read(*args):
        owning.append(True)
        try:
            return own_read(*args)
        finally:
            owning.pop()

    monkeypatch.setattr(decomposition, "_read", spied_read)
    monkeypatch.setattr(decomposition, "_own_read", spied_own_read)
    ctx = get_ctx(D)
    edges = [(x, y) for x, y in np.argwhere(ctx.hamming == 1) if x < y]
    for op in cli.CORRUPT_OPS.values():
        spots = [(x, x) for x in range(ctx.n)] if op == "Astar" else edges
        for x, y in spots[::max(1, len(spots) // 16)]:
            flipped = ctx.with_flipped_sign(op, x, y)
            for r, w in closed_form_seeds(D).items():
                _verdict(_endpoint_modules, flipped, r, w)
    return reads


@pytest.mark.parametrize("D", range(3, 7))
def test_spectral_parts_equal_the_oracle_on_corrupted_frames(monkeypatch, D):
    # every frame matrix read under a flip, those of the modules that hold
    # a frame of their own among them: passing certificates, a wrong
    # spectrum and a vanishing part
    reads = _reads_under_corruption(monkeypatch, D)
    assert any(own for own, _ in reads)
    kinds = set()
    for m in {m for _, m in reads}:
        got = spectral_parts(m)
        assert got == naive_spectral_parts(m)
        kinds.add(got[1] and got[1][0])
    assert kinds == {None, "eigen", "zero"}


_gauss = st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _square_matrices(draw):
    """A Gaussian-integer matrix of size 1 to 5: entries drawn at random,
    or P J P^-1 for a Jordan matrix J with P = I + N and N strictly upper
    triangular.  J's eigenvalues are the candidates d - 2k, or a draw from
    them and d + 2, so repeated, missing or foreign, and a superdiagonal 1
    joins equal neighbours at random."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return ExactMatrix(draw(st.lists(
            st.lists(_gauss, min_size=n, max_size=n), min_size=n,
            max_size=n)))
    d = n - 1
    theta = list(range(-d, d + 1, 2))
    eig = sorted(draw(st.one_of(st.just(theta), st.lists(
        st.sampled_from(theta + [d + 2]), min_size=n, max_size=n))))
    joins = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    jordan = [[eig[r] if c == r else
               int(c == r + 1 and joins[r] and eig[r] == eig[c])
               for c in range(n)] for r in range(n)]
    upper = draw(st.lists(_gauss, min_size=n * n, max_size=n * n))
    nil = ExactMatrix([[upper[r * n + c] if c > r else 0 for c in range(n)]
                       for r in range(n)])
    ident = ExactMatrix.identity(n)
    inverse = power = ident
    for _ in range(d):
        power = power @ -nil
        inverse = inverse + power
    return (ident + nil) @ ExactMatrix(jordan) @ inverse


@settings(max_examples=150, deadline=None)
@given(_square_matrices())
def test_spectral_parts_equal_the_oracle_on_any_matrix(m):
    assert spectral_parts(m) == naive_spectral_parts(m)


def test_spectral_parts_makes_one_product_per_power(monkeypatch):
    # the powers m^2 .. m^d, one product with the table of Lagrange
    # coefficients, one for the sum and one for the eigen checks: 3 for
    # n = 1, where no power needs a product, and n + 1 from n = 2 on
    frames = {m.r: m.frame for m in get_decomposition(8).modules}
    counts = {frames[r].A.rows: product_calls(
        monkeypatch, spectral_parts.__wrapped__, frames[r].A)
        for r in (4, 2, 0)}
    assert counts == {1: 3, 5: 6, 9: 10}


def test_wrong_p_butterflies_fail_the_frame(monkeypatch):
    # H followed by the transposition of vertices 1 and 3 (slices 1 and 2)
    # in P = S^-1 H takes u* = e_0 of the module r0m0 out of the span of
    # the slice indicators: the frame certifies P W in W for every module
    honest = cube._walsh_hadamard
    swap = [0, 3, 2, 1, 4, 5, 6, 7]

    def swapped(a, m):
        return honest(a, m)[:, swap]

    monkeypatch.setattr(cube, "_walsh_hadamard", swapped)
    with pytest.raises(InvariantViolation, match=r"^module r=0 index=0: "
                                                 r"P does not map W into W$"):
        decompose(build_context(3))


@pytest.mark.parametrize("op, label", [("A", "E"), ("Aeps", "Eeps")])
def test_flipped_operator_fails_the_spectral_certificate(op, label):
    # the entry (0, 1) feeds b_1 into the image at vertex 0 of r0m0, whose
    # W stays closed; its frame matrix loses the spectrum 3, 1, -1, -3
    ctx = get_ctx(3).with_flipped_sign(op, 0, 1)
    with pytest.raises(InvariantViolation,
                       match=rf"^module r=0 index=0: {op} {label}_0 W != "
                             rf"3 {label}_0 W$"):
        decompose(ctx)


# -- endpoint stacks ------------------------------------------------------------------


@pytest.mark.parametrize("D", range(1, 9))
def test_decompose_equals_the_module_by_module_oracle(D):
    ctx = get_ctx(D)
    got, want = get_decomposition(D), oracle_decompose(ctx)
    assert got.multiplicities == want.multiplicities
    assert len(got.modules) == len(want.modules)
    for m, o in zip(got.modules, want.modules):
        where = (m.r, m.index)
        assert (m.r, m.d, m.index) == (o.r, o.d, o.index)
        assert m.seeds == o.seeds, where
        assert m.slice_basis == o.slice_basis, where
        for op in FRAME_OPS + ("gram",):
            assert getattr(m.frame, op) == getattr(o.frame, op), (where, op)


def test_decompose_products_grow_with_the_endpoints(monkeypatch):
    # at D = 8 (70 modules, 5 endpoints) an endpoint makes as many products
    # for all of its modules as for its first alone, once the memos on the
    # frame matrices are warm: the frame checks run once per endpoint
    ctx = get_ctx(8)
    decompose(ctx)
    for r, w in closed_form_seeds(8).items():
        assert product_calls(monkeypatch, _endpoint_modules, ctx, r, w) == \
            product_calls(monkeypatch, _endpoint_modules, ctx, r, w[:1]), r


def _verdict(build, *args):
    try:
        build(*args)
    except InvariantViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("D", [4, 5])
def test_broken_seeds_name_the_oracle_failure(D):
    # a last seed that is zero, that reaches off its slice, or that is one
    # entry off its slice alone: each endpoint names the failure that the
    # module by module oracle, which checks the slice of every ladder
    # vector, names
    ctx = get_ctx(D)
    seen = set()
    for r, w in closed_form_seeds(D).items():
        off = [0] if r else [ctx.n - 1]
        for zero, outside in ((True, []), (False, off), (True, off)):
            bad = w.copy()
            if zero:
                bad[-1] = 0
            bad[-1, outside] = 7
            got = _verdict(_endpoint_modules, ctx, r, bad)
            assert got == _verdict(oracle_endpoint_modules, ctx, r, bad), \
                (r, zero, outside)
            seen.add(got.split(": ")[1])
    assert seen >= {"slice basis vector 0 is zero",
                    "slice basis vector 0 leaves slice 1"}


@pytest.mark.parametrize("D", [3, 4])
def test_flipped_entry_names_the_oracle_failure(D):
    # every edge entry (x, y), x < y, of A and Aeps and every diagonal entry
    # of Astar flipped in turn: decompose names the failure the module by
    # module oracle names, or both pass.  The module r=0 spans every vertex
    # and so fails first for almost every flip; each endpoint on its own
    # also meets flips that spare its module 0 and break a later one, whose
    # images the endpoint's frame does not rebuild, so its own frame is read
    ctx = get_ctx(D)
    seeds = closed_form_seeds(D)
    edges = [(x, y) for x, y in np.argwhere(ctx.hamming == 1) if x < y]
    spots = ([("A", x, y) for x, y in edges]
             + [("Aeps", x, y) for x, y in edges]
             + [("Astar", x, x) for x in range(ctx.n)])
    own_reads = 0
    for op, x, y in spots:
        flipped = ctx.with_flipped_sign(op, x, y)
        assert _verdict(decompose, flipped) == \
            _verdict(oracle_decompose, flipped), (op, x, y)
        for r, w in seeds.items():
            got = _verdict(_endpoint_modules, flipped, r, w)
            assert got == _verdict(oracle_endpoint_modules, flipped, r, w), \
                (op, x, y, r)
            own_reads += (got is not None and "index=0:" not in got
                          and got.endswith("does not map W into W"))
    assert own_reads
