"""Operators of Q_D: literal small cases, commutator and quadratic identities,
idempotent families, conjugation by P, spectra, slice structure."""

import math

import pytest

from conftest import (brute_p_1j, get_ctx, interpolation_idempotents,
                      naive_matrix_rank)
from tcube.cube import (ConstructionError, SpectrumTable, build_context,
                        coordinate_transposition, index_of_vertex,
                        krawtchouk_table, spectrum, verify_commutators,
                        verify_conjugation, verify_idempotent_families,
                        verify_spectra, vertex_of_index)
from tcube.leonard import phi_matrix
from tcube.linalg import ExactMatrix, ExactVector, rank
from tcube.report import all_passed
from tcube.scalar import GaussRat


def test_d_range_enforced():
    with pytest.raises(ValueError):
        build_context(0)
    with pytest.raises(ValueError):
        build_context(11)
    build_context(3, d_limit=3)
    with pytest.raises(ValueError):
        build_context(4, d_limit=3)


def test_vertex_indexing_bijection():
    for D in (1, 3, 5):
        for idx in range(2 ** D):
            assert index_of_vertex(vertex_of_index(idx, D)) == idx
        # first coordinate is the most significant bit
        assert vertex_of_index(1 << (D - 1), D) == (1,) + (0,) * (D - 1)
    assert index_of_vertex((1, 0, 0)) == 4


def test_distance_matrices_partition():
    ctx = get_ctx(3)
    assert ctx.dist_matrices[0] == ExactMatrix.identity(8)
    assert ctx.dist_matrices[1] == ctx.A
    total = ExactMatrix.zeros(8, 8)
    for m in ctx.dist_matrices:
        assert m.transpose() == m
        total = total + m
    assert total == ExactMatrix([[1] * 8 for _ in range(8)])


def test_d1_operators_literal():
    ctx = get_ctx(1)
    assert ctx.A == ExactMatrix([[0, 1], [1, 0]])
    assert ctx.Astar == ExactMatrix.diagonal([1, -1])
    # hand evaluation: A A* - A* A = [[0,-2],[2,0]], so Aeps = -i/2 * that
    assert ctx.A @ ctx.Astar - ctx.Astar @ ctx.A == \
        ExactMatrix([[0, -2], [2, 0]])
    assert ctx.Aeps == ExactMatrix([[GaussRat(0), GaussRat(0, 1)],
                                    [GaussRat(0, -1), GaussRat(0)]])
    assert ctx.P == ExactMatrix([[GaussRat(1), GaussRat(1)],
                                 [GaussRat(0, -1), GaussRat(0, 1)]])


def test_d2_dual_adjacency_diagonal():
    # vertex order 00, 01, 10, 11
    assert get_ctx(2).Astar == ExactMatrix.diagonal([2, 0, 0, -2])


def test_d3_row_sums():
    ctx = get_ctx(3)
    row_sums = ctx.A.matvec(ExactVector([1] * 8))
    assert all(row_sums[k] == GaussRat(3) for k in range(8))


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_imaginary_adjacency_entries(D):
    ctx = get_ctx(D)
    for y in range(ctx.n):
        for z in range(ctx.n):
            got = ctx.Aeps[y, z]
            if ctx.A[y, z]:
                assert got == GaussRat(0, int(ctx.dist[z]) - int(ctx.dist[y]))
                assert got in (GaussRat(0, 1), GaussRat(0, -1))
            else:
                assert got.is_zero()


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_imaginary_adjacency_hermitian(D):
    ctx = get_ctx(D)
    assert ctx.Aeps.adjoint() == ctx.Aeps
    assert ctx.A.adjoint() == ctx.A


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_commutators_and_quadratics(D):
    checks = verify_commutators(get_ctx(D))
    assert len(checks) == 5
    assert all_passed(checks)


def test_commutator_identity_detects_flip():
    ctx = get_ctx(2)
    spot = next((r, c) for r in range(4) for c in range(4) if ctx.Aeps[r, c])
    bad = ctx.with_flipped_sign("Aeps", *spot)
    failed = {c.identity for c in verify_commutators(bad) if not c.passed}
    assert "commutator_Astar_Aeps" in failed


def test_p_identities_small():
    ctx = get_ctx(3)
    assert ctx.P @ ctx.P.adjoint() == ExactMatrix.identity(8).scale(8)
    assert ctx.P @ ctx.P @ ctx.P == \
        ExactMatrix.identity(8).scale(GaussRat(1, -1) ** 3 * 8)


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_conjugation_suite(D):
    assert all_passed(verify_conjugation(get_ctx(D)))


def test_trivial_idempotent_allones():
    ctx = get_ctx(3)
    assert ctx.E[0].scale(8) == ExactMatrix([[1] * 8 for _ in range(8)])


def test_idempotent_ranks_d4():
    ctx = get_ctx(4)
    for i in range(5):
        assert rank(ctx.E[i]) == math.comb(4, i)
        # independent oracle: plain rational elimination
        assert naive_matrix_rank(ctx.E[i]) == math.comb(4, i)


def test_adjacency_eigen_relation_d3():
    ctx = get_ctx(3)
    for i in range(4):
        assert ctx.A @ ctx.E[i] == ctx.E[i].scale(3 - 2 * i)
        assert ctx.E[i] @ ctx.A == ctx.E[i].scale(3 - 2 * i)


@pytest.mark.parametrize("D", [2, 3, 4])
def test_idempotent_families_suite(D):
    assert all_passed(verify_idempotent_families(get_ctx(D)))


def test_rank_row_needs_the_idempotent_product(monkeypatch):
    # Estar_1 + N with N nilpotent inside slice 1 keeps trace and rank 3 but
    # is not idempotent; the rank is read off the trace only for a proven
    # idempotent, so Estar_rank[1] fails along with Estar_product[1,1]
    ctx = build_context(3)
    grid = ctx.Estar[1].to_rows()
    grid[1][2] = GaussRat(1)
    perturbed = ExactMatrix(grid)
    assert perturbed.trace() == 3 and rank(perturbed) == 3
    family = ctx.Estar[:1] + (perturbed,) + ctx.Estar[2:]
    monkeypatch.setattr(ctx, "_Estar", family)
    passed = {c.identity: c.passed for c in verify_idempotent_families(ctx)}
    assert not passed["Estar_product[1,1]"]
    assert not passed["Estar_rank[1]"]
    assert all(passed[f"{label}_rank[{i}]"]
               for label in ("E", "Estar", "Eeps") for i in range(4)
               if (label, i) != ("Estar", 1))


def test_rank_row_reads_the_trace(monkeypatch):
    # Estar_0 and Estar_1 swapped are still orthogonal idempotents summing
    # to I; only their ranks 3 and 1 against C(3,0) and C(3,1) give it away
    ctx = build_context(3)
    family = (ctx.Estar[1], ctx.Estar[0]) + ctx.Estar[2:]
    monkeypatch.setattr(ctx, "_Estar", family)
    failed = [c.identity for c in verify_idempotent_families(ctx)
              if not c.passed]
    assert failed == ["Estar_rank[0]", "Estar_rank[1]"]


@pytest.mark.parametrize("D", range(1, 7))
def test_closed_form_idempotents_match_interpolation(D):
    # E from Krawtchouk numbers and Eeps by a diagonal phase equal the
    # interpolation polynomials in A and in Aeps, and Eeps_i = Pinv E_i P
    ctx = get_ctx(D)
    assert ctx.E == interpolation_idempotents(ctx.A, ctx.theta)
    assert ctx.Eeps == interpolation_idempotents(ctx.Aeps, ctx.theta)
    for e, e_eps in zip(ctx.E, ctx.Eeps):
        assert e_eps == ctx.Pinv @ e @ ctx.P


@pytest.mark.parametrize("D", range(1, 11))
def test_krawtchouk_table_matches_phi(D):
    # two independent evaluations: the alternating binomial sum in cube and
    # C(D, i) * 2F1(-h, -i; -D; 2) in leonard
    K = krawtchouk_table(D)
    phi = phi_matrix(D)
    assert [[K[h, i] for i in range(D + 1)] for h in range(D + 1)] == \
        [[phi.phi(h, i) for i in range(D + 1)] for h in range(D + 1)]


def test_idempotent_certificate_rejects_wrong_families():
    # eigenrelations alone allow any scaling, the sum alone any reordering
    ctx = get_ctx(3)
    with pytest.raises(ConstructionError, match="do not sum to I"):
        ctx._certify_idempotents(tuple(e.scale(2) for e in ctx.E))
    with pytest.raises(ConstructionError, match=r"A E_0 != 3 E_0"):
        ctx._certify_idempotents(ctx.E[::-1])


def test_idempotent_certificate_rejects_flipped_adjacency():
    flipped = get_ctx(3).with_flipped_sign("A", 0, 1)
    with pytest.raises(ConstructionError, match=r"A E_0 != 3 E_0"):
        flipped.E


def test_spectrum_examples():
    assert spectrum(get_ctx(2), "imaginary") == \
        SpectrumTable(((2, 1), (0, 2), (-2, 1)))
    assert spectrum(get_ctx(1), "adjacency") == SpectrumTable(((1, 1), (-1, 1)))
    with pytest.raises(ValueError):
        spectrum(get_ctx(1), "bogus")


def test_three_spectra_equal_d5():
    ctx = get_ctx(5)
    tables = [spectrum(ctx, w) for w in ("adjacency", "dual", "imaginary")]
    assert tables[0] == tables[1] == tables[2]
    assert tables[0].total() == 32
    assert all_passed(verify_spectra(ctx))


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_p_commutes_with_coordinate_transpositions(D):
    ctx = get_ctx(D)
    for a in range(D):
        for b in range(a + 1, D):
            m = coordinate_transposition(ctx, a, b)
            assert ctx.P @ m == m @ ctx.P


@pytest.mark.parametrize("D", [3, 4])
def test_slice_block_structure_of_adjacency(D):
    # Estar_j A Estar_h vanishes exactly when |h - j| != 1
    ctx = get_ctx(D)
    for j in range(D + 1):
        for h in range(D + 1):
            block = ctx.Estar[j] @ ctx.A @ ctx.Estar[h]
            assert block.is_zero() == (abs(h - j) != 1)


@pytest.mark.parametrize("D", [3, 4])
def test_five_way_equivalence(D):
    # zero-ness of the four conjugated products matches p^h_{1j} = 0,
    # with the intersection numbers counted by brute force
    ctx = get_ctx(D)
    for h in range(D + 1):
        for j in range(D + 1):
            vanishes = brute_p_1j(D, h, j) == 0
            products = (
                ctx.E[h] @ ctx.Aeps @ ctx.E[j],
                ctx.Estar[h] @ ctx.Aeps @ ctx.Estar[j],
                ctx.Eeps[h] @ ctx.A @ ctx.Eeps[j],
                ctx.Eeps[h] @ ctx.Astar @ ctx.Eeps[j],
            )
            for p in products:
                assert p.is_zero() == vanishes


def test_construction_cross_checks_guard():
    # with_flipped_sign bypasses the build-time cross-checks on purpose
    ctx = get_ctx(2)
    flipped = ctx.with_flipped_sign("A", 0, 1)
    assert flipped.A != ctx.A
    assert isinstance(ConstructionError("x"), RuntimeError)
