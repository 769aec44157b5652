"""Operators of Q_D: literal small cases, commutator and quadratic identities,
idempotent families and their traces, conjugation by P, slice structure."""

import math
import random
import re

import numpy as np
import pytest

from conftest import (A1, AEPS1, ASTAR1, all_passed, assert_canonical_storage,
                      brute_p_1j, commutator_aeps, dense_certify_idempotents,
                      dense_commutators, dense_conjugation,
                      dense_idempotent_families, dual_adjacency,
                      gather_eigen_discrepancy, get_ctx, hamming_adjacency,
                      interpolation_idempotents, kron_power, kron_sum,
                      naive_matrix_rank, p_inverse, phase_conjugate,
                      walsh_hadamard)
from tcube import cube
from tcube.cube import (P1, ConstructionError, _walsh_hadamard, build_context,
                        krawtchouk_table, verify_commutators,
                        verify_conjugation, verify_idempotent_families)
from tcube.leonard import phi_matrix
from tcube.linalg import ExactMatrix, ExactVector, rank
from tcube.scalar import GaussRat


def test_d_range_enforced():
    with pytest.raises(ValueError):
        build_context(0)
    with pytest.raises(ValueError):
        build_context(11)
    build_context(3, d_limit=3)
    with pytest.raises(ValueError):
        build_context(4, d_limit=3)


def _vertex(idx, D):
    """The bit string (t_1, ..., t_D) of the vertex with index
    sum(t_k * 2^(D-k)): the first coordinate is the most significant bit."""
    return tuple((idx >> (D - 1 - k)) & 1 for k in range(D))


def test_vertex_indexing_bijection():
    # the context's distances and Hamming table read the index as that
    # bit string
    for D in (1, 3, 5):
        ctx = get_ctx(D)
        vertices = [_vertex(idx, D) for idx in range(ctx.n)]
        assert len(set(vertices)) == ctx.n
        assert [sum(t) for t in vertices] == [int(k) for k in ctx.dist]
        assert all(ctx.hamming[x, y] == sum(a != b for a, b in zip(vx, vy))
                   for x, vx in enumerate(vertices)
                   for y, vy in enumerate(vertices))
    assert _vertex(4, 3) == (1, 0, 0)


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


@pytest.mark.parametrize("D", range(1, 9))
def test_operators_equal_their_dense_constructions(D):
    # the matrices scattered from the gather tables against the dense
    # constructions of the operators, and P = S^-1 H, built by the
    # Walsh-Hadamard pass, against the Kronecker power P1^(x D), int64
    # storage and denominator 1 included
    ctx = get_ctx(D)
    assert ctx.P == kron_power(P1, D)
    assert ctx.P._den == 1 and ctx.P._re.dtype == np.int64
    assert_canonical_storage(ctx.P)
    a, astar = hamming_adjacency(D), dual_adjacency(D)
    assert ctx.A == a == kron_sum(A1, D)
    assert ctx.Astar == astar == kron_sum(ASTAR1, D)
    assert ctx.Aeps == kron_sum(AEPS1, D) == commutator_aeps(a, astar) == \
        phase_conjugate(a, D)


def _flip(op, r, c):
    return lambda monkeypatch: get_ctx(3).with_flipped_sign(op, r, c)


def _negated_aeps_factor(monkeypatch):
    re_part, im_part = cube.KRON_FACTORS["Aeps"]
    monkeypatch.setitem(cube.KRON_FACTORS, "Aeps",
                        (re_part, [[-x for x in row] for row in im_part]))
    return get_ctx(3)


def _conjugated_phase(monkeypatch):
    honest = cube._times_i_power

    def conjugated(re_part, im_part, k):
        re_part, im_part = honest(re_part, im_part, k)
        return re_part, -im_part

    monkeypatch.setattr(cube, "_times_i_power", conjugated)
    return get_ctx(3)


# One broken side per clause of the table certificate, and its message: a
# flipped table entry breaks the first clause that reads the table, and a
# changed second construction its own clause alone.
CERTIFICATE_CLAUSES = [
    (_flip("A", 0, 1),
     "adjacency: Hamming and Kronecker constructions disagree"),
    (_flip("Astar", 0, 0),
     "dual adjacency: distance and Kronecker constructions disagree"),
    (_flip("Aeps", 0, 1),
     "imaginary adjacency: commutator and entry formula disagree"),
    (_negated_aeps_factor,
     "imaginary adjacency: Kronecker construction disagrees"),
    (_conjugated_phase,
     "imaginary adjacency: diagonal phase conjugate of A disagrees"),
]


@pytest.mark.parametrize("breaks, message", CERTIFICATE_CLAUSES,
                         ids=["A", "Astar", "commutator", "Aeps", "phase"])
def test_table_certificate_clause_is_named(monkeypatch, breaks, message):
    get_ctx(3)._certify_tables()
    ctx = breaks(monkeypatch)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        ctx._certify_tables()


def test_flipped_sign_changes_one_entry_for_every_reader():
    # every edge entry of A and Aeps and every diagonal entry of Astar: the
    # dense matrix changes in entry (r, c) alone, and the gather applies the
    # flipped matrix; an (r, c) off the table changes nothing
    ctx = get_ctx(3)
    every = ExactMatrix.identity(ctx.n)
    edges = np.argwhere(hamming_adjacency(3).nonzero()).tolist()
    spots = ([("A", r, c) for r, c in edges]
             + [("Aeps", r, c) for r, c in edges]
             + [("Astar", y, y) for y in range(ctx.n)])
    for op, r, c in spots:
        before, flipped = getattr(ctx, op), ctx.with_flipped_sign(op, r, c)
        after = getattr(flipped, op)
        changed = np.zeros((ctx.n, ctx.n), dtype=bool)
        changed[r, c] = True
        assert np.array_equal(~after.entries_equal(before), changed)
        assert after[r, c] == -before[r, c]
        assert flipped.apply(op, every) == after.transpose(), (op, r, c)
    for op, r, c in (("A", 0, 0), ("A", 0, 3), ("Aeps", 1, 6),
                     ("Astar", 0, 1)):
        flipped = ctx.with_flipped_sign(op, r, c)
        assert getattr(flipped, op) == getattr(ctx, op)
        assert flipped.apply(op, every) == ctx.apply(op, every)


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
    # the diagonal (2, 2, -1) on slice 1 has trace and rank 3 but is not
    # idempotent; the rank is read off the trace only for a proven
    # idempotent, so Estar_rank[1] fails along with Estar_product[1,1]
    ctx = build_context(3)
    diagonal = [0] * ctx.n
    for v, x in zip(ctx.slice_indices(1), (2, 2, -1)):
        diagonal[v] = x
    perturbed = ExactMatrix.diagonal(diagonal)
    assert perturbed.trace() == 3 and rank(perturbed) == 3
    rows = ctx.structure.Estar
    monkeypatch.setattr(ctx.structure, "Estar",
                        rows[:1] + [ExactMatrix([diagonal])] + rows[2:])
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
    rows = ctx.structure.Estar
    monkeypatch.setattr(ctx.structure, "Estar", [rows[1], rows[0]] + rows[2:])
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
        assert e_eps == p_inverse(ctx) @ e @ ctx.P


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
    rows = ctx.structure.E
    with pytest.raises(ConstructionError, match="do not sum to I"):
        ctx._certify_idempotents([r.scale(2) for r in rows])
    with pytest.raises(ConstructionError, match=r"A E_0 != 3 E_0"):
        ctx._certify_idempotents(rows[::-1])


def test_idempotent_certificate_rejects_flipped_adjacency():
    flipped = get_ctx(3).with_flipped_sign("A", 0, 1)
    with pytest.raises(ConstructionError, match=r"A E_0 != 3 E_0"):
        flipped.E


def _spectrum(ctx, family):
    """(eigenvalue, multiplicity) pairs read off the traces of an idempotent
    family, eigenvalue descending: F_i belongs to theta_i = D - 2i, and an
    idempotent's trace is its rank."""
    return [(ctx.theta[i], int(f.trace().re)) for i, f in enumerate(family)]


def test_spectrum_examples():
    assert _spectrum(get_ctx(2), get_ctx(2).Eeps) == [(2, 1), (0, 2), (-2, 1)]
    assert _spectrum(get_ctx(1), get_ctx(1).E) == [(1, 1), (-1, 1)]


def test_three_spectra_equal_d5():
    ctx = get_ctx(5)
    tables = [_spectrum(ctx, f) for f in (ctx.E, ctx.Estar, ctx.Eeps)]
    assert tables[0] == tables[1] == tables[2]
    assert sum(m for _, m in tables[0]) == 32


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_p_commutes_with_coordinate_transpositions(D):
    def coordinate_transposition(a, b):
        """Permutation matrix of the automorphism swapping coordinates a and
        b (0-based positions, coordinate 0 most significant)."""
        pa, pb = D - 1 - a, D - 1 - b
        re = np.zeros((ctx.n, ctx.n), dtype=np.int64)
        for y in range(ctx.n):
            ba, bb = (y >> pa) & 1, (y >> pb) & 1
            z = y & ~(1 << pa) & ~(1 << pb) | (bb << pa) | (ba << pb)
            re[y, z] = 1
        return ExactMatrix.from_numerators(re, 0 * re, 1)

    ctx = get_ctx(D)
    for a in range(D):
        for b in range(a + 1, D):
            m = coordinate_transposition(a, b)
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


# -- the suites on the Bose-Mesner structure against the dense oracles ----------


def _outcome(suite, ctx):
    """(identity, passed, first_discrepancy) per row, or the message of the
    ConstructionError that stopped the suite."""
    try:
        return [(c.identity, c.passed, c.first_discrepancy)
                for c in suite(ctx)]
    except ConstructionError as exc:
        return str(exc)


def _corrupted(ctx, op):
    """ctx with the sign of op's first nonzero entry flipped, as
    `verify --corrupt` does; op None is ctx itself."""
    if op is None:
        return ctx
    spot = tuple(np.argwhere(getattr(ctx, op).nonzero())[0].tolist())
    return ctx.with_flipped_sign(op, *spot)


# The suites on the certified structure and on the operator tables, each
# with its dense oracle.
SUITE_ORACLES = ((verify_commutators, dense_commutators),
                 (verify_idempotent_families, dense_idempotent_families),
                 (verify_conjugation, dense_conjugation))


@pytest.mark.parametrize("op", [None, "A", "Astar", "Aeps"])
@pytest.mark.parametrize("D", range(1, 8))
def test_structured_suites_equal_the_dense_oracles(D, op):
    # every row, verdict and first discrepancy, clean and under each
    # --corrupt op; a flipped A stops the family suites at the E certificate
    ctx = _corrupted(get_ctx(D), op)
    for suite, oracle in SUITE_ORACLES:
        got = _outcome(suite, ctx)
        assert got == _outcome(oracle, ctx)
        assert (op == "A" and suite is not verify_commutators) == \
            isinstance(got, str)


@pytest.mark.parametrize("D", range(1, 7))
def test_first_nonzero_is_the_dense_first_nonzero(D):
    # the --corrupt spot, read off the table: (0, 1) for A and Aeps and
    # (0, 0) for Astar, before and after a flip there
    ctx = get_ctx(D)
    for op, spot in (("A", (0, 1)), ("Astar", (0, 0)), ("Aeps", (0, 1))):
        assert ctx.first_nonzero(op) == spot
        assert tuple(np.argwhere(getattr(ctx, op).nonzero())[0]) == spot
        assert ctx.with_flipped_sign(op, *spot).first_nonzero(op) == spot


@pytest.mark.parametrize("width", [1, 3, 1000])
@pytest.mark.parametrize("n", [1, 2, 8, 48, 300])
def test_first_spot_scans_rows_in_order_from_start(n, width):
    # random n x n masks, all-False to dense, clean above a random start.
    # The scanner returns the first row-major True and asks only for rows
    # start, start + 1, ... in order, in blocks that double from one row up
    # to 2^16 // (n width) rows (one row for width 1000 and n >= 48; for
    # n = 48 and 300 the last block is cut short), up to the block that
    # holds the spot
    rng = np.random.default_rng(n + 7 * width)
    most = max(1, 2 ** 16 // (n * width))
    for trial in range(60):
        start = 0 if trial < 2 else int(rng.integers(n))
        density = 0 if trial == 0 else rng.choice([0, 1e-4, 0.01, 0.5])
        mask = rng.random((n, n)) < density
        mask[:start] = False
        blocks = []

        def differ(xs):
            blocks.append(xs.tolist())
            return mask[xs]

        hits = np.argwhere(mask)
        want = tuple(hits[0].tolist()) if len(hits) else None
        assert cube._first_spot(n, differ, start, width) == want
        asked = sum(blocks, [])
        assert asked == list(range(start, start + len(asked)))
        sizes = [len(b) for b in blocks]
        assert sizes[0] == 1 and max(sizes) <= most
        assert all(b <= 2 * a for a, b in zip(sizes, sizes[1:]))
        if want is None:
            assert len(asked) == n - start
        else:
            assert want[0] in blocks[-1]


def _raised(certify, *args):
    """The message of the ConstructionError that certify raises, or None."""
    try:
        certify(*args)
    except ConstructionError as exc:
        return str(exc)
    return None


def _random_flips(ctx, rng, ops):
    """ctx with 1 to 3 signs flipped, each at a random nonzero entry of a
    random op of ops."""
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(ops)
        spots = np.argwhere(getattr(ctx, op).nonzero())
        ctx = ctx.with_flipped_sign(op, *spots[rng.randrange(len(spots))])
    return ctx


@pytest.mark.parametrize("ops", [("A", "Astar", "Aeps"), ("Astar", "Aeps")],
                         ids=["any", "no-A"])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("D", range(1, 8))
def test_random_flips_equal_the_dense_oracles(D, seed, ops):
    # every row, verdict, first discrepancy and ConstructionError text of
    # the suites on tables, rows and the factor of P against the dense
    # oracles, after 1 to 3 seeded sign flips; the E certificate on the
    # closed form's rows and on two wrong families (one not summing to I,
    # one with every theta wrong) against its dense oracle; and each
    # member's eigen discrepancy, from its row, with its own and a wrong
    # theta on both sides, against the full edge gather
    rng = random.Random(f"{D}-{seed}-{len(ops)}")
    clean = get_ctx(D)
    ctx = _random_flips(clean, rng, ops)
    for suite, oracle in SUITE_ORACLES:
        assert _outcome(suite, ctx) == _outcome(oracle, ctx)
    rows, dense = clean.structure.E, clean.E
    for family, members in ((rows, dense),
                            ([r.scale(2) for r in rows],
                             tuple(e.scale(2) for e in dense)),
                            (rows[::-1], dense[::-1])):
        assert _raised(ctx._certify_idempotents, family) == \
            _raised(dense_certify_idempotents, ctx, members)
    for op, family in (("A", dense), ("Aeps", clean.Eeps)):
        for i, (first, member) in enumerate(zip(rows, family)):
            for theta in (ctx.theta[i], ctx.theta[i] - 2):
                for right in (False, True):
                    assert ctx.family_eigen_discrepancy(
                        op, first, theta, right) == \
                        gather_eigen_discrepancy(ctx, op, member, theta, right)


@pytest.mark.parametrize("D", [5, 6, 7])
def test_deep_flip_scan_starts_at_the_defect_row(monkeypatch, D):
    # A or Aeps flipped at its last edge (n - 2, n - 1): each member's eigen
    # discrepancy, on both sides, with its own and a wrong theta, equals the
    # full edge gather's.  With its own theta the first row passes, so the
    # left scan starts at the defect row n - 2, and the right one at row 0;
    # at D = 7 a left scan from row 0 would take seven blocks to reach it
    clean = get_ctx(D)
    n = clean.n
    starts = []
    scan = cube._first_spot

    def spy(n, differ, start, width):
        starts.append(start)
        return scan(n, differ, start, width)
    monkeypatch.setattr(cube, "_first_spot", spy)
    for op, family in (("A", clean.E), ("Aeps", clean.Eeps)):
        ctx = clean.with_flipped_sign(op, n - 2, n - 1)
        for i, (first, member) in enumerate(zip(clean.structure.E, family)):
            for theta, wrong in ((ctx.theta[i], False),
                                 (ctx.theta[i] - 2, True)):
                for right in (False, True):
                    starts.clear()
                    assert ctx.family_eigen_discrepancy(
                        op, first, theta, right) == \
                        gather_eigen_discrepancy(ctx, op, member, theta, right)
                    assert starts == [0 if wrong or right else n - 2]


# Raised entries of the stored rows, by family: for E (whose row Eeps
# shares) and Estar, entry k of member i's row or diagonal raised by 1; for
# Eeps, entry k of that shared row raised by i, which makes E_i and Eeps_i
# complex.
PERTURBATIONS = {"E": 1, "Estar": 1, "Eeps": GaussRat(0, 1)}


@pytest.mark.parametrize("label", ["E", "Estar", "Eeps"])
@pytest.mark.parametrize("spot", [(1, 2), (2, 2), (0, 0)])
def test_perturbed_family_rows_equal_the_dense_oracles(monkeypatch, label,
                                                        spot):
    # spot (i, k): member i's entry k raised; every row of both suites
    # equals the dense oracle's on the views of the same rows, and one fails
    ctx = build_context(3)
    structure = ctx.structure
    attr = "Estar" if label == "Estar" else "E"
    rows = list(getattr(structure, attr))
    i, k = spot
    raised = [0] * ctx.n
    raised[k] = PERTURBATIONS[label]
    rows[i] = rows[i] + ExactMatrix([raised])
    monkeypatch.setattr(structure, attr, rows)
    for suite, oracle in ((verify_idempotent_families,
                           dense_idempotent_families),
                          (verify_conjugation, dense_conjugation)):
        got = _outcome(suite, ctx)
        assert got == _outcome(oracle, ctx)
        assert not all(passed for _, passed, _ in got)


def _scaled_p1(factor):
    def replace(monkeypatch):
        monkeypatch.setattr(cube, "P1", cube.P1.scale(factor))
        return get_ctx(3)
    return replace


def _negated_factor(op):
    def replace(monkeypatch):
        ctx = get_ctx(3)
        re_part, im_part = cube.KRON_FACTORS[op]
        monkeypatch.setitem(cube.KRON_FACTORS, op,
                            ([[-x for x in row] for row in re_part],
                             [[-x for x in row] for row in im_part]))
        return ctx
    return replace


# One broken side per clause of the certificate of P's factor, and its
# message.  The step Aeps -> A follows from the two steps before it and
# P1^3 = 2 (1 - i) I, so no single replacement reaches it alone.
P_FACTOR_CLAUSES = [
    (_scaled_p1(2), "P factor: P1 P1^* != 2 I"),
    (_scaled_p1(GaussRat(0, 1)), "P factor: P1^3 != 2 (1 - i) I"),
    (_negated_factor("Astar"), "P factor: P1 A1 P1^-1 != Astar1"),
    (_negated_factor("Aeps"), "P factor: P1 Astar1 P1^-1 != Aeps1"),
    (_conjugated_phase, "P factor: P1 != S1^-1 H1"),
]


@pytest.mark.parametrize("breaks, message", P_FACTOR_CLAUSES,
                         ids=["unitary", "cube", "A-Astar", "Astar-Aeps",
                              "butterfly"])
def test_p_factor_clause_is_named(monkeypatch, breaks, message):
    # a clause that fails stops the conjugation suite with its own message
    ctx = breaks(monkeypatch)
    assert _outcome(verify_conjugation, ctx) == message


@pytest.mark.parametrize("D", [2, 3])
def test_family_products_past_the_int64_bound(monkeypatch, D):
    # the rows of E scaled by 2^40: their second transform passes 2^62, so
    # they are convolved on Python ints, and
    # E_i E_i = 2^40 E_i and the conjugation rows fail as the dense ones do
    ctx = build_context(D)
    monkeypatch.setattr(ctx.structure, "E",
                        [r.scale(2 ** 40) for r in ctx.structure.E])
    for suite, oracle in ((verify_idempotent_families,
                           dense_idempotent_families),
                          (verify_conjugation, dense_conjugation)):
        got = _outcome(suite, ctx)
        assert got == _outcome(oracle, ctx)
        assert not all(passed for _, passed, _ in got)


def test_structure_is_certified_once_per_context(monkeypatch):
    # the idempotent and conjugation suites share one certificate; a
    # corrupted clone certifies its own
    built = []
    honest = cube._Structure.__init__

    def counting(self, ctx):
        built.append(ctx)
        honest(self, ctx)

    monkeypatch.setattr(cube._Structure, "__init__", counting)
    ctx = build_context(3)
    verify_idempotent_families(ctx)
    verify_conjugation(ctx)
    assert built == [ctx]
    flipped = ctx.with_flipped_sign("Astar", 0, 0)
    verify_conjugation(flipped)
    assert built == [ctx, flipped]


@pytest.mark.parametrize("big", [False, True])
def test_walsh_hadamard_equals_the_oracle(big):
    rng = np.random.default_rng(7)
    a = rng.integers(-99, 99, (3, 16))
    if big:
        a = a.astype(object) * 2 ** 70
    m = 99 * 2 ** 70 if big else 99
    got = _walsh_hadamard(a, m)
    assert got.dtype == a.dtype
    assert np.array_equal(got, walsh_hadamard(a))
    assert np.array_equal(_walsh_hadamard(got, 16 * m), 16 * a)


def test_hadamard_passes_skip_all_zero_parts(monkeypatch):
    # the pair kernel hands the Walsh-Hadamard pass no all-zero part: P of
    # a real or an imaginary block is one pass over the block's own rows,
    # and the family transforms, whose rows are real, transform no
    # imaginary part
    passes = []
    honest = cube._walsh_hadamard

    def spy(a, m):
        passes.append((a.shape[0], bool(a.any())))
        return honest(a, m)

    monkeypatch.setattr(cube, "_walsh_hadamard", spy)
    ctx = build_context(4)
    real = get_ctx(4).A.block(slice(0, 3), slice(None))
    for block in (real, real.scale(GaussRat(0, 1))):
        passes.clear()
        got = ctx.apply("P", block)
        assert got == block @ kron_power(P1, 4).transpose()
        assert_canonical_storage(got)
        assert passes == [(block.rows, True)]
    structure = ctx.structure
    passes.clear()
    structure.E_spectra
    assert passes == [(ctx.D + 1, True)]
    passes.clear()
    structure.E_products
    for i in range(ctx.D + 1):
        structure.conjugation("conj_Estar_to_Eeps", i)
    assert passes == [((ctx.D + 1) ** 2, True)] + [(1, True)] * (ctx.D + 1)


def test_table_defects_are_compared_once_per_flip(monkeypatch):
    # a constructed context has no defect and compares no table; a flip
    # compares its op's table with the clean one once, and every suite
    # reads that.  Flips compose, and a second flip of an entry undoes it
    compared = []
    honest = cube._Gather.defect

    def spy(table, clean):
        compared.append(table)
        return honest(table, clean)

    monkeypatch.setattr(cube._Gather, "defect", spy)
    ctx = build_context(4)
    for suite in (verify_idempotent_families, verify_conjugation):
        assert all_passed(suite(ctx))
    assert compared == []
    once = ctx.with_flipped_sign("Aeps", 1, 3)
    for suite in (verify_idempotent_families, verify_conjugation):
        assert not all_passed(suite(once))
    assert len(compared) == 1
    # Aeps[1, 3] = i (dist(3) - dist(1)) = i, flipped to -i
    assert [a.tolist() for a in once._defects["Aeps"]] == [[1], [3], [0],
                                                           [-2]]
    twice = once.with_flipped_sign("A", 0, 1)
    assert [len(twice._defects[op][0]) for op in ("A", "Astar", "Aeps")] \
        == [1, 0, 1]
    undone = twice.with_flipped_sign("Aeps", 1, 3)
    assert len(compared) == 3
    assert len(undone._defects["Aeps"][0]) == 0
    only_a = ctx.with_flipped_sign("A", 0, 1)
    for suite in (verify_idempotent_families, verify_conjugation):
        assert _outcome(suite, undone) == _outcome(suite, only_a)


@pytest.mark.parametrize("D", range(1, 7))
def test_ladder_tables_join_adjacent_slices(D):
    # every nonzero entry (y, y ^ s) of R's table has
    # dist(y) = dist(y ^ s) + 1, and of L's dist(y) + 1 = dist(y ^ s),
    # clean and under every single flip, so R^k of a vector on slice r lies
    # on slice r + k: decompose checks the slice of the seeds alone
    clean = get_ctx(D)
    spots = [(op, y, z) for op in ("A", "Astar", "Aeps")
             for y, z in np.argwhere(getattr(clean, op).nonzero())]
    contexts = [clean] + [clean.with_flipped_sign(*spot) for spot in spots]
    for ctx in contexts:
        for op, step in (("R", 1), ("L", -1)):
            table = ctx._gather_table(op)
            y, k = np.nonzero((table.re != 0) | (table.im != 0))
            assert len(y)
            assert np.array_equal(ctx._dist[y],
                                  ctx._dist[table.columns()[y, k]] + step)
