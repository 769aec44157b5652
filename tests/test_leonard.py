"""Six bases, hypergeometric table, representation matrices, inner products,
transition matrices, Leonard-triple recognizer."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (get_bundles, get_ctx, get_phi, oracle_inner,
                      oracle_pattern, oracle_transition, series_2f1)
from tcube.cube import build_context
from tcube.decomposition import decompose
from tcube.leonard import (BASIS_LABELS, INNER_FORMULAS, OPERATOR_LABELS,
                           TRANSITION_TABLE, BasisError, BasisSolver,
                           PhiMatrix, SixBases, _is_irreducible_tridiagonal,
                           build_six_bases, diagonal_form,
                           hypergeometric_2f1, inner_tables,
                           is_leonard_triple, itridiagonal_subneg_form,
                           itridiagonal_superneg_form, module_report,
                           module_triple, representation_matrix,
                           transition_formulas, transition_matrices,
                           transition_tables, tridiagonal_form, verify_phi,
                           verify_inner_products, verify_rep_matrices)
from tcube.linalg import ExactMatrix, ExactVector, inner
from tcube.scalar import GaussRat

I_ = GaussRat(0, 1)


# -- hypergeometric values -------------------------------------------------------


def test_2f1_at_i_zero():
    for d in range(0, 7):
        for j in range(d + 1):
            assert hypergeometric_2f1(0, j, d) == 1


def test_2f1_frozen_values():
    # independent oracle: explicit Pochhammer series
    assert series_2f1(1, 1, 2) == 0
    assert hypergeometric_2f1(1, 1, 2) == 0
    assert series_2f1(1, 1, 1) == -1
    assert hypergeometric_2f1(1, 1, 1) == -1


@pytest.mark.parametrize("d", range(0, 7))
def test_2f1_matches_series_oracle(d):
    for i in range(d + 1):
        for j in range(d + 1):
            assert hypergeometric_2f1(i, j, d) == series_2f1(i, j, d)


def test_2f1_range_errors():
    with pytest.raises(ValueError):
        hypergeometric_2f1(3, 0, 2)
    with pytest.raises(ValueError):
        hypergeometric_2f1(-1, 0, 2)


def test_phi_d2_frozen_grid():
    phi = get_phi(2)
    grid = [[phi.phi(i, j) for j in range(3)] for i in range(3)]
    assert grid == [[1, 2, 1], [1, 0, -1], [1, -2, 1]]
    m = phi.matrix()
    assert m @ m == ExactMatrix.identity(3).scale(4)


@pytest.mark.parametrize("d", range(0, 13))
def test_phi_self_inverse_and_recurrence(d):
    phi = get_phi(d)
    assert all(c.passed for c in verify_phi(phi))
    assert [phi.phi(0, j) for j in range(d + 1)] == \
        [math.comb(d, j) for j in range(d + 1)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_phi_mutation_detected(d):
    phi = get_phi(d)
    for i in range(d + 1):
        for j in range(d + 1):
            if phi.f(i, j) == 0:
                continue
            mutated = phi.with_flipped_entry(i, j)
            assert not all(c.passed for c in verify_phi(mutated)), (i, j)


# -- six bases ----------------------------------------------------------------------


def test_six_bases_d1_structure():
    ctx = get_ctx(1)
    (m, bases, _), = get_bundles(1)
    # Estar_0 u and Estar_1 u are the coordinate vectors scaled by u's entries
    asa = bases["AsA"]
    assert asa[0] == ExactVector([m.u[0], GaussRat(0)])
    assert asa[1] == ExactVector([GaussRat(0), m.u[1]])


@pytest.mark.parametrize("D", [2, 3, 4])
def test_six_bases_nonzero_and_sizes(D):
    for m, bases, _ in get_bundles(D):
        for label in BASIS_LABELS:
            assert len(bases[label]) == m.d + 1
            assert all(not v.is_zero() for v in bases[label])


def test_basis_orthogonality_with_norms_d4():
    for m, bases, _ in get_bundles(4):
        norm_u = inner(m.u, m.u)
        for i in range(m.d + 1):
            for j in range(m.d + 1):
                got = inner(bases["AsA"][i], bases["AsA"][j])
                if i != j:
                    assert got.is_zero()
                else:
                    assert got == norm_u * Fraction(math.comb(m.d, i), 2 ** m.d)


def test_seed_decomposes_as_slice_sums_d3():
    for m, bases, _ in get_bundles(3):
        for label, seed in (("AsA", m.u), ("AeA", m.u),
                            ("AeAs", m.u_star), ("AAs", m.u_star),
                            ("AAe", m.u_eps), ("AsAe", m.u_eps)):
            total = ExactVector.zeros(seed.length)
            for v in bases[label]:
                total = total + v
            assert total == seed


# -- representation matrices ----------------------------------------------------------


def test_rep_matrix_examples_d2():
    ctx = get_ctx(2)
    (m, bases, _) = next(b for b in get_bundles(2) if b[0].d == 2)
    rep_a_aas = representation_matrix(ctx.A, list(bases["AAs"]))
    assert rep_a_aas == ExactMatrix.diagonal([2, 0, -2])
    rep_a_asa = representation_matrix(ctx.A, list(bases["AsA"]))
    assert rep_a_asa == ExactMatrix([[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    rep_ae_asa = representation_matrix(ctx.Aeps, list(bases["AsA"]))
    assert rep_ae_asa == ExactMatrix(
        [[GaussRat(0), GaussRat(0, 2), GaussRat(0)],
         [GaussRat(0, -1), GaussRat(0), GaussRat(0, 1)],
         [GaussRat(0), GaussRat(0, -2), GaussRat(0)]])


def test_form_builders_d3():
    d = 3
    tri = tridiagonal_form(d)
    assert [tri[i, i - 1] for i in range(1, 4)] == \
        [GaussRat(1), GaussRat(2), GaussRat(3)]
    assert [tri[i, i + 1] for i in range(3)] == \
        [GaussRat(3), GaussRat(2), GaussRat(1)]
    sub = itridiagonal_subneg_form(d)
    assert [sub[i, i - 1] for i in range(1, 4)] == \
        [GaussRat(0, -1), GaussRat(0, -2), GaussRat(0, -3)]
    assert [sub[i, i + 1] for i in range(3)] == \
        [GaussRat(0, 3), GaussRat(0, 2), GaussRat(0, 1)]
    sup = itridiagonal_superneg_form(d)
    assert [sup[i, i - 1] for i in range(1, 4)] == \
        [GaussRat(0, 1), GaussRat(0, 2), GaussRat(0, 3)]
    assert [sup[i, i + 1] for i in range(3)] == \
        [GaussRat(0, -3), GaussRat(0, -2), GaussRat(0, -1)]


def test_tridiagonal_row_sums():
    # (tridiagonal form) applied to the all-ones vector gives d * ones
    for d in (1, 2, 3, 5):
        tri = tridiagonal_form(d)
        ones = ExactVector([1] * (d + 1))
        assert tri.matvec(ones) == ones.scale(d)


def test_basis_solver_coords_and_span_certificate():
    solver = BasisSolver([ExactVector([1, 0, 0]),
                          ExactVector([0, GaussRat(0, 1), Fraction(1, 2)])])
    assert solver.coords(ExactVector([2, GaussRat(0, 3), Fraction(3, 2)])) \
        == ExactVector([2, 3])
    with pytest.raises(BasisError):
        solver.coords(ExactVector([0, 1, 0]))
    with pytest.raises(BasisError):
        BasisSolver([ExactVector([1, 2]), ExactVector([2, 4])])


def test_basis_solver_coords_matrix_is_one_certified_product():
    solver = BasisSolver([ExactVector([1, 0, 0]),
                          ExactVector([0, GaussRat(0, 1), Fraction(1, 2)])])
    inside = [ExactVector([2, GaussRat(0, 3), Fraction(3, 2)]),
              ExactVector([0, 2, GaussRat(0, -1)])]
    got = solver.coords_matrix(ExactMatrix.stack(inside))
    assert got == ExactMatrix.stack([solver.coords(t) for t in inside]) \
        .transpose()
    assert got.column(1) == ExactVector([0, GaussRat(0, -2)])
    with pytest.raises(BasisError, match="outside the span"):
        solver.coords_matrix(ExactMatrix.stack(
            inside + [ExactVector([0, 1, 0])]))


def test_p_shift_failure_names_pair_and_slice(monkeypatch):
    # negate one row of the P pass over the left-hand sides: row 6 * i + k
    # is pair k of the P-shift table at slice i
    ctx = build_context(3)
    mod = decompose(ctx).modules[0]
    apply = ctx.apply

    def one_row_negated(op, block):
        out = apply(op, block)
        if op != "P" or block.rows == 1:
            return out
        rows = [out.row(k) for k in range(out.rows)]
        rows[6 * 1 + 1] = -rows[6 * 1 + 1]
        return ExactMatrix.stack(rows)

    monkeypatch.setattr(ctx, "apply", one_row_negated)
    with pytest.raises(BasisError, match=r"^P-shift AeAs->AAe failed at "
                                         r"slice 1 \(module r=0 index=0\)$"):
        build_six_bases(ctx, mod)


def test_basis_solver_rejects_vector_of_another_module_d3():
    (m0, bases0, _), (m1, _, _) = get_bundles(3)[:2]
    solver = BasisSolver(list(bases0["AsA"]))
    assert solver.coords(m0.u) == ExactVector([1] * (m0.d + 1))
    with pytest.raises(BasisError):
        solver.coords(m1.u)


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_rep_grid_matches_closed_forms(D):
    ctx = get_ctx(D)
    for m, bases, _ in get_bundles(D):
        cells = verify_rep_matrices(ctx, bases)
        assert len(cells) == 18
        assert all(c.passed for c in cells)
        forms = {f for c in cells for f in [c.form]}
        diag_count = sum(1 for c in cells if c.form == "diagonal")
        assert diag_count == 6


def test_rep_commutators_descend_d3():
    # the represented triple satisfies the same commutator identities
    ctx = get_ctx(3)
    for m, bases, _ in get_bundles(3):
        for label in BASIS_LABELS:
            solver = BasisSolver(list(bases[label]))
            b = representation_matrix(ctx.A, list(bases[label]), solver)
            bs = representation_matrix(ctx.Astar, list(bases[label]), solver)
            be = representation_matrix(ctx.Aeps, list(bases[label]), solver)
            two_i = GaussRat(0, 2)
            assert b @ bs - bs @ b == be.scale(two_i)
            assert bs @ be - be @ bs == b.scale(two_i)
            assert be @ b - b @ be == bs.scale(two_i)


# -- inner products ---------------------------------------------------------------------


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_inner_product_theorems(D):
    for m, bases, phi in get_bundles(D):
        checks = verify_inner_products(bases, phi)
        bad = [c for c in checks if not c.passed]
        assert not bad, bad[:5]


def test_inner_product_zero_cell_from_2f1():
    # d = 2, i = j = 1: the hypergeometric factor vanishes, so the pairing
    # between AAs and AsA is exactly zero there
    (m, bases, phi) = next(b for b in get_bundles(2) if b[0].d == 2)
    assert hypergeometric_2f1(1, 1, 2) == 0
    assert inner(bases["AAs"][1], bases["AsA"][1]).is_zero()


def test_delta_factor_off_diagonal_zero_d3():
    for m, bases, _ in get_bundles(3):
        for i in range(m.d + 1):
            for j in range(m.d + 1):
                if i != j:
                    assert inner(bases["AsA"][i], bases["AsA"][j]).is_zero()


# -- transition matrices -----------------------------------------------------------------


@pytest.mark.parametrize("D", [1, 2, 3])
def test_transition_tables(D):
    for m, bases, phi in get_bundles(D):
        report = transition_matrices(bases, phi)
        assert len(report.cells) == 36
        assert report.all_passed(), report.failures()[:5]
        for label in BASIS_LABELS:
            assert report.cells[(label, label)].computed == \
                ExactMatrix.identity(m.d + 1)


def test_transition_composite_equals_direct_d3():
    for m, bases, phi in get_bundles(3):
        report = transition_matrices(bases, phi)
        comp = report.cells[("AsA", "AeA")].computed @ \
            report.cells[("AeA", "AeAs")].computed
        assert comp == report.cells[("AsA", "AeAs")].computed


def test_transition_example_diagonal_cell():
    # AeA -> AeAs is a scaled i-power diagonal
    (m, bases, phi) = next(b for b in get_bundles(3) if b[0].d == 3)
    cell = transition_matrices(bases, phi).cells[("AeA", "AeAs")]
    scale = (GaussRat(1, -1) ** m.d) * inner(m.u_star, m.u) / inner(m.u, m.u)
    expect = ExactMatrix.diagonal([scale * I_ ** k for k in range(m.d + 1)])
    assert cell.formula == expect and cell.computed == expect


# -- closed-form tables against the cell-by-cell oracles ------------------------------

SEED_KEYS = ("u|u", "u*|u*", "ue|ue", "u|u*", "u*|u", "u|ue", "ue|u",
             "u*|ue", "ue|u*")


def random_gauss(rng, nonzero=False):
    while True:
        g = GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if g or not nonzero:
            return g


def phis_to_check(d):
    """Phi at d, Phi with a sign-flipped entry (the tables are keyed on the
    Phi matrix itself, not on d) and Phi with a non-integer entry (its
    numerators then sit over a denominator)."""
    phi = get_phi(d)
    grid = [list(row) for row in phi.hyper]
    grid[d][d // 2] = Fraction(1, 3)
    return [phi, phi.with_flipped_entry(d // 2, d),
            PhiMatrix(d, tuple(tuple(row) for row in grid))]


@pytest.mark.parametrize("d", range(0, 9))
def test_inner_tables_match_cell_oracle(d):
    rng = random.Random(d)
    for phi in phis_to_check(d):
        tables = inner_tables(phi)
        assert set(tables) == {kind for kind, _ in INNER_FORMULAS.values()}
        for kind, table in sorted(tables.items()):
            for scalar in (GaussRat(1), random_gauss(rng), random_gauss(rng)):
                want = ExactMatrix([[oracle_inner(kind, i, j, d, scalar, phi)
                                     for j in range(d + 1)]
                                    for i in range(d + 1)])
                assert table.scale(scalar) == want, (kind, scalar)


@pytest.mark.parametrize("d", range(0, 9))
def test_transition_tables_match_cell_oracle(d):
    rng = random.Random(100 + d)
    for phi in phis_to_check(d):
        tables = transition_tables(phi)
        assert set(tables) == {p for p, _ in TRANSITION_TABLE.values()}
        for pattern, table in sorted(tables.items()):
            scale = random_gauss(rng)
            assert table.scale(scale) == oracle_pattern(pattern, scale, phi)
        scal = {key: random_gauss(rng, nonzero=True) for key in SEED_KEYS}
        formulas = transition_formulas(scal, phi)
        assert set(formulas) == {(a, b) for a in BASIS_LABELS
                                 for b in BASIS_LABELS}
        for (src, dst), formula in formulas.items():
            assert formula == oracle_transition(src, dst, scal, phi)


def test_phi_matrix_from_integer_arrays():
    for d in range(0, 7):
        for phi in phis_to_check(d):
            assert phi.matrix() == ExactMatrix([[phi.phi(i, j)
                                                 for j in range(d + 1)]
                                                for i in range(d + 1)])


def test_module_gram_built_once_on_first_use():
    ctx = get_ctx(2)
    (m, _, phi), = [b for b in get_bundles(2) if b[0].d == 2]
    bases = build_six_bases(ctx, m)
    stacked, gram = bases.stacked, bases.gram
    assert stacked == ExactMatrix.stack(
        [v for label in BASIS_LABELS for v in bases[label]])
    assert gram == stacked @ stacked.adjoint()
    verify_rep_matrices(ctx, bases)
    verify_inner_products(bases, phi)
    transition_matrices(bases, phi)
    module_triple(ctx, bases)
    assert bases.stacked is stacked and bases.gram is gram


@pytest.mark.parametrize("D", range(1, 7))
def test_orthogonal_coords_equal_the_elimination_solver(D):
    # BasisSolver, which never assumes orthogonality, is the oracle
    ctx = get_ctx(D)
    for m, bases, _ in get_bundles(D):
        targets = ExactMatrix.stack(
            [bases.stacked] + [ctx.apply(op, bases.stacked)
                               for op in OPERATOR_LABELS])
        for label in BASIS_LABELS:
            assert bases.coords(label, targets) == \
                BasisSolver(list(bases[label])).coords_matrix(targets)


def _with_basis(bases, label, vectors):
    return SixBases(module=bases.module,
                    vectors=dict(bases.vectors, **{label: tuple(vectors)}))


@pytest.mark.parametrize("change", ["sheared", "zero"])
def test_non_orthogonal_basis_is_named(change):
    ctx = get_ctx(3)
    (m, bases, phi) = next(b for b in get_bundles(3) if b[0].d == 3)
    v = list(bases["AeA"])
    v[2] = v[2] + v[1] if change == "sheared" else v[2].scale(0)
    broken = _with_basis(bases, "AeA", v)
    message = r"^basis AeA is not orthogonal \(module r=0 index=0\)$"
    with pytest.raises(BasisError, match=message):
        broken.coords("AeA", bases.stacked)
    with pytest.raises(BasisError, match=message):
        verify_rep_matrices(ctx, broken)
    with pytest.raises(BasisError, match=message):
        transition_matrices(broken, phi)


def test_target_outside_the_span_keeps_its_message():
    (m0, bases0, _), (m1, _, _) = get_bundles(3)[:2]
    with pytest.raises(BasisError,
                       match=r"^target is outside the span of the basis$"):
        bases0.coords("AsA", ExactMatrix.stack([m0.u, m1.u]))


def test_one_wrong_transition_fails_its_cell_and_exactly_its_coherence(
        monkeypatch):
    # Double the coordinates of basis t in basis s after they are certified:
    # T(s, t) alone becomes 2 T(s, t).  Then T(a,b) T(b,c) == T(a,c) fails
    # exactly when the factor 2 appears on one side only.
    (m, bases, phi) = next(b for b in get_bundles(3) if b[0].d == 3)
    s, t = "AeA", "AAs"
    honest = SixBases.coords
    block = bases.rows(t)
    double_t = ExactMatrix.diagonal([2 if block.start <= k < block.stop else 1
                                     for k in range(6 * (m.d + 1))])

    def doubled(self, label, targets):
        coeffs = honest(self, label, targets)
        return coeffs @ double_t if label == s else coeffs

    monkeypatch.setattr(SixBases, "coords", doubled)
    report = transition_matrices(bases, phi)
    labels = BASIS_LABELS
    composition = ([(s, t, c) for c in labels if c != t]
                   + [(a, s, t) for a in labels if a != s]
                   + [(s, b, t) for b in labels if b not in (s, t)])
    assert sorted(report.failures()) == sorted(
        [f"{s}->{t}", f"transition_inverse[{min(s, t)}|{max(s, t)}]"]
        + [f"transition_composition[{a}|{b}|{c}]" for a, b, c in composition])


# What a sign flip of the hypergeometric value at (1, 2) fails on the d = 3
# module of Q_3, recorded while the closed forms were evaluated one cell at a
# time: the twelve inner-product pairings with a Phi factor, at (1, 2) only,
# and the 24 transitions with a Phi pattern (neither the identity nor a
# D1/D2 diagonal).  The computed matrices, and so coherence, are unaffected.
FLIPPED_PHI_INNER_PAIRS = (
    "AAe|AsA", "AAs|AeAs", "AAs|AsA", "AAs|AsAe",
    "AeAs|AAe", "AeA|AAe", "AeA|AAs", "AeA|AsA",
    "AsAe|AAe", "AsAe|AeA", "AsAe|AeAs", "AsA|AeAs",
)
FLIPPED_PHI_TRANSITIONS = (
    "AAe->AeA", "AAe->AeAs", "AAe->AsA", "AAe->AsAe",
    "AAs->AeA", "AAs->AeAs", "AAs->AsA", "AAs->AsAe",
    "AeA->AAe", "AeA->AAs", "AeA->AsA", "AeA->AsAe",
    "AeAs->AAe", "AeAs->AAs", "AeAs->AsA", "AeAs->AsAe",
    "AsA->AAe", "AsA->AAs", "AsA->AeA", "AsA->AeAs",
    "AsAe->AAe", "AsAe->AAs", "AsAe->AeA", "AsAe->AeAs",
)


def test_flipped_phi_entry_fails_the_same_cells():
    (m, bases, phi) = next(b for b in get_bundles(3) if b[0].d == 3)
    flipped = phi.with_flipped_entry(1, 2)
    bad_inner = sorted((c.check_id, c.i, c.j)
                       for c in verify_inner_products(bases, flipped)
                       if not c.passed)
    assert bad_inner == [(f"inner[{pair}]", 1, 2)
                         for pair in FLIPPED_PHI_INNER_PAIRS]
    report = transition_matrices(bases, flipped)
    assert sorted(report.failures()) == list(FLIPPED_PHI_TRANSITIONS)
    assert all(c.passed for c in report.coherence)


# -- Leonard recognizer ---------------------------------------------------------------------


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_modules_are_leonard_triples(D):
    ctx = get_ctx(D)
    for m, bases, _ in get_bundles(D):
        verdict = is_leonard_triple(*module_triple(ctx, bases))
        assert verdict.verdict == "true"
        assert verdict.eigenvalue_order == tuple(m.d - 2 * k
                                                 for k in range(m.d + 1))


def test_commuting_diagonal_pair_is_false():
    d1 = ExactMatrix.diagonal([1, -1])
    verdict = is_leonard_triple(d1, d1, ExactMatrix([[0, 1], [1, 0]]))
    assert verdict.verdict == "false"


def test_d1_closed_form_triple_true():
    # 2x2 case assembled from the closed forms; brute-force confirms that
    # every candidate eigenbasis arrangement certifies the triple
    b = tridiagonal_form(1)
    bs = diagonal_form(1)
    be = itridiagonal_subneg_form(1)
    verdict = is_leonard_triple(b, bs, be)
    assert verdict.verdict == "true"
    assert all(verdict.tridiagonal.values())


def test_unverifiable_eigenvalue_outside_candidates():
    m = ExactMatrix.diagonal([3, -1])
    verdict = is_leonard_triple(m, m, m)
    assert verdict.verdict == "unverifiable"


def test_unverifiable_non_diagonalizable():
    nil = ExactMatrix([[0, 1], [0, 0]])
    verdict = is_leonard_triple(nil, nil, nil)
    assert verdict.verdict == "unverifiable"


def test_eigen_order_flip_and_permutation_sensitivity():
    ctx = get_ctx(4)
    (m, bases, _) = next(b for b in get_bundles(4) if b[0].d == 2)
    b, bs, be = module_triple(ctx, bases)
    verdict = is_leonard_triple(b, bs, be)
    base = verdict.bases[0]
    rep = verdict.rep_matrices[(0, 1)]
    # reversing the eigenbasis still gives (flipped) tridiagonal
    rev = list(reversed(base))
    rep_rev = representation_matrix(bs, rev)
    assert all(not rep_rev[i, j] for i in range(3) for j in range(3)
               if abs(i - j) > 1)
    # a non-monotone permutation breaks tridiagonality for d >= 2
    perm = [base[0], base[2], base[1]]
    rep_perm = representation_matrix(bs, perm)
    assert any(rep_perm[i, j] for i in range(3) for j in range(3)
               if abs(i - j) > 1)


def test_irreducible_tridiagonal_reads_the_nonzero_mask():
    tri = tridiagonal_form(3)
    assert _is_irreducible_tridiagonal(tri)
    assert _is_irreducible_tridiagonal(ExactMatrix.zeros(1, 1))
    grid = tri.to_rows()
    grid[0][2] = GaussRat(0, 1)          # nonzero off the band
    assert not _is_irreducible_tridiagonal(ExactMatrix(grid))
    grid = tri.to_rows()
    grid[2][1] = GaussRat(0)             # zero on the subdiagonal
    assert not _is_irreducible_tridiagonal(ExactMatrix(grid))
    grid = tri.to_rows()
    grid[1][2] = GaussRat(0)             # zero on the superdiagonal
    assert not _is_irreducible_tridiagonal(ExactMatrix(grid))


def test_recognizer_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        is_leonard_triple(ExactMatrix.identity(2), ExactMatrix.identity(3),
                          ExactMatrix.identity(2))


# -- per-module report ------------------------------------------------------------------------


def test_module_report_shape():
    ctx = get_ctx(3)
    (m, bases, phi) = get_bundles(3)[0]
    rep = module_report(ctx, bases, phi)
    assert rep["D"] == 3 and rep["r"] == m.r
    assert rep["leonard_triple"] == "true"
    assert rep["transitions"] == {"cells_checked": 36, "failures": []}
    assert set(rep["rep_matrices"].keys()) == set(BASIS_LABELS)
    for ops in rep["rep_matrices"].values():
        assert set(ops.keys()) == set(OPERATOR_LABELS)
        for cell in ops.values():
            assert cell["passed"] is True
    assert all(rep["inner_products"].values())
