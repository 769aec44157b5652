"""Six bases, hypergeometric table, representation matrices, inner products,
transition matrices, Leonard-triple recognizer."""

import hashlib
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import (block_rows, flipped_phi, get_bundles, get_ctx,
                      get_decomposition, get_phi, in_space,
                      naive_is_leonard_triple, oracle_inner,
                      oracle_pattern, oracle_seeds, oracle_six_bases,
                      oracle_transition, oracle_verdicts, product_calls,
                      representation_matrix, series_2f1)
from tcube import cli, decomposition, leonard, linalg
from tcube.cube import build_context
from tcube.decomposition import ModuleFrame, decompose
from tcube.leonard import (_BASIS_SPEC, _P_CYCLES, _turn, BASIS_LABELS,
                           INNER_FORMULAS, OPERATOR_LABELS, TRANSITION_TABLE,
                           BasisError, BasisSolver,
                           PhiMatrix, REP_FORMS, SixBases,
                           _FORM_BUILDERS, _is_irreducible_tridiagonal,
                           build_six_bases, diagonal_form,
                           hypergeometric_2f1, inner_tables,
                           is_leonard_triple, itridiagonal_subneg_form,
                           itridiagonal_superneg_form, module_report,
                           module_triple, transition_formulas, transition_matrices,
                           transition_tables, tridiagonal_form, verify_phi,
                           verify_inner_products, verify_rep_matrices)
from tcube.linalg import ExactMatrix, ExactVector, inner, kernel_basis
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
            mutated = flipped_phi(phi, i, j)
            assert not all(c.passed for c in verify_phi(mutated)), (i, j)


# -- six bases ----------------------------------------------------------------------


def test_six_bases_d1_structure():
    ctx = get_ctx(1)
    (m, bases, _), = get_bundles(1)
    # Estar_0 u and Estar_1 u are the coordinate vectors scaled by u's entries
    assert in_space(bases, "AsA") == ExactMatrix([[m.u[0], GaussRat(0)],
                                                  [GaussRat(0), m.u[1]]])


@pytest.mark.parametrize("D", [2, 3, 4])
def test_six_bases_nonzero_and_sizes(D):
    for m, bases, _ in get_bundles(D):
        for label in BASIS_LABELS:
            assert bases[label].shape == (m.d + 1, m.d + 1)
            assert in_space(bases, label).shape == (m.d + 1, 2 ** D)
            assert all(not v.is_zero()
                       for v in block_rows(in_space(bases, label)))


def test_basis_orthogonality_with_norms_d4():
    for m, bases, _ in get_bundles(4):
        norm_u = inner(m.u, m.u)
        asa = in_space(bases, "AsA")
        for i in range(m.d + 1):
            for j in range(m.d + 1):
                got = inner(asa.row(i), asa.row(j))
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
            for v in block_rows(in_space(bases, label)):
                total = total + v
            assert total == seed


@pytest.mark.parametrize("D", range(1, 6))
def test_six_bases_match_the_dense_idempotents(D):
    # vector i of each basis against family_(r+i) seed by a dense product,
    # a route that does not use the strided selection of build_six_bases
    ctx = get_ctx(D)
    for m, bases, _ in get_bundles(D):
        seeds = {"u": m.u, "u*": m.u_star, "ue": m.u_eps}
        for label in BASIS_LABELS:
            family, seed = _BASIS_SPEC[label]
            block = in_space(bases, label)
            assert block.shape == (m.d + 1, 2 ** D)
            for i in range(m.d + 1):
                want = getattr(ctx, family)[m.r + i].matvec(seeds[seed])
                assert block.row(i) == want, (m.r, m.index, label, i)


# -- the frame's coordinates against the path over 2^D -------------------------------


@pytest.mark.parametrize("D", range(1, 8))
def test_coordinate_six_bases_equal_the_oracle_over_2d(D):
    # mapped back through the slice basis, the six bases of the frame are
    # the projections over 2^D of the seeds that projections give
    ctx = get_ctx(D)
    for m, bases, _ in get_bundles(D):
        assert in_space(bases) == oracle_six_bases(ctx, m,
                                                   oracle_seeds(ctx, m))


def _verdicts(ctx, bases, phi):
    """The verdicts of the frame's path, laid out as oracle_verdicts lays
    them out."""
    cells = verify_rep_matrices(ctx, bases)
    report = transition_matrices(bases, phi)
    return ([(c.basis, c.op, c.passed) for c in cells],
            [(c.check_id, c.i, c.j, c.passed)
             for c in verify_inner_products(bases, phi)],
            {key: cell.passed for key, cell in report.cells.items()},
            [(c.identity, c.passed) for c in report.coherence],
            is_leonard_triple(*module_triple(cells)).verdict)


@pytest.mark.parametrize("D", range(1, 7))
def test_verdicts_equal_the_oracle_over_2d(D):
    # with the true Phi every verdict passes; with one hypergeometric value
    # flipped, the inner products and transitions that read it fail, in
    # both paths alike
    ctx = get_ctx(D)
    for m, bases, phi in get_bundles(D):
        phis = [phi]
        if m.d >= 1:
            phis.append(flipped_phi(phi, 1, m.d))
        for p in phis:
            assert _verdicts(ctx, bases, p) == oracle_verdicts(ctx, m, p), \
                (m.r, m.index, p is phi)


def _fails(ctx, mod):
    """Whether the rep matrices of a module fail: a cell that does not
    pass, or a BasisError on the way."""
    try:
        cells = verify_rep_matrices(ctx, build_six_bases(ctx, mod))
    except BasisError:
        return True
    return not all(c.passed for c in cells)


def test_memo_is_keyed_on_the_exact_frame():
    # the two modules of Q_3 with r = 1 hold one frame object and so
    # one computation; a flipped entry of M_Aeps is another key and fails,
    # although a healthy module of the same endpoint was verified first
    ctx = get_ctx(3)
    first, second = [m for m in get_decomposition(3).modules if m.r == 1]
    assert not _fails(ctx, first)
    assert build_six_bases(ctx, first).stacked is \
        build_six_bases(ctx, second).stacked
    aeps = second.frame.Aeps
    re, im = aeps._re.copy(), aeps._im.copy()
    re[0, 1], im[0, 1] = -re[0, 1], -im[0, 1]
    flipped = ExactMatrix.from_numerators(re, im, aeps._den)
    bad = replace(second, frame=replace(second.frame, Aeps=flipped))
    assert _fails(ctx, bad)
    assert not _fails(ctx, second)


# -- representation matrices ----------------------------------------------------------


def test_rep_matrix_examples_d2():
    ctx = get_ctx(2)
    (m, bases, _) = next(b for b in get_bundles(2) if b[0].d == 2)
    rep_a_aas = representation_matrix(ctx.A, block_rows(in_space(bases,
                                                                 "AAs")))
    assert rep_a_aas == ExactMatrix.diagonal([2, 0, -2])
    asa = block_rows(in_space(bases, "AsA"))
    rep_a_asa = representation_matrix(ctx.A, asa)
    assert rep_a_asa == ExactMatrix([[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    rep_ae_asa = representation_matrix(ctx.Aeps, asa)
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
    # negate one row of the frame's P pass over the left-hand sides: row
    # (d+1)*k + i is pair k of the P-shift table at slice i; the memo of
    # the six bases is bypassed, so that they are built with this pass
    ctx = build_context(3)
    mod = decompose(ctx).modules[0]
    apply = ModuleFrame.apply
    k, i = 1, 1

    def one_row_negated(frame, op, block):
        out = apply(frame, op, block)
        if op != "P" or block.rows == 1:
            return out
        rows = block_rows(out)
        rows[(mod.d + 1) * k + i] = -rows[(mod.d + 1) * k + i]
        return ExactMatrix.stack(rows)

    monkeypatch.setattr(ModuleFrame, "apply", one_row_negated)
    monkeypatch.setattr(leonard, "_six_bases_block",
                        leonard._six_bases_block.__wrapped__)
    with pytest.raises(BasisError, match=r"^P-shift AeAs->AAe failed at "
                                         r"slice 1 \(module r=0 index=0\)$"):
        build_six_bases(ctx, mod)


@pytest.mark.parametrize("seed, label", [("u", "AeA"), ("u_star", "AeAs"),
                                         ("u_eps", "AAe")])
def test_seed_outside_the_window_does_not_sum_back(seed, label):
    # a vertex of slice 1 added to one seed of a module with r = 1 gives it
    # content outside the window 1..2 under E and Eeps; the first basis in
    # BASIS_LABELS order built from that seed by E or Eeps is named.  Only
    # the builder over 2^D, the oracle of the frames, reads seeds that can
    # leave the module: the frame's six bases are built from its own.
    ctx = get_ctx(3)
    mod = next(m for m in get_bundles(3) if m[0].r == 1)[0]
    k = ("u", "u_star", "u_eps").index(seed)
    rows = block_rows(mod.seeds)
    rows[k] = rows[k] + ExactMatrix.identity(ctx.n).row(1)
    with pytest.raises(BasisError, match=rf"^basis {label} does not sum back "
                                         rf"to its seed$"):
        oracle_six_bases(ctx, mod, ExactMatrix.stack(rows))


def test_basis_solver_rejects_vector_of_another_module_d3():
    (m0, bases0, _), (m1, _, _) = get_bundles(3)[:2]
    solver = BasisSolver(block_rows(in_space(bases0, "AsA")))
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
            vectors = block_rows(in_space(bases, label))
            b = representation_matrix(ctx.A, vectors)
            bs = representation_matrix(ctx.Astar, vectors)
            be = representation_matrix(ctx.Aeps, vectors)
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
    assert inner(bases["AAs"].row(1), bases["AsA"].row(1)).is_zero()


def test_delta_factor_off_diagonal_zero_d3():
    for m, bases, _ in get_bundles(3):
        for i in range(m.d + 1):
            for j in range(m.d + 1):
                if i != j:
                    assert inner(bases["AsA"].row(i),
                                 bases["AsA"].row(j)).is_zero()


# -- transition matrices -----------------------------------------------------------------


@pytest.mark.parametrize("D", [1, 2, 3])
def test_transition_tables(D):
    for m, bases, phi in get_bundles(D):
        report = transition_matrices(bases, phi)
        assert len(report.cells) == 36
        assert not report.failures(), report.failures()[:5]
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
    return [phi, flipped_phi(phi, d // 2, d),
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


@pytest.mark.parametrize("d", range(0, 11))
def test_prefactors_equal_the_gauss_powers(d):
    # every prefactor spec of TRANSITION_TABLE, with its powers of 1 +- i
    # on integers, against the same powers of GaussRat
    rng = random.Random(200 + d)
    scal = {key: random_gauss(rng, nonzero=True) for key in SEED_KEYS}
    opi, omi = GaussRat(1, 1), GaussRat(1, -1)
    extras = {None: 1, "omi": omi ** d, "opi": opi ** d}
    specs = {spec for _, spec in TRANSITION_TABLE.values()}
    assert {spec[1] for spec in specs if spec[0] == "unit"} == {"opi_inv",
                                                                "omi_inv"}
    for spec in specs:
        if spec[0] == "unit":
            want = (opi if spec[1] == "opi_inv" else omi) ** -d
        else:
            key, norm, extra = spec
            want = scal[key] / scal[norm] * extras[extra]
        assert leonard._prefactor(spec, d, scal) == want, spec


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
    assert stacked == ExactMatrix.stack([bases[label]
                                         for label in BASIS_LABELS])
    # the Gram through the frame, which leaves out <u*, u*>
    vectors = in_space(bases)
    assert gram == (vectors @ vectors.adjoint()).scale(
        1 / inner(m.u_star, m.u_star))
    module_triple(verify_rep_matrices(ctx, bases))
    verify_inner_products(bases, phi)
    transition_matrices(bases, phi)
    assert bases.stacked is stacked and bases.gram is gram


@pytest.mark.parametrize("D", range(1, 7))
def test_orthogonal_coords_equal_the_elimination_solver(D):
    # BasisSolver, which never assumes orthogonality, is the oracle, on the
    # vectors over 2^D, for the coordinate read and for the transitions
    # that it reads off the cached Gram
    for m, bases, phi in get_bundles(D):
        targets = ExactMatrix.stack(
            [bases.stacked] + [m.frame.apply(op, bases.stacked)
                               for op in OPERATOR_LABELS])
        got = bases.coords(targets)
        cells = transition_matrices(bases, phi).cells
        for label in BASIS_LABELS:
            solver = BasisSolver(block_rows(in_space(bases, label)))
            want = solver.coords_matrix(targets @ m.slice_basis)
            assert got.block(slice(None), bases.rows(label)) == \
                want.transpose()
            for dst in BASIS_LABELS:
                assert cells[(label, dst)].computed == \
                    want.block(slice(None), bases.rows(dst))


@pytest.mark.parametrize("D", [2, 5, 8])
def test_coords_make_one_certificate_product(monkeypatch, D):
    # on bases whose Gram is built: the read, one certificate product for
    # all six bases and the targets through the read; the bases themselves
    # (the transitions) are read by the certificate product alone
    for m, bases, _ in get_bundles(D):
        bases.gram
        images = m.frame.apply("A", bases.stacked)
        assert product_calls(monkeypatch, bases.coords, images) == 3
        assert product_calls(monkeypatch, bases.coords, bases.stacked) == 2
        assert bases.coords(bases.stacked) == \
            bases.coords(ExactMatrix.stack([bases.stacked]))


@pytest.mark.parametrize("D", [2, 5, 8])
def test_six_bases_make_one_window_product_per_family(monkeypatch, D):
    # on a frame whose spectral parts are memoized: three P products for
    # the chained seeds, one window product for each of E, Estar and Eeps
    # and one P pass for the P-shift checks, whatever d
    for m, _, _ in get_bundles(D):
        assert product_calls(monkeypatch,
                             leonard._six_bases_block.__wrapped__, m) == 7


def _with_basis(bases, label, vectors):
    return SixBases(module=bases.module, stacked=ExactMatrix.stack(
        [ExactMatrix.stack(vectors) if other == label else bases[other]
         for other in BASIS_LABELS]))


@pytest.mark.parametrize("change", ["sheared", "zero"])
def test_non_orthogonal_basis_is_named(change):
    ctx = get_ctx(3)
    (m, bases, phi) = next(b for b in get_bundles(3) if b[0].d == 3)
    v = block_rows(bases["AeA"])
    v[2] = v[2] + v[1] if change == "sheared" else v[2].scale(0)
    broken = _with_basis(bases, "AeA", v)
    message = r"^basis AeA is not orthogonal \(module r=0 index=0\)$"
    with pytest.raises(BasisError, match=message):
        broken.coords(bases.stacked)
    with pytest.raises(BasisError, match=message):
        verify_rep_matrices(ctx, broken)
    with pytest.raises(BasisError, match=message):
        transition_matrices(broken, phi)


@pytest.mark.parametrize("D", range(1, 7))
def test_rep_cells_equal_the_per_label_coords(D):
    # the one coordinate read per module against the elimination solver of
    # each basis on that basis's images over 2^D: the same 18 matrices and
    # verdicts
    ctx = get_ctx(D)
    n_ops = len(OPERATOR_LABELS)
    for m, bases, _ in get_bundles(D):
        n = m.d + 1
        cells = verify_rep_matrices(ctx, bases)
        assert len(cells) == len(BASIS_LABELS) * n_ops
        cells = iter(cells)
        for label in BASIS_LABELS:
            solver = BasisSolver(block_rows(in_space(bases, label)))
            coeffs = solver.coords_matrix(ExactMatrix.stack(
                [m.frame.apply(op, bases[label])
                 for op in OPERATOR_LABELS]) @ m.slice_basis)
            for k, op in enumerate(OPERATOR_LABELS):
                cell = next(cells)
                got = coeffs.block(slice(None), slice(k * n, (k + 1) * n))
                form = REP_FORMS[(op, label)]
                assert (cell.basis, cell.op, cell.form) == (label, op, form)
                assert cell.matrix == got
                assert cell.passed == (got == _FORM_BUILDERS[form](m.d))


@pytest.mark.parametrize("D", [2, 3, 4])
def test_module_triple_is_the_asa_cells_in_operator_order(D):
    # the matrices of A, Astar, Aeps in basis AsA by exact solving
    ctx = get_ctx(D)
    for m, bases, _ in get_bundles(D):
        triple = module_triple(verify_rep_matrices(ctx, bases))
        asa = block_rows(in_space(bases, "AsA"))
        assert triple == tuple(representation_matrix(getattr(ctx, op), asa)
                               for op in OPERATOR_LABELS)


def _wrong_solves(monkeypatch, labels):
    """Double the inverse norms of the rows of the given bases.  In
    coordinates an orthogonal basis spans every target, so a wrong solve is
    the one thing that fails the reconstruction certificate; its Gram
    blocks stay diagonal."""
    honest = SixBases.inverse_norms.func

    def doubled(self):
        wrong = set()
        for label in labels:
            wrong.update(range(self.stacked.rows)[self.rows(label)])
        return ExactMatrix.diagonal([2 if k in wrong else 1
                                     for k in range(self.stacked.rows)]) \
            @ honest(self)

    monkeypatch.setattr(SixBases, "inverse_norms", property(doubled))


@pytest.mark.parametrize("broken", [("AsA",), ("AsA", "AeA"), ("AeA", "AsA"),
                                    ("AeAs", "AAe")])
def test_rep_matrices_raise_the_first_failing_basis(monkeypatch, broken):
    # a basis is broken either by a wrong solve (orthogonal, but its
    # coordinates do not reconstruct its images) or, in second place, by a
    # shear (not orthogonal); verify_rep_matrices raises for the first
    # broken basis in BASIS_LABELS order, orthogonality before span.  The
    # memo of the rep cells is bypassed, since the solve is broken, not the
    # bases
    (m, bases, _) = next(b for b in get_bundles(3) if b[0].r == 1)
    for label in broken[1:]:
        v = block_rows(bases[label])
        v[1] = v[1] + v[0]
        bases = _with_basis(bases, label, v)
    _wrong_solves(monkeypatch, broken[:1])
    monkeypatch.setattr(leonard, "_rep_cells", leonard._rep_cells.__wrapped__)
    first = min(broken, key=BASIS_LABELS.index)
    message = ("target is outside the span of the basis" if first == broken[0]
               else f"basis {first} is not orthogonal (module r=1 index=0)")
    with pytest.raises(BasisError) as exc:
        verify_rep_matrices(get_ctx(3), bases)
    assert str(exc.value) == message


def test_target_outside_the_span_keeps_its_message(monkeypatch):
    (m0, bases0, _) = get_bundles(3)[0]
    _wrong_solves(monkeypatch, ("AsA",))
    with pytest.raises(BasisError,
                       match=r"^target is outside the span of the basis$"):
        bases0.coords(bases0.stacked)


def test_wrong_read_fails_even_on_a_zero_target(monkeypatch):
    # the certificate is on the read itself, not on what it reads: a zero
    # row rebuilds from any coordinates, and still a wrong read raises
    (m0, bases0, _) = get_bundles(3)[0]
    _wrong_solves(monkeypatch, ("AsA",))
    with pytest.raises(BasisError,
                       match=r"^target is outside the span of the basis$"):
        bases0.coords(ExactMatrix([[0] * (m0.d + 1)]))


def test_one_wrong_transition_fails_its_cell_and_exactly_its_coherence(
        monkeypatch):
    # Double the coordinates of basis t in basis s after they are certified:
    # T(s, t) alone becomes 2 T(s, t).  Then T(a,b) T(b,c) == T(a,c) fails
    # exactly when the factor 2 appears on one side only.
    (m, bases, phi) = next(b for b in get_bundles(3) if b[0].d == 3)
    s, t = "AeA", "AAs"
    honest = SixBases.coords

    def only(label):
        block = bases.rows(label)
        return ExactMatrix.diagonal([int(block.start <= k < block.stop)
                                     for k in range(6 * (m.d + 1))])

    def doubled(self, targets):
        coeffs = honest(self, targets)
        return coeffs + only(t) @ coeffs @ only(s)

    monkeypatch.setattr(SixBases, "coords", doubled)
    monkeypatch.setattr(leonard, "_transitions",
                        leonard._transitions.__wrapped__)
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
    flipped = flipped_phi(phi, 1, 2)
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
        verdict = is_leonard_triple(
            *module_triple(verify_rep_matrices(ctx, bases)))
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
    b, bs, be = module_triple(verify_rep_matrices(ctx, bases))
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


def _distinct_eigenvalues(m):
    """Whether each candidate d - 2k has a kernel of dimension 1 in m, by
    elimination."""
    n = m.rows
    return all(len(kernel_basis(m - ExactMatrix.identity(n).scale(theta))) == 1
               for theta in range(n - 1, -n, -2))


def assert_agrees_with_elimination(triple):
    """The spectral recognizer against the elimination oracle: the same
    verdict, and a reason that names the same operator when it is
    unverifiable.  Otherwise the tridiagonal map is the oracle's on the
    operators with d + 1 distinct eigenvalues, all of them when there is no
    repeated one, each basis is an eigenbasis in candidate order and each
    representation holds exactly.  Returns the verdict."""
    got, want = is_leonard_triple(*triple), naive_is_leonard_triple(*triple)
    assert got.verdict == want.verdict
    assert got.eigenvalue_order == want.eigenvalue_order
    if got.verdict == "unverifiable":
        assert got.reason.split(":")[0] == want.reason.split(":")[0]
        return got.verdict
    distinct = [t for t, m in enumerate(triple) if _distinct_eigenvalues(m)]
    assert got.tridiagonal == {(t, o): v for (t, o), v
                               in want.tridiagonal.items() if t in distinct}
    assert sorted(got.bases) == distinct
    for t in range(3):
        if t not in distinct:
            assert f"op{t} has a repeated eigenvalue" in got.reason
    for t in distinct:
        x = ExactMatrix.stack(list(got.bases[t])).transpose()
        assert triple[t] @ x == x @ ExactMatrix.diagonal(got.eigenvalue_order)
        for o in range(3):
            if o != t:
                assert triple[o] @ x == x @ got.rep_matrices[(t, o)]
    return got.verdict


def _module_triples(D):
    ctx = get_ctx(D)
    return [module_triple(verify_rep_matrices(ctx, bases))
            for m, bases, _ in get_bundles(D) if m.index == 0]


@pytest.mark.parametrize("D", range(1, 9))
def test_recognizer_agrees_with_elimination_on_module_triples(D):
    for triple in _module_triples(D):
        assert assert_agrees_with_elimination(triple) == "true"


_UNIT_TRIPLES = {
    "commuting_diagonal_pair": (ExactMatrix.diagonal([1, -1]),
                                ExactMatrix.diagonal([1, -1]),
                                ExactMatrix([[0, 1], [1, 0]])),
    "d1_closed_forms": (tridiagonal_form(1), diagonal_form(1),
                        itridiagonal_subneg_form(1)),
    "eigenvalue_outside_candidates": (ExactMatrix.diagonal([3, -1]),) * 3,
    "non_diagonalizable": (ExactMatrix([[0, 1], [0, 0]]),) * 3,
    "repeated_eigenvalue": (ExactMatrix.diagonal([1, 1]),
                            ExactMatrix([[0, 1], [1, 0]]),
                            ExactMatrix.diagonal([1, -1])),
    "size_one": (ExactMatrix([[0]]),) * 3,
}


@pytest.mark.parametrize("name", sorted(_UNIT_TRIPLES))
def test_recognizer_agrees_with_elimination_on_unit_cases(name):
    assert_agrees_with_elimination(_UNIT_TRIPLES[name])


def test_recognizer_agrees_with_elimination_on_perturbed_module_triples():
    # one entry of one operator moved by 1 or by i: every entry of every
    # operator of each frame's triple at D = 1..5, among them triples that
    # stay Leonard, that lose it and that lose the eigenbasis
    verdicts = set()
    for D in range(1, 6):
        for triple in _module_triples(D):
            n = triple[0].rows
            for t, i, j in itertools.product(range(3), range(n), range(n)):
                for step in (GaussRat(1), I_):
                    bump = ExactMatrix.zeros(n, n).to_rows()
                    bump[i][j] = step
                    ops = list(triple)
                    ops[t] = ops[t] + ExactMatrix(bump)
                    verdicts.add(assert_agrees_with_elimination(tuple(ops)))
    assert verdicts == {"true", "false", "unverifiable"}


_small_gauss = st.builds(GaussRat, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def _triples(draw):
    """A triple of size 1 to 5 over Z[i], in one of three shapes:
    the closed-form AsA triple of a module, its operators in a drawn order,
    conjugated by one P = I + N with N strictly upper triangular (a Leonard
    triple); each operator P diag(theta) P^-1 of its own, theta drawn from
    the candidates with repeats (diagonalizable, often with a repeated
    eigenvalue); or each operator with entries drawn at random (mostly no
    eigenbasis over the candidates)."""
    n = draw(st.integers(1, 5))
    d = n - 1
    shape = draw(st.sampled_from(["leonard", "diagonalizable", "random"]))

    def conjugator():
        upper = draw(st.lists(_small_gauss, min_size=n * n, max_size=n * n))
        nil = ExactMatrix([[upper[r * n + c] if c > r else 0
                            for c in range(n)] for r in range(n)])
        ident = ExactMatrix.identity(n)
        inverse = power = ident
        for _ in range(d):
            power = power @ -nil
            inverse = inverse + power
        return ident + nil, inverse

    if shape == "leonard":
        p, p_inv = conjugator()
        forms = [tridiagonal_form(d), diagonal_form(d),
                 itridiagonal_subneg_form(d)]
        order = draw(st.permutations(range(3)))
        return tuple(p @ forms[k] @ p_inv for k in order)
    ops = []
    for _ in range(3):
        if shape == "random":
            ops.append(ExactMatrix(draw(st.lists(
                st.lists(_small_gauss, min_size=n, max_size=n),
                min_size=n, max_size=n))))
        else:
            p, p_inv = conjugator()
            theta = draw(st.lists(st.sampled_from(range(-d, d + 1, 2)),
                                  min_size=n, max_size=n))
            ops.append(p @ ExactMatrix.diagonal(theta) @ p_inv)
    return tuple(ops)


@settings(max_examples=200, deadline=None)
@given(_triples())
def test_recognizer_agrees_with_elimination_on_any_triple(triple):
    event(assert_agrees_with_elimination(triple))


def test_recognizer_reads_each_operator_once_in_fixed_products(monkeypatch):
    # the one spectral path: one spectral_parts call per operator, then
    # three products per operator, whatever d; with the parts computed
    # afresh, each operator adds the products of spectral_parts (3 for
    # n = 1, n + 1 from n = 2 on)
    calls = []
    for spectral, fresh in ((decomposition.spectral_parts, False),
                            (decomposition.spectral_parts.__wrapped__, True)):
        def counted(m, spectral=spectral):
            calls.append(m)
            return spectral(m)

        monkeypatch.setattr(leonard, "spectral_parts", counted)
        for triple in _module_triples(8):
            n = triple[0].rows
            for m in triple:
                decomposition.spectral_parts(m)
            calls.clear()
            extra = (3 if n == 1 else n + 1) if fresh else 0
            assert product_calls(monkeypatch, is_leonard_triple.__wrapped__,
                                 *triple) == 9 + 3 * extra
            assert calls == list(triple)


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} entered")
    return refused


@pytest.mark.parametrize("D", range(1, 7))
def test_no_command_eliminates(monkeypatch, capsys, D):
    # verify --suite all and leonard-check run the recognizer's body (its
    # memo is bypassed, so no earlier test's verdict stands in) and never
    # enter the elimination core
    for name in ("kernel_basis", "pivot_inverse", "_echelon"):
        monkeypatch.setattr(linalg, name, _refuse(name))
    monkeypatch.setattr(leonard, "BasisSolver", _refuse("BasisSolver"))
    monkeypatch.setattr(leonard, "pivot_inverse", _refuse("pivot_inverse"))
    monkeypatch.setattr(leonard, "is_leonard_triple",
                        is_leonard_triple.__wrapped__)
    for argv in (["verify", "--suite", "all"], ["leonard-check"]):
        assert cli.main([argv[0], "--d", str(D), *argv[1:]]) == 0, argv
    capsys.readouterr()


# -- per-module report ------------------------------------------------------------------------


def test_module_report_shape():
    ctx = get_ctx(3)
    (m, bases, _) = get_bundles(3)[0]
    rep = module_report(ctx, bases)
    assert rep["D"] == 3 and rep["r"] == m.r
    assert rep["leonard_triple"] == "true"
    assert rep["transitions"] == {"cells_checked": 36, "failures": []}
    assert set(rep["rep_matrices"].keys()) == set(BASIS_LABELS)
    for ops in rep["rep_matrices"].values():
        assert set(ops.keys()) == set(OPERATOR_LABELS)
        for cell in ops.values():
            assert cell["passed"] is True
    assert all(rep["inner_products"].values())


# -- the closed-form tables -------------------------------------------------------------

# sha256 of repr(list of items) of each table, recorded from the literal
# tables.  The ordered tables are pinned in iteration order, since report
# rows, basis blocks and the first P-shift message follow it; REP_FORMS and
# TRANSITION_TABLE are read only by key and are pinned in sorted order.
TABLE_DIGESTS = {
    "BASIS_LABELS":
        "3b4dd341d09f2de88144ce91895c0bdff40cae93f64047847b97b69ee84bc843",
    "OPERATOR_LABELS":
        "c7bfbd9f22ef77fb00571bfb6c672a0cf9c46f45eb4e5dc13ca84596c402603c",
    "_BASIS_SPEC":
        "a87c6cc269ca8b69d945c8ac86019177f10fd7ecd31a5cba009c299a6ed88d7e",
    "_P_SHIFTS":
        "ec890bda72c538385ffc3f9bb54210903d1897362f304d59985aef10d74f03a3",
    "REP_FORMS":
        "021babc92fbd8b397901e21bbdac6a2e8bd2fb92d1b39b0add9f7fc5e003060e",
    "INNER_FORMULAS":
        "76762710aaa5c16f40bcbb40f2396db26b0212d8875e42fcf9301b117b064c97",
    "TRANSITION_TABLE":
        "e26d4531e3dc05d926fd93cca737a381b10929e3cfcc750d2c39416d552bc869",
    "_PROPORTIONAL_ROWS":
        "0defb43d665a1d5d498ca2e80d36070ed8b3698b0328c0b0e6c9dfc4b7ad6781",
}
UNORDERED_TABLES = ("REP_FORMS", "TRANSITION_TABLE")


def _table_items(name):
    table = getattr(leonard, name)
    items = list(table.items()) if isinstance(table, dict) else list(table)
    return sorted(items) if name in UNORDERED_TABLES else items


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_digest(name):
    digest = hashlib.sha256(repr(_table_items(name)).encode()).hexdigest()
    assert digest == TABLE_DIGESTS[name]


# the representatives each table is written from; every other entry is one
# of them turned once or twice round the P-cycle
REPRESENTATIVES = {"BASIS_LABELS": 2, "OPERATOR_LABELS": 1, "_BASIS_SPEC": 2,
                   "REP_FORMS": 6, "INNER_FORMULAS": 7, "TRANSITION_TABLE": 10,
                   "_PROPORTIONAL_ROWS": 1}


def test_turn_follows_the_p_cycles():
    for cycle in _P_CYCLES:
        assert [_turn(x) for x in cycle] == [*cycle[1:], cycle[0]]
    assert _turn(("AsA", ("u*|ue", None, "delta"), 3)) == \
        ("AeAs", ("ue|u", None, "delta"), 3)


@pytest.mark.parametrize("name", sorted(REPRESENTATIVES))
def test_table_is_closed_under_the_p_cycle(name):
    items = _table_items(name)
    assert {_turn(x) for x in items} == set(items)
    orbits = {frozenset((x, _turn(x), _turn(_turn(x)))) for x in items}
    assert all(len(orbit) == 3 for orbit in orbits)
    assert len(orbits) == REPRESENTATIVES[name]
    assert len(items) == 3 * REPRESENTATIVES[name]
