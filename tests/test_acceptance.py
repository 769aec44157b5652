"""Acceptance gate: the ten exit criteria, each printing one PASS/FAIL line.

Every comparison is exact (zero tolerance); dimension ranges follow the
criteria themselves: D = 1..8 for operator/idempotent/module checks,
D = 1..6 for the transition tables, d = 0..12 for the hypergeometric
recurrence.  One PASS/FAIL line per criterion is printed through pytest's
capture.
"""

import time

import pytest

from conftest import (all_passed, block_rows, flipped_phi, get_bundles,
                      get_ctx, get_decomposition, get_phi, in_space,
                      naive_is_leonard_triple, naive_rank, p_inverse,
                      representation_matrix)
from tcube.cube import (build_context, verify_commutators,
                        verify_idempotent_families)
from tcube.decomposition import multiplicity, verify_seed_norms
from tcube.leonard import (OPERATOR_LABELS, is_leonard_triple,
                           transition_matrices, verify_inner_products,
                           verify_phi, verify_rep_matrices)
from tcube.linalg import ExactMatrix
from tcube.scalar import GaussRat

D_FULL = range(1, 9)
D_TRANSITIONS = range(1, 7)


@pytest.fixture
def report(capsys):
    def _report(number: int, name: str, ok: bool):
        with capsys.disabled():
            print(f"\nACCEPTANCE {number:2d} [{name}]: "
                  f"{'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {number} ({name}) failed"
    return _report


def test_criterion_01_operator_identities(report):
    started = time.monotonic()
    ok = True
    for D in D_FULL:
        checks = verify_commutators(build_context(D))
        ok = ok and len(checks) == 5 and all_passed(checks)
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 300
    report(1, f"operator identities D=1..8 in {elapsed:.1f}s", ok)


def test_criterion_02_p_structure(report):
    ok = True
    for D in D_FULL:
        ctx = get_ctx(D)
        ident = ExactMatrix.identity(ctx.n)
        ok = ok and ctx.P @ ctx.P.adjoint() == ident.scale(ctx.n)
        ok = ok and ctx.P.adjoint() @ ctx.P == ident.scale(ctx.n)
        ok = ok and ctx.P @ ctx.P @ ctx.P == \
            ident.scale(GaussRat(1, -1) ** D * ctx.n)
        pinv = p_inverse(ctx)
        ok = ok and ctx.P @ ctx.A @ pinv == ctx.Astar
        ok = ok and ctx.P @ ctx.Astar @ pinv == ctx.Aeps
        ok = ok and ctx.P @ ctx.Aeps @ pinv == ctx.A
    report(2, "P structure and conjugation cycle D=1..8", ok)


def test_criterion_03_idempotent_families(report):
    ok = True
    for D in D_FULL:
        checks = verify_idempotent_families(get_ctx(D))
        ok = ok and all_passed(checks)
    report(3, "idempotent family identities and ranks D=1..8", ok)


def test_criterion_04_decomposition(report):
    ok = True
    for D in D_FULL:
        ctx = get_ctx(D)
        dec = get_decomposition(D)  # decompose() enforces module invariants
        ok = ok and sum(m.dim for m in dec.modules) == 2 ** D
        for r in range(D // 2 + 1):
            cols = ctx.slice_indices(r)
            rows = [[ctx.A[y, z] for z in cols]
                    for y in (ctx.slice_indices(r - 1) if r else [])]
            kernel_dim = len(cols) - naive_rank(rows)
            ok = ok and dec.multiplicities[r] == multiplicity(D, r)
            ok = ok and kernel_dim == multiplicity(D, r)
        E, Eeps = ctx.E, ctx.Eeps
        for m in dec.modules:
            for i in range(D + 1):
                in_window = m.r <= i <= m.r + m.d
                ok = ok and (not E[i].matvec(m.u_star).is_zero()) \
                    == in_window
                ok = ok and (not Eeps[i].matvec(m.u_star).is_zero()) \
                    == in_window
    report(4, "decomposition counts, dimensions and windows D=1..8", ok)


def test_criterion_05_representation_matrices(report):
    ok = True
    for D in D_FULL:
        for m, bases, _ in get_bundles(D):
            cells = verify_rep_matrices(bases)
            ok = ok and len(cells) == 18 and all(c.passed for c in cells)
    report(5, "6 bases x 3 operators grid D=1..8, zero tolerance", ok)


def test_criterion_06_inner_products(report):
    ok = True
    for D in D_FULL:
        for m, bases, phi in get_bundles(D):
            checks = verify_inner_products(bases, phi)
            ok = ok and all(c.passed for c in checks)
    for d in range(0, 13):
        ok = ok and all_passed(verify_phi(get_phi(d)))
    report(6, "inner-product theorems (all modules, all i,j) and "
              "hypergeometric recurrence d<=12", ok)


def test_criterion_07_transition_matrices(report):
    ok = True
    for D in D_TRANSITIONS:
        for m, bases, phi in get_bundles(D):
            rep = transition_matrices(bases, phi)
            ok = ok and len(rep.cells) == 36 and not rep.failures()
    report(7, "transition tables with inverse/composition coherence D=1..6",
           ok)


def test_criterion_08_leonard_verdicts(report):
    ok = True
    # the verdict on each frame, as the commands take it, against the
    # elimination recognizer on the operators over 2^D in basis AsA
    for D in D_FULL:
        ctx = get_ctx(D)
        for m, bases, _ in get_bundles(D):
            f = m.frame
            verdict = is_leonard_triple(f.A, f.Astar, f.Aeps).verdict
            asa = block_rows(in_space(bases, "AsA"))
            oracle = naive_is_leonard_triple(
                *(representation_matrix(getattr(ctx, op), asa)
                  for op in OPERATOR_LABELS)).verdict
            ok = ok and verdict == oracle == "true"
    diag = ExactMatrix.diagonal([1, -1])
    counterexample = is_leonard_triple(diag, diag,
                                       ExactMatrix([[0, 1], [1, 0]]))
    ok = ok and counterexample.verdict == "false"
    report(8, "Leonard verdict true on every module D=1..8, false on "
              "commuting counterexample", ok)


def test_criterion_09_seed_norm_relations(report):
    ok = True
    for D in D_FULL:
        for m in get_decomposition(D).modules:
            ok = ok and all_passed(verify_seed_norms(m))
    report(9, "seed-norm relations and positivity D=1..8", ok)


def test_criterion_10_mutation_sensitivity(report):
    ok = True
    for D in (2, 3):
        ctx = get_ctx(D)
        for r in range(ctx.n):
            for c in range(ctx.n):
                if not ctx.Aeps[r, c]:
                    continue  # a zero entry has no sign to flip
                corrupted = ctx.with_flipped_sign("Aeps", r, c)
                ok = ok and not all_passed(verify_commutators(corrupted))
    for d in (1, 2, 3, 4):
        phi = get_phi(d)
        for i in range(d + 1):
            for j in range(d + 1):
                if phi.f(i, j) == 0:
                    continue
                mutated = flipped_phi(phi, i, j)
                ok = ok and not all(c.passed for c in verify_phi(mutated))
    report(10, "single-entry mutations always detected", ok)
