"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line on success so a -s run reads as a
checklist.  Degrees and runtime bounds are pinned here and nowhere else.
"""

import time
from fractions import Fraction
from random import Random

from symlie.lie import e_series, h_series, jordan_series, lie, lie_series, staircase_skew
from symlie.oracle import alternating_count, lie_character, syt_count
from symlie.partitions import staircase
from symlie.plethysm import pleth, pleth_inverse
from symlie.series import (
    GradedSeries,
    omega_series,
    parity_split,
    series_div,
    series_inverse,
)
from symlie.symfunc import SymFunc, e, h, omega, p, schur_expand
from symlie.verify import CHECKS, build_pairs, run_all, run_check

from helpers import (
    random_homogeneous,
    random_series,
    random_symfunc,
    run_perturbed,
    valid_inverse_candidate,
)


def _passed(report):
    assert report.passed, (
        f"{report.check_name} failed at degree {report.first_failure_degree}: "
        f"{report.mismatch}"
    )
    return report


def test_criterion_01_odd_lie_inverse_degree_11():
    start = time.monotonic()
    report = _passed(run_check("main_inverse", 11))
    elapsed = time.monotonic() - start
    assert report.max_degree == 11
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS: main_inverse both directions, degree 11 "
          f"({elapsed:.2f}s)")


def test_criterion_02_alternating_inverse_degree_11():
    report = _passed(run_check("main_inverse_alt", 11))
    assert report.max_degree == 11
    print("ACCEPTANCE 2 PASS: main_inverse_alt both directions, degree 11")


def test_criterion_03_thrall_degree_10():
    _passed(run_check("thrall_h", 10))
    _passed(run_check("thrall_e", 10))
    # spot check the t-graded statement degree by degree
    thrall = pleth(h_series(10), lie_series(10))
    for n in range(11):
        assert thrall.components[n] == SymFunc({(1,) * n if n else (): 1})
    print("ACCEPTANCE 3 PASS: Thrall H and E forms, degree 10")


def test_criterion_04_hook_regular_degree_10():
    report = _passed(run_check("hook_regular", 10))
    assert report.max_degree == 10
    print("ACCEPTANCE 4 PASS: hook decomposition of the regular representation, "
          "degree 10")


def test_criterion_05_he_lie_even_degree_10():
    report = _passed(run_check("he_lie_even", 10))
    assert report.max_degree == 10
    print("ACCEPTANCE 5 PASS: (HE)[Lie_even] identity chain, degree 10")


def test_criterion_06_alternating_hooks_degree_10():
    _passed(run_check("hook_alt_even", 10))
    _passed(run_check("hook_alt_odd", 10))
    # signs as stated: (-1)^n p_1^{2n} and (-1)^n p_1^{2n+1}
    even_pairs = build_pairs("hook_alt_even", 10)
    _, _, rhs = even_pairs[0]
    assert rhs.components[2] == -SymFunc({(1, 1): 1})
    assert rhs.components[4] == SymFunc({(1, 1, 1, 1): 1})
    odd_pairs = build_pairs("hook_alt_odd", 10)
    _, _, rhs = odd_pairs[0]
    assert rhs.components[3] == -SymFunc({(1, 1, 1): 1})
    print("ACCEPTANCE 6 PASS: alternating hook identities, degree 10")


def test_criterion_07_carlitz_and_foulkes():
    report = _passed(run_check("carlitz", 9))
    assert report.max_degree == 9
    _passed(run_check("alt_carlitz", 9))
    for n in range(2, 8):
        assert staircase_skew(n, "foulkes") == staircase_skew(n, "jacobi_trudi")
    _passed(run_check("foulkes", 11))
    print("ACCEPTANCE 7 PASS: Carlitz staircase expansion (degree 9) and "
          "Foulkes = Jacobi-Trudi for n = 2..7")


def test_criterion_08_oracle_equivalences():
    _passed(run_check("lie_oracle", 7))
    for n in range(1, 8):
        assert lie_character(n) == lie(n)
    sweep = _passed(run_check("pleth_oracle", 12))
    assert sweep.max_degree == 12
    for n in range(2, 8):
        cells = 2 * n - 3
        inner = staircase(n - 2) if n >= 3 else ()
        assert syt_count(staircase(n), inner) == alternating_count(cells)
    enumerated = tuple(alternating_count(k) for k in (0, 1, 4, 6, 5))
    assert enumerated == (1, 1, 5, 61, 16)
    print("ACCEPTANCE 8 PASS: free-Lie oracle (n <= 7), monomial-alphabet sweep "
          "(m = 12), staircase SYT = alternating counts (n <= 7)")


def test_criterion_09_structural_property_suites():
    rng = Random(71)
    p1 = GradedSeries(9, {1: p(1)})

    # (1) constants pass through
    q = random_series(rng, 9)
    assert pleth(SymFunc.constant(Fraction(7, 2)), q) == GradedSeries.constant(
        Fraction(7, 2), 9
    )
    # (2) p_n[p_m] = p_{nm} = p_m[p_n]
    for n, m in ((2, 3), (3, 2), (2, 2)):
        out = pleth(p(n), GradedSeries.from_symfunc(p(m), 9))
        assert out.components[n * m] == p(n * m)
        assert out == pleth(p(m), GradedSeries.from_symfunc(p(n), 9))
    # (3) p_n[f] = f[p_n]
    f = random_series(rng, 9)
    f_flat = SymFunc.zero()
    for d in range(10):
        f_flat = f_flat + f.components[d]
    assert pleth(p(2), f) == pleth(f_flat, GradedSeries.from_symfunc(p(2), 9))
    # (4) ring homomorphism in the first argument
    a = random_symfunc(rng, 3)
    b = random_symfunc(rng, 3)
    assert pleth(a * b, q) == pleth(a, q) * pleth(b, q)
    assert pleth(a + b, q) == pleth(a, q) + pleth(b, q)
    # (5) (1/f)[q] = 1/f[q]
    unit = random_series(rng, 9) + 1
    assert pleth(series_inverse(unit), q) == series_inverse(pleth(unit, q))
    # (6) associativity
    g = random_series(rng, 8)
    y = random_series(rng, 8)
    assert pleth(pleth(a, g), y) == pleth(a, pleth(g, y))
    # (7) addition rule for h_n and e_n
    r = random_series(rng, 9)
    for build in (h, e):
        lhs = pleth(build(3), q + r)
        rhs = GradedSeries(9)
        for k in range(4):
            rhs = rhs + pleth(build(k), q) * pleth(build(3 - k), r)
        assert lhs == rhs
    # (8) sign rule
    for d in (1, 2, 3):
        hom = random_homogeneous(rng, d)
        assert pleth(hom, -q) == pleth(omega(hom), q) * ((-1) ** d)
    # (9) omega twist
    for deg_r in (1, 2):
        hom = random_homogeneous(rng, 2)
        rr = random_homogeneous(rng, deg_r)
        rr_series = GradedSeries.from_symfunc(rr, 8)
        twisted = omega(hom) if deg_r % 2 else hom
        assert omega_series(pleth(hom, rr_series)) == pleth(
            twisted, GradedSeries.from_symfunc(omega(rr), 8)
        )
    # (10) f[g] = p_1 iff g[f] = p_1
    cand = valid_inverse_candidate(rng, 7)
    inv = pleth_inverse(cand)
    assert pleth(cand, inv) == GradedSeries(7, {1: p(1)})
    assert pleth(inv, cand) == GradedSeries(7, {1: p(1)})

    # parity identities and quotient forms
    _passed(run_check("parity_props", 12))
    _passed(run_check("alt_parity_props", 12))
    # omega-invariance of both quotients, explicitly
    es = e_series(11)
    for alternating in (False, True):
        quot = series_div(
            parity_split(es, "odd", alternating),
            parity_split(es, "even", alternating),
        )
        assert omega_series(quot) == quot
    # tangent-number series forms
    _passed(run_check("tanh_form", 11))
    _passed(run_check("tan_form", 11))
    # Schur positivity of Lie and Jordan characteristics
    for n in range(1, 9):
        for coeff in schur_expand(lie(n)).values():
            assert coeff.denominator == 1 and coeff >= 0
    eta = jordan_series(8)
    for d in range(9):
        for coeff in schur_expand(eta.components[d]).values():
            assert coeff.denominator == 1 and coeff >= 0
    _passed(run_check("jordan", 8))
    print("ACCEPTANCE 9 PASS: ten plethysm laws, parity identities, "
          "omega-invariance, tangent forms, Schur positivity (n <= 8)")


def test_criterion_10_fault_injection():
    flipped = 0
    for check in CHECKS:
        for side in (0, 1):
            report = run_perturbed(check.name, 5, (0, side, 1, (1,), Fraction(1)))
            assert not report.passed, check.name
            assert report.first_failure_degree == 1, check.name
            flipped += 1
    # perturbations at deeper degrees report that exact degree
    for name, degree, lam in (
        ("thrall_h", 4, (2, 1, 1)),
        ("main_inverse", 3, (3,)),
        ("parity_props", 5, (4, 1)),
    ):
        report = run_perturbed(name, 6, (0, 1, degree, lam, Fraction(1, 3)))
        assert not report.passed
        assert report.first_failure_degree == degree
    print(f"ACCEPTANCE 10 PASS: fault injection flipped {flipped} "
          "check sides with exact failure degrees")


def test_criterion_11_run_all_degree_9():
    start = time.monotonic()
    first = run_all(9)
    elapsed = time.monotonic() - start
    assert all(report.passed for report in first)
    assert elapsed < 300.0
    second = run_all(9)
    assert first == second
    print(f"ACCEPTANCE 11 PASS: verify-all at degree 9 in {elapsed:.2f}s, "
          "deterministic across runs")
