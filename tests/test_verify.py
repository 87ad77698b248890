import ast
import importlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import symlie.expr as expr
import symlie.verify as verify
from symlie.cli import main
from symlie.lie import hk, named_series
from symlie.series import GradedSeries, parity_split
from symlie.symfunc import SymFunc
from symlie.verify import CHECKS, Check, CheckReport, build_pairs, check_names, run_all, run_check

from helpers import hook_product_expansion_reference, labelled_sweep_functions, run_perturbed


ALL_NAMES = [check.name for check in CHECKS]


def test_registry_contents():
    expected = {
        "thrall_h", "thrall_e", "main_inverse", "main_inverse_alt",
        "arctanh_pleth", "arctan_pleth_alt", "he_restate", "hook_regular",
        "hook_he", "he_lie_even", "hook_alt_even", "hook_alt_odd", "carlitz", "foulkes",
        "ribbon_dimension", "alt_carlitz", "tanh_form", "tan_form", "arctan_sum", "arctanh_sum",
        "jordan", "parity_props", "alt_parity_props", "lie_oracle",
        "pleth_oracle",
    }
    assert set(ALL_NAMES) == expected
    assert len(ALL_NAMES) == len(set(ALL_NAMES))
    listed = check_names()
    assert [name for name, _ in listed] == ALL_NAMES
    assert all(anchor for _, anchor in listed)


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        run_check("sideways", 4)
    with pytest.raises(KeyError):
        build_pairs("sideways", 4)


def test_ribbon_dimension_passes_at_every_degree_to_its_cap():
    for n in range(13):
        report = run_check("ribbon_dimension", n)
        assert report.passed and report.max_degree == n, n
    report = run_check("ribbon_dimension", 40)
    assert report.passed
    assert (report.requested_degree, report.max_degree) == (40, 12)


def test_run_check_passes():
    report = run_check("thrall_h", 10)
    assert report.passed
    assert report.max_degree == 10
    assert report.first_failure_degree is None
    assert report.mismatch is None


# the keys of every record, in the order as_record writes them
RECORD_KEYS = [
    "check_name",
    "paper_anchor",
    "max_degree",
    "requested_degree",
    "elapsed_ms",
    "pairs",
    "terms",
    "max_den_bits",
    "passed",
]


def test_check_report_record():
    record = run_check("he_restate", 6).as_record()
    assert list(record) == RECORD_KEYS
    elapsed = record.pop("elapsed_ms")
    assert isinstance(elapsed, float) and elapsed >= 0
    assert record == {
        "check_name": "he_restate",
        "paper_anchor": "(HE)[Lie_odd] = (1 + p_1)/(1 - p_1)",
        "max_degree": 6,
        "requested_degree": 6,
        "pairs": 1,
        "terms": 14,
        "max_den_bits": 1,
        "passed": True,
    }


def test_check_report_record_carries_mismatch():
    report = run_perturbed("thrall_h", 6, (0, 0, 3, (3,), Fraction(1)))
    record = report.as_record()
    assert list(record) == RECORD_KEYS + ["first_failure_degree", "mismatch"]
    assert list(record["mismatch"]) == ["lhs", "rhs", "partition", "delta"]
    assert list(record["mismatch"]["delta"]) == ["num", "den"]
    assert record["passed"] is False
    assert record["first_failure_degree"] == 3
    assert record["mismatch"] == {
        "lhs": report.mismatch[0],
        "rhs": report.mismatch[1],
        "partition": [3],
        "delta": {"num": 1, "den": 1},
    }
    assert record["mismatch"]["lhs"] == "H[Lie]: p[1,1,1] + p[3]"


@pytest.mark.parametrize(
    "perturb, partition, delta",
    [
        # lhs + delta p_lam reads back as lhs - rhs = delta at lam
        ((0, 0, 3, (3,), Fraction(1)), (3,), Fraction(1)),
        # rhs + delta p_lam reads back as -delta
        ((0, 1, 4, (2, 1, 1), Fraction(-2, 3)), (2, 1, 1), Fraction(2, 3)),
        # a perturbation that cancels a term of the side: the delta is exact
        ((0, 0, 4, (1, 1, 1, 1), Fraction(-1)), (1, 1, 1, 1), Fraction(-1)),
        # the second pair of a multi-pair check, below an untouched term
        ((1, 0, 5, (2, 2, 1), Fraction(1, 2**40)), (2, 2, 1), Fraction(1, 2**40)),
    ],
)
def test_failing_report_carries_partition_and_delta(perturb, partition, delta):
    name = "main_inverse" if perturb[0] else "thrall_h"
    report = run_perturbed(name, 6, perturb)
    assert not report.passed
    assert report.first_failure_degree == perturb[2]
    assert (report.mismatch_partition, report.mismatch_delta) == (partition, delta)
    mismatch = report.as_record()["mismatch"]
    assert mismatch["partition"] == list(partition)
    assert Fraction(mismatch["delta"]["num"], mismatch["delta"]["den"]) == delta
    assert run_check(name, 6).mismatch_partition is None


def test_report_names_the_lowest_degree_then_the_first_pair_in_build_order():
    labels = [label for label, _, _ in build_pairs("he_lie_even", 6)]
    # pair 0 fails at degree 4 and pair 1 at degree 2: the lower degree wins
    report = run_perturbed("he_lie_even", 6, (0, 0, 4, (4,), Fraction(1)),
                           (1, 1, 2, (2,), Fraction(1)))
    assert report.first_failure_degree == 2
    assert report.mismatch[0].startswith(f"{labels[1]}: ")
    assert (report.mismatch_partition, report.mismatch_delta) == ((2,), Fraction(-1))
    # pairs 2 and 1 both fail at degree 3: pair 1, built first, is named
    report = run_perturbed("he_lie_even", 6, (2, 0, 3, (3,), Fraction(1)),
                           (1, 0, 3, (2, 1), Fraction(1, 2)))
    assert report.first_failure_degree == 3
    assert report.mismatch[0].startswith(f"{labels[1]}: ")
    assert (report.mismatch_partition, report.mismatch_delta) == ((2, 1), Fraction(1, 2))


def test_first_mismatching_partition_is_the_first_in_render_order(monkeypatch):
    # lhs and rhs differ at p[2,2] and p[2,1,1]; the report names p[2,1,1],
    # which renders first, and the difference there, not the one at p[2,2]
    lhs = GradedSeries(4, {4: SymFunc({(2, 2): 1, (2, 1, 1): Fraction(1, 3), (4,): 1})})
    rhs = GradedSeries(4, {4: SymFunc({(2, 2): 4, (2, 1, 1): 1, (4,): 1})})
    check = Check("two_differences", "lhs = rhs", lambda n: [("pair", lhs, rhs)])
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + [check])
    report = run_check(check.name, 4)
    assert (report.first_failure_degree, report.mismatch_partition) == (4, (2, 1, 1))
    assert report.mismatch_delta == Fraction(-2, 3)


def test_check_report_counts_terms_and_denominators():
    # p_(4,3) is absent from both sides, so the perturbation adds one term,
    # with a 41-bit denominator
    plain = run_check("main_inverse", 7)
    bumped = run_perturbed("main_inverse", 7, (0, 0, 7, (4, 3), Fraction(1, 2**40)))
    pairs = build_pairs("main_inverse", 7)
    parts = [part for _, lhs, rhs in pairs for side in (lhs, rhs) for part in side.components]
    assert plain.pairs == bumped.pairs == len(pairs) == 2
    assert plain.terms == sum(len(part.terms) for part in parts)
    assert plain.max_den_bits == max(
        c.denominator.bit_length() for part in parts for c in part.terms.values()
    )
    assert bumped.terms == plain.terms + 1
    assert bumped.max_den_bits == max(plain.max_den_bits, 41)


def test_perturbing_a_shared_side_leaves_it_intact():
    # the rhs of thrall_h is the memoized 1/(1 - p_1), which six checks share
    assert not run_perturbed("thrall_h", 6, (0, 1, 2, (2,), Fraction(1))).passed
    assert run_check("thrall_h", 6).passed
    assert run_check("hook_regular", 6).passed


def test_jordan_names_the_bound_of_its_positivity_scan(capsys):
    # the Schur scan stops at degree 8 whatever degree the check runs at
    labels = {n: build_pairs("jordan", n)[1][0] for n in (5, 18)}
    assert labels[5].endswith("through degree 5")
    assert labels[18].endswith("through degree 8")
    report = run_perturbed("jordan", 18, (1, 1, 2, (2,), Fraction(1)))
    assert report.mismatch[1] == f"{labels[18]}: p[2]"
    # and its anchor names the cap in the text report, list-checks and --json
    anchor = dict(check_names())["jordan"]
    assert anchor.endswith("Schur expansion through degree 8")
    assert main(["verify", "--check", "jordan", "--max-degree", "3"]) == 0
    assert capsys.readouterr().out.startswith(f"PASS jordan (max degree 3): {anchor}\n")
    assert main(["list-checks"]) == 0
    assert f"jordan\t{anchor}\n" in capsys.readouterr().out
    assert main(["verify", "--check", "jordan", "--max-degree", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["paper_anchor"] == anchor


def test_hook_products_match_the_per_partition_expansion():
    hooks = verify._hook_products(10)
    assert not hooks.components[0]
    for d in range(1, 11):
        assert hooks.components[d] == hook_product_expansion_reference(d), d


def test_alt_carlitz_hook_side_uses_no_closed_form(monkeypatch):
    # the quotient side reads the closed form exponential_part through the
    # named series E_odd and E_even, so the hook side must come from the
    # Schur sums hk alone
    quotient = verify._quotient(10, False)

    def forbidden(*args):
        raise AssertionError("the hook side used exponential_part")

    for module in ("symlie.symfunc", "symlie.lie"):
        monkeypatch.setattr(importlib.import_module(module), "exponential_part", forbidden)
    named_series.cache_clear()
    hk.cache_clear()
    try:
        assert verify._hook_products(10) == quotient
    finally:
        named_series.cache_clear()


def test_checks_stated_as_formulas_catch_a_defect_in_the_evaluator(monkeypatch):
    # odd_alt without its signs: the alternating hooks disagree at p_1^3,
    # where the series reads -1 and the broken formula +1
    monkeypatch.setitem(expr._FUNCTIONS, "odd_alt", lambda g: parity_split(g, "odd"))
    report = run_check("hook_alt_odd", 9)
    assert not report.passed
    assert report.first_failure_degree == 3
    assert report.mismatch_partition == (1, 1, 1)
    assert report.mismatch_delta == -2
    # '/' that multiplies: (1 - p_2)/(1 - p_1) is wrong from degree 1 on
    monkeypatch.setitem(expr._ARITHMETIC, "/", lambda a, b: a * b)
    report = run_check("thrall_e", 6)
    assert not report.passed
    assert report.first_failure_degree == 1
    monkeypatch.undo()
    assert run_check("hook_alt_odd", 9).passed and run_check("thrall_e", 6).passed


def test_both_quotients_share_one_memo_entry_per_degree():
    # main_inverse and parity_props both read E_odd/E_even at degree 8; the
    # memo table divides it once, whichever check asks first
    verify._quotient.cache_clear()
    run_check("main_inverse", 8)
    run_check("parity_props", 8)
    assert verify._quotient.cache_info().currsize == 1


def test_main_inverse_leaves_no_plethysm_rows_on_the_quotients():
    # no plethysm keeps rows on a series, so main_inverse* leave the memoized
    # quotients E_odd/E_even as they were
    quotients = [verify._quotient(10, alternating) for alternating in (False, True)]
    before = [GradedSeries(10, dict(enumerate(q.components))) for q in quotients]
    for name in ("main_inverse", "main_inverse_alt"):
        assert run_check(name, 10).passed
    for q, copy in zip(quotients, before):
        assert not hasattr(q, "_powers")
        assert q == copy


def test_parity_props_splits_h_times_e_into_its_quadrants():
    # 2 H_odd E and 2 H_even E are built from the four quadrant products
    n = 12
    es = named_series("E", n)
    e_odd, e_even = named_series("E_odd", n), named_series("E_even", n)
    for h_part in (named_series("H_odd", n), named_series("H_even", n)):
        assert h_part * es == h_part * e_even + h_part * e_odd
    pairs = build_pairs("parity_props", n)
    assert [label for label, _, _ in pairs][2:4] == ["2 H_odd E = HE - 1", "2 H_even E = HE + 1"]
    for (_, lhs, _), h_part in zip(pairs[2:4], ("H_odd", "H_even")):
        assert lhs == named_series(h_part, n) * es * 2


def test_check_reports_compare_without_elapsed_ms():
    first, second = run_check("thrall_h", 5), run_check("thrall_h", 5)
    assert first == second and first != run_check("thrall_h", 6)
    keywords = CheckReport(check_name="c", paper_anchor="a", max_degree=3, passed=True,
                           elapsed_ms=1.0, pairs=2)
    assert keywords == CheckReport("c", "a", 3, True, elapsed_ms=2.0, pairs=2)
    assert keywords != CheckReport("c", "a", 3, True, elapsed_ms=1.0, pairs=1)
    assert keywords.first_failure_degree is keywords.mismatch is keywords.terms is None


def test_cap_clamps_degree():
    report = run_check("lie_oracle", 9)
    assert report.max_degree == 7
    assert report.requested_degree == 9
    assert report.passed
    record = report.as_record()
    assert (record["requested_degree"], record["max_degree"]) == (9, 7)
    assert record["elapsed_ms"] == report.elapsed_ms > 0


def _benchmark_check_caps():
    # CHECK_CAPS as benchmarks/run.py pins it, read from its source: that
    # script is not imported, so running these tests needs nothing of it
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["CHECK_CAPS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CHECK_CAPS assignment in {path}")


def test_benchmark_pins_every_cap_as_registered():
    # a cap moved here without the benchmark would read as a failing check
    # there; registered checks the benchmark does not judge are allowed
    pinned = _benchmark_check_caps()
    names = [name for name, _ in pinned]
    assert len(set(names)) == len(names)
    caps = {check.name: check.cap for check in CHECKS}
    assert [(name, caps.get(name, "unregistered")) for name, _ in pinned] == list(pinned)
    assert names == [name for name in caps if name in set(names)]


def test_run_all_degree_zero_vacuous():
    reports = run_all(0)
    assert len(reports) == len(ALL_NAMES)
    assert all(report.passed for report in reports)


def test_run_all_small_degree_passes_and_is_deterministic():
    first = run_all(5)
    second = run_all(5)
    assert all(report.passed for report in first)
    # elapsed_ms differs between runs and is left out of the comparison
    assert first == second
    assert [report.check_name for report in first] == ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("side", [0, 1])
def test_fault_injection_flips_every_check(name, side):
    report = run_perturbed(name, 5, (0, side, 1, (1,), Fraction(1)))
    assert not report.passed
    assert report.first_failure_degree == 1
    assert report.mismatch is not None


def test_fault_injection_reports_perturbed_degree():
    report = run_perturbed("thrall_e", 8, (0, 1, 4, (3, 1), Fraction(-2)))
    assert not report.passed
    assert report.first_failure_degree == 4
    # second pair of a multi-pair check
    report = run_perturbed("main_inverse", 6, (1, 0, 3, (2, 1), Fraction(1, 2)))
    assert not report.passed
    assert report.first_failure_degree == 3


@pytest.mark.parametrize(
    "name, side, degree",
    # the oracle side: the Euler-number formula for foulkes, else the rhs
    [("foulkes", 0, 11), ("pleth_oracle", 1, 12), ("lie_oracle", 1, 7)],
)
def test_fault_injection_at_the_top_degree(name, side, degree):
    pairs = build_pairs(name, 12)
    index = next(
        i for i, (_, lhs, rhs) in enumerate(pairs)
        if min(lhs.max_degree, rhs.max_degree) >= degree
    )
    report = run_perturbed(name, 12, (index, side, degree, (degree,), Fraction(1)))
    assert not report.passed
    assert report.first_failure_degree == degree
    assert report.mismatch is not None


@pytest.mark.parametrize("side", [0, 1])
def test_fault_injection_flips_the_hook_sums_and_the_sweep_at_the_top(side):
    # the Schur-sum pair of hook_he, and the last pair of the sweep (f of
    # degree 4, g of degree 3)
    report = run_perturbed("hook_he", 16, (0, side, 16, (16,), Fraction(1)))
    assert (report.passed, report.first_failure_degree) == (False, 16)
    last = len(build_pairs("pleth_oracle", 12)) - 1
    report = run_perturbed("pleth_oracle", 12, (last, side, 12, (12,), Fraction(1)))
    assert (report.passed, report.first_failure_degree) == (False, 12)


def test_the_sweep_compares_each_pair_of_the_labelled_sweep_once():
    # every (f, g) of the labelled sweep equals one compared pair by value,
    # and every compared pair is one of them
    labelled_fs, labelled_gs = labelled_sweep_functions()
    fs, gs = verify._oracle_sweep_functions()
    labelled = [(f, g) for _, g in labelled_gs for _, f in labelled_fs]
    compared = [(f, g) for _, g in gs for _, f in fs]
    assert (len(labelled), len(compared)) == (276, 84)
    for f, g in labelled:
        assert sum(f == f2 and g == g2 for f2, g2 in compared) == 1
    for f2, g2 in compared:
        assert (f2, g2) in labelled
    # at degree 12 every compared pair is built, each under its own label
    m = verify._SWEEP_M
    expected = [f"f={f_label}, g={g_label}, m={m} (orbit form)"
                for g_label, _ in gs for f_label, _ in fs]
    assert [label for label, _, _ in build_pairs("pleth_oracle", 12)] == expected
    assert run_check("pleth_oracle", 12).pairs == 84


def test_the_sweep_cap_does_not_exceed_its_variables():
    # specializing to m variables is injective on degree d only when m >= d
    cap = next(check.cap for check in verify.CHECKS if check.name == "pleth_oracle")
    assert cap is not None and cap <= verify._SWEEP_M
    for _, lhs, rhs in build_pairs("pleth_oracle", 40):
        assert max(lhs.max_degree, rhs.max_degree) <= verify._SWEEP_M


def test_fault_injection_every_pair_of_one_check():
    pairs = build_pairs("parity_props", 5)
    for index in range(len(pairs)):
        report = run_perturbed("parity_props", 5, (index, 0, 2, (2,), Fraction(3)))
        assert not report.passed
        assert report.first_failure_degree == 2


def test_perturbation_degree_out_of_range():
    build_pairs = verify.build_pairs
    with pytest.raises(ValueError):
        run_perturbed("pleth_oracle", 2, (0, 0, 9, (9,), Fraction(1)))
    # the helper puts the registry's build_pairs back even when it raises
    assert verify.build_pairs is build_pairs


def test_perturbation_negative_degree_is_rejected():
    # index -1 would otherwise perturb the top degree
    with pytest.raises(ValueError, match="outside"):
        run_perturbed("thrall_h", 6, (0, 0, -1, (3,), Fraction(1)))


def test_perturbation_partition_must_have_the_degree_as_size():
    # p[5] in the degree-2 component would break the pair's homogeneity
    with pytest.raises(ValueError, match="size 2"):
        run_perturbed("thrall_h", 6, (0, 0, 2, (5,), Fraction(1)))
