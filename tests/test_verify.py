from fractions import Fraction

import pytest

from symlie.verify import CHECKS, build_pairs, check_names, run_all, run_check


ALL_NAMES = [check.name for check in CHECKS]


def test_registry_contents():
    expected = {
        "thrall_h", "thrall_e", "main_inverse", "main_inverse_alt",
        "arctanh_pleth", "arctan_pleth_alt", "he_restate", "hook_regular",
        "he_lie_even", "hook_alt_even", "hook_alt_odd", "carlitz", "foulkes",
        "alt_carlitz", "tanh_form", "tan_form", "arctan_sum", "arctanh_sum",
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


def test_run_check_passes():
    report = run_check("thrall_h", 10)
    assert report.passed
    assert report.max_degree == 10
    assert report.first_failure_degree is None
    assert report.mismatch is None


def test_check_report_record():
    record = run_check("he_restate", 6).as_record()
    elapsed = record.pop("elapsed_ms")
    assert isinstance(elapsed, float) and elapsed >= 0
    assert record == {
        "check_name": "he_restate",
        "paper_anchor": "(HE)[Lie_odd] = (1 + p_1)/(1 - p_1)",
        "max_degree": 6,
        "requested_degree": 6,
        "passed": True,
    }


def test_check_report_record_carries_mismatch():
    report = run_check("thrall_h", 6, perturb=(0, 0, 3, (3,), Fraction(1)))
    record = report.as_record()
    assert record["passed"] is False
    assert record["first_failure_degree"] == 3
    assert record["mismatch"] == {"lhs": report.mismatch[0], "rhs": report.mismatch[1]}
    assert record["mismatch"]["lhs"] == "H[Lie]: p[1,1,1] + p[3]"


def test_perturbing_a_shared_side_leaves_it_intact():
    # the rhs of thrall_h is the memoized 1/(1 - p_1), which six checks share
    assert not run_check("thrall_h", 6, perturb=(0, 1, 2, (2,), Fraction(1))).passed
    assert run_check("thrall_h", 6).passed
    assert run_check("hook_regular", 6).passed


def test_cap_clamps_degree():
    report = run_check("lie_oracle", 9)
    assert report.max_degree == 7
    assert report.requested_degree == 9
    assert report.passed
    record = report.as_record()
    assert (record["requested_degree"], record["max_degree"]) == (9, 7)
    assert record["elapsed_ms"] == report.elapsed_ms > 0


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
    report = run_check(name, 5, perturb=(0, side, 1, (1,), Fraction(1)))
    assert not report.passed
    assert report.first_failure_degree == 1
    assert report.mismatch is not None


def test_fault_injection_reports_perturbed_degree():
    report = run_check("thrall_e", 8, perturb=(0, 1, 4, (3, 1), Fraction(-2)))
    assert not report.passed
    assert report.first_failure_degree == 4
    # second pair of a multi-pair check
    report = run_check("main_inverse", 6, perturb=(1, 0, 3, (2, 1), Fraction(1, 2)))
    assert not report.passed
    assert report.first_failure_degree == 3


def test_fault_injection_every_pair_of_one_check():
    pairs = build_pairs("parity_props", 5)
    for index in range(len(pairs)):
        report = run_check("parity_props", 5, perturb=(index, 0, 2, (2,), Fraction(3)))
        assert not report.passed
        assert report.first_failure_degree == 2


def test_perturbation_degree_out_of_range():
    with pytest.raises(ValueError):
        run_check("pleth_oracle", 2, perturb=(0, 0, 9, (9,), Fraction(1)))
