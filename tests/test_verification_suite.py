"""Every suite row passes and its control fails; other tests read its windows here."""

import dataclasses
import importlib.util
import pathlib

import pytest

from zmcsurf import catalog, zmc

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_verification_suite.py"
_spec = importlib.util.spec_from_file_location("run_verification_suite", _SCRIPT)
suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(suite)


def _first_term_plus_eps(inst, *rest):
    first, *terms = inst.rhs_terms
    shifted = dataclasses.replace(first, fn=lambda x, y: first.fn(x, y) + 1e-6)
    return (dataclasses.replace(inst, rhs_terms=(shifted, *terms)), *rest)


# The maximal equation is no control for the helicoid, which satisfies it too.
_WRONG_EQUATION = {"minimal": "bi-soliton", "maximal": "minimal", "bi-soliton": "minimal"}
_WRONG_METRIC = {zmc.EUCLID3: zmc.LORENTZ3, zmc.LORENTZ3: zmc.EUCLID3,
                 zmc.LORENTZ3_PRIME: zmc.EUCLID3}
# check -> the arguments of a row's control, a mutant of the row that must fail
_CONTROLS = {
    catalog.verify_identity: _first_term_plus_eps,
    catalog.verify_identity_at: _first_term_plus_eps,
    zmc.residual_sweep: lambda surf, eq, grid: (surf, _WRONG_EQUATION[eq], grid),
    zmc.parametric_sweep: lambda sampler, metric, grid: (sampler, _WRONG_METRIC[metric], grid),
}
# Rows that cannot fail as they stand: split pieces sum back for any weights
# that sum to 1 (each piece's own equation is ROADMAP item 4), and neither
# foliation sub-check sees the leaves' geometry (item 10).
_NO_CONTROL = {"split-half", "split-signed", "split-thirds", "foliation"}
_LATTICE_CHECKS = (catalog.verify_identity, zmc.residual_sweep, zmc.parametric_sweep)


def test_tags_are_unique_and_only_the_pinned_rows_have_no_control():
    assert len({tag for tag, *_ in suite.CHECKS}) == len(suite.CHECKS)
    assert {tag for tag, check, *_ in suite.CHECKS if check not in _CONTROLS} == _NO_CONTROL


@pytest.mark.parametrize("tag, check, args, kwargs", suite.CHECKS,
                         ids=[tag for tag, *_ in suite.CHECKS])
def test_every_row_passes_and_its_control_fails(tag, check, args, kwargs):
    report = check(*args, **kwargs)
    assert report.passed, (tag, report.max_abs_err, report.tolerance)
    if check in _LATTICE_CHECKS:  # the lattice is the last argument
        assert report.points_checked == args[-1].nu * args[-1].nv
    if check in (catalog.verify_identity, catalog.verify_identity_at):
        assert report.policy == args[0].branch_policy
    if tag not in _NO_CONTROL:
        control = check(*_CONTROLS[check](*args), **kwargs)
        assert not control.passed, (tag, control.max_abs_err, control.tolerance)
