"""Run reports: scoping, nesting, gate records and PIT-trial counts."""

import sys

import pytest

from trimmeq.field import Fp, Rng
from trimmeq.oracles import QuadraticDetOracle, mmti_oracle
from trimmeq.poly import ExplicitBlackbox, MPoly, pit_equal
from trimmeq.reduction import tensor_iso_to_det, trace_to_tensor_iso
from trimmeq.report import RunReport, passed, reject
from trimmeq.tensor import degree_d_to_3
from trimmeq.trimm import TrimmShape, plant_instance

F = Fp()


def _empty():
    return RunReport().to_dict()


def test_nothing_recorded_outside_a_with_block():
    report = RunReport()
    assert passed("gate") is None
    assert reject("gate") is None
    rng = Rng(10)
    f = ExplicitBlackbox(MPoly(F, 3, {(1, 1, 1): 1}))
    assert trace_to_tensor_iso(f, 3, rng) is None
    assert pit_equal(f, f, 5, rng)
    assert report.to_dict() == _empty()
    with report:
        passed("inside")
    passed("after")
    reject("after")
    pit_equal(f, f, 5, rng)
    assert report.gates_passed == ["inside"]
    assert report.failed_gate is None and report.pit_trials == 0


def test_nested_with_restores_the_outer_report():
    with RunReport() as outer:
        with RunReport() as inner:
            passed("inner")
        passed("outer")
        with pytest.raises(RuntimeError):
            with RunReport() as raising:
                reject("raising")
                raise RuntimeError("boom")
        reject("outer-stop")
    passed("nobody")
    assert inner.gates_passed == ["inner"] and inner.failed_gate is None
    assert raising.gates_passed == [] and raising.failed_gate == "raising"
    assert outer.gates_passed == ["outer"] and outer.failed_gate == "outer-stop"


def test_a_later_pass_clears_the_rejection():
    with RunReport() as report:
        reject("first-try")
        passed("second-try")
    assert report.failed_gate is None
    assert report.gates_passed == ["second-try"]


def test_pit_trials_sums_every_identity_test(monkeypatch):
    """pit_trials equals the trials of every pit_equal call in one certified
    tensor_iso_to_det, counted by a spy in every namespace that binds it."""
    original = pit_equal
    seen = []

    def spy(f, g, trials, rng):
        seen.append(trials)
        return original(f, g, trials, rng)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "trimmeq" or name.startswith("trimmeq.")):
            continue
        for key, val in list(vars(module).items()):
            if val is original:
                monkeypatch.setattr(module, key, spy)

    rng = Rng(17)
    inst = plant_instance(F, TrimmShape(2, 3), rng, mode="block")
    with RunReport() as report:
        Bs = tensor_iso_to_det(inst.f, 2, 3, QuadraticDetOracle(F), rng)
    assert Bs is not None
    assert len(seen) >= 2  # the ABP reconstruction's checks and the final PIT
    assert report.pit_trials == sum(seen)


def test_certified_second_attempt_reports_no_rejection():
    """An MMTI oracle that fails once: the degree reduction certifies on its
    second restriction, and the report says where it stopped -- nowhere."""
    rng = Rng(34)
    inst = plant_instance(F, TrimmShape(2, 4), rng, mode="block")
    det = QuadraticDetOracle(F)
    calls = []

    def flaky_mmti(h, w, r):
        calls.append(w)
        return None if len(calls) == 1 else mmti_oracle(h, w, det, r)

    with RunReport() as report:
        Bs = degree_d_to_3(inst.f, 2, 4, flaky_mmti, rng)
    assert Bs is not None and len(calls) == 2
    assert report.failed_gate is None
    assert report.gates_passed[-2:] == ["mmti-oracle", "final-pit"]
