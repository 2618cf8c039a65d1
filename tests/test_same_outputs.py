"""The verdicts of ``tools/same_outputs.py`` on made-up instance records."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(index, **changes):
    rec = {"workload": "fmai-w2", "seed": 1, "index": index, "family": "pos", "key": "[[1, 2]]",
           "gates_passed": ["mmti-oracle", "final-pit"], "failed_gate": None, "pit_trials": 170}
    rec.update(changes)
    return rec


def test_equal_records_have_no_difference():
    first_difference = _tool().first_difference
    records = [_record(0), _record(1, family="diag", key="null", failed_gate="mmti-oracle")]
    assert first_difference(records, [dict(r) for r in records]) is None
    assert first_difference([], []) is None


def test_each_compared_field_is_a_difference():
    first_difference = _tool().first_difference
    base = [_record(0), _record(1)]
    for field, value in [("key", "[[1, 3]]"), ("gates_passed", ["mmti-oracle"]),
                         ("failed_gate", "final-pit"), ("pit_trials", 171)]:
        diff = first_difference(base, [_record(0), _record(1, **{field: value})])
        assert diff.startswith("fmai-w2 seed 1 instance 1 (pos): " + field), diff


def test_the_first_difference_is_reported():
    first_difference = _tool().first_difference
    base = [_record(0), _record(1)]
    diff = first_difference(base, [_record(0, pit_trials=1), _record(1, key="null")])
    assert "instance 0" in diff and "pit_trials" in diff


def test_missing_or_shifted_instances_are_differences():
    first_difference = _tool().first_difference
    base = [_record(0), _record(1)]
    assert first_difference(base, base[:1]) == "2 instances (base) != 1 (working tree)"
    assert "in its place" in first_difference(base, [_record(0), _record(2)])
    assert "in its place" in first_difference(base, [_record(0), _record(1, seed=2)])
