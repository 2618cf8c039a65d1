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
    differences = _tool().differences
    records = [_record(0), _record(1, family="diag", key="null", failed_gate="mmti-oracle")]
    assert differences(records, [dict(r) for r in records]) == []
    assert differences([], []) == []


def test_each_compared_field_is_a_difference():
    differences = _tool().differences
    base = [_record(0), _record(1)]
    for field, value in [("key", "[[1, 3]]"), ("gates_passed", ["mmti-oracle"]),
                         ("failed_gate", "final-pit"), ("pit_trials", 171)]:
        diffs = differences(base, [_record(0), _record(1, **{field: value})])
        assert len(diffs) == 1 and diffs[0].startswith(
            "fmai-w2 seed 1 instance 1 (pos): " + field), diffs


def test_the_first_difference_is_reported():
    """The first difference comes first, and every later one follows it."""
    differences = _tool().differences
    base = [_record(0), _record(1), _record(2)]
    diffs = differences(base, [_record(0, pit_trials=1), _record(1),
                               _record(2, key="null", failed_gate="final-pit")])
    assert len(diffs) == 3
    assert "instance 0" in diffs[0] and "pit_trials" in diffs[0]
    assert ["key" in diffs[1], "failed_gate" in diffs[2]] == [True, True]
    assert all("instance 2" in d for d in diffs[1:])


def test_missing_or_shifted_instances_are_differences():
    differences = _tool().differences
    base = [_record(0), _record(1)]
    assert differences(base, base[:1]) == ["2 instances (base) != 1 (working tree)"]
    assert "in its place" in differences(base, [_record(0), _record(2)])[-1]
    assert "in its place" in differences(base, [_record(0), _record(1, seed=2)])[-1]
    shifted = differences(base, [_record(0, key="null"), _record(2)])
    assert len(shifted) == 2 and "key" in shifted[0] and "in its place" in shifted[1]
