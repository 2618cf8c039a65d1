"""The verdicts of ``tools/bench_pairs.py`` on made-up pairs of runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unresolved_when_the_base_spread_exceeds_the_bound(capsys):
    """A base IQR above bound x median leaves a metric unresolved, unless
    every working-tree run reads better than every base run."""
    summarize = _tool().summarize
    metrics = [{"name": "s", "better": "lower", "bound": 0.25}]
    wide = [1.0, 1.5, 2.0, 2.5, 3.0]  # median 2.0, IQR 1.0 > 0.25 x 2.0
    narrow = [1.9, 1.95, 2.0, 2.05, 2.1]  # IQR 0.1
    runs = lambda base, tree: [({"s": b}, {"s": t}) for b, t in zip(base, tree)]  # noqa: E731
    assert summarize(runs(wide, wide), metrics)["s"]["unresolved"]
    assert not summarize(runs(narrow, wide), metrics)["s"]["unresolved"]
    assert not summarize(runs(wide, [0.5] * 5), metrics)["s"]["unresolved"]  # all better
    assert summarize(runs(wide, [3.5] * 5), metrics)["s"]["unresolved"]  # all worse
    higher = [{"name": "s", "better": "higher", "bound": 0.25}]
    assert not summarize(runs(wide, [3.5] * 5), higher)["s"]["unresolved"]
    assert capsys.readouterr().out.count("unresolved") == 2
