"""The claim rule of ``scripts/bench_pairs.py``: ``summarise`` on fixed
runs, one per verdict it can print."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

_WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


@pytest.fixture
def summarise(monkeypatch):
    # The script imports only the standard library; load it without writing
    # bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarise


_BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


@pytest.mark.parametrize("head,verdict", [
    ([0.70] * 10, "gain clears the claim rule"),
    # Lower in the median, but won only 5 of 10 pairs.
    ([0.90, 0.90, 0.90, 0.90, 0.90, 1.10, 1.10, 1.10, 1.10, 0.95],
     "gain does not clear the claim rule"),
    ([1.10] * 10, "within bound"),
    ([1.40] * 10, "WORSE than bound"),
])
def test_summarise_verdicts(summarise, head, verdict):
    assert summarise(_WALL, _BASE, head).endswith(f"  {verdict}")


def test_summarise_unresolved_when_the_base_spreads_past_the_bound(summarise):
    base = [0.6, 1.4, 0.6, 1.4, 1.0, 0.6, 1.4, 1.0, 0.6, 1.4]
    assert summarise(_WALL, base, [1.4] * 10).endswith(
        "  unresolved: base spread wider than bound")


def test_summarise_prints_the_per_pair_changes(summarise):
    # Two drifting base pairs widen its spread past the gap of the medians,
    # so the gain does not clear the rule; the per-pair median and the sign
    # count show that eight of ten pairs fell by 20 %.
    base = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0]
    head = [0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 3.3, 3.3]
    assert summarise(_WALL, base, head) == (
        "wall_s (s): base 1 [1, 1.5]  head 0.8 [0.8, 1.425]  -20.0%  "
        "wins 8/10  per pair -20.0% (8 fell, 2 rose)  "
        "gain does not clear the claim rule")


def test_summarise_higher_is_better(summarise):
    metric = {"name": "ratio", "unit": "ratio", "better": "higher",
              "bound": 0.25}
    assert summarise(metric, _BASE, [1.5] * 10).endswith(
        "  per pair +50.0% (0 fell, 10 rose)  gain clears the claim rule")
