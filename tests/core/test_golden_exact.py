"""Full-precision golden decisions (``golden_decisions_exact.json``).

The older golden suites round caps to a few decimals; this replay
compares every serialized decision — the testbed sweeps, the modes,
``schedule_many`` bursts, runtime re-coordinations and a learning-on
sequence whose refits rebuild the fitted bundles — with the captured
``json.dumps(decision.to_dict(), sort_keys=True)`` string, byte for
byte.  Regenerate only on a deliberate behaviour change with
``tests/data/capture_golden_decisions_exact.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent.parent / "data"


def _capture_module():
    spec = importlib.util.spec_from_file_location(
        "capture_golden_decisions_exact",
        DATA_DIR / "capture_golden_decisions_exact.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CAPTURE = _capture_module()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(CAPTURE.OUT.read_text())


def _mismatches(expected, actual) -> list[str]:
    """Keys whose replayed value differs from the fixture."""
    actual = json.loads(json.dumps(actual))  # tuples -> lists
    if isinstance(expected, list):
        expected = dict(enumerate(expected))
        actual = dict(enumerate(actual))
    keys = sorted(set(expected) | set(actual), key=str)
    return [k for k in keys if expected.get(k) != actual.get(k)]


@pytest.mark.parametrize("testbed", sorted(CAPTURE.TESTBEDS))
def test_testbed_decisions_byte_identical(golden, testbed):
    bad = _mismatches(golden[testbed], CAPTURE.capture_testbed(testbed))
    assert not bad, f"{len(bad)} decisions moved on {testbed}: {bad[:8]}"


def test_learning_sequence_byte_identical(golden):
    replayed = CAPTURE.capture_learning()
    # the sequence must actually refit (so the bundle is rebuilt)
    assert json.loads(replayed[-1]).get("model_version", 1) > 1
    bad = _mismatches(golden["learning"], replayed)
    assert not bad, f"learning steps moved: {bad}"
