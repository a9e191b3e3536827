"""Full-scale verification suite; one test per documented criterion.

Runs every criterion at its stated scale (the heavy universe sweep is
shared), printing the same pass/fail line the ``selftest`` subcommand
emits.  The module's one run also feeds the output tests: ``selftest``'s
text and JSON at seed 0 must match ``selftest_seed0.golden`` byte for
byte, and a run with one failed criterion must say so and exit 3.
"""

import dataclasses
import io
import json
from pathlib import Path

import pytest

from treealg import selftest
from treealg.selftest import run_all

GOLDEN = Path(__file__).with_name("selftest_seed0.golden")


@pytest.fixture(scope="module")
def results():
    return run_all(seed=0)


@pytest.mark.parametrize("number", range(1, 13))
def test_criterion(results, number):
    result = results[number - 1]
    assert result.number == number
    print(result.line())
    assert result.passed, result.detail


def _selftest_output(monkeypatch, results, as_json):
    """Exit code and stdout of ``run_selftest`` at seed 0 when the suite yields ``results``."""
    monkeypatch.setattr(selftest, "run_all", lambda seed=0: results)
    out = io.StringIO()
    return selftest.run_selftest(out, 0, as_json=as_json), out.getvalue()


def test_output_matches_the_golden_file(monkeypatch, results):
    text = _selftest_output(monkeypatch, results, False)
    as_json = _selftest_output(monkeypatch, results, True)
    assert (text[0], as_json[0]) == (0, 0)
    assert text[1] + as_json[1] == GOLDEN.read_text()


def test_a_failed_criterion_fails_the_run(monkeypatch, results):
    failed = list(results)
    failed[5] = dataclasses.replace(failed[5], passed=False, detail="planted")
    code, text = _selftest_output(monkeypatch, failed, False)
    assert code == 3
    assert " 6 FAIL two-grafting-injectivity   planted\n" in text
    assert text.endswith("\n11/12 criteria passed\n")
    code, as_json = _selftest_output(monkeypatch, failed, True)
    payload = json.loads(as_json)
    assert code == 3 and as_json.count("\n") == 1
    assert '"passed":false,"criteria"' in as_json
    assert payload["criteria"][5] == {"number": 6, "slug": "two-grafting-injectivity", "passed": False,
                                      "detail": "planted"}
