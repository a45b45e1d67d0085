"""Shared benchmark fixtures and result recording.

Every benchmark prints the paper-shaped row/series it reproduces and
appends it to ``benchmarks/results/results.json`` so EXPERIMENTS.md can
be regenerated from measured numbers.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.nlp import EntityRecognizer
from repro.websim.scenario import generate_report_content, make_scenarios

RESULTS_PATH = Path(__file__).parent / "results" / "results.json"

# E22 checks query results against the brute-force evaluator the unit
# tests use (tests/cypher_oracle.py); it is test code, not a package.
sys.path.append(str(Path(__file__).parents[1] / "tests"))


def record_result(experiment: str, payload: dict) -> None:
    """Persist one experiment's measured series."""
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[experiment] = payload
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True))


@pytest.fixture(scope="session")
def trained_crf() -> EntityRecognizer:
    """The benchmark-grade CRF (trained once per session, ~40s)."""
    scenarios = make_scenarios(40, seed=11, known_only=True)
    texts = []
    for scenario in scenarios:
        for k in range(3):
            content = generate_report_content(
                scenario,
                random.Random(f"{scenario.scenario_id}-{k}"),
                sentence_count=8,
            )
            texts.append(" ".join(gs.text for gs in content.truth.sentences))
    return EntityRecognizer.train(texts, max_iterations=80)


@pytest.fixture(scope="session")
def heldout_contents():
    """Held-out evaluation reports (names outside the curated lists)."""
    scenarios = make_scenarios(15, seed=99)
    return [
        generate_report_content(
            s, random.Random(f"test-{s.scenario_id}"), sentence_count=8
        )
        for s in scenarios
    ]
