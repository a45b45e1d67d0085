"""Shared fixtures.

The trained recogniser fixture is session-scoped because CRF training
is the most expensive setup in the suite; tests that need a trained
model share one small instance.
"""

import random

import pytest

from repro.nlp import EntityRecognizer
from repro.websim.scenario import generate_report_content, make_scenarios


def training_texts(scenario_count: int = 18, variants: int = 2) -> list[str]:
    """Small known-name training corpus for fast model fixtures."""
    scenarios = make_scenarios(scenario_count, seed=11, known_only=True)
    texts = []
    for scenario in scenarios:
        for k in range(variants):
            content = generate_report_content(
                scenario,
                random.Random(f"{scenario.scenario_id}-{k}"),
                sentence_count=8,
            )
            texts.append(" ".join(gs.text for gs in content.truth.sentences))
    return texts


@pytest.fixture(scope="session")
def small_recognizer() -> EntityRecognizer:
    """A quickly-trained entity recogniser shared across the session."""
    return EntityRecognizer.train(
        training_texts(), max_iterations=60, embedding_dim=16
    )


@pytest.fixture(scope="session")
def small_web():
    """A compact synthetic web shared across the session."""
    from repro.websim import build_default_web

    return build_default_web(scenario_count=12, reports_per_site=5)


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_session():
    """``extract_workers > 1`` forks extractor processes; every system a
    test builds that way has to close them (``close()`` or ``with``)."""
    import multiprocessing

    yield
    leaked = multiprocessing.active_children()
    assert not leaked, f"child processes outlived the test session: {leaked}"


@pytest.fixture(scope="session", autouse=True)
def lock_order_witness():
    """Witness every named-lock acquisition against the static hierarchy.

    Enabling the witness makes :func:`repro.runtime.named_lock` hand out
    instrumented :class:`WitnessLock` wrappers for the whole session, so
    the crawl-engine, storage-engine and UI suites all record their real
    acquisition orders.  With the static closure installed, an
    acquisition that *reverses* a known hierarchy edge raises
    immediately; at teardown, every observed edge must additionally be a
    subgraph of the static hierarchy from
    :func:`repro.analysis.concurrency.analyze_package`.
    """
    from repro.analysis.concurrency import analyze_package
    from repro.runtime import WITNESS

    model, _ = analyze_package()
    closure = model.closure()
    WITNESS.reset()
    WITNESS.enable(hierarchy=closure)
    yield WITNESS
    bad = WITNESS.violations(closure, known_names=model.lock_names())
    WITNESS.disable()
    assert not bad, (
        "runtime lock acquisitions contradict the static lock hierarchy: "
        f"{bad}; fix the ordering or the analyzer, never the baseline "
        "(see CONCURRENCY.md)"
    )
