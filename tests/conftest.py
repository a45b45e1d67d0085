"""Shared fixtures.

The trained recogniser fixture is session-scoped because CRF training
is the most expensive setup in the suite; tests that need a trained
model share one small instance.
"""

import os
import random
import threading

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


#: thread counts at each fork made beside another thread, since the last
#: test's check
_FORKS_BESIDE_THREADS: list[int] = []


def _note_fork() -> None:
    if threading.active_count() > 1:
        _FORKS_BESIDE_THREADS.append(threading.active_count())


os.register_at_fork(before=_note_fork)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "forks_beside_threads: the test forks while another thread runs, "
        "on purpose; exempt from the fork-before-threads check",
    )


@pytest.fixture(autouse=True)
def forks_only_before_threads(request):
    """A forked child copies only the thread that forked, with every lock
    in whatever state the other threads left it, so extractor processes
    are forked before a system starts a thread.  Any fork made beside
    another thread fails the test that made it (or the setup before it),
    unless the test is marked ``forks_beside_threads``."""
    yield
    forks = list(_FORKS_BESIDE_THREADS)
    _FORKS_BESIDE_THREADS.clear()
    if request.node.get_closest_marker("forks_beside_threads") is None:
        assert not forks, (
            f"{len(forks)} fork(s) with other threads running "
            f"(thread counts {forks}); fork before starting threads"
        )


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
