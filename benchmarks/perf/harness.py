"""Measurement plumbing shared by the four workloads.

Everything here is the benchmark's own: the span recorder is ~50 lines
of its own rather than ``repro.obs``, so a change to ``repro.obs``
cannot move the ruler.  The program under test is only ever *called*
from here -- spans inside ``src/repro`` are a later issue.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
#: every ``storage_path`` lives under here (inside the checkout,
#: gitignored) in a per-run directory that is removed on exit
SCRATCH_ROOT = PERF_DIR / ".tmp"

wall = time.perf_counter


# -- the host clock -------------------------------------------------------


def _kernel() -> float:
    """Seconds a fixed pure-Python kernel (dict, string and integer
    work) takes right now."""
    start = wall()
    table: dict[str, int] = {}
    total = 0
    for i in range(3000):
        key = f"k{i % 997}"
        table[key] = table.get(key, 0) + i
        total += len(key) ^ (i & 7)
    return wall() - start


class HostClock(threading.Thread):
    """Seconds of work at the speed of the reference host.

    The box is a few cores of a shared host, and its speed steps between
    levels up to a factor 2 apart (the kernel above reads 0.8 ms, or 1.6),
    holding one for tens of milliseconds to minutes.  No statistic of
    wall-clock samples survives that -- whole runs sit on a slow level --
    so every duration the harness reports is read from this clock
    instead.  A sampler thread times the kernel every ``PERIOD`` seconds,
    and until the next sample the clock advances at ``KERNEL_REF_S /
    kernel`` times wall time: at wall speed on the reference host at its
    fast level, at half speed while the host runs at half speed, so an
    operation measures the same on both.  The kernel is shorter than the
    interpreter's thread switch interval, so no other thread of the
    process runs inside a sample.  On 150 ``ingest_full`` cycles in a
    noisy hour the wall-clock durations had a standard deviation of
    13.6 % of their mean and the host-clock durations 3.6 %.  The kernel
    is the benchmark's own code: no change to ``src/repro`` moves the
    clock.
    """

    #: what the kernel takes on the reference host (this box, fast level)
    KERNEL_REF_S = 0.8e-3
    PERIOD = 0.02

    def __init__(self):
        super().__init__(name="perf-host-clock", daemon=True)
        self._halt = threading.Event()
        # (wall time of the sample, host time then, rate since); replaced
        # whole, so a reader never sees half an update
        self._state = (wall(), 0.0, self.KERNEL_REF_S / min(_kernel(), _kernel()))
        self.samples = 0
        self.kernel_s = 0.0

    def run(self) -> None:
        while not self._halt.wait(self.PERIOD):
            kernel = _kernel()
            at = wall()
            since, host, rate = self._state
            self._state = (at, host + (at - since) * rate, self.KERNEL_REF_S / kernel)
            self.samples += 1
            self.kernel_s += kernel

    def now(self) -> float:
        since, host, rate = self._state
        return host + (wall() - since) * rate

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def kernel_ms(self) -> float:
        """Mean kernel time over the run: what the host was like, so
        ledgers from different hosts and hours can be told apart."""
        return self.kernel_s * 1e3 / max(1, self.samples)


_clock: HostClock | None = None


def start_host_clock() -> HostClock:
    global _clock
    _clock = HostClock()
    _clock.start()
    return _clock


def now() -> float:
    """Host-clock seconds once the clock runs, wall seconds before."""
    return _clock.now() if _clock is not None else wall()


# -- spans ----------------------------------------------------------------


class Span:
    """One timed call into a layer.  Always measures its own duration
    (that is how the untraced pass gets latencies); only a recorder
    with ``enabled=True`` keeps it and tracks parentage."""

    __slots__ = ("rec", "name", "op_id", "parent", "start", "end")

    def __init__(self, rec: "Recorder", name: str, op_id):
        self.rec = rec
        self.name = name
        self.op_id = op_id
        self.parent = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        rec = self.rec
        if rec.enabled:
            self.parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(len(rec.spans))
            rec.spans.append(self)
        self.start = now()
        return self

    def __exit__(self, *_exc) -> None:
        self.end = now()
        if self.rec.enabled:
            self.rec._stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list for one workload's traced pass (single
    thread: the traced pass drives every stage serially)."""

    def __init__(self, workload: str, enabled: bool = False):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, op_id=None) -> Span:
        return Span(self, name, op_id)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per-name ``count / total_s / self_s``; a span's self time is
        its duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        table: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - child_time[index]
        return table

    def layer_shares(self) -> dict[str, float]:
        """Share of the traced rounds' self time per layer (the span-name
        prefix before the first dot; ``probe.*`` spans are not part of
        a round)."""
        by_layer: dict[str, float] = defaultdict(float)
        for name, row in self.self_times().items():
            if not name.startswith("probe."):
                by_layer[name.split(".", 1)[0]] += row["self_s"]
        total = sum(by_layer.values()) or 1.0
        return {layer: value / total for layer, value in sorted(by_layer.items())}

    def write(self, directory: Path) -> None:
        """Span JSONL plus the self-time table, written at exit."""
        directory.mkdir(parents=True, exist_ok=True)
        with (directory / f"{self.workload}.spans.jsonl").open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "workload": self.workload,
                            "op_id": span.op_id,
                        }
                    )
                    + "\n"
                )
        (directory / f"{self.workload}.selftime.json").write_text(
            json.dumps(
                {"spans": self.self_times(), "layer_shares": self.layer_shares()},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )


class Context:
    """What a workload's ``setup`` hands to its rounds."""

    #: seconds spent building ``corpus_g`` (0 for a workload without one)
    corpus_build_s = 0.0

    def close(self) -> None:
        """Release what set-up left open (nothing by default)."""


# -- samples, checks, statistics ------------------------------------------


class Tally:
    """Timings, counts and the attempted/failed tally of one workload run.

    Every round replays the same operations in the same order, so each
    operation has one host-clock duration per round.  ``steady`` reduces
    those to the operation's median across rounds, and all throughput
    and latency metrics are computed from the steady durations;
    percentiles are then taken across operations, so they describe the
    request mix, not the noise.  The median, because what the host clock
    leaves behind is two-sided: a speed step between two clock samples
    makes an operation read up to 2x long or 2x short.  On 20 s windows
    of 110-236 replays per workload, throughput spread (Q3-Q1)/median =
    0.8-1.9 % with the per-operation median, 1.0-6.3 % with the lower
    quartile and 3.0-10.9 % with the minimum.

    Output checks are operations too: a failed check counts in
    ``failed`` and makes the run exit non-zero.
    """

    def __init__(self):
        self.ops: dict[tuple, list[float]] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict[str, object] = {}

    def timed(self, kind: str, index, seconds: float) -> None:
        self.ops.setdefault((kind, index), []).append(seconds)

    def steady(self, *kinds: str) -> list[float]:
        return [
            statistics.median(durations)
            for (kind, _index), durations in self.ops.items()
            if kind in kinds
        ]

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0

    def count(self, name: str) -> int:
        return len(self.samples.get(name, []))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the spread the driver holds a metric to
    (the whole range for fewer than four values)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        low, high = min(values), max(values)
    else:
        low, _q2, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


# -- host, memory, disk, digests ------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def disk_bytes(directory: str | Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def digest(value) -> str:
    """Short content digest of any JSON-able value."""
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, default=str
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@contextmanager
def scratch_dir():
    """A per-run directory for every ``storage_path``; removed on exit."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=SCRATCH_ROOT) as path:
        yield Path(path)
