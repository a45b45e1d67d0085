"""E3 -- processing-pipeline parallelisation and serialisable hand-offs.

Claims (section 2.1): parallelising and pipelining the processing steps
improves throughput; intermediate representations are serialisable so
steps can run on multiple hosts.

Reproduction: process a fixed crawl batch through the
check -> parse -> extract pipeline with a worker sweep.  Measured shape:
parse and extract are CPU-bound Python, so under the GIL thread workers
do not help -- throughput *falls* by a quarter to a third from 1 worker
to 2 and stays there.  The ``extract`` stage alone is then swept over
1 / 2 / 4 threads with each recogniser (ROADMAP 2(b)'s table): the
gazetteer is pure Python; the CRF spends a third of its time in numpy,
in calls short enough that the GIL hand-offs around them cost more than
the calls.  Last, what ``extract_workers = N`` means in ``SecurityKG``,
where each record crosses to a worker process serialised (pickled) and
back: the CRF ``extract`` stage alone, the three stages together, and
the four -- check -> parse -> extract, then store -- at 1 / 2 / 4
extractor *processes*, through the same ``ExtractorPool`` -- the rows
with a slope, each with the CPU seconds of parent and children it cost.
The sweeps are reported, not gated: the outputs must be equal, in
order, at every setting.
"""

import os

from conftest import record_result

from repro import SecurityKG, SystemConfig
from repro.core import Checker, Extractor, ParserDispatch, Porter
from repro.core.extractor import ExtractorPool
from repro.core.pipeline import Pipeline, Stage
from repro.crawlers import CrawlEngine, Fetcher, build_all_crawlers
from repro.ontology import CTIRecord
from repro.runtime import REAL_CLOCK, Stopwatch, VirtualClock
from repro.websim import SimulatedTransport, build_default_web


def build_reports():
    # The input batch comes from a virtual-clock crawl (instant wall
    # time); the pipeline sweep below measures real CPU throughput, so
    # it stays on the real clock.
    web = build_default_web(scenario_count=15, reports_per_site=4)
    engine = CrawlEngine(
        build_all_crawlers(),
        Fetcher(SimulatedTransport(web, time_scale=1.0, clock=VirtualClock())),
        num_threads=8,
    )
    return Porter().port(engine.crawl().documents)


def make_pipeline(workers: int, extract: Stage | None = None):
    """Gazetteer ``extract`` on ``workers`` threads, or the ``extract``
    stage given."""
    checker = Checker()
    parsers = ParserDispatch()
    return Pipeline(
        [
            Stage(
                "check",
                lambda r: r if checker.why_rejected(r) is None else None,
                workers=1,
            ),
            Stage("parse", parsers.parse, workers=workers),
            extract or Stage("extract", Extractor().extract, workers=workers),
        ]
    )


def extract_alone(recognizer, parsed: list[str]) -> tuple[list[dict], bool]:
    """The extract stage on 1 / 2 / 4 threads over the same parsed
    records (decoded afresh per run: ``extract`` refines in place)."""
    series, payloads = [], []
    for threads in (1, 2, 4):
        extractor = Extractor(recognizer)
        result = Pipeline([Stage("extract", extractor.extract, workers=threads)]).run(
            [CTIRecord.from_json(payload) for payload in parsed]
        )
        payloads.append([record.to_json() for record in result.outputs])
        series.append({"threads": threads, "elapsed_ms": round(result.elapsed * 1e3)})
    return series, all(payload == payloads[0] for payload in payloads)


def cpu_seconds() -> float:
    """CPU this process has used, with the children it has waited for."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_shape(shape: str, recognizer, parsed: list[str], reports, processes: int):
    """One row: what must match at every setting, reports out, seconds.

    ``store after`` is ``SecurityKG``'s four stages into an in-memory
    graph and search index, ``process`` then ``store``; the others are
    the bare pipeline."""
    if shape == "store after":
        config = SystemConfig(
            scenario_count=1, reports_per_site=1, extract_workers=processes,
            connectors=["graph", "search"],
        )
        with SecurityKG(config, recognizer=recognizer) as kg:
            watch = Stopwatch(REAL_CLOCK)
            records, result = kg.process(reports)
            kg.store(records)
            elapsed = watch.elapsed
            payload = [kg.stats()["nodes"]]
    else:
        extractor = Extractor(recognizer)
        pool = ExtractorPool(extractor, processes) if processes > 1 else None
        extract = (
            Stage("extract", extractor.extract)
            if pool is None
            else Stage("extract", pool.submit, settle=extractor.emit)
        )
        if shape == "extract alone":
            pipeline = Pipeline([extract])
            items = [CTIRecord.from_json(payload) for payload in parsed]
        else:
            pipeline = make_pipeline(1, extract)
            items = reports
        result = pipeline.run(items)
        elapsed = result.elapsed
        if pool is not None:
            pool.close()  # waits for the children, so their CPU counts
        payload = []
    payload += [record.to_json() for record in result.outputs]
    return payload, len(result.outputs), elapsed


def extractor_processes(recognizer, parsed: list[str], reports):
    """The CRF at 1 / 2 / 4 extractor processes, as ``SecurityKG`` runs
    them (1: in the pipeline thread, no child; N: forked before the run,
    one thread submitting to them): ``extract`` alone over the parsed
    records, check -> parse -> extract with one parse thread, and those
    three with the store after them."""
    rows = []
    payloads = {"extract alone": [], "three stages": [], "store after": []}
    for processes in (1, 2, 4):
        for shape in payloads:
            before = cpu_seconds()
            payload, count, elapsed = run_shape(
                shape, recognizer, parsed, reports, processes
            )
            payloads[shape].append(payload)
            rows.append(
                {
                    "shape": shape,
                    "processes": processes,
                    "reports_per_s": round(count / elapsed, 1),
                    "elapsed_ms": round(elapsed * 1e3),
                    "cpu_s": round(cpu_seconds() - before, 3),
                }
            )
    equal = all(run == runs[0] for runs in payloads.values() for run in runs)
    return rows, equal


def test_bench_pipeline_scaling(benchmark, trained_crf):
    reports = build_reports()
    series = []
    payloads = []
    for workers in (1, 2, 4, 8):
        result = make_pipeline(workers).run(reports)
        payloads.append([record.to_json() for record in result.outputs])
        series.append(
            {
                "workers": workers,
                "reports_per_s": round(result.throughput, 1),
                "elapsed_s": round(result.elapsed, 3),
            }
        )

    timed = benchmark.pedantic(
        make_pipeline(4).run, args=(reports,), rounds=1, iterations=1
    )
    # outputs come back in input order, so equal means equal lists
    payloads.append([record.to_json() for record in timed.outputs])
    outputs_equal = all(payload == payloads[0] for payload in payloads)

    checker, parsers = Checker(), ParserDispatch()
    parsed = [
        parsers.parse(report).to_json()
        for report in reports
        if checker.why_rejected(report) is None
    ]
    extract = {}
    for name, recognizer in (("gazetteer", None), ("crf", trained_crf)):
        extract[name], equal = extract_alone(recognizer, parsed)
        outputs_equal = outputs_equal and equal

    processes, equal = extractor_processes(trained_crf, parsed, reports)
    outputs_equal = outputs_equal and equal

    print("\nE3: processing pipeline scaling "
          f"({len(reports)} reports, check->parse->extract)")
    print(f"  {'workers':>8} {'reports/s':>10} {'elapsed (s)':>12}")
    for row in series:
        print(f"  {row['workers']:>8} {row['reports_per_s']:>10} "
              f"{row['elapsed_s']:>12}")
    for name, rows in extract.items():
        print(
            f"  extract alone, {name}: "
            + " / ".join(f"{row['elapsed_ms']} ms" for row in rows)
            + " on 1 / 2 / 4 threads"
        )
    print("  CRF at N extractor processes (forked before the run; cpu = parent + "
          "children):")
    print(f"  {'shape':>14} {'processes':>10} {'reports/s':>10} "
          f"{'elapsed (ms)':>13} {'cpu (s)':>8}")
    for row in processes:
        print(f"  {row['shape']:>14} {row['processes']:>10} {row['reports_per_s']:>10} "
              f"{row['elapsed_ms']:>13} {row['cpu_s']:>8}")
    print(f"  outputs identical at every setting: {outputs_equal}")

    record_result(
        "E3",
        {
            "series": series,
            "extract_alone": extract,
            "extractor_processes": processes,
            "outputs_equal": outputs_equal,
        },
    )
    assert outputs_equal
