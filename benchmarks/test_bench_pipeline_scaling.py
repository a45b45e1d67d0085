"""E3 -- processing-pipeline parallelisation and serialisable hand-offs.

Claims (section 2.1): parallelising and pipelining the processing steps
improves throughput; intermediate representations are serialisable so
steps can run on multiple hosts.

Reproduction: process a fixed crawl batch through the
check -> parse -> extract pipeline with a worker sweep, and measure the
serialisation boundary's cost (on/off at the same worker count).
Measured shape: parse and extract are CPU-bound Python, so under the
GIL thread workers do not help -- throughput *falls* by a quarter to a
third from 1 worker to 2 and stays there (which is why ``SystemConfig``
defaults both stages to 1); serialisation adds a constant overhead --
the price of multi-host deployability.  The sweep is reported, not
gated: the outputs must be equal at every setting.
"""

from conftest import record_result

from repro.core import Checker, Extractor, ParserDispatch, Porter
from repro.core.pipeline import Codec, Pipeline, Stage
from repro.crawlers import CrawlEngine, Fetcher, build_all_crawlers
from repro.ontology import CTIRecord, ReportRecord
from repro.runtime import VirtualClock
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


def make_pipeline(workers: int, serialize: bool):
    checker = Checker()
    parsers = ParserDispatch()
    extractor = Extractor()
    report_codec = (
        Codec(encode=lambda r: r.to_json(), decode=ReportRecord.from_json)
        if serialize
        else None
    )
    cti_codec = (
        Codec(encode=lambda r: r.to_json(), decode=CTIRecord.from_json)
        if serialize
        else None
    )
    return Pipeline(
        [
            Stage(
                "check",
                lambda r: r if checker.why_rejected(r) is None else None,
                workers=1,
                codec=report_codec,
            ),
            Stage("parse", parsers.parse, workers=workers, codec=cti_codec),
            Stage("extract", extractor.extract, workers=workers, codec=cti_codec),
        ]
    )


def test_bench_pipeline_scaling(benchmark):
    reports = build_reports()
    series = []
    payloads = []
    for workers in (1, 2, 4, 8):
        result = make_pipeline(workers, serialize=False).run(reports)
        payloads.append([record.to_json() for record in result.outputs])
        series.append(
            {
                "workers": workers,
                "reports_per_s": round(result.throughput, 1),
                "elapsed_s": round(result.elapsed, 3),
            }
        )

    plain = benchmark.pedantic(
        make_pipeline(4, serialize=False).run, args=(reports,), rounds=1, iterations=1
    )
    serialized = make_pipeline(4, serialize=True).run(reports)
    overhead = serialized.elapsed / plain.elapsed - 1.0
    # outputs come back in input order, so equal means equal lists
    payloads.append([record.to_json() for record in serialized.outputs])
    outputs_equal = all(payload == payloads[0] for payload in payloads)

    print("\nE3: processing pipeline scaling "
          f"({len(reports)} reports, check->parse->extract)")
    print(f"  {'workers':>8} {'reports/s':>10} {'elapsed (s)':>12}")
    for row in series:
        print(f"  {row['workers']:>8} {row['reports_per_s']:>10} "
              f"{row['elapsed_s']:>12}")
    print(
        f"  serialisable hand-offs (4 workers): "
        f"{serialized.elapsed:.3f}s vs {plain.elapsed:.3f}s plain "
        f"({overhead * 100:+.0f}% overhead)"
    )
    print(f"  outputs identical at every setting: {outputs_equal}")

    record_result(
        "E3",
        {
            "series": series,
            "serialize_overhead_pct": round(overhead * 100, 1),
            "outputs_equal": outputs_equal,
        },
    )
    assert outputs_equal
