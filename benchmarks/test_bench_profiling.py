"""E24 -- deterministic profiling.

Three claims from the profiling layer (``repro.obs.profile``), measured
on the same E3-style workload E19 uses:

* **Hotspot ranking** -- a live-traced pipeline run on the wall clock
  yields a self-time ranking of span names; extraction work (NER
  feature matching, relation extraction) is expected to dominate the
  per-stage self time.
* **Artefact byte-identity** -- two seeded virtual-clock system runs
  (``time_scale=1.0`` so simulated waits produce nonzero durations)
  export byte-identical collapsed-stack flamegraph text and identical
  profile dicts.
* **PROFILE row-identity** -- Cypher queries run under ``PROFILE``
  return exactly the rows of their unprofiled execution, at 1 and 4
  partitions, and the annotated operator trees are deterministic under
  a virtual clock with ``step_cost``.

The wall-clock shares are reported, not gated: a performance regression
is caught by ``BENCHMARK.json``'s parent / change comparison
(``benchmarks/perf/``), which measures absolute cost on a calibrated
clock.

Off-path overhead is E19's claim: the profile layer is pure functions
over the trace export, and the only hot-path additions (the ``outcome``
and ``tokens`` span attributes) ride the already-budgeted instrumented
stage runner that E19 gates at 2%.
"""

import json

from conftest import record_result
from test_bench_observability import build_reports

from repro import SecurityKG, SystemConfig
from repro.core import Checker, Extractor, ParserDispatch
from repro.core.pipeline import Pipeline, Stage
from repro.obs import make_obs
from repro.obs.profile import (
    aggregate,
    hotspots,
    profile_dict,
    render_folded,
    unit_costs,
)
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention
from repro.runtime import clock_from_name
from repro.sharding import ShardSet

#: Stages whose self-time shares are reported.
STAGE_NAMES = ("check", "parse", "extract", "extract.ner", "extract.relation")

_ENTITIES = [
    ("agent tesla", EntityType.MALWARE),
    ("zeus panda", EntityType.MALWARE),
    ("vidar stealer", EntityType.MALWARE),
    ("APT29", EntityType.THREAT_ACTOR),
    ("mimikatz", EntityType.TOOL),
]

#: Run under PROFILE at 1 and 4 partitions: an ordered scan and a
#: grouped aggregate, one blocking operator of each kind.  (Their line
#: numbers are the ids of tests/test_analysis_sweep.py's cases.)
QUERIES = (
    "MATCH (m:Malware) RETURN m.name ORDER BY m.name",
    "MATCH (m:Malware) RETURN m.type, count(m) ORDER BY m.type",
)


def _records(count: int) -> list[CTIRecord]:
    out = []
    for index in range(count):
        name, etype = _ENTITIES[index % len(_ENTITIES)]
        out.append(
            CTIRecord(
                report_id=f"rpt-{index:04d}",
                source="BenchSource",
                url=f"https://bench.test/report/{index}",
                title=f"report {index} on {name}",
                mentions=[Mention(name, etype, confidence=0.9)],
            )
        )
    return out


def run_wall_profile(reports):
    """One live-traced pipeline run on the wall clock; returns spans.

    Unlike E19's throughput pipeline this one runs every stage on a
    single worker: per-span wall time on a GIL-contended stage measures
    scheduling, not work.
    """
    obs = make_obs()
    checker = Checker()
    parsers = ParserDispatch()
    extractor = Extractor(obs=obs)
    pipeline = Pipeline(
        [
            Stage(
                "check",
                lambda r: r if checker.why_rejected(r) is None else None,
            ),
            Stage("parse", parsers.parse),
            Stage("extract", extractor.extract),
        ],
        obs=obs,
    )
    pipeline.run(reports)
    return obs.tracer.export()


def run_virtual_system():
    """A seeded virtual-clock system run with modeled latencies."""
    clock = clock_from_name("virtual")
    obs = make_obs(clock)
    kg = SecurityKG(
        SystemConfig(
            scenario_count=5,
            reports_per_site=2,
            clock="virtual",
            time_scale=1.0,
        ),
        clock=clock,
        obs=obs,
    )
    kg.run_once()
    return obs.tracer.export()


def stage_shares(spans) -> dict[str, float]:
    """Each pinned stage's share of their combined self time."""
    table = aggregate(spans)
    selfs = {
        name: table.get(name, {"self_s": 0.0})["self_s"]
        for name in STAGE_NAMES
    }
    total = sum(selfs.values())
    return {
        name: (value / total if total else 0.0)
        for name, value in selfs.items()
    }


def profiled_engine(partitions: int):
    clock = clock_from_name("virtual")
    shards = ShardSet(partitions, obs=make_obs(clock), clock=clock)
    shards.store(_records(24))
    return shards, shards.cypher


def test_bench_profiling(benchmark):
    reports = build_reports()

    # -- hotspot ranking on the wall clock ---------------------------------
    # per-item stage times are ~1ms, so a tripled batch keeps timer
    # resolution out of the shares
    batch = reports * 3
    wall_spans = run_wall_profile(batch)
    shares = stage_shares(wall_spans)
    wall_hot = hotspots(wall_spans, top=10)
    wall_costs = unit_costs(wall_spans)
    benchmark.pedantic(
        profile_dict, args=(wall_spans,), rounds=3, iterations=1
    )

    # -- artefact byte-identity across seeded virtual runs -----------------
    first, second = run_virtual_system(), run_virtual_system()
    folded_first, folded_second = render_folded(first), render_folded(second)
    folded_identical = folded_first == folded_second and len(folded_first) > 0
    dict_identical = profile_dict(first) == profile_dict(second)
    has_nonzero = any(
        int(line.rsplit(" ", 1)[1]) > 0
        for line in folded_first.strip().splitlines()
    )

    # -- PROFILE row-identity at 1 and 4 partitions ------------------------
    # Determinism is the golden-trace contract: two *fresh* seeded
    # deployments produce identical annotated trees (repeated calls on
    # one deployment drift by float ULPs as the virtual clock's
    # absolute time grows).
    rows_identical = True
    trees_deterministic = True
    for partitions in (1, 4):
        trees = []
        for _ in range(2):
            shards, engine = profiled_engine(partitions)
            try:
                build_trees = []
                for query in QUERIES:
                    plain = engine.run(query)
                    rows_identical &= engine.run(f"PROFILE {query}") == plain
                    prof = engine.profile(query, step_cost=1e-6)
                    rows_identical &= prof.rows == plain
                    build_trees.append(
                        json.dumps(prof.to_dict(), sort_keys=True)
                    )
                trees.append(build_trees)
            finally:
                shards.close()
        trees_deterministic &= trees[0] == trees[1]

    print(f"\nE24: profiling ({len(batch)} reports, "
          "check->parse->extract, wall clock)")
    print(f"  {'span':<22} {'self_s':>9} {'self%':>7}")
    for entry in wall_hot[:6]:
        print(f"  {entry['name']:<22} {entry['self_s']:>9.4f} "
              f"{entry['self_pct']:>6.1f}%")
    print(f"  {'stage':<22} {'share':>9}")
    for name in STAGE_NAMES:
        print(f"  {name:<22} {shares[name]:>9.3f}")
    print(f"  folded byte-identical across virtual runs: {folded_identical}")
    print(f"  PROFILE rows identical at 1 and 4 partitions: {rows_identical}")

    record_result(
        "E24",
        {
            "hotspots": [
                {
                    "name": entry["name"],
                    "self_s": round(entry["self_s"], 4),
                    "self_pct": round(entry["self_pct"], 1),
                }
                for entry in wall_hot[:6]
            ],
            "stage_shares": {k: round(v, 4) for k, v in shares.items()},
            "ner_self_per_token_s": (
                wall_costs["extract.ner"]["self_per_unit_s"].get("tokens")
                if "extract.ner" in wall_costs
                else None
            ),
            "folded_identical": folded_identical,
            "profile_dict_identical": dict_identical,
            "profile_rows_identical": rows_identical,
            "profile_trees_deterministic": trees_deterministic,
        },
    )

    assert folded_identical and dict_identical
    assert has_nonzero, "virtual run produced an all-zero folded export"
    assert rows_identical and trees_deterministic
    # shares partition the stages' self time
    assert abs(sum(shares.values()) - 1.0) < 1e-9
