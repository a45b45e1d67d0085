"""E14 -- connector interchangeability (paper section 2.1).

Claim: the modular design lets components with the same interface be
swapped -- "SecurityKG by default uses a Neo4j connector ... if the
user cares less about multi-hop relations, he may switch to a RDBMS
using a SQL connector".

Reproduction: drive the identical record batch through the graph and
SQL connectors; verify node/row parity per label and compare ingest
timings plus the query each backend is good at (multi-hop traversal vs
flat aggregation).
"""

import time

from conftest import record_result

from repro.connectors import GraphConnector, SQLConnector
from repro.connectors.sql import SQLParticipant
from repro.core import Checker, Extractor, ParserDispatch, Porter
from repro.crawlers import CrawlEngine, Fetcher, build_all_crawlers
from repro.graphdb import CypherEngine, GraphDatabase
from repro.graphdb.wal import GraphParticipant
from repro.storage import StorageEngine
from repro.websim import SimulatedTransport, build_default_web


def build_records():
    web = build_default_web(scenario_count=15, reports_per_site=4)
    engine = CrawlEngine(
        build_all_crawlers(),
        Fetcher(SimulatedTransport(web, time_scale=0.0)),
        num_threads=8,
    )
    ported = Porter().port(engine.crawl().documents)
    passed = Checker().filter(ported).passed
    records = ParserDispatch().parse_all(passed)
    extractor = Extractor()
    return [extractor.extract(r) for r in records]


def ingest_all(connector, records) -> None:
    for record in records:
        connector.ingest(record)


def test_bench_connector_parity(benchmark):
    records = build_records()

    graph_connector = GraphConnector(
        GraphDatabase(StorageEngine(None, [GraphParticipant()]))
    )
    started = time.perf_counter()
    ingest_all(graph_connector, records)
    graph_seconds = time.perf_counter() - started

    sql_connector = SQLConnector(StorageEngine(None, [SQLParticipant()]))
    started = time.perf_counter()
    benchmark.pedantic(
        ingest_all, args=(sql_connector, records), rounds=1, iterations=1
    )
    sql_seconds = time.perf_counter() - started

    graph_labels = graph_connector.graph.label_counts()
    sql_labels = sql_connector.label_counts()

    # multi-hop query on the graph backend
    engine = CypherEngine(graph_connector.graph)
    started = time.perf_counter()
    multi_hop = engine.run(
        "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a)-[:USES]->(t) "
        "RETURN m.name, t.name"
    )
    cypher_ms = 1000 * (time.perf_counter() - started)

    # flat aggregation on the SQL backend
    started = time.perf_counter()
    rows = sql_connector.connection.execute(
        "SELECT label, COUNT(*) FROM entities GROUP BY label"
    ).fetchall()
    sql_ms = 1000 * (time.perf_counter() - started)

    print("\nE14: connector interchangeability "
          f"({len(records)} records through both backends)")
    print(f"  node/row parity per label: {graph_labels == sql_labels}")
    print(f"  graph ingest: {graph_seconds:.2f}s; "
          f"entities {graph_connector.graph.node_count}, "
          f"relations {graph_connector.graph.edge_count}")
    print(f"  sql ingest: {sql_seconds:.2f}s; "
          f"entities {sql_connector.entity_count()}, "
          f"relations {sql_connector.relation_count()}")
    print(f"  multi-hop Cypher (graph backend): {len(multi_hop)} rows in "
          f"{cypher_ms:.1f} ms")
    print(f"  aggregation SQL (RDBMS backend): {len(rows)} rows in "
          f"{sql_ms:.2f} ms")

    record_result(
        "E14",
        {
            "records": len(records),
            "parity": graph_labels == sql_labels,
            "graph_nodes": graph_connector.graph.node_count,
            "sql_entities": sql_connector.entity_count(),
            "graph_ingest_s": round(graph_seconds, 3),
            "sql_ingest_s": round(sql_seconds, 3),
            "multi_hop_rows": len(multi_hop),
            "multi_hop_ms": round(cypher_ms, 2),
        },
    )
    assert graph_labels == sql_labels
    assert graph_connector.graph.node_count == sql_connector.entity_count()
    assert multi_hop
