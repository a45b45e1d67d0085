"""System-level crash/recovery tests for the storage engine.

The crash matrix kills a full SecurityKG deployment -- of one partition
and of two -- at every registered crash point (armed on partition 0),
reopens the state directory, resumes, and asserts the graph, search
index, crawl state and SQL mirror all converge to the contents of an
uninterrupted run -- zero lost reports, zero duplicated ingests.
Everything runs on the virtual clock so the workloads are
deterministic; crawl timestamps are the one store excluded from the
fingerprint (a resumed run's virtual clock legitimately restarts, so
``last_crawl`` differs while every other byte converges).
"""

import itertools
import json
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alias_corpus import alias_batch, graph_identity
from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention
from repro.storage import CRASH_POINTS, CrashInjector, InjectedCrash

WORKLOAD = dict(
    scenario_count=6,
    reports_per_site=2,
    sources=["ThreatPedia", "MalwareBulletin"],
    connectors=["graph", "search", "sql"],
    clock="virtual",
    seed=7,
)


def make_kg(path, faults=None, **overrides):
    config = SystemConfig(storage_path=str(path), **{**WORKLOAD, **overrides})
    return SecurityKG(config, faults=faults)


def _node_key(graph, node_id):
    node = graph.node(node_id)
    return (
        node.label,
        str(node.properties.get("merge_key", node.properties.get("name", ""))),
    )


def _normalize_props(props):
    out = dict(props)
    if isinstance(out.get("reports"), list):
        out["reports"] = sorted(out["reports"])
    return json.dumps(out, sort_keys=True)


def fingerprint(kg):
    """Node-id-free contents of every store (crawl timestamps excluded)."""
    graph = kg.graph
    nodes = sorted(
        (n.label, _normalize_props(n.properties)) for n in graph.nodes()
    )
    edges = sorted(
        (
            _node_key(graph, e.src),
            e.type,
            _node_key(graph, e.dst),
            _normalize_props(e.properties),
        )
        for e in graph.edges()
    )
    search_docs = {}
    seen = []
    sql_entities = []
    sql_relations = []
    sql_reports = []
    for partition in kg.shards.partitions:
        search_docs.update(
            (doc_id, dict(fields))
            for doc_id, fields in partition.search_index.to_state()[
                "documents"
            ].items()
        )
        seen.extend(partition.engine.participant("crawl").seen)
        conn = partition.connectors["sql"].connection
        sql_entities.extend(
            conn.execute(
                "SELECT label, merge_key, name, attributes FROM entities"
            ).fetchall()
        )
        sql_relations.extend(
            conn.execute(
                "SELECT e1.label, e1.merge_key, r.type, e2.label, "
                "e2.merge_key, r.weight FROM relations r "
                "JOIN entities e1 ON r.head = e1.id "
                "JOIN entities e2 ON r.tail = e2.id"
            ).fetchall()
        )
        sql_reports.extend(
            conn.execute(
                "SELECT report_id, source, url, title FROM reports"
            ).fetchall()
        )
    return {
        "nodes": nodes,
        "edges": edges,
        "search": search_docs,
        "seen": sorted(seen),
        "sql_entities": sorted(sql_entities),
        "sql_relations": sorted(sql_relations),
        "sql_reports": sorted(sql_reports),
        "ingested": kg.shards.ingested_ids(),
    }


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """Per partition count: the fingerprint of one uninterrupted run
    (shared by the matrix)."""
    results = {}
    for partitions in (1, 2):
        path = tmp_path_factory.mktemp(f"reference{partitions}") / "state"
        kg = make_kg(path, partitions=partitions)
        report = kg.run_once()
        kg.checkpoint()
        results[partitions] = (fingerprint(kg), report.reports_stored)
        kg.close()
    return results


@pytest.fixture()
def reference(references):
    return references[1]


class TestCrashMatrix:
    # one-partition ids stay the bare crash point
    @pytest.mark.parametrize(
        "partitions, point",
        [pytest.param(1, point, id=point) for point in CRASH_POINTS]
        + [
            pytest.param(2, point, id=f"{point}-2-partitions")
            for point in CRASH_POINTS
        ],
    )
    def test_kill_reopen_converges(self, tmp_path, references, partitions, point):
        expected, expected_stored = references[partitions]
        assert expected_stored > 0

        path = tmp_path / "state"
        kg = make_kg(path, faults=CrashInjector(point), partitions=partitions)
        try:
            kg.run_once()
            kg.checkpoint()
        except InjectedCrash as crash:
            assert crash.point == point
        else:
            pytest.fail(f"workload never reached crash point {point!r}")

        # the crashed process is gone; a fresh deployment recovers from
        # disk, re-crawls whatever was not durably stored, and skips
        # whatever was
        resumed = make_kg(path, partitions=partitions)
        report = resumed.run_once()
        resumed.checkpoint()
        assert fingerprint(resumed) == expected
        # exactly-once: every report marked exactly once
        assert resumed.shards.ingested_count == expected_stored
        if partitions == 1:
            # a report whose commit survived was never re-crawled: its
            # seen-URL delta is durable iff its ingest marker is.  With
            # more partitions a URL may hash to another partition than
            # its report and ride the batch flush the crash skipped; it
            # is then re-crawled and skipped by its marker.
            assert report.reports_skipped == 0
        resumed.close()

        # and the converged state is itself durable
        reloaded = make_kg(path, partitions=partitions)
        assert fingerprint(reloaded) == expected
        reloaded.close()

    @pytest.mark.parametrize("at_hit", [2, 3])
    def test_mid_batch_commit_crash(self, tmp_path, reference, at_hit):
        """Dying on a later commit leaves a prefix stored; the resumed
        run ingests only the remainder."""
        expected, expected_stored = reference
        path = tmp_path / "state"
        kg = make_kg(
            path, faults=CrashInjector("commit.after-fsync", at_hit=at_hit)
        )
        with pytest.raises(InjectedCrash):
            kg.run_once()
            kg.checkpoint()

        survivor = make_kg(path)
        already = survivor.engine.ingested_count
        assert 0 < already < expected_stored
        report = survivor.run_once()
        survivor.checkpoint()
        assert report.reports_skipped == 0  # durable URLs were not re-crawled
        assert report.reports_stored == expected_stored - already
        assert fingerprint(survivor) == expected
        survivor.close()


class TestGraphSQLParity:
    """Extends E14: the two backends stay node/row-comparable even when
    runs are chopped up by randomly seeded crashes."""

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=8, deadline=None)
    def test_parity_after_seeded_crash(self, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/state"
            kg = make_kg(
                path,
                faults=CrashInjector.seeded(seed),
                scenario_count=4,
                reports_per_site=1,
                sources=["ThreatPedia"],
            )
            try:
                kg.run_once()
                kg.checkpoint()
                kg.close()
            except InjectedCrash:
                kg = make_kg(
                    path,
                    scenario_count=4,
                    reports_per_site=1,
                    sources=["ThreatPedia"],
                )
                kg.run_once()
                kg.checkpoint()
                kg.close()

            final = make_kg(
                path,
                scenario_count=4,
                reports_per_site=1,
                sources=["ThreatPedia"],
            )
            sql = final.connectors["sql"]
            assert sql.entity_count() == final.graph.node_count
            assert sql.relation_count() == final.graph.edge_count
            assert sql.label_counts() == final.graph.label_counts()
            report_rows = sql.connection.execute(
                "SELECT report_id FROM reports"
            ).fetchall()
            # one row per ingest marker: no lost or duplicated reports
            assert sorted(r[0] for r in report_rows) == final.engine.ingested_ids()
            final.close()


class TestCypherCreateIsJournaled:
    """Cypher CREATE is a write like any other: it goes through the
    owning partition's journal, so a reopened store has the node and
    every later commit still replays against the ids it was written
    with."""

    @staticmethod
    def _records(start, count):
        names = ["agent tesla", "zeus panda", "APT29", "mimikatz"]
        return [
            CTIRecord(
                report_id=f"rpt-{index:04d}",
                source="UnitSource",
                url=f"https://unit.test/report/{index}",
                title=f"report {index}",
                mentions=[
                    Mention(names[index % 4], EntityType.MALWARE),
                    Mention(names[(index + 1) % 4], EntityType.MALWARE),
                ],
            )
            for index in range(start, start + count)
        ]

    @staticmethod
    def _contents(kg):
        """Every node and edge *with* its id, plus the ingest markers."""
        graph = kg.graph
        return (
            sorted(
                (n.node_id, n.label, _normalize_props(n.properties))
                for n in graph.nodes()
            ),
            sorted(
                (e.edge_id, e.src, e.type, e.dst, _normalize_props(e.properties))
                for e in graph.edges()
            ),
            kg.shards.ingested_ids(),
        )

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_create_between_stores_survives_reopen(self, tmp_path, partitions):
        kg = make_kg(tmp_path / "state", partitions=partitions)
        kg.store(self._records(0, 4))
        kg.cypher(
            "CREATE (:Malware {name: 'handmade', merge_key: 'malware::handmade'})"
            "-[:USES]->(:Tool {name: 'handtool', merge_key: 'tool::handtool'})",
            strict=False,
        )
        kg.store(self._records(4, 6))
        before = self._contents(kg)
        kg.close()  # no checkpoint: the reopen replays the whole journal

        reopened = make_kg(tmp_path / "state", partitions=partitions)
        assert self._contents(reopened) == before
        assert len(before[2]) == 10
        rows = reopened.cypher(
            "MATCH (m:Malware {name: 'handmade'})-[:USES]->(t:Tool) "
            "RETURN t.name AS tool"
        )
        assert [row["tool"] for row in rows] == ["handtool"]
        reopened.close()

    #: a two-node path whose first node partition 0 owns at N = 2 too
    #: (nameless nodes go there), where the crash injector is armed
    PATH_CREATE = (
        "CREATE (:Malware {family: 'handmade'})-[:USES]->(:Tool {name: 'handtool'})"
    )

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_one_create_is_one_journal_record(self, tmp_path, partitions):
        kg = make_kg(tmp_path / "state", partitions=partitions)
        kg.store(self._records(0, 2))
        engine = kg.shards.partitions[0].engine
        seq = engine.last_seq
        lines = len(engine.journal_path.read_text().splitlines())
        kg.cypher(self.PATH_CREATE, strict=False)
        assert engine.last_seq == seq + 1
        record = engine.journal_path.read_text().splitlines()[lines:]
        assert len(record) == 1
        batches = json.loads(record[0])["ops"]["graph"]
        ops = [op["op"] for batch in batches for op in batch]
        assert ops == ["create_node", "create_node", "create_edge"]
        kg.close()

    @pytest.mark.parametrize("partitions", [1, 2])
    @pytest.mark.parametrize(
        "point", [point for point in CRASH_POINTS if point.startswith("commit.")]
    )
    def test_crash_during_create_is_all_or_nothing(self, tmp_path, partitions, point):
        kg = make_kg(
            tmp_path / "state", partitions=partitions, faults=CrashInjector(point)
        )
        with pytest.raises(InjectedCrash):
            kg.cypher(self.PATH_CREATE, strict=False)
        reopened = make_kg(tmp_path / "state", partitions=partitions)
        survived = point in ("commit.after-append", "commit.after-fsync")
        graph = reopened.graph
        assert (graph.node_count, graph.edge_count) == ((2, 1) if survived else (0, 0))
        reopened.close()

    def test_placeholder_journal_replays_to_the_same_ids(self, tmp_path):
        """A CREATE used to be journaled as one batch naming its nodes
        by placeholder; such a record replays to the graph the same
        CREATE writes now."""
        make_kg(tmp_path / "old").close()
        journal = next((tmp_path / "old").glob("journal-*.jsonl"))
        journal.write_bytes(
            b'{"seq": 1, "ops": {"graph": [[{"op": "create_node", "ref": -1, '
            b'"label": "Malware", "props": {"family": "handmade"}}, '
            b'{"op": "create_node", "ref": -2, "label": "Tool", "props": '
            b'{"name": "handtool"}}, {"op": "create_edge", "src": -1, "type": '
            b'"USES", "dst": -2, "props": {}}]]}, "marks": []}\n'
        )
        old = make_kg(tmp_path / "old")
        new = make_kg(tmp_path / "new")
        new.cypher(self.PATH_CREATE, strict=False)
        assert self._contents(old) == self._contents(new)
        assert old.graph.edge_count == 1
        old.close()
        new.close()


# ---------------------------------------------------------------------------
# fusion is a transaction: graph state = f(journal), ids included


def _fuse_then_store_orderings():
    """Every ordering of {store, fuse, checkpoint} of length <= 4 in
    which some store comes after some fusion."""
    for length in (2, 3, 4):
        for steps in itertools.product("SFC", repeat=length):
            if "F" in steps and "S" in steps[steps.index("F"):]:
                yield "".join(steps)


class TestFusionIsJournaled:
    """Fusion commits through the journal like every other graph write,
    so no ordering of store / fuse / checkpoint leaves a state directory
    that reopens to anything but the live graph."""

    @staticmethod
    def _drive(kg, steps, batches):
        """Run the steps; returns how many alias groups fusion merged."""
        merged = 0
        for step in steps:
            if step == "S":
                kg.store(alias_batch(next(batches)))
            elif step == "F":
                merged += kg.run_fusion().groups_merged
            else:
                kg.checkpoint()
        return merged

    @pytest.mark.parametrize("partitions", [1, 2])
    @pytest.mark.parametrize("steps", list(_fuse_then_store_orderings()))
    def test_every_ordering_reopens_to_the_live_graph(
        self, tmp_path, partitions, steps
    ):
        batches = itertools.count()
        live = make_kg(tmp_path / "state", partitions=partitions)
        # a leading store, so that no fusion runs on an empty graph
        assert self._drive(live, "S" + steps, batches) > 0

        # a copy taken without closing is what a killed process leaves
        shutil.copytree(tmp_path / "state", tmp_path / "copy")
        copy = make_kg(tmp_path / "copy", partitions=partitions)
        assert graph_identity(copy.graph) == graph_identity(live.graph)

        # the replayed process draws the same ids as the live one
        further = alias_batch(next(batches))
        live.store(further)
        copy.store(further)
        expected = graph_identity(live.graph)
        assert graph_identity(copy.graph) == expected
        live.close()
        copy.close()
        for name in ("state", "copy"):
            reopened = make_kg(tmp_path / name, partitions=partitions)
            assert graph_identity(reopened.graph) == expected
            reopened.close()

    @pytest.mark.parametrize("partitions", [1, 2])
    @pytest.mark.parametrize(
        "steps",
        [
            "run,fuse,close",
            "run,fuse,run,close",
            "run,fuse,checkpoint,run,crash-copy",
        ],
    )
    def test_facade_sequence_reopens_to_the_live_graph(
        self, tmp_path, partitions, steps
    ):
        """The same through ``run_once`` alone.  One crawl thread makes
        a partial crawl pick the same reports every time (this source
        mix gives fusion a group to merge after six of them)."""
        workload = dict(
            partitions=partitions,
            sources=["ThreatPedia", "MalwareVault", "OTX Mirror"],
            reports_per_site=3,
            crawl_threads=1,
        )
        kg = make_kg(tmp_path / "state", **workload)
        reopen = tmp_path / "state"
        stored = merged = 0
        for step in steps.split(","):
            if step == "run":
                stored += kg.run_once(
                    max_articles=None if stored else 6
                ).reports_stored
            elif step == "fuse":
                merged += kg.run_fusion().groups_merged
            elif step == "checkpoint":
                kg.checkpoint()
            elif step == "crash-copy":
                reopen = tmp_path / "copy"
                shutil.copytree(tmp_path / "state", reopen)
        assert merged > 0 and stored == (6 if steps.count("run") == 1 else 9)
        expected = graph_identity(kg.graph)
        kg.close()
        reopened = make_kg(reopen, **workload)
        assert graph_identity(reopened.graph) == expected
        reopened.close()

    @pytest.mark.parametrize("partitions", [1, 2])
    @pytest.mark.parametrize(
        "point", [point for point in CRASH_POINTS if point.startswith("commit.")]
    )
    def test_crash_during_fusion_is_all_or_nothing(
        self, tmp_path, partitions, point
    ):
        """A fusion commit is an ordinary commit: dying at any of its
        boundaries leaves the crashed partition exactly pre- or exactly
        post-fusion, the others untouched, and re-running the idempotent
        pass converges to the uncrashed graph."""
        def stored(path, **kwargs):
            kg = make_kg(path, partitions=partitions)
            kg.store(alias_batch(0))
            kg.store(alias_batch(1))
            before = [graph_identity(p.graph) for p in kg.shards.partitions]
            kg.close()
            return before, make_kg(path, partitions=partitions, **kwargs)

        _before, reference = stored(tmp_path / "reference")
        assert reference.run_fusion().groups_merged > 0
        after = [graph_identity(p.graph) for p in reference.shards.partitions]
        expected = graph_identity(reference.graph)
        reference.close()

        before, crashed = stored(tmp_path / "state", faults=CrashInjector(point))
        assert before[0] != after[0]  # the armed partition has merges to lose
        with pytest.raises(InjectedCrash):
            crashed.run_fusion()

        recovered = make_kg(tmp_path / "state", partitions=partitions)
        survived = point in ("commit.after-append", "commit.after-fsync")
        got = [graph_identity(p.graph) for p in recovered.shards.partitions]
        assert got[0] == (after[0] if survived else before[0])
        assert got[1:] == before[1:]  # fusion never reached them
        recovered.run_fusion()
        assert graph_identity(recovered.graph) == expected
        recovered.close()
        reloaded = make_kg(tmp_path / "state", partitions=partitions)
        assert graph_identity(reloaded.graph) == expected
        reloaded.close()
