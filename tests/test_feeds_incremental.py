"""The dirty-set feed refresh against the whole-graph export.

``FeedPublisher`` never rebuilds its views: a refresh re-exports what
the graph's change capture says the commits touched.  The reference it
must agree with byte for byte is the whole-graph loop --
``filter_bundle(export_graph(merged graph))`` -- after every kind of
write the system has, at one and two partitions, across checkpoints
and restarts.  The O(touched) claims are asserted on the
``feeds.objects_reexported`` counter, not on a clock.
"""

import json
import random

import pytest

from alias_corpus import alias_batch
from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.feeds import TIER_MAX_TLP, TIERS, FeedPublisher
from repro.obs import make_obs
from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention, RelationMention
from repro.ontology.stix import (
    REFERENCE_EDGE_TYPES,
    StixMappingError,
    export_graph,
    filter_bundle,
    node_object,
)
from repro.runtime import clock_from_name
from repro.sharding import ID_STRIDE
from repro.ui.server import ExplorerAPI

from test_feeds import KEYS, as_bundle, bundle_bytes, compose, make_kg

TLP_CHOICES = ("white", "green", "amber", "red")


def open_kg(path, partitions, obs=None):
    config = SystemConfig(
        storage_path=None if path is None else str(path),
        partitions=partitions,
        feed_keys=dict(KEYS),
        connectors=["graph", "search"],
        clock="virtual",
        seed=7,
    )
    return SecurityKG(config, obs=obs)


def is_mapped(node) -> bool:
    try:
        node_object(node)
    except StixMappingError:
        return False
    return True


def reference_bundles(kg):
    """Per tier, what the whole-graph export of the current graph says
    (nodes without a STIX mapping left out) and the ETag a publisher
    built from scratch over a copy of the graph serves."""
    merged = kg.shards.merged_graph()
    fresh = FeedPublisher(graph_source=lambda: merged, stamp_source=lambda: (0,))
    etags = {tier: fresh.full_bundle(tier)[1] for tier in TIERS}
    for node in list(merged.nodes()):
        if not is_mapped(node):
            merged.delete_node(node.node_id)
    exported = export_graph(merged, markings=True)
    bundles = {
        tier: filter_bundle(
            exported, TIER_MAX_TLP[tier], sanitize=(tier == "public")
        ).to_dict()
        for tier in TIERS
    }
    return bundles, etags


class Deployment:
    """A durable system, one composing client per tier, and the ops the
    differential sweep draws from."""

    def __init__(self, path, partitions, rng, opener=open_kg):
        self.path = path
        self.partitions = partitions
        self.rng = rng
        self.opener = opener
        self.kg = opener(path, partitions)
        self.batches = 0
        self.serial = 0
        self.views = {tier: {} for tier in TIERS}
        self.cursors = {tier: None for tier in TIERS}
        self.expect_delta = False  # the very first pull has no cursor

    # -- helpers -------------------------------------------------------

    def database_of(self, item_id):
        return self.kg.shards.partitions[(item_id - 1) // ID_STRIDE].database

    def fresh_name(self, stem):
        self.serial += 1
        return f"{stem}-{self.serial}"

    def entities(self):
        """Mapped non-report nodes that relationships *and* reports
        point at, busiest first."""
        graph = self.kg.graph
        found = []
        for node in graph.nodes():
            if node.label not in ("Malware", "Tool"):
                continue
            edges = graph.out_edges(node.node_id) + graph.in_edges(node.node_id)
            kinds = {edge.type in REFERENCE_EDGE_TYPES for edge in edges}
            if kinds == {True, False}:
                found.append((graph.degree(node.node_id), node.node_id))
        return [node_id for _degree, node_id in sorted(found, reverse=True)]

    # -- the ops -------------------------------------------------------

    def op_store_batch(self):
        self.kg.store(alias_batch(self.batches))
        self.batches += 1

    def op_store_across_partitions(self):
        """A report about an entity that already lives on one partition,
        anchored so that it is routed to the other one."""
        graph = self.kg.graph
        node = graph.node(self.rng.choice(self.entities()))
        home = (node.node_id - 1) // ID_STRIDE
        router = self.kg.shards.router
        while True:
            # "aaa..." sorts before every corpus name, so it anchors
            anchor = self.fresh_name("aaa-anchor")
            if self.partitions == 1 or (
                router.partition_for_entity("Malware", anchor) != home
            ):
                break
        index = 9000 + self.serial
        self.kg.store(
            [
                CTIRecord(
                    report_id=f"rpt-{index:04d}",
                    source="UnitSource",
                    url=f"https://unit.test/report/{index}",
                    title=f"report {index}",
                    mentions=[
                        Mention(anchor, EntityType.MALWARE),
                        Mention(node.properties["name"], EntityType(node.label)),
                    ],
                    relations=[
                        RelationMention(
                            anchor, EntityType.MALWARE, "uses",
                            node.properties["name"], EntityType(node.label),
                        )
                    ],
                )
            ]
        )

    def _create_clause(self, node):
        return (
            f"(:{node.label} {{name: '{node.properties['name']}', "
            f"merge_key: '{node.properties['merge_key']}'}})"
        )

    def op_create_duplicate_node(self):
        node = self.kg.graph.node(self.rng.choice(self.entities()))
        self.kg.cypher(f"CREATE {self._create_clause(node)}", strict=False)

    def op_create_parallel_edge(self):
        graph = self.kg.graph
        edge = self.rng.choice(
            [
                e
                for e in graph.edges()
                if e.type not in REFERENCE_EDGE_TYPES
                and is_mapped(graph.node(e.src))
                and is_mapped(graph.node(e.dst))
            ]
        )
        src, dst = graph.node(edge.src), graph.node(edge.dst)
        self.kg.cypher(
            f"CREATE {self._create_clause(src)}-[:{edge.type}]->"
            f"{self._create_clause(dst)}",
            strict=False,
        )

    def op_create_report_with_vendor(self):
        """A report CREATEd by hand: ``created_by_ref`` (two vendors:
        the later edge wins) and a mention of a stored entity; every
        other call re-uses the report's key, so two nodes export to it."""
        entity = self.kg.graph.node(self.rng.choice(self.entities()))
        number = self.serial // 2
        self.serial += 1
        self.kg.cypher(
            f"CREATE (r:MalwareReport {{name: 'handmade {number}', "
            f"merge_key: 'report:handmade-{number}'}})"
            f"-[:CREATED_BY]->(:Vendor {{name: 'vendor-{self.serial}', "
            f"merge_key: 'vendor-{self.serial}'}}), "
            f"(r)-[:CREATED_BY]->(:Vendor {{name: 'acme', merge_key: 'acme'}}), "
            f"(r)-[:MENTIONS]->{self._create_clause(entity)}",
            strict=False,
        )

    def op_set_tlp(self):
        """Raise or lower an entity that relationships and reports
        point at, or a report."""
        reports = [
            node.node_id
            for node in self.kg.graph.nodes()
            if node.label.endswith("Report")
        ]
        node_id = self.rng.choice(self.entities() + reports)
        current = self.kg.graph.node(node_id).properties.get("tlp", "white")
        level = self.rng.choice([t for t in TLP_CHOICES if t != current])
        self.database_of(node_id).set_node_properties(node_id, {"tlp": level})

    def op_rekey_entity(self):
        """A new ``merge_key``: the node exports to another object id,
        and every relationship and report around it has to follow."""
        node_id = self.rng.choice(self.entities())
        self.database_of(node_id).set_node_properties(
            node_id, {"merge_key": self.fresh_name("rekeyed")}
        )

    def op_bump_edge_weight(self):
        edge = self.rng.choice(
            [e for e in self.kg.graph.edges() if e.type not in REFERENCE_EDGE_TYPES]
        )
        self.database_of(edge.edge_id).set_edge_properties(
            edge.edge_id, {"weight": int(edge.properties.get("weight", 1)) + 1}
        )

    def op_touch_hub_attribute(self):
        hub = self.entities()[0]
        self.database_of(hub).set_node_properties(
            hub, {"analyst_note": self.fresh_name("note")}
        )

    def op_fuse(self):
        self.kg.run_fusion()

    def op_checkpoint(self):
        self.kg.checkpoint()

    def op_reopen(self):
        self.kg.close()
        self.kg = self.opener(self.path, self.partitions)
        # the restored history may not reach the clients' cursors
        self.expect_delta = False

    def op_create_unmapped(self):
        node = self.kg.graph.node(self.rng.choice(self.entities()))
        self.kg.cypher(
            f"CREATE (:Widget {{name: '{self.fresh_name('widget')}'}})"
            f"-[:USES]->{self._create_clause(node)}",
            strict=False,
        )

    OPS = (
        "store_batch",
        "store_across_partitions",
        "create_duplicate_node",
        "create_parallel_edge",
        "create_report_with_vendor",
        "set_tlp",
        "rekey_entity",
        "bump_edge_weight",
        "touch_hub_attribute",
        "fuse",
        "checkpoint",
        "reopen",
        "create_unmapped",
    )

    def apply(self, op):
        getattr(self, f"op_{op}")()

    # -- the oracle ----------------------------------------------------

    def check(self, context):
        bundles, etags = reference_bundles(self.kg)
        for tier in TIERS:
            served, etag = self.kg.feeds.full_bundle(tier)
            assert bundle_bytes(served) == bundle_bytes(bundles[tier]), (
                f"{context}: tier {tier} is not the export of the graph"
            )
            assert etag == etags[tier], (
                f"{context}: tier {tier} ETag depends on the path taken"
            )
            response = self.kg.feeds.pull(tier, cursor=self.cursors[tier])
            assert response.etag == etag
            if self.expect_delta:
                assert response.payload["mode"] == "delta", context
            self.views[tier] = compose(self.views[tier], response)
            self.cursors[tier] = response.cursor
            assert bundle_bytes(as_bundle(self.views[tier])) == bundle_bytes(
                served
            ), f"{context}: composed {tier} deltas differ from the full pull"
        self.expect_delta = True


class TestDifferentialAgainstWholeGraphExport:
    """After every op, every tier equals the whole-graph export of the
    current graph byte for byte, its ETag is the one a publisher built
    from scratch serves, and a client that composed every delta since
    step 0 holds the full pull."""

    @pytest.mark.parametrize("partitions", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_op_sequences(self, tmp_path, partitions, seed):
        rng = random.Random(seed)
        deployment = Deployment(tmp_path / "state", partitions, rng)
        deployment.check("empty graph")
        # seed 0 is every op once, in declaration order; the others
        # draw 24 at random (the first op always gives them a graph)
        ops = list(Deployment.OPS) if seed == 0 else ["store_batch"] + [
            rng.choice(Deployment.OPS) for _ in range(24)
        ]
        for step, op in enumerate(ops):
            deployment.apply(op)
            deployment.check(f"seed {seed}, step {step} ({op})")
        deployment.kg.close()

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_crawled_corpus(self, tmp_path, partitions):
        """The real write path -- vendors, indicators, every report
        label -- in two crawls and a fusion pass."""
        deployment = Deployment(
            tmp_path / "state", partitions, random.Random(0), opener=make_kg
        )
        deployment.check("empty graph")
        for step in ("crawl 3", "crawl all", "fuse"):
            if step == "fuse":
                deployment.kg.run_fusion()
            else:
                deployment.kg.run_once(max_articles=3 if step == "crawl 3" else None)
            deployment.check(step)
        deployment.kg.close()

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_tlp_raised_then_lowered(self, tmp_path, partitions):
        deployment = Deployment(tmp_path / "state", partitions, random.Random(5))
        deployment.op_store_batch()
        deployment.check("stored")
        hub = deployment.entities()[0]
        for level in ("red", "amber", "white", "green", "red", "white"):
            deployment.database_of(hub).set_node_properties(hub, {"tlp": level})
            deployment.check(f"hub at tlp:{level}")
        deployment.kg.close()


def reexported(obs):
    counters = obs.metrics.snapshot()["counters"]
    return dict(counters.get("feeds.objects_reexported", {}))


def batch_of_new_names(tag):
    """Two reports whose entities no other batch mentions."""
    return [
        CTIRecord(
            report_id=f"rpt-{tag}-{index}",
            source="UnitSource",
            url=f"https://unit.test/{tag}/{index}",
            title=f"{tag} report {index}",
            mentions=[
                Mention(f"{tag}-malware-{index}", EntityType.MALWARE),
                Mention(f"{tag}-tool", EntityType.TOOL),
            ],
            relations=[
                RelationMention(
                    f"{tag}-malware-{index}", EntityType.MALWARE, "uses",
                    f"{tag}-tool", EntityType.TOOL,
                )
            ],
        )
        for index in range(2)
    ]


class TestRefreshCostFollowsTheCommit:
    """Counted, not timed: ``feeds.objects_reexported`` is what a
    refresh rebuilt."""

    @staticmethod
    def _cost_of_probe_batch(batches, partitions):
        obs = make_obs(clock_from_name("virtual"))
        kg = open_kg(None, partitions, obs=obs)
        for number in range(batches):
            kg.store(alias_batch(number))
        kg.feeds.pull("internal")
        before = reexported(obs)
        kg.store(batch_of_new_names("probe"))
        kg.feeds.pull("internal")
        after = reexported(obs)
        size = len(kg.feeds.full_bundle("internal")[0]["objects"])
        kg.close()
        return {key: after[key] - before.get(key, 0) for key in after}, size

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_same_batch_costs_the_same_on_a_larger_graph(self, partitions):
        small, small_size = self._cost_of_probe_batch(2, partitions)
        large, large_size = self._cost_of_probe_batch(8, partitions)
        assert large_size > 2 * small_size
        assert small == large
        # 2 reports + 3 entities + 2 USES + 2 DESCRIBES relationships
        assert small["tier=internal"] == 9

    def test_attribute_on_the_hub_costs_one_object_per_tier(self):
        obs = make_obs(clock_from_name("virtual"))
        kg = open_kg(None, 1, obs=obs)
        for number in range(3):
            kg.store(alias_batch(number))
        graph = kg.graph
        hub = max(graph.nodes(), key=lambda node: graph.degree(node.node_id))
        assert graph.degree(hub.node_id) >= 10
        kg.feeds.pull("internal")
        before = reexported(obs)
        kg.database.set_node_properties(hub.node_id, {"analyst_note": "seen"})
        kg.feeds.pull("internal")
        after = reexported(obs)
        # the hub is a tlp:white entity: every tier holds it
        assert {key: after[key] - before[key] for key in after} == {
            f"tier={tier}": 1 for tier in TIERS
        }
        kg.close()

    def test_refresh_span_reports_what_it_did(self):
        obs = make_obs(clock_from_name("virtual"))
        kg = open_kg(None, 1, obs=obs)
        kg.store(alias_batch(0))
        kg.feeds.pull("internal")
        kg.store(batch_of_new_names("probe"))
        kg.feeds.pull("internal")
        kg.feeds.pull("internal")  # stamp unchanged: no refresh, no span
        records = obs.tracer.export()
        refreshes = [r for r in records if r["name"] == "feeds.refresh"]
        assert len(refreshes) == 2
        pulls = {r["id"] for r in records if r["name"] == "feeds.pull"}
        assert all(r["parent"] in pulls for r in refreshes)
        # 5 new nodes + 8 new edges (4 MENTIONS fold into the reports)
        # -> 9 objects on partner and internal; the reports and their
        # DESCRIBES relationships are tlp:amber, so public sees 5
        assert refreshes[-1]["attrs"] == {
            "dirty": 13, "reexported": 9, "changed": 23, "deleted": 0,
        }
        kg.close()


class TestUnmappedNodesDoNotStopDissemination:
    def test_feeds_and_checkpoints_survive_an_unmapped_label(self, tmp_path):
        obs = make_obs(clock_from_name("virtual"))
        kg = open_kg(tmp_path / "state", 1, obs=obs)
        kg.store(alias_batch(0))
        api = ExplorerAPI(kg)
        kg.cypher("CREATE (:Widget {name: 'x'})", strict=False)
        for tier in TIERS:
            status, payload, _headers = api.handle_full(
                "GET", f"/feeds/{tier}", headers={"X-API-Key": KEYS["internal"]}
            )
            assert status == 200, payload
            assert all(
                o.get("x_securitykg_kind") != "Widget"
                for o in payload["bundle"]["objects"]
            )
        kg.checkpoint()  # the feeds.snapshot step re-exports nothing it cannot
        assert obs.metrics.snapshot()["gauges"]["feeds.unmapped_nodes"][""] == 1
        # the whole-graph export stays strict
        with pytest.raises(StixMappingError):
            export_graph(kg.graph)
        kg.close()

    def test_failed_refresh_resumes_where_it_stopped(self):
        """A node the export rejects (an unknown TLP level) fails the
        refresh without losing what else was dirty: once repaired, the
        view is the export of the graph again."""
        kg = open_kg(None, 1)
        kg.store(alias_batch(0))
        before = kg.feeds.pull("internal")
        node = next(iter(kg.graph.nodes("Malware")))
        kg.store(alias_batch(1))
        kg.database.set_node_properties(node.node_id, {"tlp": "purple"})
        for _attempt in range(2):
            with pytest.raises(ValueError, match="unknown TLP level"):
                kg.feeds.pull("internal", cursor=before.cursor)
        kg.database.set_node_properties(node.node_id, {"tlp": "green"})
        delta = kg.feeds.pull("internal", cursor=before.cursor)
        assert delta.payload["mode"] == "delta"
        state = compose(
            {o["id"]: o for o in before.payload["bundle"]["objects"]}, delta
        )
        bundles, etags = reference_bundles(kg)
        assert bundle_bytes(as_bundle(state)) == bundle_bytes(bundles["internal"])
        assert delta.etag == etags["internal"]
        kg.close()


class TestSnapshotCompatibility:
    def test_snapshot_with_a_foreign_etag_ages_out_as_an_empty_entry(self, tmp_path):
        """A snapshot written under another ETag definition (the parent
        commit's sorted-stream hash) loads; clients holding its cursor
        get an empty delta and the new ETag."""
        kg = open_kg(tmp_path / "state", 1)
        kg.store(alias_batch(0))
        kg.checkpoint()
        kg.close()
        held = {}
        for tier in TIERS:
            path = tmp_path / "state" / "feeds" / f"feed-{tier}.json"
            data = json.loads(path.read_text())
            data["etag"] = f"{tier:0<32}"[:32]
            data["history"][-1]["etag"] = data["etag"]
            path.write_text(json.dumps(data, sort_keys=True))
            held[tier] = FeedPublisher._encode_cursor(tier, data["etag"], data["seq"])
        reopened = open_kg(tmp_path / "state", 1)
        _bundles, etags = reference_bundles(reopened)
        for tier in TIERS:
            response = reopened.feeds.pull(tier, cursor=held[tier])
            assert response.payload["mode"] == "delta"
            assert response.payload["objects"] == []
            assert response.payload["deleted"] == []
            assert response.etag == etags[tier]
        reopened.close()

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_objects_gone_since_the_snapshot_come_out_as_deleted(
        self, tmp_path, partitions
    ):
        """A fusion pass journaled after the last checkpoint: the
        restored snapshot still holds the merged-away objects, and the
        first refresh -- everything dirty, the snapshot's ids included
        -- turns them into an ordinary ``deleted`` list."""
        kg = open_kg(tmp_path / "state", partitions)
        kg.store(alias_batch(0))
        kg.checkpoint()
        held = kg.feeds.pull("internal")
        assert kg.run_fusion().groups_merged > 0
        kg.close()
        reopened = open_kg(tmp_path / "state", partitions)
        delta = reopened.feeds.pull("internal", cursor=held.cursor)
        assert delta.payload["mode"] == "delta"
        assert delta.payload["deleted"]
        state = compose(
            {o["id"]: o for o in held.payload["bundle"]["objects"]}, delta
        )
        bundles, etags = reference_bundles(reopened)
        assert bundle_bytes(as_bundle(state)) == bundle_bytes(bundles["internal"])
        assert delta.etag == etags["internal"]
        reopened.close()
