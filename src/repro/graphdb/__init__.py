"""In-process property graph database (Neo4j substitute).

A labelled property graph with adjacency/label/property indexes
(:mod:`repro.graphdb.store`), its journaled mutation API on the
storage engine (:mod:`repro.graphdb.wal`), traversal primitives for the
UI (:mod:`repro.graphdb.traversal`) and a Cypher-subset query engine
(:mod:`repro.graphdb.cypher`).

>>> from repro.graphdb import GraphDatabase, CypherEngine
>>> db = GraphDatabase()
>>> n = db.create_node("Malware", {"name": "wannacry"})
>>> engine = CypherEngine(db.graph)
>>> rows = engine.run('match (n) where n.name = "wannacry" return n')
>>> rows[0]["n"].properties["name"]
'wannacry'
"""

from repro.graphdb.cypher import (
    CypherAnalysisError,
    CypherEngine,
    CypherRuntimeError,
    CypherSyntaxError,
    ResultRow,
)
from repro.graphdb.store import Edge, Node, PropertyGraph
from repro.graphdb.traversal import (
    Subgraph,
    bfs_nodes,
    induced_subgraph,
    k_hop_subgraph,
    random_subgraph,
)
from repro.graphdb.wal import GraphDatabase

__all__ = [
    "CypherAnalysisError",
    "CypherEngine",
    "CypherRuntimeError",
    "CypherSyntaxError",
    "Edge",
    "GraphDatabase",
    "Node",
    "PropertyGraph",
    "ResultRow",
    "Subgraph",
    "bfs_nodes",
    "induced_subgraph",
    "k_hop_subgraph",
    "random_subgraph",
]
