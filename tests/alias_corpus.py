"""Shared fixtures for the tests that fuse: a deterministic corpus of
reports naming the same entities under different vendor conventions,
and the id-inclusive graph digest the recovery tests compare by."""

import json

from repro.ontology.entities import EntityType
from repro.ontology.intermediate import CTIRecord, Mention, RelationMention

ALIAS_FAMILIES = [
    (["agent tesla", "AgentTesla", "agent_tesla"], ["mimikatz", "mimi katz"]),
    (["zeus panda", "ZeusPanda", "zeus-panda"], ["cobalt strike", "CobaltStrike"]),
    (["emotet", "Emotet", "emo tet"], ["psexec", "PsExec", "ps exec"]),
    (["trickbot", "TrickBot", "trick bot"], ["powersploit", "PowerSploit"]),
]
ALIAS_BATCH = 8


def alias_batch(number):
    """Batch ``number`` of reports that name the same malware and tools
    under different vendor conventions: every batch gives fusion groups
    to merge on each partition, and every later batch re-mentions names
    that were merged away and re-weights edges fusion migrated."""
    records = []
    for index in range(number * ALIAS_BATCH, (number + 1) * ALIAS_BATCH):
        malware, tools = ALIAS_FAMILIES[index % len(ALIAS_FAMILIES)]
        first = malware[index % len(malware)]
        second = malware[(index + 1) % len(malware)]
        tool = tools[index % len(tools)]
        records.append(
            CTIRecord(
                report_id=f"rpt-{index:04d}",
                source="UnitSource",
                url=f"https://unit.test/report/{index}",
                title=f"report {index}",
                mentions=[
                    Mention(first, EntityType.MALWARE),
                    Mention(second, EntityType.MALWARE),
                    Mention(tool, EntityType.TOOL),
                ],
                relations=[
                    RelationMention(
                        name, EntityType.MALWARE, "uses", tool, EntityType.TOOL
                    )
                    for name in (first, second)
                ],
            )
        )
    return records


def graph_identity(graph):
    """Id-inclusive digest of a graph: node ids, edge ids, properties,
    iteration order and adjacency order -- everything a journaled op
    can name or depend on."""
    nodes = list(graph.nodes())
    return json.dumps(
        [
            [(n.node_id, n.label, n.properties) for n in nodes],
            [(e.edge_id, e.src, e.type, e.dst, e.properties) for e in graph.edges()],
            [
                (
                    n.node_id,
                    [e.edge_id for e in graph.out_edges(n.node_id)],
                    [e.edge_id for e in graph.in_edges(n.node_id)],
                )
                for n in nodes
            ],
        ],
        sort_keys=True,
    )
