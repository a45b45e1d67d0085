"""Knowledge-enhanced threat hunting (the paper's future work).

"In future work, we plan to connect SecurityKG to our system-auditing-
based threat protection systems [17, 23, 24] to achieve knowledge-
enhanced threat protection."  This module is that connection: it hunts
through audit logs using the knowledge graph, and demonstrates what
the *graph* buys over a flat indicator feed:

* **matching** -- events whose artifact equals a KG IOC raise alerts
  (a flat IOC list does this equally well);
* **attribution** -- each alert walks the graph from the matched IOC
  node to the malware/actor it is associated with, so an alert says
  *what* hit you, not just that something did;
* **correlation** -- alerts on one host are grouped into incidents;
  an incident is confirmed only when multiple *distinct IOC kinds*
  tie to the *same* threat neighbourhood.  Isolated coincidental
  matches (an address some CDN reused) stay below the threshold,
  which is precisely the false-positive suppression a flat list
  cannot express;
* **enrichment** -- a confirmed incident carries the threat's known
  techniques, tools and remaining infrastructure from the graph: the
  hunt-forward list.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.audit.events import AuditEvent
from repro.graphdb.store import Node, PropertyGraph
from repro.ontology.entities import EntityType, canonical_name

#: node labels that count as "threat identity" for attribution
_THREAT_LABELS = (EntityType.MALWARE.value, EntityType.THREAT_ACTOR.value)
#: Distinct IOC kinds (pointing at the same threat, on the same host)
#: that confirm an incident.
MIN_CORROBORATING_KINDS = 2


@dataclass
class Alert:
    """One audit event that matched threat intelligence."""

    event: AuditEvent
    ioc_value: str
    ioc_kind: str
    attributed_to: list[str] = field(default_factory=list)  # threat names


@dataclass
class Incident:
    """Correlated alerts on one host attributed to one threat."""

    host: str
    threat: str
    alerts: list[Alert] = field(default_factory=list)
    ioc_kinds: set[str] = field(default_factory=set)
    confirmed: bool = False
    techniques: list[str] = field(default_factory=list)
    tools: list[str] = field(default_factory=list)
    related_iocs: list[str] = field(default_factory=list)

    @property
    def evidence_count(self) -> int:
        return len(self.alerts)

    def to_dict(self) -> dict:
        """JSON-ready incident record (SIEM/API consumption)."""
        return {
            "host": self.host,
            "threat": self.threat,
            "confirmed": self.confirmed,
            "evidence": [
                {
                    "event_id": alert.event.event_id,
                    "event_type": alert.event.event_type.value,
                    "process": alert.event.process,
                    "ioc_kind": alert.ioc_kind,
                    "ioc_value": alert.ioc_value,
                }
                for alert in self.alerts
            ],
            "ioc_kinds": sorted(self.ioc_kinds),
            "techniques": list(self.techniques),
            "tools": list(self.tools),
            "hunt_forward": list(self.related_iocs),
        }

    def summary(self) -> str:
        status = "CONFIRMED" if self.confirmed else "suspected"
        lines = [
            f"[{status}] {self.threat!r} on {self.host}: "
            f"{self.evidence_count} matching events across "
            f"{len(self.ioc_kinds)} IOC kinds ({', '.join(sorted(self.ioc_kinds))})"
        ]
        if self.techniques:
            lines.append(f"  known techniques: {', '.join(self.techniques[:4])}")
        if self.tools:
            lines.append(f"  known tooling: {', '.join(self.tools[:4])}")
        if self.related_iocs:
            lines.append(
                f"  hunt forward for: {', '.join(self.related_iocs[:4])}"
            )
        return "\n".join(lines)


class IocFeedHunter:
    """Baseline: a flat indicator feed with no graph behind it.

    Raises the same alerts as the knowledge-driven hunter but can
    neither attribute them nor correlate them into incidents -- every
    match is its own undifferentiated finding.
    """

    def __init__(self, indicators: dict[str, str]):
        #: canonical IOC value -> kind
        self.indicators = dict(indicators)

    @classmethod
    def from_graph(cls, graph: PropertyGraph) -> "IocFeedHunter":
        """Flatten a knowledge graph into a bare indicator feed."""
        indicators = {}
        for node in graph.nodes():
            try:
                entity_type = EntityType(node.label)
            except ValueError:
                continue
            if entity_type.is_ioc:
                value = canonical_name(str(node.properties.get("name", "")))
                indicators[value] = node.label
        return cls(indicators)

    def scan(self, events: list[AuditEvent]) -> list[Alert]:
        alerts = []
        for event in events:
            kind = self.indicators.get(canonical_name(event.object_value))
            if kind is not None:
                alerts.append(
                    Alert(event=event, ioc_value=event.object_value, ioc_kind=kind)
                )
        return alerts


class ThreatHunter:
    """Knowledge-graph-driven hunter over a populated security
    knowledge graph."""

    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        self._ioc_index: dict[str, Node] = {}
        self._threats_by_ioc: dict[int, list[Node]] = {}
        self._build_index()

    # -- index ------------------------------------------------------------

    def _build_index(self) -> None:
        for node in self.graph.nodes():
            try:
                entity_type = EntityType(node.label)
            except ValueError:
                continue
            if not entity_type.is_ioc:
                continue
            value = canonical_name(str(node.properties.get("name", "")))
            self._ioc_index[value] = node
            self._threats_by_ioc[node.node_id] = self._attribute(node)

    def _attribute(self, ioc_node: Node) -> list[Node]:
        """Threat nodes associated with an IOC.

        Direct behavioural edges win (malware -> CONNECTS_TO -> ip);
        otherwise co-mention: threats described by the same reports
        that mention the IOC.
        """
        direct = [
            n
            for n in self.graph.neighbors(ioc_node.node_id, direction="in")
            if n.label in _THREAT_LABELS
        ]
        if direct:
            return direct
        threats: dict[int, Node] = {}
        for report in self.graph.neighbors(
            ioc_node.node_id, edge_type="MENTIONS", direction="in"
        ):
            for other in self.graph.neighbors(
                report.node_id, edge_type="MENTIONS", direction="out"
            ):
                if other.label in _THREAT_LABELS:
                    threats[other.node_id] = other
        return list(threats.values())

    # -- hunting --------------------------------------------------------------

    def scan(self, events: list[AuditEvent]) -> list[Alert]:
        """Alerts for every event matching a KG indicator, attributed."""
        alerts: list[Alert] = []
        for event in events:
            node = self._ioc_index.get(canonical_name(event.object_value))
            if node is None:
                continue
            threats = self._threats_by_ioc.get(node.node_id, [])
            alerts.append(
                Alert(
                    event=event,
                    ioc_value=event.object_value,
                    ioc_kind=node.label,
                    attributed_to=sorted(
                        str(t.properties.get("name", "")) for t in threats
                    ),
                )
            )
        return alerts

    def correlate(self, alerts: list[Alert]) -> list[Incident]:
        """Group alerts into per-host, per-threat incidents.

        Confirmation requires ``MIN_CORROBORATING_KINDS`` distinct IOC
        kinds tied to the same threat on the same host; everything else
        stays a suspected incident.
        """
        grouped: dict[tuple[str, str], Incident] = {}
        for alert in alerts:
            for threat in alert.attributed_to or ["(unattributed)"]:
                key = (alert.event.host, threat)
                incident = grouped.setdefault(
                    key, Incident(host=alert.event.host, threat=threat)
                )
                incident.alerts.append(alert)
                incident.ioc_kinds.add(alert.ioc_kind)
        incidents = list(grouped.values())
        for incident in incidents:
            incident.confirmed = (
                len(incident.ioc_kinds) >= MIN_CORROBORATING_KINDS
            )
            if incident.confirmed:
                self._enrich(incident)
        incidents.sort(key=lambda i: (-int(i.confirmed), -i.evidence_count))
        return incidents

    def hunt(self, events: list[AuditEvent]) -> list[Incident]:
        """scan + correlate in one call."""
        return self.correlate(self.scan(events))

    # -- enrichment -----------------------------------------------------------------

    def _enrich(self, incident: Incident) -> None:
        threat_node = None
        for node in self.graph.nodes():
            if (
                node.label in _THREAT_LABELS
                and str(node.properties.get("name", "")) == incident.threat
            ):
                threat_node = node
                break
        if threat_node is None:
            return
        techniques, tools = set(), set()
        for neighbor in self.graph.neighbors(threat_node.node_id):
            if neighbor.label == EntityType.TECHNIQUE.value:
                techniques.add(str(neighbor.properties.get("name", "")))
            elif neighbor.label == EntityType.TOOL.value:
                tools.add(str(neighbor.properties.get("name", "")))
        seen_values = {canonical_name(a.ioc_value) for a in incident.alerts}
        related = []
        for node_id, threats in self._threats_by_ioc.items():
            if any(t.node_id == threat_node.node_id for t in threats):
                ioc = self.graph.node(node_id)
                value = str(ioc.properties.get("name", ""))
                if canonical_name(value) not in seen_values:
                    related.append(value)
        incident.techniques = sorted(techniques)
        incident.tools = sorted(tools)
        incident.related_iocs = sorted(related)


__all__ = ["Alert", "Incident", "IocFeedHunter", "ThreatHunter"]
