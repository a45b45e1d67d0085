"""Threat scenario and report content generation.

A :class:`ThreatScenario` is one coherent incident: a malware family,
an operating actor, the techniques/tools involved, the exploited
software, and a pool of concrete IOCs.  From a scenario the generator
realises :class:`ReportContent` -- the logical content of one OSCTI
report (title, summary, narrative sections, IOC appendix, structured
fields) together with complete :class:`GroundTruth` annotations.

Multiple sources can report on the *same* scenario (with different
narrative sentences and overlapping IOC subsets), which is what gives
the knowledge graph its cross-report merge behaviour (E8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ontology.entities import EntityType
from repro.websim import iocgen, seeds
from repro.websim.textgen import (
    GeneratedSentence,
    Template,
    pick_templates,
    realize,
    template_slots,
)

#: Report categories, matching the ontology's report types.
CATEGORIES: tuple[str, ...] = ("malware", "vulnerability", "attack")


@dataclass
class ThreatScenario:
    """One coherent incident with concrete names and indicators."""

    scenario_id: int
    malware: str
    secondary_malware: str
    actor: str
    secondary_actor: str
    techniques: list[str]
    tools: list[str]
    software: list[str]
    cves: list[str]
    sector: str
    ips: list[str]
    domains: list[str]
    urls: list[str]
    emails: list[str]
    hashes: list[str]
    file_names: list[str]
    file_paths: list[str]
    registry_keys: list[str]

    @classmethod
    def generate(
        cls, scenario_id: int, rng: random.Random, known_only: bool = False
    ) -> "ThreatScenario":
        """Draw one scenario deterministically from ``rng``.

        With ``known_only=True`` concept names are sampled exclusively
        from the gazetteer-known splits -- the corpus regime used to
        synthesise training annotations, where the curated lists have
        full coverage.  The default mixes in the held-out names, so
        evaluation corpora contain entities no list has seen.
        """
        if known_only:
            malware_bank = seeds.split_bank(seeds.MALWARE_FAMILIES)[0]
            actor_bank = seeds.split_bank(seeds.THREAT_ACTORS)[0]
            technique_bank = seeds.split_bank(seeds.TECHNIQUES)[0]
            tool_bank = seeds.split_bank(seeds.TOOLS)[0]
            software_bank = seeds.split_bank(seeds.SOFTWARE)[0]
        else:
            malware_bank = list(seeds.MALWARE_FAMILIES)
            actor_bank = list(seeds.THREAT_ACTORS)
            technique_bank = list(seeds.TECHNIQUES)
            tool_bank = list(seeds.TOOLS)
            software_bank = list(seeds.SOFTWARE)
        malware, secondary = rng.sample(malware_bank, 2)
        actor, secondary_actor = rng.sample(actor_bank, 2)
        techniques = [name for _tid, name in rng.sample(technique_bank, 4)]
        domains = [iocgen.make_domain(rng) for _ in range(rng.randint(2, 4))]
        file_names = [iocgen.make_file_name(rng) for _ in range(rng.randint(2, 4))]
        return cls(
            scenario_id=scenario_id,
            malware=malware,
            secondary_malware=secondary,
            actor=actor,
            secondary_actor=secondary_actor,
            techniques=techniques,
            tools=rng.sample(tool_bank, 3),
            software=rng.sample(software_bank, 2),
            cves=[iocgen.make_cve(rng) for _ in range(rng.randint(1, 2))],
            sector=rng.choice(seeds.SECTORS),
            ips=[iocgen.make_ip(rng) for _ in range(rng.randint(2, 4))],
            domains=domains,
            urls=[iocgen.make_url(rng, rng.choice(domains)) for _ in range(2)],
            emails=[iocgen.make_email(rng) for _ in range(rng.randint(1, 2))],
            hashes=[iocgen.make_hash(rng) for _ in range(rng.randint(2, 4))],
            file_names=file_names,
            file_paths=[
                iocgen.make_file_path(rng, rng.choice(file_names)) for _ in range(2)
            ],
            registry_keys=[iocgen.make_registry_key(rng)],
        )

    def slot_value(self, slot: str, rng: random.Random) -> str:
        """Concrete value for a template slot, drawn from this scenario."""
        providers = {
            "malware": lambda: self.malware,
            "malware2": lambda: self.secondary_malware,
            "actor": lambda: self.actor,
            "actor2": lambda: self.secondary_actor,
            "technique": lambda: self.techniques[0],
            "technique2": lambda: rng.choice(self.techniques[1:]),
            "tool": lambda: rng.choice(self.tools),
            "software": lambda: rng.choice(self.software),
            "cve": lambda: rng.choice(self.cves),
            "sector": lambda: self.sector,
            "ip": lambda: rng.choice(self.ips),
            "domain": lambda: rng.choice(self.domains),
            "url": lambda: rng.choice(self.urls),
            "email": lambda: rng.choice(self.emails),
            "hash": lambda: rng.choice(self.hashes),
            "file_name": lambda: rng.choice(self.file_names),
            "file_path": lambda: rng.choice(self.file_paths),
            "registry": lambda: rng.choice(self.registry_keys),
            "vendor": lambda: rng.choice(seeds.VENDORS),
        }
        try:
            return providers[slot]()
        except KeyError:
            raise KeyError(f"unknown template slot {slot!r}") from None


#: IOC slot kind -> ontology entity type, for the appendix table.
IOC_KINDS: tuple[tuple[str, EntityType], ...] = (
    ("ips", EntityType.IP),
    ("domains", EntityType.DOMAIN),
    ("urls", EntityType.URL),
    ("emails", EntityType.EMAIL),
    ("hashes", EntityType.HASH),
    ("file_names", EntityType.FILE_NAME),
    ("file_paths", EntityType.FILE_PATH),
    ("registry_keys", EntityType.REGISTRY),
)


@dataclass
class GroundTruth:
    """Complete annotations for one generated report."""

    sentences: list[GeneratedSentence] = field(default_factory=list)
    iocs: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class ReportContent:
    """The logical content of one OSCTI report before HTML rendering."""

    scenario: ThreatScenario
    category: str
    title: str
    vendor: str
    published: str
    summary: str
    sections: list[tuple[str, list[str]]]
    structured_fields: dict[str, str]
    ioc_table: dict[str, list[str]]
    truth: GroundTruth


_SECTION_HEADINGS: tuple[str, ...] = (
    "Overview",
    "Technical Analysis",
    "Infection Chain",
    "Command and Control",
    "Persistence",
    "Impact",
    "Attribution",
    "Recommendations",
)

_TITLE_PATTERNS: dict[str, tuple[str, ...]] = {
    "malware": (
        "{Malware}: anatomy of an evolving threat",
        "Dissecting the {Malware} malware family",
        "{Malware} returns with upgraded capabilities",
        "Inside the {Malware} infection chain",
    ),
    "vulnerability": (
        "{cve}: exploitation of {software} in the wild",
        "Critical flaw {cve} puts {software} deployments at risk",
        "Patch now: {cve} actively exploited against {software}",
    ),
    "attack": (
        "{Actor} campaign strikes {sector}",
        "Tracking {Actor}: new operations against {sector}",
        "{Actor} intrusions expand to {sector}",
    ),
}


#: CTI vendors spell the same family differently ("agent tesla" vs
#: "AgentTesla" vs "agent_tesla").  Each vendor consistently uses one
#: convention in its structured fact sheets, which is precisely the
#: situation the paper's knowledge-fusion stage exists to resolve
#: (section 2.5: "same malware represented in different naming
#: conventions by different CTI vendors").
def vendor_naming_style(vendor: str):
    """The naming convention a vendor applies to threat names."""
    styles = (
        lambda name: name.title(),  # "Agent Tesla"
        lambda name: "".join(part.title() for part in name.split()),  # "AgentTesla"
        lambda name: name.replace(" ", "_"),  # "agent_tesla"
        lambda name: name.replace(" ", "-"),  # "agent-tesla"
    )
    digest = sum(ord(ch) for ch in vendor)
    return styles[digest % len(styles)]


def _pick_date(rng: random.Random) -> str:
    year = rng.randint(2019, 2021)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"


def generate_report_content(
    scenario: ThreatScenario,
    rng: random.Random,
    category: str | None = None,
    vendor: str | None = None,
    sentence_count: int = 10,
    ioc_fraction: float = 0.8,
) -> ReportContent:
    """Realise one report about ``scenario``.

    ``ioc_fraction`` controls how much of the scenario's IOC pool this
    particular report discloses -- different sources reporting on the
    same scenario overlap but do not coincide, which exercises the
    cross-report merge logic.
    """
    category = category or rng.choice(CATEGORIES)
    vendor = vendor or rng.choice(seeds.VENDORS)
    title_pattern = rng.choice(_TITLE_PATTERNS[category])
    title = title_pattern.format(
        Malware=scenario.malware.title(),
        Actor=scenario.actor.title(),
        cve=scenario.cves[0],
        software=scenario.software[0],
        sector=scenario.sector,
    )

    truth = GroundTruth()
    plan = pick_templates(rng, sentence_count)
    realized: list[str] = []
    for item in plan:
        if isinstance(item, Template):
            values = {
                slot: scenario.slot_value(slot, rng) for slot in template_slots(item)
            }
            sentence = realize(item, values)
            truth.sentences.append(sentence)
            realized.append(sentence.text)
        else:
            truth.sentences.append(GeneratedSentence(text=item))
            realized.append(item)

    summary = realized[0] if realized else ""
    body = realized[1:]
    headings = rng.sample(_SECTION_HEADINGS, k=min(3, len(_SECTION_HEADINGS)))
    sections: list[tuple[str, list[str]]] = []
    if body:
        chunk = max(1, len(body) // len(headings))
        for index, heading in enumerate(headings):
            start = index * chunk
            end = None if index == len(headings) - 1 else (index + 1) * chunk
            chunk_sentences = body[start:end]
            if chunk_sentences:
                sections.append((heading, chunk_sentences))

    ioc_table: dict[str, list[str]] = {}
    for attr, kind in IOC_KINDS:
        values = list(getattr(scenario, attr))
        rng.shuffle(values)
        keep = max(1, round(len(values) * ioc_fraction))
        ioc_table[kind.value] = values[:keep]
    truth.iocs = {kind: list(values) for kind, values in ioc_table.items()}

    structured_fields = {
        "Threat name": vendor_naming_style(vendor)(scenario.malware),
        "Category": category,
        "First seen": _pick_date(rng),
        "Severity": rng.choice(["low", "medium", "high", "critical"]),
        "Associated actor": scenario.actor.title(),
    }
    if category == "vulnerability":
        structured_fields["CVE"] = scenario.cves[0]
        structured_fields["Affected software"] = scenario.software[0]

    return ReportContent(
        scenario=scenario,
        category=category,
        title=title,
        vendor=vendor,
        published=_pick_date(rng),
        summary=summary,
        sections=sections,
        structured_fields=structured_fields,
        ioc_table=ioc_table,
        truth=truth,
    )


def make_scenarios(
    count: int, seed: int = 7, known_only: bool = False
) -> list[ThreatScenario]:
    """Generate ``count`` deterministic scenarios from a master seed."""
    rng = random.Random(seed)
    return [
        ThreatScenario.generate(index, rng, known_only=known_only)
        for index in range(count)
    ]


__all__ = [
    "CATEGORIES",
    "vendor_naming_style",
    "GroundTruth",
    "IOC_KINDS",
    "ReportContent",
    "ThreatScenario",
    "generate_report_content",
    "make_scenarios",
]
