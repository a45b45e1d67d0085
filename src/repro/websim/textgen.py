"""Template-based threat narrative generator with ground truth.

Report body text is produced from sentence templates whose slots are
typed by the ontology.  Because the generator knows exactly which span
realises which slot, every sentence comes with gold entity mentions and
gold relations -- the ground truth the extraction benchmarks (E4-E7)
score against, something the live web cannot provide.

Templates embed relation verbs from the ontology's verb vocabulary, so
dependency-path relation extraction has a recoverable signal, and they
surround entity slots with the contextual cue words ("ransomware",
"threat actor", "a tool known as") that let a CRF generalise to entity
names absent from its training gazetteer.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.ontology.entities import EntityType

#: Slot kind -> ontology entity type (``None`` = not an entity).
SLOT_TYPES: dict[str, EntityType | None] = {
    "malware": EntityType.MALWARE,
    "malware2": EntityType.MALWARE,
    "actor": EntityType.THREAT_ACTOR,
    "actor2": EntityType.THREAT_ACTOR,
    "technique": EntityType.TECHNIQUE,
    "technique2": EntityType.TECHNIQUE,
    "tool": EntityType.TOOL,
    "software": EntityType.SOFTWARE,
    "cve": EntityType.VULNERABILITY,
    "file_name": EntityType.FILE_NAME,
    "file_path": EntityType.FILE_PATH,
    "ip": EntityType.IP,
    "domain": EntityType.DOMAIN,
    "url": EntityType.URL,
    "email": EntityType.EMAIL,
    "hash": EntityType.HASH,
    "registry": EntityType.REGISTRY,
    "sector": None,
    "vendor": None,
}


@dataclass(frozen=True)
class Template:
    """One sentence template.

    ``pattern`` contains ``{slot}`` placeholders; ``relations`` lists
    ``(head_slot, verb, tail_slot)`` triples realised by the sentence.
    """

    pattern: str
    relations: tuple[tuple[str, str, str], ...] = ()


@dataclass
class GoldMention:
    """Gold entity span within one generated sentence."""

    text: str
    type: EntityType
    start: int
    end: int


@dataclass
class GoldRelation:
    """Gold relation realised by one generated sentence."""

    head_text: str
    head_type: EntityType
    verb: str
    tail_text: str
    tail_type: EntityType


@dataclass
class GeneratedSentence:
    """A realised sentence plus its gold annotations."""

    text: str
    mentions: list[GoldMention] = field(default_factory=list)
    relations: list[GoldRelation] = field(default_factory=list)


#: Narrative templates.  Kept as data so tests/benchmarks can reason
#: about coverage (every relation verb family appears at least once).
TEMPLATES: tuple[Template, ...] = (
    Template(
        "The {malware} ransomware dropped {file_name} on infected hosts.",
        (("malware", "dropped", "file_name"),),
    ),
    Template(
        "Once executed, {malware} drops a copy of itself as {file_path} and "
        "encrypts {file_name} across mapped drives.",
        (("malware", "drops", "file_path"), ("malware", "encrypts", "file_name")),
    ),
    Template(
        "Researchers observed that {malware} connects to {ip} over port 443.",
        (("malware", "connects", "ip"),),
    ),
    Template(
        "The {malware} trojan communicates with its command server at {domain}.",
        (("malware", "communicates", "domain"),),
    ),
    Template(
        "During the infection chain, {malware} downloads a second stage from {url}.",
        (("malware", "downloads", "url"),),
    ),
    Template(
        "The loader beacons to {domain} and retrieves {malware2} as the final payload.",
        (),
    ),
    Template(
        "{malware} exploits {cve} in {software} to gain initial access.",
        (("malware", "exploits", "cve"),),
    ),
    Template(
        "The campaign targets {software} installations exposed to the internet.",
        (),
    ),
    Template(
        "The threat actor {actor} uses {technique} to establish persistence.",
        (("actor", "uses", "technique"),),
    ),
    Template(
        "Analysts attribute the intrusion to {actor}, a group that leverages "
        "{tool} during lateral movement.",
        (("actor", "leverages", "tool"),),
    ),
    Template(
        "{actor} deployed {malware} against {sector} throughout the campaign.",
        (("actor", "deployed", "malware"),),
    ),
    Template(
        "The group known as {actor} employs {technique} and {technique2} in "
        "its playbook.",
        (("actor", "employs", "technique"), ("actor", "employs", "technique2")),
    ),
    Template(
        "Operators behind {malware} modified {registry} to survive reboots.",
        (("malware", "modified", "registry"),),
    ),
    Template(
        "On launch, the sample creates {registry} pointing to {file_path}.",
        (),
    ),
    Template(
        "{malware} sends stolen credentials to {email} via encrypted mail.",
        (("malware", "sends", "email"),),
    ),
    Template(
        "The phishing wave spreads {malware} through messages from {email}.",
        (),
    ),
    Template(
        "A sample with hash {hash} was identified as a {malware} variant.",
        (),
    ),
    Template(
        "The dropper, tracked by the digest {hash}, writes {file_name} into "
        "the temporary folder.",
        (),
    ),
    Template(
        "{malware} spreads via {technique}, abusing unpatched {software} hosts.",
        (("malware", "spreads", "technique"),),
    ),
    Template(
        "Victims reported that {malware} deleted {file_name} and wiped volume "
        "shadow copies.",
        (("malware", "deleted", "file_name"),),
    ),
    Template(
        "The implant executes {tool} to harvest credentials from memory.",
        (),
    ),
    Template(
        "{actor} executed {tool} on the domain controller before staging data.",
        (("actor", "executed", "tool"),),
    ),
    Template(
        "The backdoor {malware} runs {file_name} with elevated privileges.",
        (("malware", "runs", "file_name"),),
    ),
    Template(
        "Telemetry links {malware} to {actor} with high confidence.",
        (("malware", "links", "actor"),),
    ),
    Template(
        "{malware} is attributed to {actor} based on shared infrastructure.",
        (("malware", "attributed", "actor"),),
    ),
    Template(
        "The vulnerability {cve} affects {software} versions prior to the patch.",
        (("cve", "affects", "software"),),
    ),
    Template(
        "Attackers exploit {cve} to deploy {malware} on vulnerable servers.",
        (),
    ),
    Template(
        "{actor} targets {sector} using spearphishing emails sent from {email}.",
        (),
    ),
    Template(
        "The intrusion set {actor} abuses {software} management interfaces "
        "reachable from {ip}.",
        (("actor", "abuses", "software"),),
    ),
    Template(
        "After encryption, {malware} contacts {url} to register the victim.",
        (("malware", "contacts", "url"),),
    ),
    Template(
        "The worm component of {malware} propagates via {technique} inside "
        "flat networks.",
        (("malware", "propagates", "technique"),),
    ),
    Template(
        "Defenders should block {domain} and {ip}, both used by {malware} "
        "for command and control.",
        (),
    ),
    Template(
        "A scheduled task launches {file_path} every fifteen minutes.",
        (),
    ),
    Template(
        "The {malware} stealer utilizes {tool} to disable endpoint defenses.",
        (("malware", "utilizes", "tool"),),
    ),
    Template(
        "{actor} compromised a supplier and distributed {malware} through "
        "signed updates.",
        (("actor", "distributed", "malware"),),
    ),
    Template(
        "Forensic review tied the mail sender {email} to {actor} infrastructure.",
        (),
    ),
    Template(
        "{malware} tampers with {registry} to disable real-time protection.",
        (("malware", "tampers", "registry"),),
    ),
    Template(
        "The second stage is fetched from {url} and saved as {file_path}.",
        (),
    ),
    Template(
        "{malware2} is considered a variant of {malware} by several vendors.",
        (),
    ),
    Template(
        "Incident responders found {tool} artifacts alongside {malware} binaries.",
        (),
    ),
    Template(
        "The actor {actor} exfiltrates archives over {domain} using {technique}.",
        (("actor", "exfiltrates", "domain"),),
    ),
    Template(
        "Weeks before detection, {actor} infected {software} build servers.",
        (("actor", "infected", "software"),),
    ),
)

#: Entity-free distractor sentences; they teach the CRF what *not* to
#: tag and stress sentence segmentation with ordinary punctuation.
DISTRACTORS: tuple[str, ...] = (
    "Organizations are urged to apply the latest security updates promptly.",
    "Network segmentation remains one of the most effective mitigations.",
    "The investigation is ongoing and additional details will be published.",
    "Administrators should review authentication logs for unusual activity.",
    "Backups must be kept offline to survive destructive attacks.",
    "No customer data is believed to have been accessed at this time.",
    "Security teams shared the findings with national response agencies.",
    "The patch was released on Tuesday as part of the monthly cycle.",
    "Multi-factor authentication significantly raises the cost of intrusion.",
    "Researchers continue to monitor the infrastructure for new activity.",
    "Employees reported suspicious messages to the internal response team.",
    "The advisory includes detection rules for common endpoint platforms.",
)

_SLOT_RE = re.compile(r"\{(\w+)\}")


def realize(
    template: Template, values: dict[str, str]
) -> GeneratedSentence:
    """Fill a template with concrete slot values.

    ``values`` must provide every slot that appears in the pattern.
    Returns the sentence with exact character spans for entity slots
    and the template's declared relations bound to the filled values.
    """
    parts: list[str] = []
    spans: dict[str, tuple[int, int, str]] = {}
    cursor = 0
    last = 0
    for match in _SLOT_RE.finditer(template.pattern):
        literal = template.pattern[last : match.start()]
        parts.append(literal)
        cursor += len(literal)
        slot = match.group(1)
        if slot not in values:
            raise KeyError(f"template slot {slot!r} missing a value")
        value = values[slot]
        spans[slot] = (cursor, cursor + len(value), value)
        parts.append(value)
        cursor += len(value)
        last = match.end()
    parts.append(template.pattern[last:])
    text = "".join(parts)

    mentions = [
        GoldMention(text=value, type=SLOT_TYPES[slot], start=start, end=end)
        for slot, (start, end, value) in spans.items()
        if SLOT_TYPES.get(slot) is not None
    ]
    mentions.sort(key=lambda m: m.start)

    relations = []
    for head_slot, verb, tail_slot in template.relations:
        head_type = SLOT_TYPES[head_slot]
        tail_type = SLOT_TYPES[tail_slot]
        if head_type is None or tail_type is None:
            continue
        relations.append(
            GoldRelation(
                head_text=spans[head_slot][2],
                head_type=head_type,
                verb=verb,
                tail_text=spans[tail_slot][2],
                tail_type=tail_type,
            )
        )
    return GeneratedSentence(text=text, mentions=mentions, relations=relations)


def template_slots(template: Template) -> list[str]:
    """The slot names appearing in a template's pattern, in order."""
    return _SLOT_RE.findall(template.pattern)


def pick_templates(rng: random.Random, count: int) -> list[Template | str]:
    """Choose a narrative plan: templates, a quarter of them swapped
    for distractor strings."""
    plan: list[Template | str] = []
    for _ in range(count):
        if rng.random() < 0.25:
            plan.append(rng.choice(DISTRACTORS))
        else:
            plan.append(rng.choice(TEMPLATES))
    return plan


__all__ = [
    "DISTRACTORS",
    "GeneratedSentence",
    "GoldMention",
    "GoldRelation",
    "SLOT_TYPES",
    "TEMPLATES",
    "Template",
    "pick_templates",
    "realize",
    "template_slots",
]
