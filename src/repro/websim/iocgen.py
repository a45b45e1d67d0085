"""Deterministic IOC value generators.

Produces the low-level indicator strings embedded in synthetic reports:
IPs, domains, URLs, emails, hashes, file names/paths, registry keys and
CVE identifiers.  All generators draw from a caller-supplied
``random.Random`` so corpora are reproducible from a seed.

The values intentionally carry the "massive nuances" the paper calls
out -- dots, underscores, backslashes, long hex runs -- which is what
breaks naive tokenization and motivates IOC protection.
"""

from __future__ import annotations

import random

from repro.websim import seeds


def make_ip(rng: random.Random) -> str:
    """A routable-looking IPv4 address (avoids 0/255 octet edges)."""
    return ".".join(str(rng.randint(1, 254)) for _ in range(4))


def make_domain(rng: random.Random) -> str:
    """A plausible C2 domain like ``update-relay3.xyz``."""
    first = rng.choice(seeds.DOMAIN_WORDS)
    second = rng.choice(seeds.DOMAIN_WORDS)
    sep = rng.choice(["-", "", "."])
    label = f"{first}{sep}{second}" if first != second else f"{first}{rng.randint(2, 99)}"
    if rng.random() < 0.35:
        label = f"{label}{rng.randint(2, 9)}"
    return f"{label}{rng.choice(seeds.TLDS)}"


def make_url(rng: random.Random, domain: str | None = None) -> str:
    """A full URL, optionally over a given domain."""
    domain = domain or make_domain(rng)
    scheme = rng.choice(["http", "https"])
    path_bits = rng.sample(seeds.DOMAIN_WORDS, k=rng.randint(1, 3))
    path = "/".join(path_bits)
    suffix = rng.choice(["", ".php", ".aspx", "/gate", "?id=" + str(rng.randint(100, 999))])
    return f"{scheme}://{domain}/{path}{suffix}"


def make_email(rng: random.Random, domain: str | None = None) -> str:
    """A spearphishing-style sender address."""
    domain = domain or make_domain(rng)
    user = rng.choice(seeds.EMAIL_USERS)
    if rng.random() < 0.4:
        user = f"{user}{rng.choice(['.', '_'])}{rng.randint(1, 99)}"
    return f"{user}@{domain}"


_HEX = "0123456789abcdef"


def make_hash(rng: random.Random, algorithm: str | None = None) -> str:
    """A hash digest; algorithm picked among md5/sha1/sha256 if unset."""
    algorithm = algorithm or rng.choice(["md5", "sha1", "sha256"])
    length = {"md5": 32, "sha1": 40, "sha256": 64}[algorithm]
    return "".join(rng.choice(_HEX) for _ in range(length))


def make_file_name(rng: random.Random) -> str:
    """A dropped-file name like ``invoice_scan.docm``."""
    stem = rng.choice(seeds.FILE_STEMS)
    if rng.random() < 0.4:
        stem = f"{stem}{rng.choice(['_', '-', ''])}{rng.choice(seeds.FILE_STEMS)}"
    if rng.random() < 0.3:
        stem = f"{stem}{rng.randint(1, 99)}"
    return f"{stem}{rng.choice(seeds.FILE_EXTENSIONS)}"


def make_file_path(rng: random.Random, file_name: str | None = None) -> str:
    """A Windows absolute path to a (possibly given) file name."""
    file_name = file_name or make_file_name(rng)
    return f"{rng.choice(seeds.WINDOWS_DIRS)}\\{file_name}"


def make_registry_key(rng: random.Random) -> str:
    """A persistence-flavoured registry key with a value name."""
    hive = rng.choice(seeds.REGISTRY_HIVES)
    value = rng.choice(seeds.FILE_STEMS)
    return f"{hive}\\{value}"


def make_cve(rng: random.Random) -> str:
    """A CVE identifier in the 2014-2021 range."""
    year = rng.randint(2014, 2021)
    number = rng.randint(1000, 49999)
    return f"CVE-{year}-{number}"


__all__ = [
    "make_cve",
    "make_domain",
    "make_email",
    "make_file_name",
    "make_file_path",
    "make_hash",
    "make_ip",
    "make_registry_key",
    "make_url",
]
