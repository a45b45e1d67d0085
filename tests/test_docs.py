"""Docs drift sweeps: serving surfaces must match their documentation.

Two contracts, each checked in *both* directions so neither the code
nor the docs can drift silently:

* every UI route in :data:`repro.ui.server.ROUTES` appears in the
  ``ui/server.py`` module docstring's route table, and every
  ``GET/POST /path`` token in that table is a registered route;
* every CLI subcommand registered on the argparse parser appears in the
  ``repro.cli`` module docstring's usage examples, and every
  ``python -m repro <command>`` example names a real subcommand.

DISSEMINATION.md is part of the serving story: the feeds routes and
the ``feed`` subcommand must be documented there too.

A third sweep keeps the configuration honest: every
:class:`~repro.core.config.SystemConfig` field must be read by some
module other than ``core/config.py`` -- a key nothing consumes is an
option that documents itself as "ignored".

A fourth keeps the lint rule catalogue in step: the rule headings of the
``repro.analysis.lint`` docstring and the rows of README's lint table
name the same rules, and ROADMAP's standing invariants name every
``det/*`` and ``conc/*`` rule and no rule that does not exist.
"""

import argparse
import re
from pathlib import Path

import repro.cli as cli
import repro.ui.server as server

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``\`\`GET  /path\`\``` tokens in the route table (method + path in
#: one literal), tolerant of column-alignment whitespace.
ROUTE_TOKEN = re.compile(r"``(GET|POST)\s+(/[^`\s]+)``")

#: ``python -m repro <command>`` usage examples in the CLI docstring.
CLI_EXAMPLE = re.compile(r"python -m repro\s+([a-z][a-z0-9-]*)")


def documented_routes() -> set[tuple[str, str]]:
    return {
        (method, path)
        for method, path in ROUTE_TOKEN.findall(server.__doc__)
    }


def cli_subcommands() -> set[str]:
    parser = cli.build_parser()
    actions = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert len(actions) == 1
    return set(actions[0].choices)


class TestUiRouteTable:
    def test_every_route_is_documented(self):
        documented = documented_routes()
        for method, path in server.ROUTES:
            assert (method, path) in documented or path in server.__doc__, (
                f"route {method} {path} is served but missing from the "
                "ui/server.py docstring table"
            )

    def test_every_documented_route_exists(self):
        for method, path in documented_routes():
            assert (method, path) in server.ROUTES, (
                f"docstring documents {method} {path} but ROUTES does not "
                "serve it"
            )

    def test_feeds_routes_are_served(self):
        assert ("GET", "/feeds") in server.ROUTES
        assert ("GET", "/feeds/<tier>") in server.ROUTES

    def test_registry_matches_dispatch(self):
        """Spot-check the registry against the live dispatcher: every
        GET route without a placeholder answers something other than
        404, and an unregistered path answers exactly 404."""
        from repro.core.config import SystemConfig
        from repro.core.system import SecurityKG

        api = server.ExplorerAPI(
            SecurityKG(
                SystemConfig(
                    scenario_count=3, reports_per_site=1,
                    sources=["ThreatPedia"], connectors=["graph", "search"],
                    clock="virtual",
                )
            )
        )
        for method, path in server.ROUTES:
            if method != "GET" or "<" in path:
                continue
            status, _payload, _headers = api.handle_full(method, path)
            assert status != 404, f"registered route {method} {path} 404s"
        status, _payload, _headers = api.handle_full("GET", "/api/nonsense")
        assert status == 404


class TestConfigKeys:
    def test_every_config_field_is_read_outside_config(self):
        import dataclasses

        from repro.core.config import SystemConfig

        src = REPO_ROOT / "src" / "repro"
        sources = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted(src.rglob("*.py"))
            if path != src / "core" / "config.py"
        )
        for field in dataclasses.fields(SystemConfig):
            assert re.search(rf"\.{field.name}\b", sources), (
                f"SystemConfig.{field.name} is read by no module under "
                "src/ other than core/config.py"
            )


class TestCliDocstring:
    def test_every_subcommand_has_a_usage_example(self):
        documented = set(CLI_EXAMPLE.findall(cli.__doc__))
        for name in cli_subcommands():
            assert name in documented, (
                f"CLI subcommand {name!r} has no usage example in the "
                "repro.cli docstring"
            )

    def test_every_usage_example_is_a_subcommand(self):
        known = cli_subcommands()
        for name in CLI_EXAMPLE.findall(cli.__doc__):
            assert name in known, (
                f"repro.cli docstring shows `python -m repro {name}` but "
                f"no such subcommand exists"
            )

    def test_feed_subcommands(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            ["feed", "export", "--out-dir", "/tmp/x", "--tier", "public"]
        )
        assert args.feed_command == "export"
        args = parser.parse_args(["feed", "serve", "--port", "0"])
        assert args.feed_command == "serve"


class TestProfilingDoc:
    def test_profile_subcommand_is_parseable(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            ["profile", "--from-trace", "t.jsonl", "--flame", "out.folded"]
        )
        assert args.flame == "out.folded"
        args = parser.parse_args(
            ["profile", "--from-trace", "t.jsonl", "--json", "--top", "5"]
        )
        assert args.json and args.top == 5

    def test_observability_md_documents_profiling(self):
        text = (REPO_ROOT / "OBSERVABILITY.md").read_text(encoding="utf-8")
        for needle in (
            "repro profile",
            "--from-trace",
            "--flame",
            "self_s",
            "GET /profile",
            "PROFILE MATCH",
        ):
            assert needle in text, (
                f"OBSERVABILITY.md never mentions {needle!r}"
            )

    def test_readme_shows_profile_quickstart(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "repro profile" in readme
        assert "PROFILE MATCH" in readme


class TestDisseminationDoc:
    def test_dissemination_md_exists(self):
        assert (REPO_ROOT / "DISSEMINATION.md").exists()

    def test_core_contract_is_documented(self):
        text = (REPO_ROOT / "DISSEMINATION.md").read_text(encoding="utf-8")
        for needle in (
            "/feeds/<tier>",
            "public",
            "partner",
            "internal",
            "TLP",
            "cursor",
            "ETag",
            "If-None-Match",
            "X-API-Key",
            "feed_keys",
            "repro feed export",
        ):
            assert needle in text, f"DISSEMINATION.md never mentions {needle!r}"

    def test_cross_linked(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        assert "DISSEMINATION.md" in readme
        assert "DISSEMINATION.md" in design


class TestLintRuleCatalogue:
    RULE = r"[a-z]+/[a-z-]+"

    def lint_rules(self) -> set[str]:
        import repro.analysis.lint as lint

        return set(re.findall(rf"^``({self.RULE})``$", lint.__doc__, re.MULTILINE))

    def test_readme_table_matches_the_lint_docstring(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        table = set(re.findall(rf"^\s*\| `({self.RULE})` \|", readme, re.MULTILINE))
        assert table == self.lint_rules()

    def test_roadmap_invariants_name_real_rules(self):
        roadmap = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8")
        invariants = roadmap.split("### Standing invariants", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(rf"`({self.RULE})`", invariants))
        rules = self.lint_rules()
        assert named <= rules, f"ROADMAP names unknown lint rules: {named - rules}"
        must = {rule for rule in rules if rule.startswith(("det/", "conc/"))}
        assert must <= named, f"ROADMAP invariants omit: {must - named}"
