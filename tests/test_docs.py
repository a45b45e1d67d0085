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

A fifth is the admission rule for ``src/`` itself: a public definition
needs a caller that is not a test, and a constructor option a caller
that sets it (:class:`TestCallerCount`).
"""

import argparse
import ast
import re
from fnmatch import fnmatchcase
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


class TestCallerCount:
    """Every non-underscore function, class and method defined under
    ``src/repro`` is loaded -- as an AST ``Name`` or ``Attribute``, so
    by name -- somewhere in ``src/``, ``benchmarks/`` or ``examples/``
    outside its own definition, and every defaulted ``__init__``
    parameter is passed by some caller, tests included.  What neither
    holds for is deleted or listed here with the reason it stays; an
    entry that excuses nothing fails too."""

    WITNESS = (
        "pytest instrumentation: tests/conftest.py runs every session "
        "under the lock-order witness"
    )
    WEBSIM = "websim ground truth that crawl and extraction tests score against"
    ALLOWED_DEFINITIONS = {
        "LockOrderWitness.*": WITNESS,
        "analyze_package": WITNESS,
        "ConcurrencyModel.lock_names": WITNESS,
        "ConcurrencyModel.hierarchy_lines": (
            "the rows of CONCURRENCY.md, which tests/test_concurrency.py "
            "holds the file to"
        ),
        "*.Handler.*": "http.server calls a handler's methods by name",
        "Site.ground_truth": WEBSIM,
        "Site.index_url": WEBSIM,
        "Web.site_by_name": WEBSIM,
        "import_bundle": (
            "the export tests' round-trip reference and ROADMAP item 5's "
            "fuzz target"
        ),
        "canonical_bundle": "the form that round trip is compared in",
        "*Tracer.open_span_count": (
            "span-leak probe the obs tests read after every crash path"
        ),
        "CrashInjector.seeded": (
            "fault injection for the recovery property tests; nothing "
            "ships armed"
        ),
    }
    ALLOWED_OPTIONS = {
        "ExplorerServer.host": "the bind address, a deployment setting",
    }

    @staticmethod
    def trees(*roots: str) -> dict[Path, ast.Module]:
        return {
            path: ast.parse(path.read_text(encoding="utf-8"))
            for root in roots
            for path in sorted((REPO_ROOT / root).rglob("*.py"))
        }

    @staticmethod
    def definitions(trees):
        """``(path, qualified name, node)`` of every def / class under src/."""
        for path, tree in trees.items():
            if REPO_ROOT / "src" not in path.parents:
                continue
            stack = [(tree, "")]
            while stack:
                parent, prefix = stack.pop()
                for node in ast.iter_child_nodes(parent):
                    if isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        yield path, prefix + node.name, node
                        stack.append((node, f"{prefix}{node.name}."))
                    elif not isinstance(node, ast.expr):
                        stack.append((node, prefix))

    @staticmethod
    def check(flagged: set[str], allowed: dict[str, str], what: str) -> None:
        excused = {n for n in flagged if any(fnmatchcase(n, p) for p in allowed)}
        assert flagged == excused, (
            f"{what}: delete, or allow-list with a reason: "
            f"{sorted(flagged - excused)}"
        )
        stale = [p for p in allowed if not any(fnmatchcase(n, p) for n in flagged)]
        assert not stale, f"{what}: allow-list entries that excuse nothing: {stale}"

    def test_every_public_definition_has_a_caller_outside_tests(self):
        trees = self.trees("src", "benchmarks", "examples")
        loads: dict[str, list[tuple[Path, int]]] = {}
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                    node.ctx, ast.Load
                ):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    loads.setdefault(name, []).append((path, node.lineno))
        flagged = {
            qualified
            for path, qualified, node in self.definitions(trees)
            if not node.name.startswith("_")
            and all(
                where == path and node.lineno <= line <= node.end_lineno
                for where, line in loads.get(node.name, [])
            )
        }
        self.check(flagged, self.ALLOWED_DEFINITIONS, "definitions only tests call")

    def test_every_constructor_option_is_set_by_some_caller(self):
        trees = self.trees("src", "benchmarks", "examples", "tests")
        classes = [
            (path, node)
            for path, _name, node in self.definitions(trees)
            if isinstance(node, ast.ClassDef)
        ]
        calls: dict[str, list[tuple[Path, ast.Call]]] = {}
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, (ast.Name, ast.Attribute)
                ):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else func.attr
                    calls.setdefault(name, []).append((path, node))

        def inside(cls_path, cls_node, site):
            path, call = site
            return (
                path == cls_path
                and cls_node.lineno <= call.lineno <= cls_node.end_lineno
            )

        flagged = set()
        for path, cls in classes:
            init = next(
                (
                    n
                    for n in cls.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            args = init.args
            positional = [a.arg for a in args.posonlyargs + args.args][1:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                a.arg
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            # C(...), cls(...) inside C, and __init__(...) inside a subclass
            sites = calls.get(cls.name, []) + [
                site for site in calls.get("cls", []) if inside(path, cls, site)
            ]
            for sub_path, sub in classes:
                bases = {
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                    for b in sub.bases
                }
                if cls.name in bases:
                    sites += [
                        site
                        for site in calls.get("__init__", [])
                        if inside(sub_path, sub, site)
                    ]
            passed = set()
            for _path, call in sites:
                if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords
                ):
                    passed.update(defaulted)
                passed.update(positional[: len(call.args)])
                passed.update(k.arg for k in call.keywords)
            flagged.update(f"{cls.name}.{p}" for p in defaulted if p not in passed)
        self.check(flagged, self.ALLOWED_OPTIONS, "options no caller sets")
