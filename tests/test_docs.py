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
needs a caller that is not a test, and a constructor option or a
defaulted parameter a caller that is not a test and sets it
(:class:`TestCallerCount`).
"""

import argparse
import ast
import re
import textwrap
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

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


    def test_readme_config_table_matches_the_fields(self):
        """README states the field count, and each row of its
        configuration table names real fields with their defaults."""
        import dataclasses

        from repro.core.config import SystemConfig

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### Configuration\n", 1)[1].split("\n#", 1)[0]
        assert f"({len(dataclasses.fields(SystemConfig))} fields," in section
        defaults = SystemConfig()
        table = section.split("| field |", 1)[1].split("\n\n", 1)[0]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        assert rows
        for row in rows:
            names_cell, defaults_cell = row.split(" | ")[:2]
            names = re.findall(r"`(\w+)`", names_cell)
            shown = [cell.strip("` ") for cell in defaults_cell.split(" / ")]
            expected = [
                f'"{value}"' if isinstance(value, str) else str(value)
                for value in (getattr(defaults, name) for name in names)
            ]
            assert shown == expected, row


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
        # the /feeds routes are served by `serve`; `feed` only exports
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["feed", "serve", "--port", "0"])
        assert exit_info.value.code == 2


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
    outside its own definition.  Every defaulted ``__init__`` parameter
    is passed by some shipped construction, and every defaulted
    parameter of a public function or method by some shipped call of
    that name; a test setting a knob does not make it one.  What none
    of the three holds for is deleted or listed here with the reason it
    stays; an entry that excuses nothing fails too."""

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
    #: Where a caller counts: the code that ships, not its tests.
    SHIPPED = ("src", "benchmarks", "examples")
    ALLOWED_OPTIONS = {
        "ExplorerServer.host": "the bind address, a deployment setting",
    }
    ALLOWED_PARAMETERS = {
        "main.out": (
            "test seam: the output stream the CLI and lint tests read; "
            "the console entry points write to stdout"
        ),
        "LockOrderWitness.enable.hierarchy": (
            "test seam: the static lock hierarchy tests/conftest.py "
            "installs for the session"
        ),
        "LockOrderWitness.violations.known_names": (
            "test seam: the analyzer's lock names, outside which "
            "tests/conftest.py ignores an observed edge"
        ),
        "WitnessLock.acquire.timeout": (
            "interface conformance: a drop-in for threading.Lock.acquire"
        ),
        "ExplorerAPI.handle.body": "a data input: the request body",
        "simulate.seed": "a data input: the audit log's seed",
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

    @staticmethod
    def calls(trees) -> dict[str, list[tuple[Path, ast.Call]]]:
        """Every call made in a shipped file, keyed by the called name."""
        shipped = [REPO_ROOT / root for root in TestCallerCount.SHIPPED]
        calls: dict[str, list[tuple[Path, ast.Call]]] = {}
        for path, tree in trees.items():
            if not any(root in path.parents for root in shipped):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, (ast.Name, ast.Attribute)
                ):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else func.attr
                    calls.setdefault(name, []).append((path, node))
        return calls

    @staticmethod
    def parameters(fn, bound: bool) -> tuple[list[str], list[str]]:
        """``(positional, defaulted)`` parameter names of ``fn``, less a
        bound ``self`` / ``cls``."""
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][int(bound):]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        return positional, defaulted

    @staticmethod
    def passed(sites, positional: list[str], defaulted: list[str]) -> set[str]:
        """The parameters some call in ``sites`` passes; a ``*`` or
        ``**`` argument may pass any of them."""
        passed = set()
        for _path, call in sites:
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                passed.update(defaulted)
            passed.update(positional[: len(call.args)])
            passed.update(k.arg for k in call.keywords)
        return passed

    @staticmethod
    def inside(path: Path, node, site) -> bool:
        where, call = site
        return where == path and node.lineno <= call.lineno <= node.end_lineno

    @classmethod
    def unset_options(cls, trees) -> set[str]:
        """``Class.option`` for every defaulted ``__init__`` parameter no
        shipped construction passes."""
        classes = [
            (path, node)
            for path, _name, node in cls.definitions(trees)
            if isinstance(node, ast.ClassDef)
        ]
        calls = cls.calls(trees)
        flagged = set()
        for path, klass in classes:
            init = next(
                (
                    n
                    for n in klass.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            positional, defaulted = cls.parameters(init, bound=True)
            # C(...), cls(...) inside C, and __init__(...) inside a subclass
            sites = calls.get(klass.name, []) + [
                site
                for site in calls.get("cls", [])
                if cls.inside(path, klass, site)
            ]
            for sub_path, sub in classes:
                bases = {
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                    for b in sub.bases
                }
                if klass.name in bases:
                    sites += [
                        site
                        for site in calls.get("__init__", [])
                        if cls.inside(sub_path, sub, site)
                    ]
            passed = cls.passed(sites, positional, defaulted)
            flagged.update(f"{klass.name}.{p}" for p in defaulted if p not in passed)
        return flagged

    @classmethod
    def unset_parameters(cls, trees) -> set[str]:
        """``qualified.name.parameter`` for every defaulted parameter of a
        public function or method that no shipped call of that name
        passes.  A call from the function's own body (recursion, a
        wrapper handing its argument on) does not count."""
        methods = {
            id(fn)
            for _path, _name, node in cls.definitions(trees)
            if isinstance(node, ast.ClassDef)
            for fn in node.body
        }
        calls = cls.calls(trees)
        flagged = set()
        for path, qualified, node in cls.definitions(trees):
            if isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            positional, defaulted = cls.parameters(
                node, bound=id(node) in methods and not static
            )
            sites = [
                site
                for site in calls.get(node.name, [])
                if not cls.inside(path, node, site)
            ]
            passed = cls.passed(sites, positional, defaulted)
            flagged.update(f"{qualified}.{p}" for p in defaulted if p not in passed)
        return flagged

    def test_every_constructor_option_is_set_by_some_caller(self):
        flagged = self.unset_options(self.trees(*self.SHIPPED))
        self.check(flagged, self.ALLOWED_OPTIONS, "options no caller sets")

    def test_every_defaulted_parameter_is_passed_by_some_caller(self):
        flagged = self.unset_parameters(self.trees(*self.SHIPPED))
        self.check(flagged, self.ALLOWED_PARAMETERS, "parameters no caller passes")

    def test_every_allow_list_entry_gives_a_reason(self):
        for allowed in (
            self.ALLOWED_DEFINITIONS,
            self.ALLOWED_OPTIONS,
            self.ALLOWED_PARAMETERS,
        ):
            assert all(
                isinstance(reason, str) and reason.strip()
                for reason in allowed.values()
            ), allowed


class TestCallerCountSweeps:
    """The option and parameter sweeps on probe sources: only a shipped
    call passes a knob, and the allow-list check fails on an unexcused
    knob and on an entry that excuses nothing."""

    sweep = TestCallerCount

    @staticmethod
    def probe(sources: dict[str, str]) -> dict[Path, ast.Module]:
        return {
            REPO_ROOT / name: ast.parse(textwrap.dedent(text))
            for name, text in sources.items()
        }

    FUNCTION = """
        def f(a, b=1, *, c=2):
            return f(a, b, c=c)
    """

    def test_a_parameter_nothing_passes_is_flagged(self):
        trees = self.probe({"src/probe.py": self.FUNCTION, "examples/use.py": "f(0)"})
        assert self.sweep.unset_parameters(trees) == {"f.b", "f.c"}

    def test_positional_keyword_and_starred_calls_pass(self):
        for call in ("f(0, 1, c=3)", "f(*args, **kwargs)"):
            trees = self.probe(
                {"src/probe.py": self.FUNCTION, "benchmarks/use.py": call}
            )
            assert self.sweep.unset_parameters(trees) == set(), call

    def test_a_test_caller_does_not_count(self):
        trees = self.probe(
            {"src/probe.py": self.FUNCTION, "tests/test_probe.py": "f(0, 1, c=3)"}
        )
        assert self.sweep.unset_parameters(trees) == {"f.b", "f.c"}

    def test_methods_are_bound_and_static_methods_are_not(self):
        source = """
            class C:
                def m(self, x=1):
                    return self.m(x)

                @staticmethod
                def s(y=1):
                    return y
        """
        trees = self.probe({"src/probe.py": source, "src/use.py": "C().m(); C.s()"})
        assert self.sweep.unset_parameters(trees) == {"C.m.x", "C.s.y"}
        trees = self.probe({"src/probe.py": source, "src/use.py": "C().m(2); C.s(2)"})
        assert self.sweep.unset_parameters(trees) == set()

    def test_an_option_only_a_test_sets_is_flagged(self):
        source = """
            class K:
                def __init__(self, a=1):
                    self.a = a
        """
        trees = self.probe({"src/probe.py": source, "tests/test_k.py": "K(a=2)"})
        assert self.sweep.unset_options(trees) == {"K.a"}
        trees = self.probe({"src/probe.py": source, "examples/k.py": "K(2)"})
        assert self.sweep.unset_options(trees) == set()

    def test_check_fails_on_an_unexcused_knob_and_on_a_stale_entry(self):
        with pytest.raises(AssertionError, match="delete, or allow-list"):
            self.sweep.check({"f.b"}, {}, "probe")
        with pytest.raises(AssertionError, match="excuse nothing"):
            self.sweep.check(set(), {"f.b": "a reason"}, "probe")
        self.sweep.check({"f.b"}, {"f.*": "a reason"}, "probe")
