"""Unit tests for the project call graph: edges, dispatch, dependents."""

from __future__ import annotations

import ast
import textwrap

from repro.checks.callgraph import CallGraph, subsystem_of


def _graph(*files: tuple[str, str]) -> CallGraph:
    parsed = [(path, ast.parse(textwrap.dedent(code).strip("\n") + "\n"))
              for path, code in files]
    return CallGraph.build(parsed)


def test_qualnames_cover_methods_and_functions() -> None:
    graph = _graph(("src/repro/sched/mod.py", """
        def helper() -> int:
            return 1

        class Sched:
            def plan(self) -> int:
                return helper()
        """))
    assert "repro.sched.mod.helper" in graph.functions
    assert "repro.sched.mod.Sched.plan" in graph.functions


def test_self_dispatch_edge() -> None:
    graph = _graph(("src/repro/sched/mod.py", """
        class Sched:
            def probe(self) -> int:
                return self._inner()

            def _inner(self) -> int:
                return 1
        """))
    edges = graph.edges_from["repro.sched.mod.Sched.probe"]
    assert any(e.callee == "repro.sched.mod.Sched._inner" for e in edges)


def test_self_dispatch_resolves_into_subclasses() -> None:
    # A base-class probe calling self._hook() must see subclass overrides:
    # at runtime the receiver may be any family member.
    graph = _graph(("src/repro/sched/mod.py", """
        class Base:
            def probe(self) -> int:
                return self._hook()

            def _hook(self) -> int:
                return 0

        class Derived(Base):
            def _hook(self) -> int:
                return 1
        """))
    callees = {e.callee for e in graph.edges_from["repro.sched.mod.Base.probe"]}
    assert "repro.sched.mod.Base._hook" in callees
    assert "repro.sched.mod.Derived._hook" in callees


def test_from_import_resolution_across_files() -> None:
    graph = _graph(
        ("src/repro/layout/geom.py", """
            def span(tracks: int) -> int:
                return tracks * 2
            """),
        ("src/repro/sched/mod.py", """
            from repro.layout.geom import span

            def plan(tracks: int) -> int:
                return span(tracks)
            """))
    edges = graph.edges_from["repro.sched.mod.plan"]
    assert any(e.callee == "repro.layout.geom.span" for e in edges)


def test_from_imported_module_resolution() -> None:
    # ``from repro.sched import engine`` binds a project module: a call
    # through it resolves like one through ``import ... as engine``.
    graph = _graph(
        ("src/repro/sched/engine.py", """
            def run(limit: int) -> int:
                return limit
            """),
        ("src/repro/sched/driver.py", """
            from repro.sched import engine

            def drive(limit: int) -> int:
                return engine.run(limit)
            """))
    edges = graph.edges_from["repro.sched.driver.drive"]
    assert any(e.callee == "repro.sched.engine.run" for e in edges)


def test_subsystem_of_handles_absolute_prefixes() -> None:
    assert subsystem_of("src/repro/faults/chaos.py") == "faults"
    assert subsystem_of("src/repro/units.py") == "units"
    assert subsystem_of("tests/sched/test_mod.py") == "tests"
    # Mutation audits analyze an absolute temp-tree copy; the subsystem
    # boundary must survive the path prefix.
    assert subsystem_of(
        "/tmp/repro-mutants-x/src/repro/faults/chaos.py") == "faults"
