"""``repro.checks``: AST-based static analysis of simulator invariants.

The paper's numbers are only meaningful if the simulator is deterministic
and unit-correct, and PR 1's plan cache is only sound if every state
mutation bumps an epoch.  This package turns those conventions into
machine-checked rules — see ``docs/STATIC_ANALYSIS.md`` for the catalog,
suppression syntax, and how to add a rule.

Usage::

    python -m repro.checks src/ tests/            # analyze the repo
    python -m repro.checks --list-rules           # rule catalog
    python -m repro.checks --self-test            # built-in fixtures
    python -m repro.checks --format json src/     # CI output
    python -m repro.checks --format sarif src/    # code-scanning output
    python -m repro.checks --mutation-audit       # audit the analyzer
"""

from __future__ import annotations

from repro.checks.core import (
    Analyzer,
    AnalysisError,
    FileContext,
    Finding,
    ProjectIndex,
    Report,
    Rule,
)
from repro.checks.callgraph import CallGraph
from repro.checks.effects import EffectSummary, ProjectAnalysis
from repro.checks.fixtures import (
    FIXTURES,
    PROJECT_FIXTURES,
    Fixture,
    ProjectFixture,
    run_self_test,
)
from repro.checks.mutation import run_mutation_audit
from repro.checks.rules import ALL_RULES, default_rules, rules_by_id

__all__ = [
    "ALL_RULES",
    "AnalysisError",
    "Analyzer",
    "CallGraph",
    "EffectSummary",
    "FIXTURES",
    "FileContext",
    "Finding",
    "Fixture",
    "PROJECT_FIXTURES",
    "ProjectAnalysis",
    "ProjectFixture",
    "ProjectIndex",
    "Report",
    "Rule",
    "default_rules",
    "rules_by_id",
    "run_mutation_audit",
    "run_self_test",
]
