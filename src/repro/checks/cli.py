"""Command-line entry point: ``python -m repro.checks [paths ...]``.

Exit codes: 0 clean, 1 findings (or self-test/mutation-audit failures),
2 bad usage or unanalyzable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.checks.core import AnalysisError, Analyzer
from repro.checks.fixtures import fixture_count, run_self_test
from repro.checks.rules import ALL_RULES, default_rules, rules_by_id


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description=("Static analysis of the simulator's invariants: "
                     "determinism, units discipline, epoch-cache "
                     "soundness, __slots__ consistency, float equality, "
                     "typed defs, spawn safety, and the interprocedural "
                     "flow rules (ff purity, cache-key completeness, RNG "
                     "stream isolation, numpy dtype hygiene)."),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to analyze (default: src tests)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (json/sarif are machine-readable, for CI)")
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule IDs or names to run (default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the built-in good/bad fixtures instead of analyzing "
             "files")
    parser.add_argument(
        "--mutation-audit", action="store_true",
        help="plant canned bugs in fixtures and a copy of the real "
             "source tree and verify every mutant is killed by the "
             "expected rule")
    parser.add_argument(
        "--mutation-seed", type=int, default=None, metavar="N",
        help="site-selection seed for --mutation-audit (default: the "
             "pinned CI seed; any seed must yield a 100%% kill rate)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_class in ALL_RULES:
            print(f"{rule_class.rule_id:<4} {rule_class.name:<16} "
                  f"{rule_class.description}")
        return 0
    if args.self_test:
        return _self_test(args.format)
    if args.mutation_audit:
        return _mutation_audit(args.format, args.mutation_seed)
    try:
        rules = (rules_by_id(args.select.split(","))
                 if args.select else default_rules())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analyzer = Analyzer(rules)
    try:
        report = analyzer.check_paths(args.paths)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    elif args.format == "sarif":
        from repro.checks.sarif import render_sarif
        print(render_sarif(report, rules))
    else:
        for finding in report.findings:
            print(finding.render())
        status = "clean" if report.ok else \
            f"{len(report.findings)} finding(s)"
        print(f"repro.checks: {report.files_checked} file(s), "
              f"{len(rules)} rule(s): {status}")
    return 0 if report.ok else 1


def _self_test(output_format: str) -> int:
    failures = run_self_test()
    total = fixture_count()
    if output_format == "json":
        print(json.dumps({
            "ok": not failures,
            "fixtures": total,
            "failures": failures,
        }, indent=2))
    else:
        for failure in failures:
            print(f"self-test FAILED: {failure}")
        print(f"repro.checks --self-test: {total} fixture(s), "
              f"{len(failures)} failure(s)")
    return 1 if failures else 0


def _mutation_audit(output_format: str, seed: Optional[int]) -> int:
    from repro.checks.mutation import DEFAULT_SEED, run_mutation_audit
    audit = run_mutation_audit(
        seed if seed is not None else DEFAULT_SEED,
        repo_root=Path("."))
    if output_format in ("json", "sarif"):
        print(json.dumps(audit.to_dict(), indent=2))
    else:
        for result in audit.results:
            mark = "killed" if result.killed else "SURVIVED"
            extra = f"  ({result.detail})" if result.detail else ""
            print(f"{mark:9s} [{result.kill:>3}] {result.kind}:"
                  f"{result.op} site {result.site + 1}/"
                  f"{result.occurrences}{extra}")
        print(f"repro.checks --mutation-audit: seed {audit.seed}, "
              f"{audit.killed}/{len(audit.results)} mutant(s) killed")
    return 0 if audit.ok else 1
