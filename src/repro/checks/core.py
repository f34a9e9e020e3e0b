"""The rule framework behind ``repro.checks``.

The analyzer parses every target file once, builds a project-wide class
index (so rules can resolve ``__slots__`` chains across modules), runs
each :class:`Rule` over each file it applies to, and filters the resulting
:class:`Finding` list through suppression comments.

Suppression syntax
------------------
A finding is suppressed by a comment on the reported line or on the line
directly above it::

    self._next_position[disk_id] += 1  # repro: allow(epoch-cache)

``allow(...)`` takes a comma-separated list of rule names or rule IDs;
``allow(*)`` suppresses every rule on that line.  Suppressions are the
escape hatch for the rare call site where the invariant is enforced by a
caller — use them with a justifying comment.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Optional, Sequence

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")

#: Base classes whose subclasses are exempt from the slots rule: enums and
#: exceptions carry class-level machinery, Protocols are structural-only,
#: NamedTuple/TypedDict generate their own storage.
EXEMPT_BASE_NAMES = frozenset({
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
    "Exception", "BaseException", "Protocol", "Generic",
    "NamedTuple", "TypedDict",
})

#: Bases that contribute no instance dictionary and no slots of their own.
SLOT_NEUTRAL_BASES = frozenset({"object", "ABC"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    rule_name: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (the ``--format json`` record)."""
        return {
            "rule_id": self.rule_id,
            "rule": self.rule_name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """The one-line human form: ``path:line:col: R1 [name] message``."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} [{self.rule_name}] {self.message}")


@dataclass(frozen=True)
class ClassInfo:
    """What the project index knows about one class definition."""

    name: str
    path: str
    line: int
    #: Declared ``__slots__`` names, or None when the class declares none.
    slots: Optional[tuple[str, ...]]
    #: Base-class names as written (``Enum`` for ``enum.Enum``).
    bases: tuple[str, ...]
    #: True for ``@dataclass(slots=True)`` classes (fields become slots).
    dataclass_slots: bool = False
    #: True for plain ``@dataclass`` without ``slots=True``.
    plain_dataclass: bool = False


class ProjectIndex:
    """Cross-file class lookup, keyed by bare class name.

    Bare-name keying is a deliberate simplification: this project has no
    duplicate class names across modules, and the index only backs
    best-effort slot-chain resolution (rules skip what they cannot
    resolve rather than guessing).
    """

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}

    def add_tree(self, path: str, tree: ast.AST) -> None:
        """Index every class defined in one parsed module."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                info = _class_info(path, node)
                self.classes.setdefault(info.name, info)

    def lookup(self, name: str) -> Optional[ClassInfo]:
        """The indexed class of that bare name, if any."""
        return self.classes.get(name)

    def is_exempt(self, info: ClassInfo, _seen: Optional[set[str]] = None,
                  ) -> bool:
        """True if the class descends from an exempt base (enum, ...)."""
        seen = _seen if _seen is not None else set()
        if info.name in seen:
            return False
        seen.add(info.name)
        for base in info.bases:
            if base in EXEMPT_BASE_NAMES:
                return True
            parent = self.lookup(base)
            if parent is not None and self.is_exempt(parent, seen):
                return True
        return False

    def slot_union(self, info: ClassInfo) -> Optional[frozenset[str]]:
        """All slot names along the class's base chain.

        Returns None when any base is unresolvable or unslotted — callers
        must then skip slot-membership checks rather than guess.
        """
        if info.slots is None:
            return None
        names = set(info.slots)
        for base in info.bases:
            if base in SLOT_NEUTRAL_BASES:
                continue
            parent = self.lookup(base)
            if parent is None:
                return None
            inherited = self.slot_union(parent)
            if inherited is None:
                return None
            names.update(inherited)
        return frozenset(names)


def _decorator_name(node: ast.expr) -> str:
    """The bare name of a decorator expression (``dataclass`` for all of
    ``@dataclass``, ``@dataclasses.dataclass(...)``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _base_name(node: ast.expr) -> str:
    """The bare name of a base-class expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):  # Generic[...] / Protocol[...]
        return _base_name(node.value)
    return ""


def _class_info(path: str, node: ast.ClassDef) -> ClassInfo:
    slots: Optional[tuple[str, ...]] = None
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    slots = _slot_names(statement.value)
    dataclass_slots = False
    plain_dataclass = False
    for decorator in node.decorator_list:
        if _decorator_name(decorator) != "dataclass":
            continue
        wants_slots = (
            isinstance(decorator, ast.Call)
            and any(kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in decorator.keywords))
        if wants_slots:
            dataclass_slots = True
            slots = tuple(
                statement.target.id for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name))
        else:
            plain_dataclass = True
    return ClassInfo(
        name=node.name,
        path=path,
        line=node.lineno,
        slots=slots,
        bases=tuple(_base_name(base) for base in node.bases),
        dataclass_slots=dataclass_slots,
        plain_dataclass=plain_dataclass,
    )


def _slot_names(value: ast.expr) -> tuple[str, ...]:
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return (value.value,)
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return tuple(element.value for element in value.elts
                     if isinstance(element, ast.Constant)
                     and isinstance(element.value, str))
    return ()


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    path: str
    source: str
    tree: ast.Module
    index: ProjectIndex
    lines: list[str] = field(default_factory=list)
    #: Project-wide call graph + effect summaries (``ProjectAnalysis``).
    #: Always set by the analyzer; typed loosely to avoid an import
    #: cycle with :mod:`repro.checks.effects`.
    project: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


class Rule:
    """Base class for one invariant check.

    Subclasses set the three class attributes and implement
    :meth:`check`; :meth:`applies_to` narrows the rule to the code that
    carries its invariant (hot-path dirs, analysis modules, ...).
    """

    rule_id: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on the given (posix-style) path."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError
        yield  # pragma: no cover

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                ) -> Finding:
        """Build a finding anchored at one AST node."""
        return Finding(
            rule_id=self.rule_id,
            rule_name=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# -- path scope helpers (shared by the rules) --------------------------------

def normalise(path: str) -> str:
    """Posix-style path with a leading slash for fragment matching."""
    return "/" + Path(path).as_posix().lstrip("/")


def in_project_source(path: str) -> bool:
    """True for files under ``src/repro`` (not tests, not benchmarks)."""
    return "/src/repro/" in normalise(path)


def in_tests(path: str) -> bool:
    """True for files under a ``tests`` directory."""
    return "/tests/" in normalise(path)


def under(path: str, *fragments: str) -> bool:
    """True if the path crosses any ``fragment`` directory or file.

    ``under(p, "layout/")`` matches a directory segment,
    ``under(p, "sim/rng.py")`` matches a file suffix.
    """
    norm = normalise(path)
    for fragment in fragments:
        if fragment.endswith("/"):
            if f"/{fragment}" in norm:
                return True
        elif norm.endswith(f"/{fragment}"):
            return True
    return False


# -- suppression handling ----------------------------------------------------

def collect_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule names/IDs allowed on that line."""
    allowed: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            tokens = frozenset(
                token.strip() for token in match.group(1).split(",")
                if token.strip())
            if tokens:
                allowed[lineno] = tokens
    return allowed


def is_suppressed(finding: Finding,
                  suppressions: dict[int, frozenset[str]]) -> bool:
    """Whether an allow() comment on the line (or the one above) covers
    the finding."""
    for lineno in (finding.line, finding.line - 1):
        tokens = suppressions.get(lineno)
        if tokens and ("*" in tokens
                       or finding.rule_name in tokens
                       or finding.rule_id in tokens):
            return True
    return False


# -- the analyzer ------------------------------------------------------------

@dataclass
class Report:
    """The result of one analyzer run."""

    findings: list[Finding]
    files_checked: int
    rules_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form for CI consumption."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "findings": [finding.to_dict() for finding in self.findings],
        }


class AnalysisError(Exception):
    """A target file could not be read or parsed."""


class Analyzer:
    """Runs a rule set over files, directories, or raw source."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        if rules is None:
            from repro.checks.rules import default_rules
            rules = default_rules()
        self.rules: tuple[Rule, ...] = tuple(rules)

    def check_paths(self, paths: Iterable[str | Path]) -> Report:
        """Analyze every ``.py`` file under the given paths."""
        files = sorted(self._expand(paths))
        parsed: list[tuple[str, str, ast.Module]] = []
        index = ProjectIndex()
        findings: list[Finding] = []
        for file_path in files:
            try:
                source = file_path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(file_path))
            except (OSError, SyntaxError) as exc:
                raise AnalysisError(
                    f"cannot analyze {file_path}: {exc}") from exc
            rel = _relativise(file_path)
            parsed.append((rel, source, tree))
            index.add_tree(rel, tree)
        from repro.checks.effects import ProjectAnalysis
        project = ProjectAnalysis.build(parsed)
        for rel, source, tree in parsed:
            findings.extend(self._run_rules(rel, source, tree, index,
                                            project))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return Report(findings=findings, files_checked=len(parsed),
                      rules_run=tuple(rule.rule_id for rule in self.rules))

    def check_source(self, source: str, path: str,
                     index: Optional[ProjectIndex] = None) -> list[Finding]:
        """Analyze one in-memory snippet as if it lived at ``path``.

        The synthetic path decides which rules run — fixtures place
        snippets at paths inside each rule's scope.  The call graph the
        flow rules see spans just this snippet, so fixtures exercise
        them with self-contained call chains.
        """
        tree = ast.parse(source, filename=path)
        if index is None:
            index = ProjectIndex()
            index.add_tree(path, tree)
        from repro.checks.effects import ProjectAnalysis
        project = ProjectAnalysis.build([(path, source, tree)])
        return sorted(self._run_rules(path, source, tree, index, project),
                      key=lambda f: (f.line, f.col, f.rule_id))

    def check_sources(self, files: Sequence[tuple[str, str]],
                      ) -> list[Finding]:
        """Analyze several in-memory ``(path, source)`` files as one
        project — the multi-file counterpart of :meth:`check_source`,
        used by fixtures and tests that exercise cross-file flow rules
        (cross-subsystem taint, caller-side cache guards)."""
        parsed: list[tuple[str, str, ast.Module]] = []
        index = ProjectIndex()
        for path, source in files:
            tree = ast.parse(source, filename=path)
            parsed.append((path, source, tree))
            index.add_tree(path, tree)
        from repro.checks.effects import ProjectAnalysis
        project = ProjectAnalysis.build(parsed)
        findings: list[Finding] = []
        for path, source, tree in parsed:
            findings.extend(self._run_rules(path, source, tree, index,
                                            project))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings

    def _run_rules(self, path: str, source: str, tree: ast.Module,
                   index: ProjectIndex, project: object) -> list[Finding]:
        suppressions = collect_suppressions(source)
        ctx = FileContext(path=path, source=source, tree=tree, index=index,
                          project=project)
        out: list[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(path):
                continue
            for finding in rule.check(ctx):
                if not is_suppressed(finding, suppressions):
                    out.append(finding)
        return out

    @staticmethod
    def _expand(paths: Iterable[str | Path]) -> Iterator[Path]:
        for path in paths:
            path = Path(path)
            if path.is_dir():
                yield from path.rglob("*.py")
            elif path.suffix == ".py":
                yield path


def _relativise(path: Path) -> str:
    """Path relative to the current directory when possible (stable rule
    scoping regardless of absolute/relative invocation)."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()
