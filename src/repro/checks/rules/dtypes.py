"""R11 — dtype-hygiene: numpy accumulation and buffer-seeding traps.

The vectorised fast-forward paths (PRs 4–6) replay thousands of scalar
cycles as single array expressions, so the scalar/vector equivalence
the fingerprint tests assert is only as good as the arrays' dtypes.
Four traps that type-check fine and corrupt results silently:

* ``np.bincount(ids)`` without ``minlength=`` — the output length is
  ``ids.max()+1``, so a cycle where the last disks receive no reads
  yields a short load vector and the comparison against a full-length
  vector broadcasts or raises depending on the data;
* ``np.add.reduceat(bool_array, ...)`` — reduceat *sums in the input
  dtype*; segment sums of a boolean saturate at ``True`` instead of
  counting, which is why every real site casts ``.astype(np.int64)``
  first;
* float accumulation into an integer array (``counts[ids] += 0.5``,
  ``np.add.at(int_array, idx, float)``) — numpy truncates toward zero
  on every store, so the error compounds per cycle;
* reusing an ``np.empty`` buffer before every element is written — the
  tail holds garbage from the allocator, and "works on my machine" is
  exactly what a determinism suite cannot tolerate.  A buffer must be
  fully covered by recognised stores (``[:]``; ``[0]`` + ``[1:]``;
  ``[:-1]`` + ``[-1]``; ``.fill()``) before its first read.

All checks are intentionally literal-minded: they match the repo's real
idioms and stay silent where dtypes are unknowable (parameters, returns
of helpers), so a finding is close to certainly real.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.checks.core import FileContext, Finding, Rule, in_project_source

#: dtype names that make an array integral.
_INT_DTYPES = frozenset({
    "int", "intp", "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64",
})

#: Constructors that allocate integer arrays when given an int dtype.
_ALLOC_CALLS = frozenset({"zeros", "empty", "full", "ones"})

#: Store-slice shapes this rule can prove form a complete cover.
_FULL_COVERS = (
    frozenset({":"}),
    frozenset({"0", "1:"}),
    frozenset({":-1", "-1"}),
)


class DtypeHygieneRule(Rule):
    """R11: numpy dtype and buffer-initialisation hygiene."""

    rule_id = "R11"
    name = "dtype-hygiene"
    description = ("numpy accumulation hygiene: bincount needs "
                   "minlength, reduceat needs an integral input, int "
                   "arrays must not accumulate floats, np.empty buffers "
                   "must be fully written before first read")

    def applies_to(self, path: str) -> bool:
        return in_project_source(path)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            assigns = _assignments(func)
            env = {name: values[0] for name, values in assigns.items()
                   if len(values) == 1}
            yield from self._check_calls(ctx, func, assigns)
            yield from self._check_int_accumulation(ctx, func, env)
            yield from self._check_empty_seeding(ctx, func)

    # -- bincount / reduceat --------------------------------------------------

    def _check_calls(self, ctx: FileContext, func: ast.AST,
                     env: dict[str, list[ast.expr]]) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if _np_func(node) == "bincount":
                if not any(kw.arg == "minlength" for kw in node.keywords):
                    yield self.finding(
                        ctx, node,
                        "np.bincount without minlength= produces a "
                        "data-dependent length; per-disk vectors must be "
                        "sized to the array (minlength=num_disks)")
            elif _np_func(node) == "add.reduceat" and node.args:
                first = node.args[0]
                if _is_boolish(first, env, depth=0):
                    yield self.finding(
                        ctx, first,
                        "np.add.reduceat over a boolean array sums in "
                        "bool (segment counts saturate at 1); cast with "
                        ".astype(np.int64) first")

    # -- float-into-int accumulation ------------------------------------------

    def _check_int_accumulation(self, ctx: FileContext, func: ast.AST,
                                env: dict[str, ast.expr],
                                ) -> Iterator[Finding]:
        int_arrays = {name for name, value in env.items()
                      if _is_int_array_alloc(value)}
        for node in ast.walk(func):
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
                target_name = _subscript_base(node.target)
                if target_name in int_arrays \
                        and _is_floatish(node.value, env):
                    yield self.finding(
                        ctx, node,
                        f"float value accumulated into integer array "
                        f"'{target_name}'; numpy truncates toward zero "
                        "on every store — allocate the accumulator as "
                        "float or keep the addend integral")
            elif isinstance(node, ast.Call) and _np_func(node) == "add.at" \
                    and len(node.args) >= 3:
                target_name = _subscript_base(node.args[0])
                if target_name in int_arrays \
                        and _is_floatish(node.args[2], env):
                    yield self.finding(
                        ctx, node,
                        f"np.add.at scatters float values into integer "
                        f"array '{target_name}'; the fractional part is "
                        "silently truncated")

    # -- np.empty seeding ------------------------------------------------------

    def _check_empty_seeding(self, ctx: FileContext,
                             func: ast.AST) -> Iterator[Finding]:
        for name, alloc_line, alloc_node in _empty_allocs(func):
            events = _buffer_events(func, name, alloc_node)
            covered: set[str] = set()
            inconclusive = False
            verdict: Optional[bool] = None  # None = never used
            for _line, _col, kind, piece in events:
                if kind == "fill":
                    covered.add(":")
                elif kind == "store":
                    if piece is None:
                        inconclusive = True
                    else:
                        covered.add(piece)
                elif kind == "use":
                    verdict = any(cover <= covered
                                  for cover in _FULL_COVERS)
                    break
            if verdict is False and not inconclusive:
                missing = ", ".join(sorted(covered)) or "nothing"
                yield self.finding(
                    ctx, alloc_node,
                    f"np.empty buffer '{name}' is read before every "
                    f"element is written (stores cover [{missing}]); "
                    "uninitialised tails hold allocator garbage — "
                    "complete the cover or use np.zeros")


# -- helpers -------------------------------------------------------------------

def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _np_func(node: ast.Call) -> str:
    """Dotted name of an ``np.``-rooted call (``add.reduceat``), or ''."""
    parts: list[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name) and func.id in ("np", "numpy"):
        return ".".join(reversed(parts))
    return ""


def _assignments(func: ast.AST) -> dict[str, list[ast.expr]]:
    """Every value expression assigned to each simple local name."""
    values: dict[str, list[ast.expr]] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            values.setdefault(node.targets[0].id, []).append(node.value)
    return values


def _is_boolish(node: ast.expr, env: dict[str, list[ast.expr]],
                depth: int) -> bool:
    """Whether an expression is statically a boolean array.

    A name counts when *every* assignment to it in the function is
    boolean (so ``down`` assigned a comparison in one branch and
    ``np.isin`` in the other still resolves).
    """
    if depth > 4:
        return False
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return _is_boolish(node.operand, env, depth + 1)
    if isinstance(node, ast.Call):  # a mask, or an array made as bool
        return _dtype_kwarg(node) == "bool" or _np_func(node) in (
            "isin", "logical_and", "logical_or", "logical_not")
    if isinstance(node, ast.Subscript):  # a boolean array's elements
        return _is_boolish(node.value, env, depth + 1)
    if isinstance(node, ast.IfExp):
        return _is_boolish(node.body, env, depth + 1) \
            and _is_boolish(node.orelse, env, depth + 1)
    if isinstance(node, ast.Name):
        bound = env.get(node.id)
        if bound:
            return all(_is_boolish(value, env, depth + 1)
                       for value in bound if value is not node)
    return False


def _is_int_array_alloc(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = _np_func(node)
    if fn == "arange":
        dtype = _dtype_kwarg(node)
        return dtype is None or dtype in _INT_DTYPES
    if fn in _ALLOC_CALLS:
        dtype = _dtype_kwarg(node)
        return dtype in _INT_DTYPES
    return False


def _dtype_kwarg(node: ast.Call) -> Optional[str]:
    for kw in node.keywords:
        if kw.arg == "dtype":
            value = kw.value
            if isinstance(value, ast.Attribute):
                return value.attr
            if isinstance(value, ast.Name):
                return value.id
    return None


def _is_floatish(node: ast.expr, env: dict[str, ast.expr],
                 depth: int = 0) -> bool:
    if depth > 4:
        return False
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floatish(node.left, env, depth + 1) \
            or _is_floatish(node.right, env, depth + 1)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            return True
        return _np_func(node) in ("float64", "float32", "asarray_f",)
    if isinstance(node, ast.Name):
        bound = env.get(node.id)
        if bound is not None and bound is not node:
            return _is_floatish(bound, env, depth + 1)
    return False


def _subscript_base(node: ast.expr) -> Optional[str]:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _empty_allocs(func: ast.AST,
                  ) -> Iterator[tuple[str, int, ast.AST]]:
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call) \
                and _np_func(node.value) in ("empty", "empty_like"):
            yield node.targets[0].id, node.lineno, node.value


def _buffer_events(func: ast.AST, name: str, alloc_node: ast.AST,
                   ) -> list[tuple[int, int, str, Optional[str]]]:
    """(line, col, kind, slice-piece) events for one buffer, in order.

    ``store`` events carry the recognised slice piece (or None when the
    subscript shape is not recognised); ``fill``/``use`` carry None.
    """
    alloc_line = alloc_node.lineno
    skip_loads: set[int] = set()
    events: list[tuple[int, int, str, Optional[str]]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == name:
                    skip_loads.add(id(target.value))
                    events.append((node.lineno, node.col_offset, "store",
                                   _slice_piece(target.slice)))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "fill" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == name:
            skip_loads.add(id(node.func.value))
            events.append((node.lineno, node.col_offset, "fill", None))
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Load) \
                and id(node) not in skip_loads \
                and node.lineno > alloc_line:
            events.append((node.lineno, node.col_offset, "use", None))
    events.sort(key=lambda event: (event[0], event[1]))
    return [event for event in events if event[0] > alloc_line]


def _slice_piece(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Slice) and node.step is None:
        lower = _index_value(node.lower)
        upper = _index_value(node.upper)
        if node.lower is None and node.upper is None:
            return ":"
        if lower == 1 and node.upper is None:
            return "1:"
        if node.lower is None and upper == -1:
            return ":-1"
        return None
    value = _index_value(node)
    if value == 0:
        return "0"
    if value == -1:
        return "-1"
    return None


def _index_value(node: Optional[ast.expr]) -> Optional[int]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant) \
            and isinstance(node.operand.value, int):
        return -node.operand.value
    return None
