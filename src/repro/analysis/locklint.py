"""Lock-discipline linter: ``# guarded-by:`` annotations + acquisition order.

The platform's concurrent state (job queues, model caches, telemetry
rings) is protected by per-object locks whose discipline was, until now,
enforced by review alone.  This module makes the discipline machine
checkable:

- an attribute assigned in ``__init__`` may carry a ``# guarded-by:
  <lock-attr>`` comment::

      self._cache = OrderedDict()  # guarded-by: _lock

  Every ``self._cache`` access anywhere in the class must then occur
  lexically inside a ``with self._lock:`` block — or inside a method
  whose name ends in ``_locked`` (the existing convention for "caller
  holds the lock").  Violations are :data:`L001 <repro.analysis.
  diagnostics.CODES>` findings.

- every syntactic nesting of ``with <x>.<lock>:`` blocks contributes an
  edge to a global lock-acquisition-order graph; a cycle in that graph
  (method A takes ``_lock`` then ``_cond``, method B the reverse) is an
  inversion-prone pattern flagged as L002.

Both analyses are lexical over a single file's AST: a lock acquired in a
caller and *held across a call* is invisible, which is exactly why the
``_locked``-suffix naming convention is part of the checked contract.
Nested ``def``s inherit the enclosing ``with`` scope textually; closures
that escape the lock must be refactored.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.diagnostics import Report

#: ``self.attr = ...  # guarded-by: _lock``
_GUARDED_RE = re.compile(
    r"self\.(?P<attr>\w+)\s*[:=].*#\s*guarded-by:\s*(?P<guard>\w+)"
)

#: Attribute names treated as locks when acquired on non-self objects
#: (``with pm._lock:``) for the acquisition-order graph.
_LOCKISH_RE = re.compile(r"(_lock|_cond|_mutex)\w*$")

#: Methods allowed to touch guarded state without the lock: the object
#: is not yet (or no longer) shared.
_EXEMPT_METHODS = {"__init__", "__post_init__", "__del__"}


def collect_guarded_attrs(source: str, tree: ast.Module) -> dict[str, dict[str, str]]:
    """``{class_name: {attr: guard_attr}}`` from guarded-by comments."""
    annotations: dict[int, tuple[str, str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _GUARDED_RE.search(line)
        if match:
            annotations[lineno] = (match.group("attr"), match.group("guard"))
    if not annotations:
        return {}
    guarded: dict[str, dict[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            span = range(node.lineno, (node.end_lineno or node.lineno) + 1)
            attrs = {
                attr: guard
                for lineno, (attr, guard) in annotations.items()
                if lineno in span
            }
            if attrs:
                # Inner classes would re-match the outer span; last
                # (innermost, later in ast.walk) class wins per line.
                guarded.setdefault(node.name, {}).update(attrs)
    return guarded


def _acquired_locks(node: ast.With) -> list[tuple[str, str]]:
    """``(owner, attr)`` pairs this with-statement acquires."""
    out = []
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            out.append((expr.value.id, expr.attr))
    return out


class _ClassAuditor(ast.NodeVisitor):
    """Walk one class body checking guarded accesses and collecting
    lock-order edges."""

    def __init__(self, path: str, class_name: str,
                 guarded: dict[str, str], report: Report,
                 edges: dict[tuple[str, str], tuple[str, int]]):
        self.path = path
        self.class_name = class_name
        self.guarded = guarded
        self.guard_names = set(guarded.values())
        self.report = report
        self.edges = edges
        self.held: list[str] = []  # self-lock attrs, acquisition order
        self.held_qualified: list[str] = []  # for the order graph
        self.method: str | None = None
        self.exempt = False

    # -- scope tracking -----------------------------------------------------

    def visit_FunctionDef(self, node):
        outer, outer_exempt = self.method, self.exempt
        if self.method is None:
            self.method = node.name
            self.exempt = (
                node.name in _EXEMPT_METHODS or node.name.endswith("_locked")
            )
        self.generic_visit(node)
        self.method, self.exempt = outer, outer_exempt

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node):
        acquired = []
        for owner, attr in _acquired_locks(node):
            is_self_guard = owner == "self" and attr in self.guard_names
            if not (is_self_guard or _LOCKISH_RE.search(attr)):
                continue
            qualified = (
                f"{self.class_name}.{attr}" if owner == "self"
                else f"{owner}.{attr}"
            )
            for held in self.held_qualified:
                if held != qualified:
                    self.edges.setdefault(
                        (held, qualified), (self.path, node.lineno)
                    )
            acquired.append((owner, attr, qualified))
            if owner == "self":
                self.held.append(attr)
            self.held_qualified.append(qualified)
        for item in node.items:  # context expressions evaluate pre-acquire
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for owner, attr, qualified in reversed(acquired):
            if owner == "self":
                self.held.remove(attr)
            self.held_qualified.remove(qualified)

    visit_AsyncWith = visit_With

    # -- guarded accesses ---------------------------------------------------

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name) and node.value.id == "self"
                and node.attr in self.guarded):
            guard = self.guarded[node.attr]
            if not self.exempt and guard not in self.held:
                self.report.add(
                    "L001",
                    f"{self.class_name}.{self.method or '<class body>'} "
                    f"accesses self.{node.attr} (guarded by {guard}) "
                    f"outside `with self.{guard}:`",
                    file=self.path, line=node.lineno,
                    symbol=f"{self.class_name}.{self.method}.{node.attr}",
                    hint=f"wrap the access in `with self.{guard}:` or rename "
                         f"the method with a _locked suffix",
                )
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        return  # nested classes are audited separately


def lint_lock_discipline(
    source: str, path: str,
    edges: dict[tuple[str, str], tuple[str, int]] | None = None,
) -> Report:
    """L001 findings for one file; lock-order edges accumulate into
    ``edges`` (pass one dict across files, then :func:`lint_lock_order`)."""
    report = Report(subject=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc
    guarded_by_class = collect_guarded_attrs(source, tree)
    if edges is None:
        edges = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            guarded = guarded_by_class.get(node.name)
            auditor = _ClassAuditor(
                path, node.name, guarded or {}, report, edges
            )
            for stmt in node.body:
                auditor.visit(stmt)
    return report


def lint_lock_order(
    edges: dict[tuple[str, str], tuple[str, int]]
) -> Report:
    """L002 findings: cycles in the accumulated acquisition-order graph."""
    report = Report(subject="lock-order graph")
    graph: dict[str, set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)

    seen_cycles: set[tuple[str, ...]] = set()

    def dfs(node: str, stack: list[str], on_stack: set[str], visited: set[str]):
        visited.add(node)
        on_stack.add(node)
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_stack:
                cycle = tuple(stack[stack.index(nxt):]) + (nxt,)
                key = tuple(sorted(set(cycle)))
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    edge = (cycle[0], cycle[1])
                    where = edges.get(edge) or next(iter(edges.values()))
                    report.add(
                        "L002",
                        "lock-acquisition-order cycle: "
                        + " -> ".join(cycle),
                        file=where[0], line=where[1],
                        symbol="->".join(key),
                        hint="pick one global order for these locks and "
                             "acquire them in it everywhere",
                    )
            elif nxt not in visited:
                dfs(nxt, stack, on_stack, visited)
        stack.pop()
        on_stack.discard(node)

    visited: set[str] = set()
    for node in sorted(graph):
        if node not in visited:
            dfs(node, [], set(), visited)
    return report
