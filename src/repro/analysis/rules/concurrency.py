"""Worker-pool safety rules.

* ``pool-payload-picklability`` — everything that flows into the pool
  (:meth:`WorkerPool.publish` payloads, ``executor.submit`` task functions,
  ``map_chunks`` chunk functions) crosses a process boundary and must be
  picklable.  Lambdas and locally-defined functions are not (pickle locates
  functions by qualified name); today they fail at fan-out time, deep
  inside a worker traceback — this rule fails them at lint time.
* ``lock-coverage`` — the SNIPPETS.md Snippet 2 idiom, verified: once a
  class protects an attribute with ``with self._lock:`` somewhere, every
  mutation of that attribute must hold the lock (``__init__`` excepted —
  construction is single-threaded by definition).  Half-locked state is
  worse than unlocked state: it reads as thread-safe and is not.

Both rules are conservative approximations of dynamic facts; call sites
that are provably safe (payloads that never leave the parent, helpers
whose callers hold the lock) carry inline suppressions with a
justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import LintRule
from repro.analysis.registry import register_rule
from repro.analysis.rules import dotted_name

#: Method names whose arguments become worker-pool payloads.
_PAYLOAD_SINKS = frozenset({"publish", "submit", "map_chunks"})


@dataclass
class _Frame:
    """One lexical scope: tracks names bound to unpicklable callables."""

    is_function: bool
    unpicklable: set[str] = field(default_factory=set)


@register_rule("pool-payload-picklability")
class PoolPayloadPicklabilityRule(LintRule):
    """Lambdas / nested functions must not flow into pool submissions."""

    name = "pool-payload-picklability"
    description = (
        "lambdas and locally-defined functions passed to WorkerPool.publish,"
        " executor.submit or map_chunks cannot be pickled to process workers"
    )

    def __init__(self) -> None:
        super().__init__()
        self._frames: list[_Frame] = []

    def begin_module(self) -> None:
        self._frames = [_Frame(is_function=False)]

    # -- scope tracking -----------------------------------------------------

    def _visit_functiondef(self, node: ast.AST) -> None:
        if self._frames[-1].is_function:
            self._frames[-1].unpicklable.add(node.name)
        self._frames.append(_Frame(is_function=True))

    def _leave_scope(self, node: ast.AST) -> None:
        self._frames.pop()

    visit_FunctionDef = _visit_functiondef
    visit_AsyncFunctionDef = _visit_functiondef
    leave_FunctionDef = _leave_scope
    leave_AsyncFunctionDef = _leave_scope

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Class bodies are their own (non-capturing) scope; methods of a
        # module-level class pickle fine, so nothing is recorded for them.
        self._frames.append(_Frame(is_function=False))

    leave_ClassDef = _leave_scope

    def visit_Assign(self, node: ast.Assign) -> None:
        # ``f = lambda ...`` is unpicklable at *any* level: pickle resolves
        # functions via __qualname__, which stays "<lambda>".
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._frames[-1].unpicklable.add(target.id)

    # -- the sink check -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _PAYLOAD_SINKS):
            return
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            self._check_payload(arg, func.attr)

    def _check_payload(self, arg: ast.AST, sink: str) -> None:
        if isinstance(arg, ast.Lambda):
            self.report(
                arg,
                f"lambda passed to {sink}() — pool payloads must be "
                "picklable; use a module-level function (functools.partial "
                "over one is fine)",
            )
            return
        if isinstance(arg, ast.Name) and self._is_unpicklable_name(arg.id):
            self.report(
                arg,
                f"locally-defined function {arg.id!r} passed to {sink}() — "
                "pool payloads must be picklable; move it to module level",
            )
            return
        if isinstance(arg, ast.Call):
            dotted = dotted_name(arg.func)
            if dotted in ("partial", "functools.partial") and arg.args:
                # partial(...) pickles iff its wrapped function does.
                self._check_payload(arg.args[0], sink)

    def _is_unpicklable_name(self, name: str) -> bool:
        return any(name in frame.unpicklable for frame in reversed(self._frames))


@dataclass
class _Mutation:
    attr: str
    node: ast.AST
    method: str
    locked: bool


@dataclass
class _ClassLockInfo:
    name: str
    mutations: list[_Mutation] = field(default_factory=list)
    #: lock attribute name(s) seen in ``with self.<lock>:`` items.
    locks: set[str] = field(default_factory=set)


#: Call-method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "add", "update", "clear", "pop", "popitem",
        "remove", "discard", "insert", "setdefault",
    }
)

#: Methods where unlocked mutation is fine: the object is not shared yet
#: (or is being torn down by its only owner).
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


@register_rule("lock-coverage")
class LockCoverageRule(LintRule):
    """Attributes guarded by ``with self._lock:`` must always be guarded."""

    name = "lock-coverage"
    description = (
        "an attribute mutated under `with self._lock:` somewhere must hold "
        "the lock at every mutation site (outside __init__)"
    )

    def __init__(self) -> None:
        super().__init__()
        self._classes: list[_ClassLockInfo] = []
        self._methods: list[str] = []
        self._lock_depth = 0
        self._lock_withs: set[int] = set()

    # -- scope tracking -----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(_ClassLockInfo(name=node.name))

    def leave_ClassDef(self, node: ast.ClassDef) -> None:
        self._analyze(self._classes.pop())

    def _visit_functiondef(self, node: ast.AST) -> None:
        self._methods.append(node.name)

    def _leave_functiondef(self, node: ast.AST) -> None:
        self._methods.pop()

    visit_FunctionDef = _visit_functiondef
    visit_AsyncFunctionDef = _visit_functiondef
    leave_FunctionDef = _leave_functiondef
    leave_AsyncFunctionDef = _leave_functiondef

    def _visit_with(self, node: ast.AST) -> None:
        for item in node.items:
            attr = self._self_lock_attr(item.context_expr)
            if attr is not None:
                self._lock_depth += 1
                self._lock_withs.add(id(node))
                if self._classes:
                    self._classes[-1].locks.add(attr)
                break

    def _leave_with(self, node: ast.AST) -> None:
        if id(node) in self._lock_withs:
            self._lock_withs.discard(id(node))
            self._lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with
    leave_With = _leave_with
    leave_AsyncWith = _leave_with

    @staticmethod
    def _self_lock_attr(node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and "lock" in node.attr.lower()
        ):
            return node.attr
        return None

    # -- mutation recording -------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target, node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            self._record_target(func.value, node)

    def _record_target(self, target: ast.AST, node: ast.AST) -> None:
        if not self._classes or not self._methods:
            return
        attr = self._self_attr_base(target)
        if attr is None or "lock" in attr.lower():
            return
        self._classes[-1].mutations.append(
            _Mutation(
                attr=attr,
                node=node,
                method=self._methods[-1],
                locked=self._lock_depth > 0,
            )
        )

    @staticmethod
    def _self_attr_base(node: ast.AST) -> str | None:
        """The first attribute of a ``self.x[...].y``-style chain, if any."""
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return node.attr
            node = node.value
        return None

    # -- the analysis -------------------------------------------------------

    def _analyze(self, info: _ClassLockInfo) -> None:
        if not info.locks:
            return
        locked_in: dict[str, str] = {}
        for mutation in info.mutations:
            if mutation.locked:
                locked_in.setdefault(mutation.attr, mutation.method)
        lock_name = "/".join(sorted(info.locks))
        for mutation in info.mutations:
            if (
                not mutation.locked
                and mutation.attr in locked_in
                and mutation.method not in _EXEMPT_METHODS
            ):
                self.report(
                    mutation.node,
                    f"attribute {mutation.attr!r} of {info.name} is written "
                    f"under `with self.{lock_name}:` in "
                    f"{locked_in[mutation.attr]}() but without the lock "
                    f"here in {mutation.method}() — hold the lock for "
                    "every mutation",
                )
