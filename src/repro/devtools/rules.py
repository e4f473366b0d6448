"""The reprolint rules: repo contracts as AST checks.

Each rule is grounded in a bug class this repository has actually had
to defend against (see docs/DEVTOOLS.md for the full rationale, an
example of each violation, and how to suppress):

=======  ==============================================================
RPL001   blocking calls inside ``async def`` in the service tier
RPL002   unseeded randomness in engine code (determinism contract)
RPL003   numpy/scipy imports under src/, or unguarded ones elsewhere
RPL004   wall-clock reads in fingerprint/digest construction
RPL005   bare/overbroad ``except`` in journal/WAL/recovery code
RPL006   raw subscripts on decoded wire-protocol dicts
RPL007   ``_*_vectorized`` without a dispatched ``_*_python`` twin
RPL008   asserts on wall-clock ratios or differences under ``tests/``
RPL009   ``.adj`` / ``.adjacency_sets()`` reads in the solver engines
=======  ==============================================================
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import Iterator

from repro.devtools.framework import (
    FileContext,
    Finding,
    ImportTracker,
    Rule,
    dotted_call_target,
    register,
)

__all__ = [
    "NoBlockingInAsyncRule",
    "SeededRandomnessRule",
    "GuardedNumericImportRule",
    "NoWallClockInFingerprintRule",
    "TypedExceptInStorageRule",
    "ValidatedWireAccessRule",
    "FallbackPairRule",
    "NoTimingAssertInTestsRule",
    "CsrRowsInSolverRule",
]


def _track_imports(tree: ast.Module) -> ImportTracker:
    tracker = ImportTracker()
    tracker.visit(tree)
    return tracker


@register
class NoBlockingInAsyncRule(Rule):
    """RPL001: the asyncio service tiers must never block the event loop.

    A ``time.sleep``, synchronous socket/file I/O, or a direct
    ``solve*`` engine call inside an ``async def`` stalls every request
    on that loop — the exact failure mode behind a "stalled gateway".
    CPU-heavy or blocking work belongs in an executor; helper functions
    *defined* inside the coroutine (the established
    ``run_in_executor(None, _apply)`` pattern) are deliberately not
    descended into.
    """

    code = "RPL001"
    name = "no-blocking-in-async"
    rationale = "blocking the event loop stalls every in-flight request"
    module_prefixes = ("repro.service",)

    # Dotted call targets that block the calling thread.
    BLOCKING_CALLS = frozenset(
        {
            "time.sleep",
            "socket.socket",
            "socket.create_connection",
            "socket.getaddrinfo",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "subprocess.Popen",
            "urllib.request.urlopen",
        }
    )
    # Engine entry points: pure CPU for up to seconds at service sizes.
    SOLVE_PREFIX = "solve"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tracker = _track_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(ctx, node, tracker)

    def _check_async_body(
        self, ctx: FileContext, func: ast.AsyncFunctionDef, tracker: ImportTracker
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(func):
            yield from self._walk(ctx, child, tracker, func.name)

    def _walk(
        self, ctx: FileContext, node: ast.AST, tracker: ImportTracker, where: str
    ) -> Iterator[Finding]:
        # Nested function bodies run wherever they are *called* — the
        # dominant repo idiom defines them precisely to hand off to an
        # executor — so only the coroutine's own statements are checked.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            # An awaited call yields to the loop; its *arguments* are
            # still evaluated synchronously, so they are walked as usual.
            for child in ast.iter_child_nodes(node.value):
                yield from self._walk(ctx, child, tracker, where)
            return
        if isinstance(node, ast.Call):
            yield from self._check_call(ctx, node, tracker, where)
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, tracker, where)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, tracker: ImportTracker, where: str
    ) -> Iterator[Finding]:
        dotted = dotted_call_target(node, tracker.aliases)
        if dotted in self.BLOCKING_CALLS:
            yield self.finding(
                ctx,
                node,
                f"blocking call {dotted}() inside async def {where}() — "
                "use an executor or the asyncio equivalent",
            )
            return
        func = node.func
        callee = None
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        if callee == "open" and isinstance(func, ast.Name):
            yield self.finding(
                ctx,
                node,
                f"synchronous open() inside async def {where}() — "
                "file I/O blocks the event loop; offload to an executor",
            )
        elif callee is not None and callee.startswith(self.SOLVE_PREFIX):
            yield self.finding(
                ctx,
                node,
                f"direct engine call {callee}() inside async def {where}() — "
                "solves are CPU-bound for seconds; run via the pool executor",
            )


@register
class SeededRandomnessRule(Rule):
    """RPL002: engine code draws randomness only from seeded generators.

    The ``r1:``/``u1:`` content-digest caches assume every solve is a
    pure function of ``(graph, config)``.  One ``random.random()`` (the
    process-global generator) or ``numpy.random`` global-state call in
    the engine breaks that silently: results differ between runs, and a
    cache hit is no longer bit-identical to a fresh solve.
    """

    code = "RPL002"
    name = "seeded-randomness-only"
    rationale = "unseeded randomness breaks the content-digest determinism contract"
    module_prefixes = ("repro.core", "repro.primitives", "repro.graphs")

    # Drawing or reseeding through random's module-level (global) generator.
    GLOBAL_STATE_FNS = frozenset(
        {
            "betavariate", "choice", "choices", "expovariate", "gammavariate",
            "gauss", "getrandbits", "lognormvariate", "normalvariate",
            "paretovariate", "randbytes", "randint", "random", "randrange",
            "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
            "vonmisesvariate", "weibullvariate",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tracker = _track_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_target(node, tracker.aliases)
            if dotted is None:
                continue
            if dotted == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        "random.Random() without a seed argument — engine "
                        "randomness must be reproducible from the config seed",
                    )
            elif dotted.startswith("random."):
                fn = dotted.split(".", 1)[1]
                if fn in self.GLOBAL_STATE_FNS:
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted}() uses the process-global generator — pass "
                        "a seeded random.Random through the call chain instead",
                    )
            elif dotted.startswith("numpy.random.") or dotted.startswith(
                "scipy.random."
            ):
                fn = dotted.rsplit(".", 1)[1]
                if fn == "default_rng" and (node.args or node.keywords):
                    continue  # explicitly seeded generator construction
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() touches numpy global random state — results "
                    "would differ run to run; derive arrays from the seeded "
                    "python rng (rng.randbytes) as the existing kernels do",
                )


@register
class GuardedNumericImportRule(Rule):
    """RPL003: no numpy/scipy in the package; optional imports elsewhere.

    Every hot path in ``src/`` has two tiers, the C kernel
    (``repro/kernel.c``) and its pure-Python twin, so any numpy or scipy
    import under ``src/`` (a module ``repro.*``) is flagged: guarded,
    lazy or ``TYPE_CHECKING`` alike.  Outside the package (benchmarks,
    scripts, tests) numpy stays optional: one unconditional top-level
    ``import numpy`` there breaks the numpy-free CI leg at collection
    time, so the imports must be function-local or inside a module-level
    ``try: import numpy ... except Exception``.
    """

    code = "RPL003"
    name = "guarded-numeric-import"
    rationale = "src/ runs on the C kernel and pure Python; numpy is optional elsewhere"
    module_prefixes = ()  # applies to every linted file

    NUMERIC_ROOTS = frozenset({"numpy", "scipy"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module = ctx.module or ""
        if module == "repro" or module.startswith("repro."):
            for node in ast.walk(ctx.tree):
                root = self._numeric_import_root(node)
                if root is not None:
                    yield self.finding(
                        ctx, node,
                        f"import of {root} under src/ — the package has two "
                        "tiers, the C kernel and its pure-Python twin",
                    )
            return
        yield from self._scan(ctx.tree.body, ctx, guarded=False)

    def _scan(
        self, body: list[ast.stmt], ctx: FileContext, guarded: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # lazy function-level imports are the guard
            if isinstance(stmt, ast.Try):
                # try/except is the guard — but only when some handler
                # actually catches the ImportError (any broad handler does).
                yield from self._scan(stmt.body, ctx, guarded=True)
                for handler in stmt.handlers:
                    yield from self._scan(handler.body, ctx, guarded=False)
                yield from self._scan(stmt.orelse, ctx, guarded=guarded)
                yield from self._scan(stmt.finalbody, ctx, guarded=guarded)
                continue
            if isinstance(stmt, ast.If):
                if self._is_type_checking(stmt.test):
                    yield from self._scan(stmt.orelse, ctx, guarded=guarded)
                    continue
                yield from self._scan(stmt.body, ctx, guarded=guarded)
                yield from self._scan(stmt.orelse, ctx, guarded=guarded)
                continue
            if isinstance(stmt, (ast.With, ast.For, ast.While)):
                yield from self._scan(stmt.body, ctx, guarded=guarded)
                continue
            if guarded:
                continue
            root = self._numeric_import_root(stmt)
            if root is not None:
                yield self.finding(
                    ctx,
                    stmt,
                    f"unguarded top-level import of {root} — wrap in "
                    "try/except or import lazily; the numpy-free CI leg "
                    "must be able to import this module",
                )

    def _numeric_import_root(self, stmt: ast.AST) -> str | None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                root = alias.name.split(".")[0]
                if root in self.NUMERIC_ROOTS:
                    return root
        elif isinstance(stmt, ast.ImportFrom) and stmt.module is not None:
            root = stmt.module.split(".")[0]
            if root in self.NUMERIC_ROOTS:
                return root
        return None

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        if isinstance(test, ast.Attribute):
            return test.attr == "TYPE_CHECKING"
        return False


@register
class NoWallClockInFingerprintRule(Rule):
    """RPL004: fingerprints hash content, never the clock.

    A wall-clock read flowing into ``r1:``/``u1:`` digest payloads makes
    the same request hash differently on every arrival — the cache
    silently stops hitting and every request re-solves.  (Timing is
    recorded, but in ``phase_stats``, which is stripped from digests.)
    """

    code = "RPL004"
    name = "no-wallclock-in-fingerprint"
    rationale = "clock-dependent digests silently kill the content-addressed cache"
    module_prefixes = ("repro.service.fingerprint",)

    CLOCK_CALLS = frozenset(
        {
            "time.time", "time.time_ns",
            "time.perf_counter", "time.perf_counter_ns",
            "time.monotonic", "time.monotonic_ns",
            "time.process_time", "time.process_time_ns",
            "datetime.datetime.now", "datetime.datetime.utcnow",
            "datetime.datetime.today", "datetime.date.today",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tracker = _track_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_target(node, tracker.aliases)
            if dotted in self.CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read {dotted}() in fingerprint construction — "
                    "digests must be a pure function of (graph, config)",
                )


@register
class TypedExceptInStorageRule(Rule):
    """RPL005: recovery code degrades through *typed* exceptions.

    The journal/WAL/recovery contract is explicit, counted degradation:
    a torn tail truncates, a corrupt record counts ``corrupt_reads`` and
    misses, a stale chain downgrades to ``StaleParentError``.  A bare or
    ``except Exception`` handler can swallow a genuine bug (an attribute
    typo, a cancelled future) as if it were expected corruption.
    """

    code = "RPL005"
    name = "typed-except-in-storage"
    rationale = "overbroad handlers hide real bugs behind 'expected corruption'"
    module_prefixes = ("repro.service.storage",)

    BROAD = frozenset({"Exception", "BaseException"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except in storage/recovery code — catch the typed "
                    "exceptions the contract names (or suppress with a "
                    "justification if breadth is the point)",
                )
                continue
            for name in self._caught_names(node.type):
                if name in self.BROAD:
                    yield self.finding(
                        ctx,
                        node,
                        f"except {name} in storage/recovery code — narrow to "
                        "the typed exceptions this path expects",
                    )
                    break

    @staticmethod
    def _caught_names(expr: ast.expr) -> Iterator[str]:
        nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        for node in nodes:
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


@register
class ValidatedWireAccessRule(Rule):
    """RPL006: decoded wire payloads are validated, not trusted.

    ``json.loads`` output is attacker-shaped: a raw ``request["op"]``
    turns a malformed request into a ``KeyError`` traceback instead of
    the protocol's typed ``ServiceProtocolError`` reply.  Reads must go
    through ``.get`` (or sit under an explicit ``"key" in d`` guard,
    which this rule recognises).
    """

    code = "RPL006"
    name = "validated-wire-access"
    rationale = "raw subscripts turn malformed requests into tracebacks, not typed replies"
    module_prefixes = (
        "repro.service.server",
        "repro.service.client",
        "repro.service.sharding.router",
    )

    DEFAULT_DICT_NAMES = ("request", "reply", "payload", "msg", "message")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        names = tuple(
            ctx.rule_options(self.code).get("dict_names", self.DEFAULT_DICT_NAMES)
        )
        yield from self._walk(ctx, ctx.tree, frozenset(), frozenset(names))

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        guards: frozenset[tuple[str, object]],
        names: frozenset[str],
    ) -> Iterator[Finding]:
        if isinstance(node, ast.If):
            body_guards = guards | frozenset(self._membership_guards(node.test, names))
            for child in node.body:
                yield from self._walk(ctx, child, body_guards, names)
            for child in node.orelse:
                yield from self._walk(ctx, child, guards, names)
            yield from self._walk(ctx, node.test, guards, names)
            return
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            target = node.value
            if isinstance(target, ast.Name) and target.id in names:
                key = (
                    node.slice.value
                    if isinstance(node.slice, ast.Constant)
                    else None
                )
                if (target.id, key) not in guards:
                    shown = f"[{key!r}]" if key is not None else "[...]"
                    yield self.finding(
                        ctx,
                        node,
                        f"raw subscript {target.id}{shown} on a decoded wire "
                        "dict — use .get() and raise ServiceProtocolError on "
                        "missing/invalid fields",
                    )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, guards, names)

    @staticmethod
    def _membership_guards(
        test: ast.expr, names: frozenset[str]
    ) -> Iterator[tuple[str, object]]:
        """Yield ``(dict_name, key)`` pairs proven present by ``test``."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                yield from ValidatedWireAccessRule._membership_guards(value, names)
            return
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.In)
            and isinstance(test.left, ast.Constant)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Name)
            and test.comparators[0].id in names
        ):
            yield (test.comparators[0].id, test.left.value)


@register
class FallbackPairRule(Rule):
    """RPL007: every vectorized kernel has a dispatched pure-Python twin.

    Every fast path is pinned bit-identical to a pure-Python twin
    (docs/API.md).  A ``_*_vectorized`` function whose ``_*_python`` twin
    is missing — or defined but never dispatched — means a box without
    the fast path silently runs different (or no) code, the exact
    divergence APGL-style repos accumulate.
    """

    code = "RPL007"
    name = "fallback-pair-complete"
    rationale = "vectorized kernels without dispatched python twins diverge unchecked"
    module_prefixes = ("repro",)

    _SUFFIX = re.compile(r"^_?(?P<stem>.+)_vectorized$")
    _PREFIX = re.compile(r"^_?vectorized_(?P<stem>.+)$")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        defs: dict[str, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = node
        for name, node in defs.items():
            match = self._SUFFIX.match(name) or self._PREFIX.match(name)
            if match is None:
                continue
            stem = match.group("stem")
            twins = {
                f"_{stem}_python", f"{stem}_python",
                f"_python_{stem}", f"python_{stem}",
            }
            twin = next((t for t in sorted(twins) if t in defs), None)
            if twin is None:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() has no pure-Python twin (expected one of "
                    f"{'/'.join(sorted(twins))}) — the numpy-free path must "
                    "run the same algorithm, pinned bit-identical",
                )
                continue
            if not self._dispatched(ctx.tree, twin, defs[twin]):
                yield self.finding(
                    ctx,
                    node,
                    f"pure-Python twin {twin}() is defined but never "
                    f"dispatched — the fallback is dead code and can drift",
                )

    @staticmethod
    def _dispatched(tree: ast.Module, twin: str, twin_def: ast.AST) -> bool:
        """Is ``twin`` referenced anywhere outside its own definition?"""
        inside = {id(n) for n in ast.walk(twin_def)}
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Name) and node.id == twin:
                return True
            if isinstance(node, ast.Attribute) and node.attr == twin:
                return True
        return False


@register
class NoTimingAssertInTestsRule(Rule):
    """RPL008: tier-1 tests never assert on wall-clock ratios/differences.

    ``assert serial_s / parallel_s > 1.5`` passes or fails with the box it
    runs on (CPU count, neighbours, cold caches), so it turns tier-1 red
    for reasons no code change caused.  Timing belongs in a benchmark
    gate (``perfbench``), which repeats, interleaves and reports spread.

    A value is a clock reading when it comes from ``time.perf_counter``,
    ``time.time`` or ``time.monotonic`` (``_ns`` variants included), and
    a timing when it is a difference or ratio involving one — directly or
    through the local names it is assigned to.  An ``assert`` whose test
    involves a timing is flagged; comparing a bare reading against a
    deadline is not (that is a wait, not a measurement).
    """

    code = "RPL008"
    name = "no-timing-assert-in-tests"
    rationale = "wall-clock ratio asserts make tier-1 depend on the machine"

    CLOCK_CALLS = frozenset(
        {
            "time.perf_counter", "time.perf_counter_ns",
            "time.time", "time.time_ns",
            "time.monotonic", "time.monotonic_ns",
        }
    )
    _READING = 1
    _TIMING = 2

    def applies_to(self, ctx: FileContext) -> bool:
        # Scoped by the repo-relative path (an ancestor directory that
        # happens to be called "tests" must not pull a whole checkout in).
        path = PurePosixPath(ctx.display_path)
        return (
            "tests" in path.parts[:-1]
            or path.name.startswith("test_")
            or path.name.endswith("_test.py")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_scope(ctx, ctx.tree, {}, _track_imports(ctx.tree).aliases)

    def _check_scope(
        self,
        ctx: FileContext,
        scope: ast.AST,
        outer: dict[str, int],
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        """Check one module/function body; nested functions are their own
        scopes and see the enclosing names (a ``t0`` in one test says
        nothing about a ``t0`` in the next)."""
        nodes = list(self._own_nodes(scope))
        kinds = self._name_kinds(nodes, dict(outer), aliases)
        for node in nodes:
            if isinstance(node, ast.Assert) and (
                self._kind(node.test, kinds, aliases) == self._TIMING
            ):
                yield self.finding(
                    ctx,
                    node,
                    "assert on a wall-clock ratio/difference — timing "
                    "depends on the machine; measure it in a benchmark "
                    "gate (perfbench), not in tier-1",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node, kinds, aliases)

    @staticmethod
    def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Nodes of ``scope``'s body, stopping at (but yielding) nested
        function definitions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    def _name_kinds(
        self, nodes: list[ast.AST], kinds: dict[str, int], aliases: dict[str, str]
    ) -> dict[str, int]:
        """Extend ``kinds`` with the names bound to clock readings or
        timings among ``nodes`` (to a fixpoint, so ``t0 = perf_counter();
        dt = perf_counter() - t0; r = dt / 2`` taints all three)."""
        bindings: list[tuple[ast.expr, ast.expr]] = []
        for node in nodes:
            if isinstance(node, ast.Assign):
                bindings += [(target, node.value) for target in node.targets]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value:
                bindings.append((node.target, node.value))
            elif isinstance(node, (ast.For, ast.comprehension)):
                bindings.append((node.target, node.iter))
        changed = True
        while changed:
            changed = False
            for target, value in bindings:
                kind = self._kind(value, kinds, aliases)
                if not kind:
                    continue
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and kinds.get(name.id, 0) < kind:
                        kinds[name.id] = kind
                        changed = True
        return kinds

    def _kind(self, expr: ast.AST, kinds: dict[str, int], aliases: dict[str, str]) -> int:
        """0 (unrelated), ``_READING`` or ``_TIMING`` for ``expr``."""
        if isinstance(expr, ast.Call) and dotted_call_target(expr, aliases) in self.CLOCK_CALLS:
            return self._READING
        if isinstance(expr, ast.Name):
            return kinds.get(expr.id, 0)
        kind = max(
            (self._kind(child, kinds, aliases) for child in ast.iter_child_nodes(expr)),
            default=0,
        )
        if (
            kind
            and isinstance(expr, ast.BinOp)
            and isinstance(expr.op, (ast.Sub, ast.Div, ast.FloorDiv))
        ):
            return self._TIMING
        return kind


@register
class CsrRowsInSolverRule(Rule):
    """RPL009: the randomized engine and its checks read CSR rows only.

    ``graph.adj`` builds n Python lists on first use (tens of ms at
    n=32768, next to a solve of about 100 ms) and ``adjacency_sets()``
    n sets more; both caches then ride along in every pickle of the
    graph.  The modules in scope read ``graph.csr()`` or
    ``graph.neighbors_csr(v)`` instead.  Functions named ``*_python``
    are exempt: the pure-Python twins of the kernel's entry points run
    when the kernel is missing, where ``adj`` is the fast way to walk
    every row.
    """

    code = "RPL009"
    name = "csr-rows-in-solver"
    rationale = "a graph-wide adjacency cache costs O(n + m) per solve and travels in pickles"
    module_prefixes = (
        "repro.core.randomized",
        "repro.core.dcc",
        "repro.core.marking",
        "repro.core.happiness",
        "repro.core.layering",
        "repro.core.small_components",
        "repro.core.brooks",
        "repro.graphs.validation",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        stack: list[ast.AST] = [ctx.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name.endswith("_python")
            ):
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr == "adj":
                    yield self.finding(
                        ctx, node,
                        "`.adj` builds n lists on a fresh graph — read "
                        "`graph.csr()` rows or `graph.neighbors_csr(v)`",
                    )
                elif node.attr == "adjacency_sets":
                    yield self.finding(
                        ctx, node,
                        "`.adjacency_sets()` builds n sets on a fresh graph — "
                        "probe the CSR row (`graph.has_edge`, `neighbors_csr`)",
                    )
            stack.extend(ast.iter_child_nodes(node))
