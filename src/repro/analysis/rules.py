"""The determinism/purity rule catalogue.

Every rule has an ID, a severity, a rationale and a fix hint; the two
motivating case studies are real bugs this repo shipped and later fixed:

- **DET001** is exactly the shuffle-partitioning bug: builtin ``hash()``
  is salted per-process for str/bytes (PYTHONHASHSEED), so partition
  sizes — and every downstream scheduler/IO metric — differed between
  otherwise identical runs until ``stable_hash`` replaced it.
- **ERR001** exists because the double-commit race was debuggable only
  once typed invariant errors replaced anonymous ``RuntimeError``s.

Rules are flow-insensitive AST checks built on
:class:`repro.analysis.scopes.ModuleModel`; they prefer a rare false
positive (suppressible with ``# repro: allow[ID]`` or the committed
baseline) over a missed hazard, because the downstream consumer is a
bit-reproducibility guarantee.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import ERROR, WARNING, Finding, RuleDoc

#: ``random`` module-level functions that draw from the process-global,
#: implicitly seeded RNG.  Using them makes determinism depend on import
#: order and every other caller of the global stream.
_GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})

#: Wall-clock reads (reading the clock *now*, not formatting a value).
_WALL_CLOCK_FNS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``time`` functions that read the clock only when called with no args.
_WALL_CLOCK_IF_NO_ARGS = frozenset({
    "time.gmtime", "time.localtime", "time.ctime", "time.asctime",
})

#: Filesystem enumerations whose order the OS does not define.
_FS_LISTING_FNS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
_FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Sinks for which set iteration order is provably irrelevant.
_ORDER_INSENSITIVE_SINKS = frozenset({
    "len", "any", "all", "min", "max", "set", "frozenset", "sorted",
    "isdisjoint", "issubset", "issuperset",
})

#: Methods that mutate a list/dict/set in place (PUR001 write detection).
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
})


class Rule:
    """One lint rule.  Subclasses implement :meth:`check`."""

    rule_id: str = ""
    severity: str = ERROR
    title: str = ""
    rationale: str = ""
    fix_hint: str = ""
    #: Module-prefix strings this rule never fires in (quarantine).
    exempt_modules: Tuple[str, ...] = ()
    #: If non-empty, the rule fires *only* in modules with these prefixes.
    only_modules: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        dotted = module + "."
        for prefix in self.exempt_modules:
            if dotted.startswith(prefix) or module == prefix.rstrip("."):
                return False
        if self.only_modules:
            return any(
                dotted.startswith(prefix) or module == prefix.rstrip(".")
                for prefix in self.only_modules
            )
        return True

    def doc(self) -> RuleDoc:
        return RuleDoc(
            rule_id=self.rule_id,
            severity=self.severity,
            title=self.title,
            rationale=self.rationale,
            fix_hint=self.fix_hint,
            exempt_modules=self.exempt_modules,
            only_modules=self.only_modules,
        )

    def check(self, ctx) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx, node: ast.AST, message: str) -> Finding:
        return ctx.make_finding(self, node, message)


def _enclosing_function_names(scopes: Tuple[ast.AST, ...]) -> Set[str]:
    return {
        scope.name
        for scope in scopes
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class BuiltinHashRule(Rule):
    """DET001 — builtin ``hash()`` is PYTHONHASHSEED-salted for str/bytes."""

    rule_id = "DET001"
    severity = ERROR
    title = "builtin hash() in simulation code"
    rationale = (
        "hash() is salted per-process for str/bytes, so any partition, "
        "bucket or sampling decision built on it differs between runs "
        "(the PR-4 shuffle-partitioning bug)."
    )
    fix_hint = (
        "use repro.stacks.base.stable_hash (crc32 of repr) or hashlib "
        "for content addressing"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node, scopes in ctx.scoped_nodes():
            if not isinstance(node, ast.Call):
                continue
            if ctx.model.resolve(node.func, scopes) != "builtins.hash":
                continue
            # stable_hash itself is the sanctioned wrapper.
            if "stable_hash" in _enclosing_function_names(scopes):
                continue
            # hash() of a numeric literal is unsalted and harmless.
            if (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, (int, float))
                and not isinstance(node.args[0].value, bool)
            ):
                continue
            yield self.finding(
                ctx, node,
                "builtin hash() depends on PYTHONHASHSEED for str/bytes",
            )


class UnseededRandomRule(Rule):
    """DET002 — the global ``random`` stream, or an unseeded ``Random()``."""

    rule_id = "DET002"
    severity = ERROR
    title = "unseeded / process-global randomness"
    rationale = (
        "random.<fn> draws from the process-global stream (seeded from "
        "the OS), and random.Random()/default_rng() without a seed is "
        "OS entropy: the run is unreproducible either way."
    )
    fix_hint = (
        "construct random.Random(seed) / numpy default_rng(seed) from "
        "the run's seed and pass it down"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node, scopes in ctx.scoped_nodes():
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.model.resolve(node.func, scopes)
            if origin is None:
                continue
            if origin == "random.Random" or origin == "random.SystemRandom":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        f"{origin.split('.')[-1]}() constructed without a "
                        f"seed draws OS entropy",
                    )
                continue
            if (
                origin.startswith("random.")
                and origin.split(".", 1)[1] in _GLOBAL_RANDOM_FNS
            ):
                yield self.finding(
                    ctx, node,
                    f"{origin}() uses the process-global random stream",
                )
                continue
            if origin == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "default_rng() without a seed draws OS entropy",
                    )
                continue
            if origin.startswith("numpy.random.") and origin.split(".")[-1] in (
                "rand", "randn", "randint", "random", "choice", "shuffle",
                "permutation", "seed", "uniform", "normal",
            ):
                yield self.finding(
                    ctx, node,
                    f"{origin}() uses numpy's process-global random state",
                )


class WallClockRule(Rule):
    """DET003 — wall-clock reads outside the quarantined timing modules."""

    rule_id = "DET003"
    severity = ERROR
    title = "wall-clock read in simulation code"
    rationale = (
        "wall time is hardware noise; the registry quarantines it in "
        "the timings field precisely so metrics never depend on it.  A "
        "clock read anywhere else can leak into a metric or an ordering."
    )
    fix_hint = (
        "use the simulated clock (Simulation.now), or move the "
        "measurement into the quarantined profiler/telemetry modules"
    )
    exempt_modules = (
        "repro.obs.hostprof",
        "repro.obs.stream",
        "repro.obs.perf",
        "repro.exec.supervisor",
        "repro.exec.pool",
        "repro.exec.tracing",
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node, scopes in ctx.scoped_nodes():
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.model.resolve(node.func, scopes)
            if origin is None:
                continue
            # "from datetime import datetime" gives datetime.now etc.
            if origin.startswith("datetime.") and not origin.startswith(
                "datetime.datetime."
            ) and origin.split(".")[-1] in ("now", "utcnow", "today"):
                origin = "datetime.datetime." + origin.split(".")[-1]
            if origin in _WALL_CLOCK_FNS:
                yield self.finding(
                    ctx, node, f"{origin}() reads the wall clock"
                )
            elif origin in _WALL_CLOCK_IF_NO_ARGS and not node.args:
                yield self.finding(
                    ctx, node,
                    f"{origin}() with no argument reads the wall clock",
                )


class SetOrderRule(Rule):
    """DET004 — iteration order of a set leaking into results."""

    rule_id = "DET004"
    severity = ERROR
    title = "order-sensitive consumption of a set"
    rationale = (
        "set iteration order follows the element hashes, which are "
        "salted for strings: a list, dict or float accumulation built "
        "by iterating a set can differ between processes."
    )
    fix_hint = "iterate sorted(<the set>) instead"

    def check(self, ctx) -> Iterator[Finding]:
        set_names = self._set_valued_names(ctx)

        def name_is_set(name: str, scopes: Tuple[ast.AST, ...]) -> bool:
            # The innermost scope that *binds* the name decides: a
            # set-typed local in one function never taints another
            # function's parameter of the same name.
            for scope in reversed(scopes):
                if name in ctx.model.bindings(scope):
                    return name in set_names.get(id(scope), ())
            return False

        def is_set_valued(expr: ast.AST, scopes) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if isinstance(expr, ast.Call):
                origin = ctx.model.resolve(expr.func, scopes)
                if origin in ("builtins.set", "builtins.frozenset"):
                    return True
                if (
                    isinstance(expr.func, ast.Attribute)
                    and expr.func.attr in (
                        "union", "intersection", "difference",
                        "symmetric_difference",
                    )
                    and is_set_valued(expr.func.value, scopes)
                ):
                    return True
                return False
            if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ):
                return is_set_valued(expr.left, scopes) or is_set_valued(
                    expr.right, scopes
                )
            if isinstance(expr, ast.Name):
                return name_is_set(expr.id, scopes)
            return False

        parents = ctx.parents
        for node, scopes in ctx.scoped_nodes():
            iterables: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "sum")
                and len(node.args) == 1
                and is_set_valued(node.args[0], scopes)
            ):
                # list()/tuple() emit the salted order; sum() of floats
                # accumulates in it.
                yield self.finding(
                    ctx, node,
                    f"{node.func.id}() over a set emits salted ordering",
                )
                continue
            else:
                continue
            for iterable in iterables:
                if not is_set_valued(iterable, scopes):
                    continue
                if self._order_insensitive_sink(node, parents, ctx):
                    continue
                yield self.finding(
                    ctx, iterable,
                    "iterating a set in an order-sensitive position",
                )

    @staticmethod
    def _order_insensitive_sink(node: ast.AST, parents, ctx) -> bool:
        """True when the iteration's result order provably can't leak."""
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            parent = parents.get(id(node))
            if isinstance(parent, ast.Call) and isinstance(
                parent.func, ast.Name
            ):
                if parent.func.id in _ORDER_INSENSITIVE_SINKS:
                    return True
        if isinstance(node, ast.SetComp):
            return True
        return False

    @staticmethod
    def _set_valued_names(ctx) -> Dict[int, Set[str]]:
        """Per-scope names assigned a set-typed value: id(scope) -> names.

        Scope-keyed so a set-typed local in one function never taints a
        same-named parameter elsewhere.  One propagation round catches
        ``a = set(); b = a | other``; flow-insensitivity within a scope
        (a name rebound to a list later still counts) is an acceptable
        bias for a lint whose findings are suppressible.
        """
        names: Dict[int, Set[str]] = {}

        def is_set_expr(value: ast.AST, local: Set[str]) -> bool:
            if isinstance(value, (ast.Set, ast.SetComp)):
                return True
            if isinstance(value, ast.Call) and isinstance(
                value.func, ast.Name
            ) and value.func.id in ("set", "frozenset"):
                return True
            if isinstance(value, ast.BinOp) and isinstance(
                value.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ):
                return any(
                    (isinstance(side, ast.Name) and side.id in local)
                    or is_set_expr(side, local)
                    for side in (value.left, value.right)
                )
            if isinstance(value, ast.IfExp):
                return any(
                    is_set_expr(branch, local)
                    for branch in (value.body, value.orelse)
                )
            return False

        for _round in range(2):
            for node, scopes in ctx.scoped_nodes():
                value: Optional[ast.AST] = None
                targets: List[ast.AST] = []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    value, targets = node.value, [node.target]
                if value is None or not scopes:
                    continue
                scope_names = names.setdefault(id(scopes[-1]), set())
                if not is_set_expr(value, scope_names):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        scope_names.add(target.id)
        return names


class ListingOrderRule(Rule):
    """DET005 — directory listings consumed in OS-defined order."""

    rule_id = "DET005"
    severity = ERROR
    title = "unsorted filesystem listing"
    rationale = (
        "os.listdir/glob/iterdir order is filesystem-dependent; any "
        "loop, merge or report built on the raw order differs between "
        "machines and even between runs on the same machine."
    )
    fix_hint = "wrap the listing in sorted(...) before consuming it"

    def check(self, ctx) -> Iterator[Finding]:
        for node, scopes in ctx.scoped_nodes():
            if not isinstance(node, ast.Call):
                continue
            hit = False
            origin = ctx.model.resolve(node.func, scopes)
            if origin in _FS_LISTING_FNS:
                hit = True
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FS_LISTING_METHODS
                and origin is None  # not glob.glob-style module call
                and not isinstance(node.func.value, ast.Constant)
            ):
                # Heuristic for pathlib: any .iterdir()/.glob()/.rglob().
                # String .glob() methods don't exist, so this is safe.
                hit = True
            if not hit:
                continue
            # Climb through comprehension plumbing so the common safe
            # idiom sorted(n for n in os.listdir(d) if ...) passes.
            parent = ctx.parents.get(id(node))
            while isinstance(
                parent,
                (ast.comprehension, ast.GeneratorExp, ast.ListComp),
            ):
                parent = ctx.parents.get(id(parent))
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ("sorted", "len", "set", "frozenset")
            ):
                continue
            yield self.finding(
                ctx, node,
                "filesystem listing consumed without sorted(...)",
            )


class ModuleStateRule(Rule):
    """PUR001 — module-level mutable state written from engine code."""

    rule_id = "PUR001"
    severity = WARNING
    title = "module-level mutable state written from engine code"
    rationale = (
        "a module-global written by engine/scheduler code survives "
        "across runs in one process but not across processes, so serial "
        "and parallel sweeps can see different state (and chaos replays "
        "stop being self-contained)."
    )
    fix_hint = (
        "thread the state through the object graph (Simulation, "
        "Cluster, the scheduler) instead of the module namespace"
    )
    only_modules = (
        "repro.cluster.",
        "repro.stacks.",
        "repro.uarch.",
        "repro.chaos.",
    )

    def check(self, ctx) -> Iterator[Finding]:
        mutable_globals = self._mutable_globals(ctx)
        if not mutable_globals:
            return
        for node, scopes in ctx.scoped_nodes():
            in_function = any(
                isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                for s in scopes
            )
            if not in_function:
                continue
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name in mutable_globals:
                        yield self.finding(
                            ctx, node,
                            f"function rebinds module global {name!r}",
                        )
                continue
            target: Optional[str] = None
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in _MUTATING_METHODS and isinstance(
                node.func.value, ast.Name
            ):
                target = node.func.value.id
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript) and isinstance(
                        tgt.value, ast.Name
                    ):
                        target = tgt.value.id
            if target is None or target not in mutable_globals:
                continue
            if ctx.model.shadowed(target, scopes):
                continue
            yield self.finding(
                ctx, node,
                f"function mutates module global {target!r}",
            )

    @staticmethod
    def _mutable_globals(ctx) -> Set[str]:
        names: Set[str] = set()
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = (
                stmt.value if isinstance(stmt, ast.Assign) else stmt.value
            )
            if value is None:
                continue
            mutable = isinstance(
                value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                        ast.DictComp, ast.SetComp)
            ) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in (
                    "list", "dict", "set", "defaultdict", "deque", "Counter",
                )
            )
            if not mutable:
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names


class TypedErrorsRule(Rule):
    """ERR001 — bare ``except:``/``raise RuntimeError`` where typed errors exist."""

    rule_id = "ERR001"
    severity = WARNING
    title = "untyped error handling"
    rationale = (
        "repro.errors gives every failure mode a type; a bare except "
        "swallows Interrupted/KeyboardInterrupt, and an anonymous "
        "RuntimeError can't be told apart from a substrate bug (the "
        "double-commit race hid behind exactly that)."
    )
    fix_hint = (
        "raise a repro.errors type (SimulationError, InvariantViolation, "
        "UsageError, ...) and except the narrowest type that applies"
    )
    exempt_modules = ("repro.errors",)

    def check(self, ctx) -> Iterator[Finding]:
        for node, scopes in ctx.scoped_nodes():
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node, "bare except: catches everything"
                )
            elif isinstance(node, ast.Raise) and isinstance(
                node.exc, ast.Call
            ) and ctx.model.resolve(
                node.exc.func, scopes
            ) == "builtins.RuntimeError":
                yield self.finding(
                    ctx, node,
                    "raise RuntimeError where repro.errors has typed "
                    "alternatives",
                )


class SwallowedIORule(Rule):
    """ERR002 — durable-write modules silently discarding I/O errors."""

    rule_id = "ERR002"
    severity = ERROR
    title = "silently swallowed I/O error in a durable-write module"
    rationale = (
        "the storage tier's durability contract is 'fail loudly or "
        "count the loss': an `except OSError: pass` in a writer turns "
        "ENOSPC into silent data loss that fsck and the crash campaign "
        "can no longer prove absent.  Best-effort writers must count "
        "drops (repro.fsio.BestEffortWriter); durable writers must "
        "propagate."
    )
    fix_hint = (
        "route the write through repro.fsio (BestEffortWriter counts, "
        "write_json_atomic/JournalWriter propagate), re-raise a typed "
        "error, or annotate a sanctioned swallow with # repro: "
        "allow[ERR002] and a justification"
    )
    #: The modules that make up the durable-write storage tier.
    only_modules = (
        "repro.fsio",
        "repro.obs.registry",
        "repro.obs.stream",
        "repro.obs.fsck",
        "repro.exec.checkpoint",
        "repro.exec.tracing",
    )

    #: Caught types broad enough to hide an I/O failure.  Narrow
    #: control-flow types (FileNotFoundError, FileExistsError) are
    #: legitimate protocol, not error swallowing.
    _BROAD = frozenset({
        "builtins.OSError", "builtins.IOError",
        "builtins.EnvironmentError", "builtins.PermissionError",
        "builtins.Exception", "builtins.BaseException",
    })

    def check(self, ctx) -> Iterator[Finding]:
        for node, scopes in ctx.scoped_nodes():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._caught(ctx, node, scopes) & self._BROAD:
                continue
            if self._handles_error(node):
                continue
            yield self.finding(
                ctx, node,
                "handler discards a broad I/O error without re-raising "
                "or recording it",
            )

    @staticmethod
    def _caught(ctx, node: ast.ExceptHandler, scopes) -> Set[str]:
        """Resolved origins of every type the handler catches."""
        if node.type is None:
            return {"builtins.BaseException"}
        exprs = (
            list(node.type.elts)
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        caught: Set[str] = set()
        for expr in exprs:
            origin = ctx.model.resolve(expr, scopes)
            if origin is not None:
                caught.add(origin)
        return caught

    @staticmethod
    def _handles_error(node: ast.ExceptHandler) -> bool:
        """True when the handler routes the error somewhere visible.

        Routing means: re-raising (any ``raise``, including a typed
        wrapper), or referencing the bound exception name (it reached
        a counter, a message, or a finding).
        """
        for stmt in node.body:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Raise):
                    return True
                if (
                    node.name
                    and isinstance(child, ast.Name)
                    and child.id == node.name
                ):
                    return True
        return False


class UnusedImportRule(Rule):
    """IMP001 — imports never referenced in the module."""

    rule_id = "IMP001"
    severity = WARNING
    title = "unused import"
    rationale = (
        "dead imports hide real dependencies and make the determinism "
        "rules' import table lie about what a module can reach."
    )
    fix_hint = "delete the import (or re-export it via __all__)"
    #: Package __init__ modules re-export by importing; skip them.
    exempt_modules = ()

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.module.endswith("__init__") or ctx.is_package_init:
            return
        imported: Dict[str, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imported[local] = node
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imported[alias.asname or alias.name] = node
        if not imported:
            return
        used: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name):
                    used.add(root.id)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                # names in __all__ / string annotations
                used.add(node.value)
        for name in sorted(imported):
            if name not in used:
                yield self.finding(
                    ctx, imported[name], f"{name!r} imported but unused"
                )


#: The rule set ``repro lint`` runs by default, in report order.
ALL_RULES: List[Rule] = [
    BuiltinHashRule(),
    UnseededRandomRule(),
    WallClockRule(),
    SetOrderRule(),
    ListingOrderRule(),
    ModuleStateRule(),
    TypedErrorsRule(),
    SwallowedIORule(),
    UnusedImportRule(),
]


def rule_catalog() -> List[RuleDoc]:
    """Documentation records for every rule, in report order."""
    return [rule.doc() for rule in ALL_RULES]
