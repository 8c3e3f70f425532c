"""Forward dataflow / taint framework with function summaries.

The framework answers one question interprocedurally: *can a
host-nondeterministic value (wall clock, host RNG, host object
identity) reach simulated state?*  Locally, CHX001/CHX002 catch the
source expression — but only when source and sink share a line of the
same sim-package file.  A value laundered through a helper in
``graph/`` or ``perf/`` and then passed into a sim-package call was
invisible.  This module closes that hole.

Mechanics:

* **Taint labels** — ``wall-clock``, ``host-rng``, ``host-id`` — attach
  to expressions whose value derives from a source call (``time.time``,
  ``random.random``, ``id(...)``, …).  Import aliases are canonicalized
  through the module's import table, so ``from time import monotonic``
  and ``import numpy as np; np.random.rand()`` both match.
* **Abstract interpretation** of each function body: an environment
  maps local names (and ``self.x`` chains) to taint sets; branches
  merge by union; loop bodies run twice to propagate loop-carried
  taint.  Deliberately flow-insensitive about containers.
* **Summaries** — per function: which taints its return value carries,
  which of its *parameters* flow to its return, and which parameters
  flow (possibly transitively) into a sim-package sink.  Summaries are
  iterated to a fixpoint over the whole project, so a chain
  ``a() -> b() -> c()`` of any depth is tracked.
* **Sinks** — arguments of calls that resolve (``direct`` or
  ``self-method``) into a sim-package function, and attribute stores
  on sim-package classes.

The reporting pass emits a :class:`SinkReport` per (line, label,
callee) — CHX008 turns these into findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.analysis.flow.callgraph import CallGraph, CallSite
from repro.analysis.flow.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    attr_chain,
)

#: A taint element: a concrete label or ("param", index).
Taint = Union[str, Tuple[str, int]]
TaintSet = FrozenSet[Taint]

EMPTY: TaintSet = frozenset()

#: Concrete labels (everything that is not a param placeholder).
LABELS = ("wall-clock", "host-rng", "host-id")

#: Canonical dotted names that *produce* each label when called.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.monotonic",
        "time.perf_counter",
        "time.process_time",
        "time.time_ns",
        "time.monotonic_ns",
        "time.perf_counter_ns",
        "time.process_time_ns",
    }
)
#: Suffixes (last two components) that read the host calendar clock.
WALL_CLOCK_SUFFIXES = frozenset(
    {("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"), ("date", "today")}
)
HOST_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")
HOST_RNG_CALLS = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom"}
)
HOST_ID_CALLS = frozenset({"os.getpid", "os.getppid"})

#: RNG *factories* are deterministic when seeded — the repo's approved
#: pattern is ``random.Random(config.seed ...)``.  They taint only when
#: called with no arguments (falling back to OS entropy).
RNG_FACTORY_CALLS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)

#: Cap on by-name callee fan-out considered for summary propagation.
_BY_NAME_CAP = 8

#: Summary fixpoint pass bound (project call chains are shallow; the
#: bound only guards against pathological recursion).
_MAX_PASSES = 6


def source_label(canonical: str) -> Optional[str]:
    """The taint label produced by calling ``canonical``, if any."""
    if canonical in RNG_FACTORY_CALLS:
        return None  # tainted only when unseeded; decided at the call site
    if canonical in WALL_CLOCK_CALLS:
        return "wall-clock"
    parts = tuple(canonical.split("."))
    if len(parts) >= 2 and parts[-2:] in WALL_CLOCK_SUFFIXES:
        return "wall-clock"
    if canonical in HOST_RNG_CALLS or any(
        canonical.startswith(p) for p in HOST_RNG_PREFIXES
    ):
        return "host-rng"
    if canonical == "id":
        return "host-id"
    if canonical in HOST_ID_CALLS:
        return "host-id"
    return None


def labels_of(taints: TaintSet) -> Set[str]:
    return {t for t in taints if isinstance(t, str)}


def params_of(taints: TaintSet) -> Set[int]:
    return {t[1] for t in taints if isinstance(t, tuple)}


@dataclass
class SinkReport:
    """A tainted value reaching sim-package state."""

    file: str
    line: int
    label: str
    caller: str  # qualname of the function containing the sink
    sink: str  # qualname of the sim-package callee / attribute stored
    via: Optional[str] = None  # intermediate callee for summary-derived sinks

    def message(self) -> str:
        path = f" via {self.via}" if self.via else ""
        return (
            f"{self.label}-tainted value flows into simulated state: "
            f"{self.sink}{path}"
        )


@dataclass
class FunctionSummary:
    """Interprocedural effect of one function."""

    #: Taints carried by the return value (labels + param placeholders).
    returns: TaintSet = EMPTY
    #: Param index -> sim-package sinks a tainted argument would reach.
    param_sinks: Dict[int, List[str]] = field(default_factory=dict)

    def same_as(self, other: "FunctionSummary") -> bool:
        return self.returns == other.returns and {
            k: set(v) for k, v in self.param_sinks.items()
        } == {k: set(v) for k, v in other.param_sinks.items()}


class TaintAnalysis:
    """Whole-program taint: fixpoint summaries, then a reporting pass."""

    def __init__(
        self,
        index: ProjectIndex,
        graph: CallGraph,
        sim_packages: FrozenSet[str],
    ):
        self.index = index
        self.graph = graph
        self.sim_packages = sim_packages
        self.summaries: Dict[str, FunctionSummary] = {}
        #: id(ast.Call) -> CallSite, for O(1) resolution during interp.
        self._site_of: Dict[int, CallSite] = {}
        for sites in graph.sites.values():
            for site in sites:
                self._site_of[id(site.node)] = site

    # -- public API -----------------------------------------------------

    def run(self) -> List[SinkReport]:
        """Fixpoint the summaries, then collect sink reports."""
        functions = list(self.index.iter_functions())
        for _ in range(_MAX_PASSES):
            changed = False
            for func in functions:
                interp = _Interp(self, func, reporting=False)
                summary = interp.summarize()
                previous = self.summaries.get(func.qualname)
                if previous is None or not summary.same_as(previous):
                    self.summaries[func.qualname] = summary
                    changed = True
            if not changed:
                break
        reports: List[SinkReport] = []
        for func in functions:
            interp = _Interp(self, func, reporting=True)
            interp.summarize()
            reports.extend(interp.reports)
        # Deterministic order, dedup identical reports.
        unique = {
            (r.file, r.line, r.label, r.sink, r.via): r for r in reports
        }
        return sorted(
            unique.values(), key=lambda r: (r.file, r.line, r.label, r.sink)
        )

    def is_sim_function(self, qualname: str) -> bool:
        func = self.index.functions.get(qualname)
        if func is None:
            return False
        return self.module_is_sim(func.module)

    def module_is_sim(self, module_name: str) -> bool:
        parts = module_name.split(".")
        if "analysis" in parts and "flow" in parts:
            # The flow layer itself is host-side static tooling: it runs
            # offline on real ASTs, never under the simulated clock, and
            # uses id() only as in-process dict keys.
            return False
        return any(part in self.sim_packages for part in parts)


class _Interp:
    """Abstract interpretation of one function body."""

    def __init__(self, analysis: TaintAnalysis, func: FunctionInfo, reporting: bool):
        self.analysis = analysis
        self.func = func
        self.module: Optional[ModuleInfo] = analysis.index.modules.get(func.module)
        self.reporting = reporting
        self.env: Dict[str, TaintSet] = {}
        self.returns: TaintSet = EMPTY
        self.param_sinks: Dict[int, Set[str]] = {}
        self.reports: List[SinkReport] = []
        self._param_names: List[str] = []

    # -- driver ---------------------------------------------------------

    def summarize(self) -> FunctionSummary:
        args = self.func.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        self._param_names = names
        for idx, name in enumerate(names):
            self.env[name] = frozenset({("param", idx)})
        self.exec_stmts(self.func.node.body)
        return FunctionSummary(
            returns=self.returns,
            param_sinks={k: sorted(v) for k, v in self.param_sinks.items()},
        )

    # -- statements -----------------------------------------------------

    def exec_stmts(self, statements) -> None:
        for stmt in statements:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self.eval_expr(stmt.value)
            for target in stmt.targets:
                self.assign(target, taints)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval_expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taints = self.eval_expr(stmt.value)
            chain = attr_chain(stmt.target)
            if chain is not None:
                key = ".".join(chain)
                self.env[key] = self.env.get(key, EMPTY) | taints
        elif isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self.eval_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval_expr(stmt.test)
            before = dict(self.env)
            self.exec_stmts(stmt.body)
            then_env = self.env
            self.env = dict(before)
            self.exec_stmts(stmt.orelse)
            self.env = _merge(then_env, self.env)
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                self.eval_expr(stmt.test)
            else:
                iter_taint = self.eval_expr(stmt.iter)
                self.assign(stmt.target, iter_taint)
            before = dict(self.env)
            # Two passes propagate loop-carried taint to a fixpoint for
            # the union domain.
            self.exec_stmts(stmt.body)
            self.exec_stmts(stmt.body)
            self.env = _merge(before, self.env)
            self.exec_stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, taints)
            self.exec_stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self.exec_stmts(stmt.body)
            after_body = dict(self.env)
            merged = _merge(before, after_body)
            for handler in stmt.handlers:
                self.env = dict(merged)
                self.exec_stmts(handler.body)
                merged = _merge(merged, self.env)
            self.env = _merge(merged, after_body)
            self.exec_stmts(stmt.orelse)
            self.exec_stmts(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # separate scope; indexed and analyzed on its own
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)

    def assign(self, target: ast.expr, taints: TaintSet) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, taints)
            return
        if isinstance(target, ast.Starred):
            self.assign(target.value, taints)
            return
        chain = attr_chain(target)
        if chain is None:
            return
        self.env[".".join(chain)] = taints
        # Storing into instance state of a sim-package class is a sink.
        if (
            len(chain) >= 2
            and chain[0] == "self"
            and self.analysis.module_is_sim(self.func.module)
        ):
            self._record_sink(
                taints,
                line=target.lineno,
                sink=f"{self.func.qualname.rsplit('.', 1)[0]}.{'.'.join(chain[1:])}",
                via=None,
            )

    # -- expressions ----------------------------------------------------

    def eval_expr(self, node: ast.expr) -> TaintSet:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            if chain is not None:
                key = ".".join(chain)
                if key in self.env:
                    return self.env[key]
            return self.eval_expr(node.value)
        if isinstance(node, (ast.Yield,)):
            if node.value is not None:
                self.eval_expr(node.value)
            return EMPTY  # value comes back from the scheduler, untainted
        if isinstance(node, ast.YieldFrom):
            # Delegation: the result is the sub-generator's return value.
            return self.eval_expr(node.value)
        if isinstance(node, ast.Lambda):
            return EMPTY
        # Everything else: union over child expressions.
        taints: TaintSet = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                taints |= self.eval_expr(child)
            elif isinstance(child, ast.comprehension):
                taints |= self.eval_expr(child.iter)
                for cond in child.ifs:
                    taints |= self.eval_expr(cond)
        return taints

    def eval_call(self, node: ast.Call) -> TaintSet:
        arg_taints: List[TaintSet] = [self.eval_expr(a) for a in node.args]
        kw_taints: Dict[str, TaintSet] = {
            kw.arg: self.eval_expr(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        star_taint: TaintSet = EMPTY
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                star_taint |= self.eval_expr(arg.value)
        for kw in node.keywords:
            if kw.arg is None:
                star_taint |= self.eval_expr(kw.value)

        result: TaintSet = star_taint
        for taints in arg_taints:
            result |= taints
        for taints in kw_taints.values():
            result |= taints

        chain = attr_chain(node.func)
        canonical = self._canonical(chain) if chain else None
        if canonical is not None:
            label = source_label(canonical)
            if label is not None:
                result |= frozenset({label})
            if (
                canonical in RNG_FACTORY_CALLS
                and not node.args
                and not node.keywords
            ):
                result |= frozenset({"host-rng"})  # unseeded factory

        site = self.analysis._site_of.get(id(node))
        if site is None or not site.targets:
            if chain is None:
                result |= self.eval_expr(node.func)
            elif chain[0] not in ("self", "cls"):
                # Method call on a (possibly tainted) receiver.
                result |= self.env.get(chain[0], EMPTY)
            return result

        # Receiver taint for attribute calls.
        if chain is not None and len(chain) > 1:
            result |= self.env.get(chain[0], EMPTY)

        targets = site.targets
        if site.kind == "by-name":
            targets = targets[:_BY_NAME_CAP]
        # Unambiguous resolution: direct/self-method, or a by-name site
        # whose attribute matches exactly one project function — precise
        # enough to report sinks without false fan-out.
        unambiguous = site.kind in ("direct", "self-method") or (
            site.kind == "by-name" and len(site.targets) == 1
        )

        for target in targets:
            target_func = self.analysis.index.functions.get(target)
            if target_func is None:
                continue
            offset = self._self_offset(site, target_func)
            summary = self.analysis.summaries.get(target)
            if summary is not None:
                # Map the callee's return-taint through this site's args.
                for taint in summary.returns:
                    if isinstance(taint, str):
                        result |= frozenset({taint})
                    else:
                        result |= self._arg_taint(
                            node, arg_taints, kw_taints, target_func,
                            taint[1] - offset,
                        )
                if unambiguous:
                    for param_idx, sinks in summary.param_sinks.items():
                        passed = self._arg_taint(
                            node, arg_taints, kw_taints, target_func,
                            param_idx - offset,
                        )
                        for label in labels_of(passed):
                            for sink in sinks:
                                self._record_at(
                                    node.lineno, label, sink, via=target
                                )
                        for pidx in params_of(passed):
                            self.param_sinks.setdefault(pidx, set()).update(sinks)
            # Direct sink: tainted argument into a sim-package callee.
            if unambiguous and self.analysis.is_sim_function(target):
                all_args = list(arg_taints) + list(kw_taints.values())
                for taints in all_args + [star_taint]:
                    self._record_sink(taints, node.lineno, sink=target, via=None)
        return result

    # -- helpers --------------------------------------------------------

    def _canonical(self, chain: List[str]) -> Optional[str]:
        if self.module is None:
            return ".".join(chain)
        head = chain[0]
        if head in self.module.imports:
            return ".".join([self.module.imports[head]] + chain[1:])
        return ".".join(chain)

    def _self_offset(self, site: CallSite, target: FunctionInfo) -> int:
        """1 when the call passes the receiver implicitly (bound method)."""
        if target.class_name is None:
            return 0
        chain = site.chain
        if chain is None:
            return 0
        if len(chain) >= 2:
            # Class.method(obj, ...) passes self explicitly only when the
            # head resolves to the class itself; self.meth(...) and
            # obj.meth(...) bind it.
            if self.module is not None and chain[0] in self.module.classes:
                return 0
            return 1
        return 0

    def _arg_taint(
        self,
        node: ast.Call,
        arg_taints: List[TaintSet],
        kw_taints: Dict[str, TaintSet],
        target: FunctionInfo,
        param_idx: int,
    ) -> TaintSet:
        """Taint of whatever this call passes for callee param ``param_idx``
        (an index into the callee's positional parameter list)."""
        if param_idx < 0:
            return EMPTY  # the bound receiver
        if param_idx < len(arg_taints):
            return arg_taints[param_idx]
        args = target.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if param_idx < len(names) and names[param_idx] in kw_taints:
            return kw_taints[names[param_idx]]
        return EMPTY

    def _record_sink(
        self, taints: TaintSet, line: int, sink: str, via: Optional[str]
    ) -> None:
        for label in labels_of(taints):
            self._record_at(line, label, sink, via)
        for pidx in params_of(taints):
            self.param_sinks.setdefault(pidx, set()).add(sink)

    def _record_at(
        self, line: int, label: str, sink: str, via: Optional[str]
    ) -> None:
        if not self.reporting:
            return
        self.reports.append(
            SinkReport(
                file=self.func.file,
                line=line,
                label=label,
                caller=self.func.qualname,
                sink=sink,
                via=via,
            )
        )


def _merge(a: Dict[str, TaintSet], b: Dict[str, TaintSet]) -> Dict[str, TaintSet]:
    merged = dict(a)
    for key, taints in b.items():
        merged[key] = merged.get(key, EMPTY) | taints
    return merged


__all__ = [
    "FunctionSummary",
    "SinkReport",
    "TaintAnalysis",
    "labels_of",
    "params_of",
    "source_label",
]
