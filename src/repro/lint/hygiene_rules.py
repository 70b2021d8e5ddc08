"""Rules guarding determinism, unit hygiene, and the public API surface.

The engine promises identical traces across runs (see
``repro.simengine.engine``); a single wall-clock read or unseeded RNG
anywhere in ``src/repro`` silently voids that promise.  The rules here
are deliberately narrow-and-certain: each flags a construct that is
essentially never right in simulator code, so a finding is actionable
and a clean run means something.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .findings import Finding, Severity
from .rules import register, Rule, SourceFile

__all__ = [
    "DeterminismHazardRule",
    "UnitHygieneRule",
    "MissingAllRule",
    "MutableDefaultRule",
    "HOST_TIME_MODULES",
    "is_host_time_module",
]

#: Path suffixes of the *sanctioned host-time modules*: the only places
#: allowed to read the host clock.  Everything else must either use the
#: engine clock (``env.now``) or go through ``repro.perf.hostclock`` —
#: which keeps every host-clock read greppable in one spot and lets the
#: determinism analyses skip the sanctioned source itself.
HOST_TIME_MODULES: Tuple[str, ...] = ("repro/perf/hostclock.py",)


def is_host_time_module(path: str) -> bool:
    """True when ``path`` is a sanctioned host-time module."""
    normalized = path.replace("\\", "/")
    return normalized.endswith(HOST_TIME_MODULES)


def _dotted(node: ast.AST) -> Optional[str]:
    """Reconstruct a dotted name from Attribute/Name chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# determinism-hazard
# ---------------------------------------------------------------------------

#: Exact dotted suffixes that read the wall clock or host entropy.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Functions of the stdlib ``random`` module (module-level calls).
_RANDOM_HEAD = "random"

#: numpy legacy global-state RNG entry points (always hazards).
_NP_RANDOM_MARKERS = ("np.random.", "numpy.random.")

#: numpy.random members that are fine (explicit generator machinery).
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937", "SFC64"}
)


@register
class DeterminismHazardRule(Rule):
    """Flag wall-clock reads and unseeded / global-state randomness."""

    id = "determinism-hazard"
    description = (
        "time.time()/datetime.now()/random.*/np.random legacy calls break "
        "the engine's identical-traces-across-runs guarantee"
    )

    def check(self, tree: ast.AST, src: SourceFile) -> Iterator[Finding]:
        if is_host_time_module(src.path):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            message = self._hazard(name, node)
            if message is not None:
                yield self.finding(src, node, message)

    def _hazard(self, name: str, call: ast.Call) -> Optional[str]:
        head, _, _tail = name.partition(".")
        leaf = name.rpartition(".")[2]
        suffix2 = ".".join(name.split(".")[-2:])
        if suffix2 in _CLOCK_CALLS:
            return (
                f"'{name}()' reads the wall clock / host entropy — simulation "
                "time must come from the engine (env.now); suppress only for "
                "genuine host measurements"
            )
        if head == _RANDOM_HEAD and name.count(".") == 1:
            return (
                f"'{name}()' uses the global stdlib RNG — draw from a seeded "
                "numpy Generator via repro.simengine.rng instead"
            )
        for marker in _NP_RANDOM_MARKERS:
            if marker and name.startswith(marker):
                if leaf == "default_rng" and not call.args and not call.keywords:
                    return (
                        "'default_rng()' without a seed is entropy-seeded — "
                        "pass a seed (see repro.simengine.rng.make_rng)"
                    )
                if leaf not in _NP_RANDOM_OK:
                    return (
                        f"'{name}()' uses numpy's global legacy RNG — use a "
                        "seeded np.random.Generator instead"
                    )
        return None


# ---------------------------------------------------------------------------
# unit-hygiene
# ---------------------------------------------------------------------------

#: Keyword arguments that carry a duration in seconds.
_TIME_KEYWORDS = frozenset(
    {
        "latency",
        "hop_latency",
        "delay",
        "send_overhead",
        "recv_overhead",
        "rendezvous_overhead",
        "overhead",
    }
)

#: Plain decimal literals below this threshold smell of hand-converted
#: sub-millisecond durations ("0.000003" instead of "3 * US").
_MAGIC_BELOW = 1e-2


@register
class UnitHygieneRule(Rule):
    """Flag opaque sub-millisecond literals in time-valued arguments."""

    id = "unit-hygiene"
    severity = Severity.WARNING
    description = (
        "magic decimal literal passed to a latency/timeout parameter — "
        "write `3 * US` (repro.simengine) or exponent notation `3.0e-6`"
    )

    def check(self, tree: ast.AST, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for where, value in self._time_arguments(node):
                if self._is_magic(value, src):
                    yield self.finding(
                        src,
                        value,
                        f"magic time literal {value.value!r} for {where} — "
                        "express it as a multiple of US/MS/NS from "
                        "repro.simengine (or exponent notation)",
                    )

    def _time_arguments(self, call: ast.Call) -> Iterator[Tuple[str, ast.expr]]:
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "timeout"
            and call.args
        ):
            yield "timeout()", call.args[0]
        for kw in call.keywords:
            if kw.arg in _TIME_KEYWORDS:
                yield f"'{kw.arg}='", kw.value


    def _is_magic(self, node: ast.expr, src: SourceFile) -> bool:
        if not isinstance(node, ast.Constant):
            return False
        v = node.value
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return False
        if not 0 < abs(v) < _MAGIC_BELOW:
            return False
        # Exponent notation ("3.0e-6") is self-documenting; only plain
        # decimals ("0.000003") are opaque.
        text = src.segment(node)
        return "e" not in text.lower()


# ---------------------------------------------------------------------------
# api-hygiene
# ---------------------------------------------------------------------------


def _is_main_guard(test: ast.expr) -> bool:
    """True for the ``__name__ == "__main__"`` comparison (either order)."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return False
    if not isinstance(test.ops[0], ast.Eq):
        return False
    sides = [test.left, test.comparators[0]]
    has_name = any(isinstance(s, ast.Name) and s.id == "__name__" for s in sides)
    has_main = any(isinstance(s, ast.Constant) and s.value == "__main__" for s in sides)
    return has_name and has_main


@register
class MissingAllRule(Rule):
    """Public modules must declare their export surface via ``__all__``."""

    id = "api-missing-all"
    severity = Severity.WARNING
    description = "public module lacks an __all__ export list"

    def check(self, tree: ast.AST, src: SourceFile) -> Iterator[Finding]:
        basename = src.path.rsplit("/", 1)[-1]
        stem = basename[:-3] if basename.endswith(".py") else basename
        if stem.startswith("_") and stem != "__init__":
            return
        # Test and pytest-plugin modules are imported by path, never
        # ``from``-imported: an export list would be dead weight.
        if stem.startswith("test_") or stem == "conftest":
            return
        if "tests" in src.path.split("/"):
            return
        if not isinstance(tree, ast.Module):
            return
        # A module guarded by ``if __name__ == "__main__"`` is a script,
        # not an importable API: no export list needed.
        for node in tree.body:
            if isinstance(node, ast.If) and _is_main_guard(node.test):
                return
        for node in tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.target is not None:
                targets = [node.target]
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id == "__all__":
                    return
        yield self.finding(
            src, tree, f"module '{stem}' defines no __all__ — declare its public surface"
        )


_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "Counter", "deque"})


@register
class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across calls — a latent bug."""

    id = "api-mutable-default"
    description = "function parameter defaults to a shared mutable object"

    def check(self, tree: ast.AST, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for arg, default in self._defaults(node):
                if default is not None and self._is_mutable(default):
                    yield self.finding(
                        src,
                        default,
                        f"parameter '{arg}' of '{node.name}' defaults to a "
                        "mutable object shared across calls — default to "
                        "None and construct inside",
                    )

    def _defaults(self, fn) -> Iterator[Tuple[str, Optional[ast.expr]]]:
        positional = fn.args.posonlyargs + fn.args.args
        for arg, default in zip(positional[::-1], fn.args.defaults[::-1]):
            yield arg.arg, default
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            yield arg.arg, default

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            return name is not None and name.rpartition(".")[2] in _MUTABLE_CALLS
        return False
