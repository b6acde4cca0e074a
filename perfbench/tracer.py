"""Outside-in span tracer for the sinkeq modules.

The tracer wraps public functions from outside ``src/``: it replaces the
function object under every module attribute that refers to it, so a call
through ``sinkeq.sinks.build_kernel`` or ``sinkeq.cli.sink_equilibria`` is
timed as well as one through ``sinkeq.dynamics.build_kernel``.  Spans live in
memory with parent links until the caller writes them out.  A name that does
not exist in the package is skipped, so functions can be deleted without
breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "sinkeq"
TRACED = (
    "game.load_game",
    "game.enumerate_nash",
    "game.optimal_profile",
    "dynamics.build_kernel",
    "dynamics.is_singleton_br",
    "sinks.strongly_connected_components",
    "sinks.sink_components",
    "sinks.sink_equilibria",
    "sinks.stationary_distribution",
    "sinks.price_of_sinking",
    "smoothness.best_smoothness",
    "smoothness.measure_misalignment",
    "smoothness.bound_report",
    "generators.sample_covering_instance",
    "generators.make_covering_game",
    "generators.run_monte_carlo",
    "cli.main",
)


@dataclass
class Span:
    id: int
    op: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    args: inspect.BoundArguments | None = None
    result: object = None
    children: list[int] = field(default_factory=list)


class Tracer:
    """Records one span per call of each traced function inside ``active``.

    ``keep_io`` names functions whose bound arguments and return value the
    span keeps, so the caller can inspect them after the op and then drop
    them with ``release_io``.
    """

    def __init__(self, keep_io: tuple[str, ...] = ()):
        self.keep_io = set(keep_io)
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def active(self, op: int):
        """Trace the calls made inside the block, tagging spans with ``op``.

        The wrappers exist only inside the block, so untraced calls run the
        original functions with no added cost.
        """
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> list[str]:
        """Wrap every traced name that exists; return the names wrapped."""
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        installed = []
        for qualname in TRACED:
            module_name, func_name = qualname.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None or not callable(original):
                continue
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            installed.append(qualname)
        return installed

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, qualname: str, original):
        signature = inspect.signature(original)
        keep = qualname in self.keep_io

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                op=self.op,
                name=qualname,
                parent=self._stack[-1] if self._stack else None,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            if span.parent is not None:
                self.spans[span.parent].children.append(span.id)
            self._stack.append(span.id)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.args = bound
                span.result = result
            return result

        return wrapper

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the interval its children cover."""
        covered = 0.0
        cursor = span.start
        for child in sorted((self.spans[c] for c in span.children), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (span.end - span.start) - covered

    def release_io(self, first: int = 0) -> None:
        """Drop the arguments and results kept by spans from ``first`` on."""
        for span in self.spans[first:]:
            span.args = span.result = None

    def dump(self) -> list[dict]:
        """Spans as plain records, each tagged with the op that caused it."""
        return [
            {
                "id": s.id,
                "op": s.op,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": self.self_time(s),
            }
            for s in self.spans
        ]
