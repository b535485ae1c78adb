"""Span tracing around linchar's module-level public functions.

`Tracer.install` rebinds, in every `linchar*` module namespace, each public
function defined in one of `LAYERS` to a wrapper that records a span:
(name, start, end, parent span index, operation id).  Methods are not
wrapped.  Spans stay in memory until the benchmark writes them out.

Besides spans the tracer keeps a few counts at the same boundaries:
quasi-polynomial constituents built by `ehrhart.apply_shift_qp` and read
back through `QuasiPoly.constituent`/`value`/`to_json`, `find_roots` calls
and failures, and inconclusive (`None`) half-plane verdicts.  Reads made by
indexing the `constituents` tuple directly are not seen.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time
from types import FunctionType

LAYERS = ("rootdata", "eulerian", "ehrhart", "linial", "ratpoly", "verify", "acceptance", "cli")


def public_functions(module):
    """(name, function) for each public function `module` itself defines,
    including `functools.lru_cache` wrappers."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, FunctionType) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: collections.Counter = collections.Counter()
        self.op = 0
        self._stack: list[int] = []
        self._built: dict[int, int] = {}  # id(QuasiPoly) -> period
        self._keep: list = []  # the built QuasiPolys, alive so that their ids stay unique
        self._read: set[tuple[int, int]] = set()
        self._undo: list = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            exit_(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- counters ----------------------------------------------------------------

    def _built_qp(self, qp) -> None:
        self.counts["linial.constituents_built"] += qp.period
        self._built[id(qp)] = qp.period
        self._keep.append(qp)

    def _read_one(self, qp, d: int) -> None:
        period = self._built.get(id(qp))
        if period is not None:
            self._read.add((id(qp), d % period))

    def _read_all(self, qp) -> None:
        period = self._built.get(id(qp))
        if period is not None:
            self._read.update((id(qp), d) for d in range(period))

    @property
    def constituents_read(self) -> int:
        return len(self._read)

    def _hooks(self) -> dict:
        from linchar.errors import LincharError

        def roots_found(_roots):
            self.counts["verify.find_roots_calls"] += 1

        def roots_raised(exc):
            self.counts["verify.find_roots_calls"] += 1
            if isinstance(exc, LincharError):
                self.counts["verify.find_roots_failed"] += 1

        def halfplane(verdict):
            if verdict is None:
                self.counts["verify.halfplane_inconclusive"] += 1

        def parser_built(parser):
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)

        return {
            "ehrhart.apply_shift_qp": (self._built_qp, None),
            "verify.find_roots": (roots_found, roots_raised),
            "verify.halfplane_exact": (halfplane, None),
            "cli.build_parser": (parser_built, None),
        }

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        """Rebind every public layer function, wherever a linchar module holds it."""
        from linchar.ehrhart import QuasiPoly

        hooks = self._hooks()
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules["linchar." + layer]
            for name, fn in public_functions(module):
                qualname = f"{layer}.{name}"
                on_result, on_error = hooks.get(qualname, (None, None))
                wrapped[id(fn)] = (fn, self.wrap(qualname, fn, on_result, on_error))
        modules = [m for n, m in sorted(sys.modules.items()) if n == "linchar" or n.startswith("linchar.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, name, hit[1])
        acceptance = sys.modules["linchar.acceptance"]
        self._rebind(acceptance, "ALL_CHECKS", tuple(wrapped[id(f)][1] for f in acceptance.ALL_CHECKS))

        tracer = self
        constituent, to_json = QuasiPoly.constituent, QuasiPoly.to_json

        def counted_constituent(qp, d):
            tracer._read_one(qp, d)
            return constituent(qp, d)

        def counted_to_json(qp):
            tracer._read_all(qp)
            return to_json(qp)

        self._rebind(QuasiPoly, "constituent", counted_constituent)
        self._rebind(QuasiPoly, "to_json", counted_to_json)

    def _rebind(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def aggregate(spans) -> tuple[dict, dict]:
    """Per span name: total self time and total inclusive time (seconds).

    A span's self time is its duration minus the durations of its direct
    children, which cover disjoint parts of it.  Inclusive time counts only
    the outermost span of a name on each call path, so recursion is not
    counted twice.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict = collections.defaultdict(float)
    incl_s: dict = collections.defaultdict(float)
    for i, (name, start, end, parent, _op) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            incl_s[name] += end - start
    return dict(self_s), dict(incl_s)
