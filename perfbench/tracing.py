"""Out-of-process-boundary tracing of the ``tollshare`` layers.

The package carries no instrumentation of its own, so the benchmark wraps the
public functions of each module from outside.  ``tollshare.cli`` and the
other modules import names with ``from .x import y`` and keep functions in
lookup tables (``METHODS``, ``_SOLUTIONS``), so one wrapper is installed at
every binding site: module attributes, dict values and tuples inside dict
values.  Methods are wrapped on their class.

A span is ``[name, start, end, parent, error]`` with ``parent`` the index of
the enclosing span in the same list (``-1`` for a root).  Spans stay in
memory; :func:`aggregate` turns one round of spans into per-function calls,
self time and errors.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator

#: Traced functions: metric name -> (module, attribute path).  A dotted path
#: names a method, which is wrapped on its class.
TARGETS: dict[str, tuple[str, str]] = {
    "model.read_triplet_csv": ("model", "read_triplet_csv"),
    "model.TollMatrix": ("model", "TollMatrix.__post_init__"),
    "model.random_matrix": ("model", "random_matrix"),
    "model.write_triplet_csv": ("model", "write_triplet_csv"),
    "methods.ses": ("methods", "ses"),
    "methods.sps": ("methods", "sps"),
    "methods.scs": ("methods", "scs"),
    "methods.sps_decomposition": ("methods", "sps_decomposition"),
    "game.SegmentsGame": ("game", "SegmentsGame.__init__"),
    "game.core_check": ("game", "core_check"),
    "game.sps_core_criterion": ("game", "sps_core_criterion"),
    "game.average_tree_value": ("game", "average_tree_value"),
    "game.mask_values": ("game", "SegmentsGame.mask_values"),
    "game.shapley_value": ("game", "shapley_value"),
    "game.compromise_bounds": ("game", "compromise_bounds"),
    "game.tau_value": ("game", "tau_value"),
    "game.core_check_exhaustive": ("game", "core_check_exhaustive"),
    "axioms.axiom_matrix": ("axioms", "axiom_matrix"),
    "axioms.independence_harness": ("axioms", "independence_harness"),
    "axioms.evaluate_axiom": ("axioms", "evaluate_axiom"),
    "axioms.run_instance": ("axioms", "run_instance"),
    "axioms.generate_instance": ("axioms", "generate_instance"),
    "equity.gini": ("equity", "gini"),
    "equity.lorenz": ("equity", "lorenz"),
    "equity.rank_correlations": ("equity", "rank_correlations"),
    "cli.main": ("cli", "main"),
}

LAYERS = ("model", "methods", "game", "axioms", "equity", "cli")
PACKAGE = "tollshare"


@contextlib.contextmanager
def rebind(package: str, replacements: dict[Callable, Callable]) -> Iterator[None]:
    """Replace functions at every binding site inside ``package``'s modules.

    ``replacements`` maps original function objects to their stand-ins.
    Everything is restored on exit.
    """
    undo: list[Callable[[], None]] = []
    by_id = {id(original): stand_in for original, stand_in in replacements.items()}

    def swap(value):
        if isinstance(value, tuple):
            new = tuple(by_id.get(id(v), v) for v in value)
            return new if any(a is not b for a, b in zip(new, value)) else value
        return by_id.get(id(value), value)

    try:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not item:
                            value[key] = new
                            undo.append(functools.partial(value.__setitem__, key, item))
                    continue
                new = swap(value)
                if new is not value:
                    setattr(module, attr, new)
                    undo.append(functools.partial(setattr, module, attr, value))
        yield
    finally:
        for restore in reversed(undo):
            restore()


@contextlib.contextmanager
def rebind_methods(replacements: dict[tuple[type, str], Callable]) -> Iterator[None]:
    """Replace methods on their classes; restore them on exit."""
    saved = [(cls, name, cls.__dict__[name]) for cls, name in replacements]
    try:
        for (cls, name), fn in replacements.items():
            setattr(cls, name, fn)
        yield
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


class Tracer:
    """Span recorder plus the work counts measured at the same boundaries.

    Counts are per round: :meth:`reset` starts a new round.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.current = -1
        self.counts: dict[str, int] = defaultdict(int)
        # objects are held for the round so that their ids stay unique
        self._held: list[object] = []
        self._seen: dict[str, set[frozenset]] = defaultdict(set)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self.current
        record = [name, perf_counter(), 0.0, parent, False]
        self.current = len(self.spans)
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = perf_counter()
            self.current = parent

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target at every binding site while the block runs."""
        functions: dict[Callable, Callable] = {}
        methods: dict[tuple[type, str], Callable] = {}
        for name, (module, path) in TARGETS.items():
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            if classes:
                methods[(owner, attr)] = self._wrap(name, original)
            else:
                functions[original] = self._wrap(name, original)
        with rebind(PACKAGE, functions), rebind_methods(methods):
            yield

    def count_distinct(self, counter: str, *objects) -> None:
        """Set ``counter`` to the number of distinct argument sets seen this
        round, comparing objects by identity."""
        self._held.extend(objects)
        seen = self._seen[counter]
        seen.add(frozenset(map(id, objects)))
        self.counts[counter] = len(seen)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_read(t, args, kwargs, result):
    t.counts["model.read.trips"] += len(result.entries)


def _count_method(t, args, kwargs, result):
    t.counts["methods.trips"] += len(_arg(args, kwargs, 0, "matrix").entries)


def _count_build(t, args, kwargs, result):
    t.count_distinct("game.distinct_matrices", _arg(args, kwargs, 1, "matrix"))


def _intervals(n: int) -> int:
    # every interval except the grand coalition
    return n * (n + 1) // 2 - 1


def _count_core(t, args, kwargs, result):
    t.counts["game.intervals"] += _intervals(_arg(args, kwargs, 0, "game").n)


def _count_criterion(t, args, kwargs, result):
    if result.beta is not None:
        t.counts["game.intervals"] += _intervals(_arg(args, kwargs, 0, "matrix").n)


def _count_coalitions(t, args, kwargs, result):
    t.counts["game.coalitions"] += 1 << _arg(args, kwargs, 0, "game").n


def _count_pair(t, args, kwargs, result):
    t.count_distinct("equity.distinct_pairs", _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y"))


_COUNTERS: dict[str, Callable] = {
    "model.read_triplet_csv": _count_read,
    "methods.ses": _count_method,
    "methods.sps": _count_method,
    "methods.scs": _count_method,
    "game.SegmentsGame": _count_build,
    "game.core_check": _count_core,
    "game.sps_core_criterion": _count_criterion,
    "game.shapley_value": _count_coalitions,
    "game.compromise_bounds": _count_coalitions,
    "game.core_check_exhaustive": _count_coalitions,
    "equity.rank_correlations": _count_pair,
}


def aggregate(spans: list[list]) -> tuple[dict, dict]:
    """Per-name totals and per-root breakdowns of one round of spans.

    Returns ``(functions, roots)``.  ``functions[name]`` holds ``calls``,
    ``ms`` (self time), ``errors`` and ``inclusive_ms``.  ``roots`` maps
    each root span name to its wall time and the self time of every layer
    beneath it; the layer times add up to the wall time.
    """
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    functions: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "ms": 0.0, "errors": 0, "inclusive_ms": 0.0})
    roots: dict[str, dict] = {}
    per_root_layers: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, error) in enumerate(spans):
        duration = end - start
        own = duration - child[i]
        entry = functions[name]
        entry["calls"] += 1
        entry["ms"] += 1e3 * own
        entry["inclusive_ms"] += 1e3 * duration
        entry["errors"] += int(error)
        per_root_layers[root[i]][name.split(".", 1)[0]] += 1e3 * own
    for i, layers in per_root_layers.items():
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        entry = roots.setdefault(name, {"wall_ms": 0.0, "layers": defaultdict(float)})
        entry["wall_ms"] += 1e3 * (end - start)
        for layer, ms in layers.items():
            entry["layers"][layer] += ms
    return dict(functions), roots
