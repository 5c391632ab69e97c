"""Outside-in tracer for the configspaces layers.

The tracer wraps public functions and methods of the program from the
benchmark's side; it edits no source file.  A function imported by name
into another module (``mobius`` binds ``relative_configuration`` and
``enumerate_independence_sets``, ``structure`` binds ``sign_at_root``)
is a separate reference, so :meth:`Tracer.install` replaces the original
object under every name that holds it in every loaded ``configspaces``
module, and :meth:`Tracer.uninstall` puts the originals back.

Each call of a traced function is a span ``(id, parent, name, command,
start, end, active)`` kept in memory.  ``active`` is the time the span
was running: ``end - start`` for a call, and the summed time of its
``next()`` calls for the generator from ``enumerate_independence_sets``,
whose work happens while it is iterated.  A span's self time is its
active time minus the active time of its children, so the self times
of one command sum to the duration of its ``cli.main`` root span.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute, class or None, kind)
#   kind "span": time every call; "count": count calls only, so their
#   time stays in the caller's self time; "generator": time each next().
TRACED = (
    ("cli.main", "configspaces.cli", "main", None, "span"),
    ("cli.parse_config", "configspaces.cli", "parse_config", None, "span"),
    ("core.relative_configuration", "configspaces.core", "relative_configuration", None, "span"),
    ("core.enumerate", "configspaces.core", "enumerate_independence_sets", None, "generator"),
    ("mobius.family_init", "configspaces.mobius", "__init__", "MobiusFamily", "count"),
    ("mobius.relative", "configspaces.mobius", "relative", "MobiusFamily", "span"),
    ("mobius.critical_root", "configspaces.mobius", "critical_root", "MobiusFamily", "span"),
    ("mobius.classify", "configspaces.mobius", "classify", "MobiusFamily", "span"),
    ("poly.first_positive_root", "configspaces.poly", "first_positive_root", None, "span"),
    ("poly.compare_roots", "configspaces.poly", "compare_roots", None, "span"),
    ("poly.sign_at_root", "configspaces.poly", "sign_at_root", None, "span"),
    ("probspace.canonical_space", "configspaces.probspace", "canonical_space", None, "span"),
    ("probspace.verify_realization", "configspaces.probspace", "verify_realization", None, "span"),
    ("probspace.event_probability", "configspaces.probspace", "event_probability", None, "count"),
    ("probspace.atoms_from_intersections", "configspaces.probspace", "atoms_from_intersections", None, "span"),
    ("probspace.sample", "configspaces.probspace", "sample", None, "span"),
    ("structure.right_angled_properties", "configspaces.structure", "right_angled_properties", None, "span"),
)

ROOT = 0


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.command = -1
        # Per traced command, in order: raw -> reference factor, raw latency.
        self.factors: list[float] = []
        self.latencies: list[float] = []
        self._stack = [ROOT]
        self._restore: list[tuple[object, str, object]] = []
        self.sites: dict[str, int] = {}
        # Per command: distinct relative polynomials returned.
        self._distinct: set = set()

    # -- spans --------------------------------------------------------
    def _open(self, name: str) -> list:
        span = [len(self.spans) + 1, self._stack[-1], name, self.command, 0.0, 0.0, 0.0]
        self.spans.append(span)
        return span

    def begin_command(self) -> None:
        self.command = len(self.latencies)
        self._distinct = set()

    def end_command(self, latency: float, factor: float) -> None:
        """Close the command: its raw latency and its raw -> reference
        seconds factor."""
        self.counts["mobius.relative.distinct"] += len(self._distinct)
        self._distinct = set()
        self.latencies.append(latency)
        self.factors.append(factor)

    def _wrap_span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            tracer._stack.append(span[0])
            span[4] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = end = perf_counter()
                span[6] = end - start
                tracer._stack.pop()
            tracer._observe(name, args, result)
            return result

        return traced

    def _wrap_count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            span[4] = start = perf_counter()
            inner = fn(*args, **kwargs)
            span[5] = end = perf_counter()
            span[6] = end - start
            return _TracedIterator(tracer, name, inner, span)

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counters read from arguments and results, after the span closed."""
        self.counts[name + ".calls"] += 1
        if name == "mobius.relative":
            self._distinct.add(result)
        elif name == "probspace.atoms_from_intersections":
            n, q = args[0], args[1]
            self.counts["dense.cells"] += 1 << n
            self.counts["dense.members"] += sum(1 for v in q.values() if v != 0)

    # -- binding ------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function under every name that holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "configspaces" or k.startswith("configspaces.")]
        wrappers = {"span": self._wrap_span, "count": self._wrap_count,
                    "generator": self._wrap_generator}
        for name, module_name, attr, class_name, kind in TRACED:
            module = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrappers[kind](name, original))
                self.sites[name] = 1
                continue
            original = getattr(module, attr)
            wrapper = wrappers[kind](name, original)
            sites = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        sites += 1
            self.sites[name] = sites

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Self time of every span, keyed by span id."""
        child_active: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            child_active[span[1]] += span[6]
        return {span[0]: span[6] - child_active[span[0]] for span in self.spans}

    def dump(self, path) -> None:
        """Write every span once, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _TracedIterator:
    """Times each next() of a generator; charges it to the open span."""

    __slots__ = ("_tracer", "_name", "_inner", "_spans")

    def __init__(self, tracer: Tracer, name: str, inner, span: list):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        # One span per parent that pulls from the generator.
        self._spans = {span[1]: span}

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        parent = tracer._stack[-1]
        span = self._spans.get(parent)
        if span is None:
            span = self._spans[parent] = tracer._open(self._name)
        start = perf_counter()
        try:
            value = next(self._inner)
        finally:
            end = perf_counter()
            if not span[4]:
                span[4] = start
            span[5] = end
            span[6] += end - start
        tracer.counts[self._name + ".members"] += 1
        return value
