"""Outside-in tracer: spans around momint's layer functions, patched from here.

No code under ``src/`` knows about it. ``install`` replaces every binding of
each traced function: the defining module's attribute and every re-binding
made by ``from .x import f`` in another momint module (``sym_eig`` and
``psd_check`` are re-bound in bounds, spectral, moments, certify and
semigroup), and the class attribute for methods (``__mul__`` together with
its ``__rmul__`` alias). ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, request, measure]``: ``parent`` indexes
the enclosing span (-1 for a CLI invocation), ``request`` is the invocation's
id and ``measure`` is a size taken from the call (matrix order, terms, ...).
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children; calls are single-threaded and
nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _order(args, kwargs, result):
    return int(result.eigenvalues.size)


def _entries(args, kwargs, result):
    return result.matrix.order ** 2


def _terms(args, kwargs, result):
    return len(args[1].terms)


def _term_pairs(args, kwargs, result):
    other = args[1]
    return len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1)


def _evaluations(args, kwargs, result):
    return (sum(r.attempted for _, r in result), sum(r.skipped for _, r in result))


def _kernel_order(args, kwargs, result):
    level = args[1] if len(args) > 1 else kwargs.get("level")
    if level is None:
        level = args[0].max_level // 2
    return (level + 1) ** 2


#: (span name, module, attribute or Class.attribute, measure of the call)
TARGETS = [
    ("linalg.sym_eig", "momint.linalg", "sym_eig", _order),
    ("linalg.psd_check", "momint.linalg", "psd_check", None),
    ("linalg.pencil_extremes", "momint.linalg", "pencil_extremes", None),
    ("moments.moment_matrix", "momint.moments", "MomentSequence.moment_matrix", _entries),
    ("moments.apply", "momint.moments", "MomentSequence.apply", _terms),
    ("moments.from_measure", "momint.moments", "from_measure", None),
    ("moments.from_document", "momint.moments", "MomentSequence.from_document", None),
    ("moments.to_document", "momint.moments", "MomentSequence.to_document", None),
    ("polynomials.mul", "momint.polynomials", "Polynomial.__mul__", _term_pairs),
    ("polynomials.parse_polynomial", "momint.polynomials", "parse_polynomial", None),
    ("bounds.archimedean_bound", "momint.bounds", "archimedean_bound", None),
    ("bounds.growth_bound", "momint.bounds", "growth_bound", None),
    ("bounds.rayleigh_bounds", "momint.bounds", "rayleigh_bounds", None),
    ("certify.run_check_config", "momint.certify", "run_check_config", _evaluations),
    ("spectral.operator_moments", "momint.spectral", "operator_moments", None),
    ("spectral.quadrature_from_moments", "momint.spectral", "quadrature_from_moments", None),
    ("spectral.rayleigh_interval", "momint.spectral", "rayleigh_interval", None),
    ("semigroup.psd_kernel_check", "momint.semigroup", "psd_kernel_check", _kernel_order),
    ("semigroup.disc_check", "momint.semigroup", "disc_check", None),
    ("semigroup.from_complex_atoms", "momint.semigroup", "from_complex_atoms", None),
]

ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return traced

    def entry(self, cli_main):
        """Root span around each CLI invocation; each call gets the next id."""
        root = self.wrap(ROOT, cli_main)

        def call(argv):
            self.request += 1
            return root(argv)

        return call

    def _rebind(self, owner, original, replacement):
        for key, value in list(vars(owner).items()):
            if value is original:
                self._patched.append((owner, key, original))
                setattr(owner, key, replacement)

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "momint" or name.startswith("momint.")
        ]
        for name, module_name, path, measure in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, measure))
                else:
                    wrapped = self.wrap(name, raw, measure)
                self._rebind(owner, raw, wrapped)
            else:
                raw = getattr(module, path)
                wrapped = self.wrap(name, raw, measure)
                for m in modules:
                    self._rebind(m, raw, wrapped)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def summarize(self) -> dict:
        """Per span name: calls, total and self seconds, and the measures."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _, measure) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "measure": []}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["measure"].append(measure)
        return out

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request", "measure"],
                 "spans": self.spans},
                handle,
            )
