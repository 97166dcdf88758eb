"""Span tracer that instruments probstirling from outside.

Nothing in the package is edited.  `Tracer.install` replaces each traced
function by a wrapper everywhere the original object is bound: in every
``probstirling.*`` module namespace (``from .special import binom`` binds a
separate name in ``closedforms``, ``prob`` and ``verify``) and in the class
dictionaries of ``Series`` and ``RandomVar`` (so the aliases
``Series.__rmul__ = __mul__`` and ``__pow__ = pow`` are traced too).

Each call becomes one span ``(name, start, end, parent, op)``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``op`` the index of
the benchmark operation that issued it, so all spans of one operation share
an identifier.  Spans live in compact in-memory arrays and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from fractions import Fraction
from time import perf_counter

import numpy as np

# layer -> {span name: how to find the original}.  A plain string names a
# module-level function; ("Class", "attr") names a class attribute.
TRACED = {
    "series": {
        "mul": ("Series", "__mul__"),
        "div": ("Series", "__truediv__"),
        "pow": ("Series", "pow"),
        "exp": ("Series", "exp"),
        "log1p": ("Series", "log1p"),
        "compose": ("Series", "compose"),
        "revert": ("Series", "revert"),
        "lagrange_extract": "lagrange_extract",
    },
    "special": {
        name: name for name in (
            "triangle", "triangle_from_base", "partial_bell", "binom",
            "falling_factorial", "deg_exp", "deg_log", "order_numbers",
        )
    },
    "randomvars": {
        name: ("RandomVar", name) for name in (
            "param", "mean", "describe", "bernoulli", "binomial", "poisson",
            "exponential", "gamma", "geometric", "normal", "negbinomial",
            "uniform01", "pointmass", "custom",
        )
    } | {"builtin_random_vars": "builtin_random_vars"},
    "prob": {
        name: name for name in (
            "mgf_deg", "bundle", "prob_triangle", "prob_log",
            "prob_order_numbers", "sj_moment", "schlomilch_s1",
        )
    },
    "closedforms": {"closed_form": "closed_form"},
    "verify": {
        name: name for name in ("identity_suite", "check_orthogonality", "limit_suite")
    },
    "cli": {"main": "main"},
}

# layers whose functions are reported only as the layer's total self time
TOTAL_ONLY = ("randomvars",)

# normalised argument keys, for the key-repeat shares
_KEYS = {
    "prob.bundle": lambda rv, lam, order: (rv, Fraction(lam), order),
    "prob.prob_triangle": lambda rv, lam, family, nmax: (rv, Fraction(lam), family, nmax),
}


def span_names():
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


class Tracer:
    """Records spans of the traced probstirling functions in one process."""

    def __init__(self):
        self.names = span_names()
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = []
        self._restore = []
        self.key_calls = {name: 0 for name in _KEYS}
        self.key_repeats = {name: 0 for name in _KEYS}
        self._seen = {name: set() for name in _KEYS}
        self.closed_form_results = 0
        self.closed_form_numeric = 0
        self.cli_bytes_out = 0
        self._numeric_type = None

    # -- instrumentation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function of the imported `package`."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package.__name__
                                  or name.startswith(package.__name__ + "."))
        ]
        self._numeric_type = package.closedforms.NumericResult
        classes = {"Series": package.series.Series,
                   "RandomVar": package.randomvars.RandomVar}
        for nid, full in enumerate(self.names):
            layer, name = full.split(".")
            where = TRACED[layer][name]
            if isinstance(where, tuple):
                raw = vars(classes[where[0]])[where[1]]
                original = raw.__func__ if isinstance(raw, staticmethod) else raw
            else:
                original = vars(getattr(package, layer))[where]
            wrapper = self._wrap(nid, full, original)
            self._rebind(original, wrapper, modules, classes.values())

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _rebind(self, original, wrapper, modules, classes) -> None:
        for owner in [*modules, *classes]:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    replacement = wrapper
                elif isinstance(value, staticmethod) and value.__func__ is original:
                    replacement = staticmethod(wrapper)
                else:
                    continue
                self._restore.append((owner, attr, value))
                setattr(owner, attr, replacement)

    def _wrap(self, nid: int, full: str, fn):
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, stack = self.parent, self.op, self._stack
        observe = self._observer(full)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observer(self, full: str):
        if full in _KEYS:
            key_of, seen = _KEYS[full], self._seen[full]

            def count_key(args, kwargs, result):
                key = key_of(*args, **kwargs)
                self.key_calls[full] += 1
                if key in seen:
                    self.key_repeats[full] += 1
                else:
                    seen.add(key)

            return count_key
        if full == "closedforms.closed_form":
            def count_numeric(args, kwargs, result):
                self.closed_form_results += 1
                if isinstance(result, self._numeric_type):
                    self.closed_form_numeric += 1

            return count_numeric
        return None

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.array(self.name_id, dtype=np.uint16),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per function and layer."""
        spans = self.arrays()
        self_s, calls = self_times(spans["name_id"], spans["start"], spans["end"],
                                   spans["parent"], len(self.names))
        out = {}
        layer_self = dict.fromkeys(TRACED, 0.0)
        for nid, full in enumerate(self.names):
            layer = full.split(".")[0]
            layer_self[layer] += float(self_s[nid])
            if layer not in TOTAL_ONLY:
                out[f"{full}.calls"] = int(calls[nid])
                out[f"{full}.self_s"] = float(self_s[nid])
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        for full in _KEYS:
            out[f"{full}.key_repeat_share"] = _share(self.key_repeats[full],
                                                     self.key_calls[full])
        out["closedforms.numeric_share"] = _share(self.closed_form_numeric,
                                                  self.closed_form_results)
        out["cli.bytes_out"] = self.cli_bytes_out
        return out

    def dump(self, path, meta: dict) -> None:
        """Write the spans (and the name table) to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), meta=np.array(repr(meta)),
                            **self.arrays())


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def self_times(name_id, start, end, parent, n_names: int):
    """Per-name total self time and call count of a span table.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap on the single thread traced here.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    own = duration - child
    return (np.bincount(name_id, weights=own, minlength=n_names),
            np.bincount(name_id, minlength=n_names))
