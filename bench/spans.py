"""Call tracing for one `infoclosure` process, installed from outside the package.

`Recorder.install()` replaces each function in `TARGETS` with a timing
wrapper and rebinds the wrapper everywhere the original is bound: a name
imported with ``from .special import log_gamma`` lives in ``process`` and
``bayes`` as well as ``special``, and each binding is swapped.

Every wrapped call is aggregated per (name, parent) into a call count, a
total time and a self time (total minus the time of wrapped calls made
inside it).  Hot leaves such as ``log_gamma`` run millions of times, so only
the coarse functions in `SPANNED` also keep one span per call.  Spans and
aggregates stay in memory until `Recorder.dump` writes them out.

Generator functions (``enumerate_counts``, ``count_last_distribution``) are
timed per resumption: the work of a generator happens while its consumer
iterates, so each ``next()`` is a timed call under whichever function
resumed it, and the number of items yielded is counted separately.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (metric prefix, module, attribute, kind) of every traced callable.
#: kind is "fn", "gen" (generator function) or "method" (attribute is
#: "Class.method").
TARGETS = (
    ("special.log_gamma", "special", "log_gamma", "fn"),
    ("special.digamma", "special", "digamma", "fn"),
    ("process.enumerate_counts", "process", "enumerate_counts", "gen"),
    ("process.count_log_prob", "process", "count_log_prob", "fn"),
    ("process.log_count_cardinality", "process", "log_count_cardinality", "fn"),
    ("process.add_counts", "process", "add_counts", "fn"),
    ("process.count", "process", "count", "fn"),
    ("closure.ntic", "closure", "ntic", "fn"),
    ("closure.one_step_ntic", "closure", "one_step_ntic", "fn"),
    ("closure.count_last_distribution", "closure", "count_last_distribution", "gen"),
    ("closure.pointwise_ntic", "closure", "pointwise_ntic", "fn"),
    ("closure.one_step_pointwise_ntic", "closure", "one_step_pointwise_ntic", "fn"),
    ("bayes.one_step_info_gain_from_count", "bayes", "one_step_info_gain_from_count", "fn"),
    ("bayes.posterior_predictive", "bayes", "posterior_predictive", "fn"),
    ("bayes.one_step_info_gain", "bayes", "one_step_info_gain", "fn"),
    ("bayes.full_past_info_gain", "bayes", "full_past_info_gain", "fn"),
    ("bayes.marginal_surprise", "bayes", "marginal_surprise", "fn"),
    ("oracle.build_joint", "oracle", "build_joint", "fn"),
    ("oracle.ensure_groups", "oracle", "JointTable._ensure_groups", "method"),
    ("oracle.oracle_mutual_information", "oracle", "oracle_mutual_information", "fn"),
    ("oracle.oracle_transfer_entropy", "oracle", "oracle_transfer_entropy", "fn"),
    ("oracle.oracle_kl_quadrature", "oracle", "oracle_kl_quadrature", "fn"),
    ("conformance.run_conformance", "conformance", "run_conformance", "fn"),
    ("cli.render", "cli", "_render", "fn"),
    ("cli.emit", "cli", "_emit", "fn"),
    ("cli.main", "cli", "main", "fn"),
)

#: Functions called few enough times to keep one span per call.
SPANNED = frozenset({
    "cli.main", "cli.render", "cli.emit", "conformance.run_conformance",
    "closure.ntic", "closure.one_step_ntic", "oracle.build_joint",
    "oracle.ensure_groups", "oracle.oracle_mutual_information",
    "oracle.oracle_transfer_entropy", "oracle.oracle_kl_quadrature",
})

_ROOT_FRAME = "<root>"


class Recorder:
    """In-memory aggregates, spans and counters of one traced process."""

    def __init__(self) -> None:
        # A frame is [name, child seconds, id of the nearest enclosing span].
        self._stack: list[list] = [[_ROOT_FRAME, 0.0, 0]]
        self.aggregates: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent id, name, start, end
        self.counters: dict[str, int] = {}
        self._joint_keys: set = set()

    # -- bookkeeping -------------------------------------------------------
    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, name: str, spanned: bool) -> list:
        parent = self._stack[-1]
        span_id = len(self.spans) + 1 if spanned else parent[2]
        if spanned:
            self.spans.append((span_id, parent[2], name, 0.0, 0.0))
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, start: float, end: float, spanned: bool, calls: int) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        elapsed = end - start
        parent[1] += elapsed
        key = (frame[0], parent[0])
        entry = self.aggregates.get(key)
        if entry is None:
            entry = self.aggregates[key] = [0, 0.0, 0.0]
        entry[0] += calls
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        if spanned:
            span_id = frame[2]
            _, parent_id, name, _, _ = self.spans[span_id - 1]
            self.spans[span_id - 1] = (span_id, parent_id, name, start, end)

    # -- wrappers ----------------------------------------------------------
    def _wrap_fn(self, name: str, fn):
        spanned = name in SPANNED
        note = _NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, spanned)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, start, clock(), spanned, 1)
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def _wrap_gen(self, name: str, fn):
        clock = time.perf_counter
        items_key = _GENERATOR_ITEMS[name]

        def drive(inner):
            while True:
                frame = self._enter(name, False)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(frame, start, clock(), False, 0)
                self._count(items_key)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0]
            entry = self.aggregates.setdefault((name, parent), [0, 0.0, 0.0])
            entry[0] += 1
            return drive(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind the wrapper in every package module."""
        package = [
            module for mod_name, module in list(sys.modules.items())
            if mod_name == "infoclosure" or mod_name.startswith("infoclosure.")
        ]
        for name, module_name, attr, kind in TARGETS:
            module = importlib.import_module(f"infoclosure.{module_name}")
            if kind == "method":
                class_name, method_name = attr.split(".")
                owner = getattr(module, class_name)
                setattr(owner, method_name, self._wrap_fn(name, getattr(owner, method_name)))
                continue
            original = getattr(module, attr)
            wrapper = (self._wrap_gen if kind == "gen" else self._wrap_fn)(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: str, extra: dict) -> None:
        document = {
            **extra,
            "aggregates": [
                {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
                for (name, parent), (calls, total, own) in sorted(self.aggregates.items())
            ],
            "counters": {**self.counters, "oracle.build_joint.distinct": len(self._joint_keys)},
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# Extra counts read from a traced call's arguments or result.
def _note_count(rec: Recorder, args, result) -> None:
    rec._count("process.count.symbols", len(args[0]))


def _note_joint(rec: Recorder, args, result) -> None:
    phi, _xi0, t = args[:3]
    rec._joint_keys.add((phi.probs, t))
    rec._count("oracle.build_joint.builds")
    rec._count("oracle.build_joint.rows", len(result))


def _note_render(rec: Recorder, args, result) -> None:
    rec._count("cli.render.bytes", len(result.encode("utf-8")))
    if args[0] == "curve":
        rec._count("cli.curve_rows", len(args[3]))


def _note_conformance(rec: Recorder, args, result) -> None:
    rec._count("conformance.records", len(result.records))


_NOTES = {
    "process.count": _note_count,
    "oracle.build_joint": _note_joint,
    "cli.render": _note_render,
    "conformance.run_conformance": _note_conformance,
}

_GENERATOR_ITEMS = {
    "process.enumerate_counts": "process.enumerate_counts.states",
    "closure.count_last_distribution": "closure.count_last_distribution.yields",
}
