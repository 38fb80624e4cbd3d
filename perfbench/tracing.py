"""Spans and counters around the calls into each layer of `localities`.

Nothing under `src/` knows about tracing: `Tracer.install` replaces the
traced functions and methods with wrappers at run time.  A module-level
function is rebound in every `localities` module that imported it by name
(for example `partial_subgroup_closure` lives in `partial`, `locality`,
`normal` and `quotient`), so calls between layers go through the wrapper.

The hot methods (`mul2`, `in_domain`, `step`) only get counters; their time
lands in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) pairs recorded as spans.  `FiniteGroup.__init__` is
# reported as `groups.FiniteGroup`, the constructor call.
SPANS = (
    ("groups", "generate_group"),
    ("groups", "all_subgroups"),
    ("groups", "sylow_p"),
    ("groups", "FiniteGroup.__init__"),
    ("partial", "partial_subgroup_closure"),
    ("partial", "check_axioms"),
    ("locality", "locality_from_group"),
    ("locality", "check_locality"),
    ("locality", "Locality.conj_table"),
    ("normal", "enumerate_partial_normals"),
    ("normal", "partial_normal_closure"),
    ("normal", "is_partial_normal"),
    ("normal", "product_theorem1"),
    ("normal", "product_theorem2"),
    ("quotient", "coset_partition"),
    ("quotient", "is_up_maximal"),
    ("quotient", "build_quotient"),
    ("quotient", "partial_subgroups_containing"),
    ("quotient", "verify_quotient_lemmas"),
    ("model", "emit_quotient"),
    ("cli", "main"),
)

# Methods that only count their calls.
COUNTERS = (
    ("locality", "LocalityPartialGroup.mul2"),
    ("locality", "LocalityPartialGroup.in_domain"),
    ("locality", "ThreadAutomaton.step"),
    ("quotient", "QuotientPartialGroup.in_domain"),
)

# A value kept from each span's result, summed into `.words` or the
# numerator of `.yield`.
VALUE_OF = {
    "partial.check_axioms": lambda report: report.words_checked,
    "quotient.partial_subgroups_containing": len,
    "normal.enumerate_partial_normals": len,
}

# `.yield` = results returned / calls of the attempt made for each result.
YIELD_ATTEMPT = {
    "quotient.partial_subgroups_containing": "partial.partial_subgroup_closure",
    "normal.enumerate_partial_normals": "normal.partial_normal_closure",
}

# Fields of a span record [name, start, end, parent index or -1, value].
NAME, START, END, PARENT, VALUE = range(5)


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


def _resolve(module: str, attr: str):
    """(owner, attribute name) of `localities.<module>.<attr>`."""
    owner = sys.modules[f"localities.{module}"]
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Spans with parent links and call counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {}
        self.automata: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        value_of = VALUE_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if value_of is not None:
                rec[VALUE] = value_of(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _registering(self, fn):
        automata = self.automata

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            automata.append(obj)
            return fn(obj, *args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
            return
        old = getattr(owner, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "localities" and not mod_name.startswith("localities."):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._restore.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self) -> None:
        import localities.cli  # noqa: F401  (imports every traced module)

        for module, attr in SPANS:
            owner, last = _resolve(module, attr)
            self._replace(owner, last, self._spanned(_span_name(module, attr), getattr(owner, last)))
        for module, attr in COUNTERS:
            owner, last = _resolve(module, attr)
            self._replace(owner, last, self._counted(_span_name(module, attr), getattr(owner, last)))
        owner, last = _resolve("locality", "ThreadAutomaton.__init__")
        self._replace(owner, last, self._registering(getattr(owner, last)))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Per-layer metrics named `<module>.<function>.<stat>`."""
        out = span_stats(self.spans, [_span_name(m, a) for m, a in SPANS])
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        out["locality.ThreadAutomaton.states"] = sum(len(a.states) for a in self.automata)
        return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for rec, kids in zip(spans, children):
        start, end = rec[START], rec[END]
        covered = 0.0
        reach = start
        for a, b in sorted((spans[k][START], spans[k][END]) for k in kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def span_stats(spans: list[list], names=()) -> dict[str, float]:
    """`.calls`, `.total_s`, `.self_s`, `.words`, `.hits` and `.yield` from spans.

    Every name in `names` is reported, with zeros if it has no span.
    `total_s` counts only the outermost span of a name, so a function that
    calls itself is not counted twice.
    """
    calls: dict[str, int] = dict.fromkeys(names, 0)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    values: dict[str, int] = defaultdict(int)
    attempts: dict[str, int] = defaultdict(int)
    hits = 0
    child_names: list[set[str]] = [set() for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            child_names[rec[PARENT]].add(rec[NAME])
    for i, (rec, self_s) in enumerate(zip(spans, self_times(spans))):
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        own[name] += self_s
        if rec[VALUE] is not None:
            values[name] += rec[VALUE]
        parent = rec[PARENT]
        if parent >= 0 and YIELD_ATTEMPT.get(spans[parent][NAME]) == name:
            attempts[spans[parent][NAME]] += 1
        if name == "quotient.coset_partition" and "quotient.is_up_maximal" not in child_names[i]:
            hits += 1
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total[name] += rec[END] - rec[START]
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = own[name]
    for name in YIELD_ATTEMPT:
        out[f"{name}.yield"] = values[name] / attempts[name] if attempts[name] else 0.0
    out["partial.check_axioms.words"] = values["partial.check_axioms"]
    out["quotient.coset_partition.hits"] = hits
    return out
