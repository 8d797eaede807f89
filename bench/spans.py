"""Spans around calls into glcs's public functions, recorded from outside.

`Tracer()` replaces each function in WRAPPED, under every name any glcs
module bound it to (glcs.cli imports most of them by name, so patching the
defining module alone would miss those calls), with a wrapper that records a
span: name, start, end, parent span and operation id.  Spans stay in memory;
`export` hands them to run.py, which writes them out once the run ends.

The `phi_bruteforce` wrapper first extends `graded_dims` over degrees 1, 2,
..., up_to - 1, each in its own span, and then calls glcs's own
`phi_bruteforce` in the span of degree up_to.  `graded_dims` keeps a cache
keyed by the presentation's content, so the last call does only the last
degree and the split costs what one call costs.  The presentation made for
the warm-up is not recorded; the one `phi_bruteforce` makes is.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

WRAPPED = {
    "cli": ["main"],
    "graphs": ["parse_graph", "clique_vector", "is_chordal", "decompose"],
    "series": ["expand_product", "phi_from_exponents", "expand_lcs_product"],
    "formula": ["chromatic_polynomial", "poincare_polynomial", "glue_series",
                "braid_series"],
    "holonomy": ["presentation", "verify_mayer_vietoris"],
}


class Tracer:
    def __init__(self):
        import glcs.cli  # binds glcs and loads every module before patching

        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, op]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1
        holonomy = glcs.holonomy
        wrappers = {}
        for module, names in WRAPPED.items():
            mod = getattr(glcs, module)
            for name in names:
                fn = getattr(mod, name)
                wrappers[fn] = self._wrap(f"{module}.{name}", fn)
        presentation = holonomy.presentation
        graded_dims = holonomy.graded_dims
        witt_dimension = holonomy.witt_dimension
        phi_original = holonomy.phi_bruteforce

        def phi_bruteforce(g, up_to, *, max_dim=None, max_entries=None):
            # warm degrees 1..up_to-1 in their own spans; glcs's own
            # phi_bruteforce then does the last degree from the same cache
            p = presentation(g)
            for k in range(1, up_to):
                with self.span(f"holonomy.degree{k}"):
                    graded_dims(p, k, max_dim=max_dim, max_entries=max_entries)
            with self.span(f"holonomy.degree{up_to}"):
                phi = phi_original(g, up_to, max_dim=max_dim,
                                   max_entries=max_entries)
            free = sum(witt_dimension(p.num_generators, k)
                       for k in range(1, up_to + 1))
            self.count("holonomy.free_dim", free)
            self.count("holonomy.ideal_rank", free - sum(phi))
            return phi

        wrappers[phi_original] = self._wrap("holonomy.phi_bruteforce",
                                             phi_bruteforce)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "glcs" and not mod_name.startswith("glcs."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [self._name_id(name), time.perf_counter(), None, parent, self._op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        try:
            with self.span("op") as rec:
                yield rec
        finally:
            self._op = -1

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}


def totals(export: dict) -> dict[str, float]:
    """Summed span time per name, in seconds, for one traced process.

    "<name>" sums the spans with no enclosing span of the same name, so
    recursion is not counted twice; "<name>.self" sums each span's time
    minus that of its direct children; "<name>.calls" counts every span.
    Counters recorded with `Tracer.count` are added under their own names.
    """
    names = export["names"]
    spans = export["spans"]
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict[str, float] = dict(export["counts"])
    for i, (nid, start, end, parent, _) in enumerate(spans):
        name = names[nid]
        duration = end - start
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == nid:
                outer = False
                break
            p = spans[p][3]
        if outer:
            out[name] = out.get(name, 0.0) + duration
        out[name + ".self"] = out.get(name + ".self", 0.0) + duration - child_time[i]
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
    return out
