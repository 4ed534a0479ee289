"""Span tracing of mzv_lab's public functions, installed from outside.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span: its start, its end and the span that was open when it
started.  A span's self time is its duration minus the time of the spans
opened inside it.  Totals per module are kept for every span; the spans
themselves are kept in memory up to ``SPAN_CAP`` records and written out by
``Tracer.dump`` when the benchmark ends.

Only top-level public entry points are wrapped, never the memoized
first-letter recursions (``*_ordered``, ``_qs_comps``, ...): a wrapper frame
per recursion level would lower the depth at which they hit the recursion
limit, so the traced run would fail where the untraced one does not.
"""

from __future__ import annotations

import contextlib
import json
import time

from mzv_lab import cli, hopf, maps, products, qseries, words

# module -> (holder, attribute names); a holder is a module or a class
MODULES: dict[str, list[tuple[object, tuple[str, ...]]]] = {
    "cli": [(cli, ("parse_expr", "format_poly", "format_tensor", "poly_json", "tensor_json"))],
    "words": [
        (
            words.Poly,
            ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__", "scale", "map_words"),
        )
    ],
    "products": [
        (
            products,
            (
                "shuffle", "quasi_shuffle", "quasi_shuffle_lambda", "shuffle_lambda",
                "shuffle_star", "shuffle_star_alt", "t_op", "ooz_quasi_shuffle",
                "ooz_explicit", "ihara_circ", "transferred_product", "square_classical",
                "square_lambda", "ooz_square",
            ),
        )
    ],
    "maps": [
        (
            maps,
            (
                "tau", "tau_tilde", "derivation", "map_U", "map_U_inv", "map_V",
                "map_V_inv", "dual_family_1", "dual_family_2", "ihara_S", "ihara_S_inv",
            ),
        )
    ],
    "hopf": [
        (
            hopf,
            (
                "deconcat", "antipode", "coproduct_square_op", "infinitesimal_coproduct",
                "infinitesimal_coproduct_at",
            ),
        )
    ],
    "qseries.exact": [
        (
            qseries,
            ("zeta_SZ", "zeta_SZ_star", "zeta_BZ", "zeta_OOZ", "eval_word", "rota_baxter_eval_OOZ"),
        ),
        (qseries.QPoly, ("__mul__",)),
    ],
    "qseries.float": [(qseries, ("zeta_classical_float", "limit_scaling_check"))],
}

SPAN_CAP = 200_000
_PACKAGE = (cli, hopf, maps, products, qseries, words)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # function id -> "module:function"
        self.module_of: list[int] = []  # function id -> module index
        self.calls = [0] * len(MODULES)
        self.self_ns = [0] * len(MODULES)
        self.spans: list[tuple[int, int, int, int, int]] = []  # id, parent, fn, start, end
        self.spans_dropped = 0
        self._open: list[list[int]] = []  # per open span: [span id, child ns]
        self._next_id = 0

    # -- spans -------------------------------------------------------------
    def _wrap(self, fn, fid: int, mod: int):
        open_ = self._open
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            parent = open_[-1][0] if open_ else -1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0]
            open_.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                dur = t1 - t0
                calls[mod] += 1
                self_ns[mod] += dur - frame[1]
                if open_:
                    open_[-1][1] += dur
                tracer._keep((sid, parent, fid, t0, t1))

        span.__wrapped__ = fn
        return span

    @contextlib.contextmanager
    def root(self, label: str):
        """One benchmark operation: a span of no module, parent of the rest."""
        fid = len(self.names)
        self.names.append(f"op:{label}")
        self.module_of.append(-1)
        sid = self._next_id
        self._next_id += 1
        self._open.append([sid, 0])
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
            self._keep((sid, -1, fid, t0, t1))

    def _keep(self, span: tuple[int, int, int, int, int]) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append(span)
        else:
            self.spans_dropped += 1

    def _wrap_map_words(self, fn, fid: int, mod: int):
        """``Poly.map_words(f)`` runs the caller's word-level map f; f is
        timed as a span of the module that defined it, so that its time is
        not counted as words' self time."""
        outer = self._wrap(fn, fid, mod)
        callbacks: dict[int, int] = {}
        groups = list(MODULES)

        def map_words(poly, f):
            group = (getattr(f, "__module__", None) or "").removeprefix("mzv_lab.")
            group = "qseries.exact" if group == "qseries" else group
            if group not in groups:
                return outer(poly, f)
            m = groups.index(group)
            if m not in callbacks:
                callbacks[m] = len(self.names)
                self.names.append(f"{group}:map_words callback")
                self.module_of.append(m)
            return outer(poly, self._wrap(f, callbacks[m], m))

        map_words.__wrapped__ = fn
        return map_words

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function, and rebind each reference to it that
        the package holds: module globals (``from x import f``), dict values
        (``qseries._ZETAS``) and ``LinearMap.apply`` in the map registry."""
        replace: dict[int, object] = {}
        for mod, (module, holders) in enumerate(MODULES.items()):
            for holder, attrs in holders:
                for attr in attrs:
                    fn = vars(holder)[attr]
                    fid = len(self.names)
                    self.names.append(f"{module}:{attr}")
                    self.module_of.append(mod)
                    wrap = self._wrap_map_words if attr == "map_words" else self._wrap
                    wrapped = wrap(fn, fid, mod)
                    replace[id(fn)] = wrapped
                    setattr(holder, attr, wrapped)
        for pkg_module in _PACKAGE:
            for name, value in list(vars(pkg_module).items()):
                if id(value) in replace:
                    setattr(pkg_module, name, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]
                        elif isinstance(item, maps.LinearMap) and id(item.apply) in replace:
                            new = maps.LinearMap(item.name, item.alphabet, replace[id(item.apply)])
                            value[key] = new

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for mod, module in enumerate(MODULES):
            out[f"{module}.calls"] = self.calls[mod]
            out[f"{module}.self_s"] = self.self_ns[mod] / 1e9
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "functions": [
                        {"id": i, "name": n, "module": (list(MODULES)[m] if m >= 0 else None)}
                        for i, (n, m) in enumerate(zip(self.names, self.module_of))
                    ],
                    "span_fields": ["id", "parent", "function", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "spans_dropped": self.spans_dropped,
                },
                fh,
            )
