"""Per-layer tracing of umbral-flow from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``TRACED`` with wrappers that count calls and time them, in the classes and
in every package module namespace that imported them by name.  Nothing in
the package changes on disk; a traced process is never the one whose times
the end-to-end metrics report.

Per function the tracer keeps:

* ``calls``;
* ``busy_s``: inclusive time, counted only at the outermost active call, so
  recursion is not counted twice;
* ``self_s``: inclusive time minus the time covered by traced callees.

The ``fq`` and ``laurent`` layers see millions of calls per run, so they are
aggregated in place.  Calls into the other layers also leave one span each
(name, start, end, parent span), which ``write_spans`` saves.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

PACKAGE = "umbral_flow"

#: (module, attribute path, metric name)
TRACED = (
    ("fq", "FieldCtx.convolve", "fq.convolve"),
    ("fq", "PolyA.__mul__", "fq.PolyA.mul"),
    ("laurent", "LaurentF.__mul__", "laurent.mul"),
    ("laurent", "LaurentF.__add__", "laurent.add"),
    ("laurent", "LaurentF.inv", "laurent.inv"),
    ("laurent", "LaurentF.frob_power", "laurent.frob_power"),
    ("series", "TruncSeries.__mul__", "series.mul"),
    ("series", "series_compose", "series.compose"),
    ("series", "taylor_shift", "series.taylor_shift"),
    ("series", "hasse_derivative", "series.hasse_derivative"),
    ("series", "AdditiveSeries.compose", "series.AdditiveSeries.compose"),
    ("series", "AdditiveSeries.inverse", "series.AdditiveSeries.inverse"),
    ("carlitz", "CarlitzCtx.dk", "carlitz.dk"),
    ("carlitz", "CarlitzCtx.dk_inv", "carlitz.dk_inv"),
    ("carlitz", "CarlitzCtx.ek", "carlitz.ek"),
    ("carlitz", "CarlitzCtx.exp_sum", "carlitz.exp_sum"),
    # every map kind in umbral.py answers moments through one of these two
    ("umbral", "_PowerMomentMap.moment", "umbral.moment"),
    ("umbral", "TwistedMap.moment", "umbral.moment"),
    ("umbral", "apply_flow", "umbral.apply_flow"),
    ("umbral", "flow_coefficient", "umbral.flow_coefficient"),
    ("umbral", "admissible_heuristic", "umbral.admissible_heuristic"),
    ("umbral", "umbral_eval", "umbral.umbral_eval"),
    ("duality", "AdditiveIso.gen_power", "duality.gen_power"),
    ("duality", "AdditiveIso.hinv_power", "duality.hinv_power"),
    ("duality", "AdditiveIso.apply", "duality.apply"),
    ("duality", "DualMap.moment", "duality.DualMap.moment"),
    ("duality", "check_duality_diagram", "duality.check_duality_diagram"),
    ("duality", "check_geometric_criterion",
     "duality.check_geometric_criterion"),
    ("duality", "check_binomial", "duality.check_binomial"),
)

AGGREGATED_LAYERS = ("fq", "laurent")


def _dk_inv_key(args):
    # (k, prec): the same key asked again, in any CarlitzCtx, is work that a
    # shared cache would not redo
    return args[1], args[2]


def _moment_key(args):
    # (map, x, k): the same moment asked again of the same map object
    return id(args[0]), args[1], args[2]


#: metric name -> key of a call, for the share of calls that repeat a key
REPEAT_KEYS = {
    "carlitz.dk_inv": _dk_inv_key,
    "umbral.moment": _moment_key,
    "duality.DualMap.moment": _moment_key,
}


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, busy_ns, self_ns, open depth]
        self.coeff_pairs = 0  # sum of len(xs) * len(ys) over fq.convolve
        self.seen = {name: set() for name in REPEAT_KEYS}
        self.repeats = dict.fromkeys(REPEAT_KEYS, 0)
        self.spans = []      # [name, start_ns, end_ns, parent index]
        self._keep = []      # objects whose id() is part of a seen key
        self._child = [0]    # per open traced call: time of traced callees
        self._open = [-1]    # indices of open spans

    def install(self):
        """Wrap every function in TRACED, in place."""
        importlib.import_module(f"{PACKAGE}.cli")  # imports every module
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, path, name in TRACED:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original,
                                 spans=mod_name not in AGGREGATED_LAYERS)
            setattr(owner, attr, wrapped)
            if not outer:  # a module function: rebind it where imported
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapped)

    def _wrap(self, name, fn, spans):
        st = self.stats.setdefault(name, [0, 0, 0, 0])
        child = self._child
        clock = time.perf_counter_ns
        if name == "fq.convolve":
            def note(args):
                self.coeff_pairs += len(args[1]) * len(args[2])
        elif name in REPEAT_KEYS:
            keyfn, seen = REPEAT_KEYS[name], self.seen[name]

            def note(args):
                key = keyfn(args)
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
                    self._keep.append(args[0])
        else:
            note = None

        span_list, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            if note is not None:
                note(args)
            st[0] += 1
            st[3] += 1
            child.append(0)
            if spans:
                span = [name, 0, 0, open_spans[-1]]
                open_spans.append(len(span_list))
                span_list.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if spans:
                    span[1], span[2] = t0, t1
                    open_spans.pop()
                dt = t1 - t0
                st[2] += dt - child.pop()
                child[-1] += dt
                st[3] -= 1
                if not st[3]:
                    st[1] += dt
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A root-level span around a block of the benchmark's own code."""
        span = [name, time.perf_counter_ns(), 0, self._open[-1]]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._open.pop()

    def metrics(self, names):
        """The values of those of ``names`` that are fields of a traced
        function (``<function>.<field>``); other names are skipped."""
        out = {}
        for metric in names:
            fn, _, field = metric.rpartition(".")
            if fn not in self.stats:
                continue
            calls, busy, own, _ = self.stats[fn]
            if field == "calls":
                out[metric] = calls
            elif field == "busy_s":
                out[metric] = busy / 1e9
            elif field == "self_s":
                out[metric] = own / 1e9
            elif field == "repeat_ratio":
                out[metric] = self.repeats[fn] / calls if calls else 0.0
            elif metric == "fq.convolve.coeff_pairs":
                out[metric] = self.coeff_pairs
            else:
                raise KeyError(f"{metric}: no such field of a traced call")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter_ns",
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
