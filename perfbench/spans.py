"""Spans and counters recorded around calls into envchan's layers.

Nothing in the package is edited. A wrapper from this file replaces a
module-level name in every loaded ``envchan`` module that is bound to the
original function, so calls made through ``from .x import f`` bindings are
seen too. ``restore`` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from statistics import median
from time import perf_counter

from stats import self_times

# (span name, module, attribute). The first five are the search's own
# module-level names; the rest are public functions of the other layers.
LAYERS = (
    ("realizability.search", "envchan.realizability", "search_mixed_env_realization"),
    ("realizability.restart", "envchan.realizability", "minimize"),
    ("realizability.objective", "envchan.realizability", "_objective_and_grad"),
    ("realizability.recheck", "envchan.realizability", "realization_residual"),
    ("realizability.perturbation", "envchan.realizability", "perturbation_experiment"),
    ("dilation.channel_from_dilation", "envchan.dilation", "channel_from_dilation"),
    ("channels.from_choi", "envchan.channels", "Channel.from_choi"),
    ("channels.distance", "envchan.channels", "distance"),
    ("channels.mix", "envchan.channels", "mix"),
    ("channels.random_channel", "envchan.channels", "random_channel"),
    ("counterexample.build", "envchan.counterexample", "build_counterexample"),
    ("counterexample.certify", "envchan.counterexample", "certify_nonrealizable"),
    ("counterexample.match_family", "envchan.counterexample", "match_family"),
    ("io.load", "envchan.io", "load_json"),
    ("io.save", "envchan.io", "save_json"),
    ("cli.main", "envchan.cli", "main"),
)


class Patches:
    """Rebinds names in loaded envchan modules and undoes it."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> int:
        """Bind ``replacement`` wherever an envchan module binds ``original``;
        returns how many names were rebound."""
        hits = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "envchan" or name.startswith("envchan.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                    hits += 1
        return hits

    def replace_classmethod(self, cls, attr: str, wrap) -> None:
        original = vars(cls)[attr]
        setattr(cls, attr, classmethod(wrap(original.__func__)))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class RestartLog:
    """Records (status, nit, nfev, maxiter) of every optimizer restart.

    Installed in traced and untraced runs alike: it adds one Python call per
    restart, which is negligible next to a restart's hundreds of objective
    evaluations, and it gives the parity record its restart statuses.
    """

    def __init__(self):
        self.entries = []

    def install(self, patches: Patches) -> bool:
        module = importlib.import_module("envchan.realizability")
        original = getattr(module, "minimize", None)
        if original is None:
            return False
        entries = self.entries

        def logged(*args, **kwargs):
            res = original(*args, **kwargs)
            maxiter = kwargs.get("options", {}).get("maxiter")
            entries.append((int(res.status), int(res.nit), int(res.nfev), maxiter))
            return res

        return patches.replace(original, logged) > 0


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op].

    ``op`` is the label of the op being run (set by the runner), so spans of
    one op share it; ``attrs`` holds extra facts some spans record.
    """

    def __init__(self):
        self.spans = []
        self.attrs = {}
        self.op = "setup"
        self.present = {}
        self._stack = []

    def wrap(self, name: str, fn, on_exit=None):
        spans, stack, attrs = self.spans, self._stack, self.attrs

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if on_exit is not None:
                attrs[idx] = on_exit(args, kwargs, result)
            return result

        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every layer in ``LAYERS``; a name the package no longer has
        is marked absent rather than counted as zero."""
        hooks = {
            "realizability.search": _search_attrs,
            "realizability.perturbation": _perturbation_attrs,
            "io.save": _save_attrs,
        }
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                ok = cls is not None and isinstance(vars(cls).get(method), classmethod)
                if ok:
                    patches.replace_classmethod(
                        cls, method, lambda fn, name=name: self.wrap(name, fn)
                    )
                self.present[name] = ok
                continue
            original = getattr(module, attr, None)
            self.present[name] = original is not None and patches.replace(
                original, self.wrap(name, original, hooks.get(name))
            ) > 0

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for idx, span in enumerate(self.spans):
                row = {"id": idx, "name": span[0], "start": span[1], "end": span[2],
                       "parent": span[3], "op": span[4]}
                if idx in self.attrs:
                    row["attrs"] = self.attrs[idx]
                handle.write(json.dumps(row) + "\n")


def _search_attrs(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    threshold = getattr(config, "realizable_threshold", None)
    if threshold is None:
        from envchan.realizability import SearchConfig

        threshold = SearchConfig().realizable_threshold
    return {
        "verdict": result.verdict,
        "best_residual": float(result.best_residual),
        "realizable_threshold": threshold,
    }


def _perturbation_attrs(args, kwargs, result):
    return {"n_samples": int(result.n_samples)}


def _save_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Per-layer figures computed from spans, with their units. ``.us_p50`` is
# the median self time of one call; ``_s`` figures are whole durations.
LAYER_UNITS = {
    "realizability.objective.calls": "count",
    "realizability.objective.us_p50": "us",
    "realizability.objective.share": "share",
    "realizability.restart.count": "count",
    "realizability.restart.nfev_p50": "count",
    "realizability.restart.nit_p50": "count",
    "realizability.restart.s_p50": "s",
    "realizability.restart.cap_hits": "count",
    "realizability.restart.solver_share": "share",
    "realizability.search.restarts_per_verdict": "count",
    "realizability.search.recheck_us_p50": "us",
    "realizability.search.worst_realized_margin": "ratio",
    "realizability.perturbation.sample_s_p50": "s",
    "realizability.perturbation.overhead_share": "share",
    "dilation.channel_from_dilation.us_p50": "us",
    "dilation.channel_from_dilation.calls": "count",
    "channels.from_choi.us_p50": "us",
    "channels.distance.us_p50": "us",
    "channels.mix.us_p50": "us",
    "counterexample.build.us_p50": "us",
    "counterexample.certify.us_p50": "us",
    "counterexample.match_family.us_p50": "us",
    "io.load.us_p50": "us",
    "io.save.us_p50": "us",
    "io.bytes_written": "bytes",
    "cli.inproc_s_p50": "s",
}


def layer_metrics(tracer: Tracer, restarts) -> dict:
    """Per-layer figures of one traced pass, as name → value.

    ``restarts`` are the RestartLog entries of the same pass. A value is
    None when its layer's name is gone from the package or the layer did
    not run in this workload; counts of a layer that is present but idle
    are 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    idx = {}
    for i, span in enumerate(spans):
        idx.setdefault(span[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def of(name):
        return idx.get(name, []) if tracer.present.get(name) else None

    def count(name):
        ids = of(name)
        return None if ids is None else len(ids)

    def p50(name, fn, scale=1.0):
        ids = of(name)
        return scale * median(fn(i) for i in ids) if ids else None

    def share(part, whole):
        return part / whole if whole else None

    search, restart, objective = (of(n) for n in (
        "realizability.search", "realizability.restart", "realizability.objective"))
    perturb = of("realizability.perturbation")
    out = {
        "realizability.objective.calls": count("realizability.objective"),
        "realizability.objective.us_p50": p50("realizability.objective", selfs.__getitem__, 1e6),
        "realizability.restart.count": count("realizability.restart"),
        "realizability.restart.s_p50": p50("realizability.restart", dur),
        "realizability.search.recheck_us_p50": p50("realizability.recheck", dur, 1e6),
        "realizability.perturbation.sample_s_p50": p50(
            "realizability.perturbation", lambda i: dur(i) / tracer.attrs[i]["n_samples"]),
        "dilation.channel_from_dilation.calls": count("dilation.channel_from_dilation"),
        "cli.inproc_s_p50": p50("cli.main", dur),
    }
    for name in ("dilation.channel_from_dilation", "channels.from_choi", "channels.distance",
                 "channels.mix", "counterexample.build", "counterexample.certify",
                 "counterexample.match_family", "io.load", "io.save"):
        out[name + ".us_p50"] = p50(name, selfs.__getitem__, 1e6)

    out["realizability.objective.share"] = (
        share(sum(selfs[i] for i in objective), sum(dur(i) for i in search))
        if objective and search else None)
    out["realizability.restart.solver_share"] = (
        share(sum(selfs[i] for i in restart), sum(dur(i) for i in restart))
        if restart else None)
    if restart is not None:
        out["realizability.restart.nfev_p50"] = median(e[2] for e in restarts) if restarts else None
        out["realizability.restart.nit_p50"] = median(e[1] for e in restarts) if restarts else None
        out["realizability.restart.cap_hits"] = sum(
            1 for e in restarts if e[3] is not None and e[1] >= e[3])
    else:
        for key in ("nfev_p50", "nit_p50", "cap_hits"):
            out["realizability.restart." + key] = None
    out["realizability.search.restarts_per_verdict"] = (
        share(len(restart), len(search)) if search and restart is not None else None)
    margins = [a["best_residual"] / a["realizable_threshold"]
               for i in (search or ()) for a in [tracer.attrs[i]] if a["verdict"] == "REALIZED"]
    out["realizability.search.worst_realized_margin"] = max(margins) if margins else None

    if perturb:
        inside = set()
        for name in ("channels.mix", "channels.random_channel"):
            for i in of(name) or ():
                parent = spans[i][3]
                while parent >= 0 and spans[parent][0] != "realizability.perturbation":
                    parent = spans[parent][3]
                if parent >= 0:
                    inside.add(i)
        out["realizability.perturbation.overhead_share"] = share(
            sum(dur(i) for i in inside), sum(dur(i) for i in perturb))
    else:
        out["realizability.perturbation.overhead_share"] = None

    saves = of("io.save")
    out["io.bytes_written"] = None if saves is None else sum(
        tracer.attrs[i]["bytes"] for i in saves)
    return out
