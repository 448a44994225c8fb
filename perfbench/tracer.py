"""In-memory tracer that wraps doublephase's public calls from the outside.

Nothing under ``src/`` changes: the tracer replaces module attributes (and a
few class attributes) with wrappers and puts the originals back afterwards.
Modules bind imported names at import time, so every ``doublephase.*``
module that holds a wrapped function under its name gets the wrapper.

Three kinds of wrapper keep the overhead bounded:

* span: timed, counted, and recorded as (id, name, parent, start, end) for
  the coarse calls (project, energy, luxemburg_norm, ...);
* timed: timed and counted, no record, for the frequent grid kernels and
  ``pairwise_sum`` (about a million calls per solve);
* counter: a call count only, for ``_RayProfile.phi``,
  ``ScalarField.__post_init__`` and local ``solver._project_onto`` calls.

A name's self time is its total duration minus the time of the timed calls
made inside it. Untimed counters add their cost to the caller's self time.
A span's parent is the nearest enclosing span.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

SPANS = (
    ("cli", "main"),
    ("config", "parse_config"),
    ("fieldio", "write_field"),
    ("nehari", "project"),
    ("problem", "energy"),
    ("problem", "residual_gradient"),
    ("solver", "minimize_on_branch"),
    ("solver", "sweep"),
    ("spaces", "estimate_constants"),
    ("spaces", "luxemburg_norm"),
    ("spaces", "weighted_norm"),
)
TIMED = (
    ("grid", "band_filter"),
    ("grid", "grad_norm_g"),
    ("grid", "gradient"),
    ("grid", "integrate"),
    ("grid", "random_band_limited"),
)
_PROJECT_FULL = ((1e-6, 1e6), 256)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.solver = {"plus": [0, 0], "minus": [0, 0], "starts": 0}
        self._stack = []
        self._ids = itertools.count()
        self._patches = []
        self._local_onto = 0

    # -- wrapper factories -------------------------------------------------

    def _timed(self, name, fn, record):
        stack, calls, self_s, spans, ids = self._stack, self.calls, self.self_s, self.spans, self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            # [start, time of timed children, id that children record as parent]
            frame = [perf_counter(), 0.0, next(ids) if record else parent]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans.append((frame[2], name, parent, frame[0], end))

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _pairwise_sum(self, fn, module):
        """Timed leaf that also counts elements and calls per calling module."""
        timed = self._timed("grid.pairwise_sum", fn, record=False)
        counts = self.counts
        key = f"pairwise_sum.from.{module}"

        def wrapper(values):
            counts[key] += 1
            counts["grid.pairwise_sum.elements"] += getattr(values, "size", 1)
            return timed(values)

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _project(self, fn, no_root_error):
        """Split projections into the local window and the full bracket."""
        local_w = self._timed("nehari.project_local", fn, record=True)
        full_w = self._timed("nehari.project_full", fn, record=True)
        counts = self.counts

        def wrapper(P, u, truncated=False, bracket=_PROJECT_FULL[0], n_grid=_PROJECT_FULL[1]):
            local = (tuple(bracket), n_grid) != _PROJECT_FULL
            if not local and self._local_onto:
                counts["nehari.local_fallbacks"] += 1
            try:
                return (local_w if local else full_w)(P, u, truncated, bracket, n_grid)
            except no_root_error:
                counts["nehari.project.no_root"] += 1
                raise

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _project_onto(self, fn):
        """Count local re-projections and mark full projections made inside them."""
        counts = self.counts

        def wrapper(P, vals, cfg, local=False):
            if not local:
                return fn(P, vals, cfg, local)
            counts["solver.step_trials"] += 1
            self._local_onto += 1
            try:
                return fn(P, vals, cfg, local)
            finally:
                self._local_onto -= 1

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _minimize(self, fn):
        timed = self._timed("solver.minimize_on_branch", fn, record=True)
        solver = self.solver

        def wrapper(P, cfg, constants=None):
            solver["starts"] += cfg.multistart
            rep = timed(P, cfg, constants)
            rec = solver[cfg.target.value]
            rec[0] = max(rec[0], rep.iterations)
            rec[1] += rep.n_converged_starts
            return rep

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _write_field(self, fn):
        timed = self._timed("fieldio.write_field", fn, record=True)
        counts = self.counts

        def wrapper(path, field):
            out = timed(path, field)
            counts["fieldio.write_field.bytes"] += os.path.getsize(path)
            return out

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    # -- install / restore -------------------------------------------------

    def _replace_everywhere(self, original, make):
        """Swap ``original`` for ``make(module_short_name)`` in every module."""
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "doublephase" or modname.startswith("doublephase.")):
                continue
            short = modname.rpartition(".")[2]
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, attr, make(short))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"doublephase.{m}") for m in
                ("cli", "config", "fieldio", "grid", "nehari", "problem", "solver", "spaces")}
        config, grid, nehari = mods["config"], mods["grid"], mods["nehari"]
        special = {
            ("nehari", "project"): lambda fn: self._project(fn, nehari.NoRootError),
            ("solver", "_project_onto"): self._project_onto,
            ("solver", "minimize_on_branch"): self._minimize,
            ("fieldio", "write_field"): self._write_field,
        }
        for key in SPANS + TIMED + (("solver", "_project_onto"),):
            mod, attr = key
            original = getattr(mods[mod], attr)
            if key in special:
                wrapped = special[key](original)
            else:
                wrapped = self._timed(f"{mod}.{attr}", original, record=key in SPANS)
            self._replace_everywhere(original, lambda _short, w=wrapped: w)
        pairwise_sum = grid.pairwise_sum
        self._replace_everywhere(pairwise_sum, lambda short: self._pairwise_sum(pairwise_sum, short))
        self._patch(nehari._RayProfile, "phi", self._counter("nehari.phi_evals", nehari._RayProfile.phi))
        self._patch(grid.ScalarField, "__post_init__",
                    self._counter("grid.ScalarField.constructions", grid.ScalarField.__post_init__))
        self._patch(config.RunConfig, "build_instance",
                    self._timed("config.build_instance", config.RunConfig.build_instance, record=True))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(getattr(o, a) is orig for o, a, orig in self._patches)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("doublephase"):
                continue
            for val in list(vars(mod).values()):
                if getattr(val, "_perfbench", False):
                    restored = False
                for inner in (vars(val).values() if isinstance(val, type) else ()):
                    if getattr(inner, "_perfbench", False):
                        restored = False
        self._patches = []
        return restored

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps([sid, name, parent, start, end]) + "\n")

    def metrics(self) -> dict:
        """Per-layer counts and self times, by the names in BENCHMARK.json."""
        c, s, n = self.calls, self.self_s, self.counts
        out = {}
        for name in ("grid.gradient", "grid.grad_norm_g", "grid.integrate", "grid.band_filter",
                     "grid.random_band_limited", "grid.pairwise_sum", "spaces.luxemburg_norm",
                     "spaces.weighted_norm", "spaces.estimate_constants", "problem.energy",
                     "problem.residual_gradient", "nehari.project_local",
                     "nehari.project_full", "fieldio.write_field"):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
        for name in ("solver.minimize_on_branch", "solver.sweep", "config.parse_config",
                     "config.build_instance", "cli.main"):
            out[f"{name}.self_s"] = s[name]
        for key in ("grid.pairwise_sum.elements", "grid.ScalarField.constructions",
                    "nehari.project.no_root", "nehari.phi_evals", "nehari.local_fallbacks",
                    "solver.step_trials", "fieldio.write_field.bytes"):
            out[key] = n[key]
        norms = c["spaces.luxemburg_norm"] + c["spaces.weighted_norm"]
        out["spaces.modular_evals"] = n["pairwise_sum.from.spaces"]
        out["spaces.modular_evals_per_norm"] = _ratio(n["pairwise_sum.from.spaces"], norms)
        projections = c["nehari.project_local"] + c["nehari.project_full"]
        out["nehari.phi_evals_per_projection"] = _ratio(n["nehari.phi_evals"], projections)
        local = c["nehari.project_local"]
        out["nehari.local_hit_ratio"] = _ratio(local - n["nehari.local_fallbacks"], local)
        sv = self.solver
        out["solver.iters_plus"], out["solver.converged_starts_plus"] = sv["plus"]
        out["solver.iters_minus"], out["solver.converged_starts_minus"] = sv["minus"]
        out["solver.start_yield"] = _ratio(sv["plus"][1] + sv["minus"][1], sv["starts"])
        out["solver.descent_iters"] = c["problem.residual_gradient"]
        out["solver.step_trials_per_iter"] = _ratio(n["solver.step_trials"], c["problem.residual_gradient"])
        out["trace.spans"] = len(self.spans)
        return out


def _ratio(num, den):
    return num / den if den else 0.0
