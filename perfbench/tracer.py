"""Span tracer that wraps starkchain's public functions from outside the package.

The CLI binds functions by name (``from .measurement import sample_shots``),
so replacing the attribute in the defining module alone would miss those
calls. ``Tracer.installed`` replaces every binding of a wrapped function in
every loaded ``starkchain`` module and restores them on exit. Spans stay in
memory; the caller writes them out when the run ends.
"""

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass

PACKAGE = "starkchain"

BOUNDARIES = (
    "config.parse_config",
    "model.build_xy_hamiltonian",
    "model.build_observable",
    "model.build_sector_basis",
    "dynamics.evolve_unitary",
    "dynamics.evolve_lindblad",
    "dynamics.make_collapse_ops",
    "dynamics.prepare_initial_state",
    "observables.expectation",
    "observables.trajectory",
    "freefermion.propagate_single_particle",
    "measurement.sample_shots",
    "measurement.group_means",
    "analysis.first_wavefront_peak",
    "analysis.gaussian_fit_wavefront",
    "analysis.linear_fit",
    "cli.run",
)

# Stage roll-ups in the ROADMAP's vocabulary: sums of self time.
STAGES = {
    "stage.build_s": ("model.build_xy_hamiltonian", "model.build_observable",
                      "model.build_sector_basis", "dynamics.make_collapse_ops",
                      "dynamics.prepare_initial_state"),
    "stage.evolve_s": ("dynamics.evolve_unitary", "dynamics.evolve_lindblad",
                       "freefermion.propagate_single_particle"),
    "stage.sample_s": ("measurement.sample_shots",),
    # trajectory's self time is its expectation loop, so it is estimation too
    "stage.estimate_s": ("measurement.group_means", "observables.expectation",
                         "observables.trajectory"),
    "stage.fit_s": ("analysis.first_wavefront_peak",
                    "analysis.gaussian_fit_wavefront", "analysis.linear_fit"),
    "stage.write_s": ("cli.run",),
}

# Counts read from arguments and return values; "max" keeps the largest.
COUNTS = {
    "measurement.shots": "sum",
    "dynamics.snapshots": "sum",
    "dynamics.state_dim": "max",
    "analysis.gn_iterations": "sum",
    "analysis.fits_converged": "sum",
    "cli.bytes_written": "sum",
}


def _count_sample_shots(args, result):
    return {"measurement.shots": int(args["n_shots"])}


def _count_unitary(args, result):
    return {"dynamics.snapshots": result.shape[0],
            "dynamics.state_dim": result.shape[1]}


def _count_lindblad(args, result):
    # the integrator evolves the vectorized density matrix: dim**2 entries
    return {"dynamics.snapshots": result.shape[0],
            "dynamics.state_dim": result.shape[1] * result.shape[2]}


def _count_fit(args, result):
    return {"analysis.gn_iterations": int(result.iterations),
            "analysis.fits_converged": int(bool(result.converged))}


def _count_cli_run(args, result):
    out_dir = args.get("out_dir") or args["config"].output_dir
    names = list(result["outputs"]) + ["summary.json"]
    return {"cli.bytes_written":
            sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)}


COUNTERS = {
    "measurement.sample_shots": _count_sample_shots,
    "dynamics.evolve_unitary": _count_unitary,
    "dynamics.evolve_lindblad": _count_lindblad,
    "analysis.gaussian_fit_wavefront": _count_fit,
    "analysis.linear_fit": _count_fit,
    "cli.run": _count_cli_run,
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list
    run: str
    error: bool = False


def self_times(spans):
    """Per span: its duration minus the part of it covered by child spans."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, reach, s.start), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def additivity_gaps(spans, selfs=None):
    """Per run: |sum of self times - sum of root span durations|.

    Every instant inside a root span belongs to exactly one span's self time,
    so the two sums agree up to rounding when the spans nest properly.
    """
    selfs = self_times(spans) if selfs is None else selfs
    total, roots = {}, {}
    for s, t in zip(spans, selfs):
        total[s.run] = total.get(s.run, 0.0) + t
        if s.parent is None:
            roots[s.run] = roots.get(s.run, 0.0) + (s.end - s.start)
    return {run: abs(total[run] - roots.get(run, 0.0)) for run in total}


def layer_totals(spans, selfs=None):
    """name -> {"calls", "self_s", "errors"} summed over the spans given."""
    selfs = self_times(spans) if selfs is None else selfs
    out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in BOUNDARIES}
    for s, t in zip(spans, selfs):
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["self_s"] += t
        row["errors"] += int(s.error)
    return out


def stage_totals(layers):
    return {stage: sum(layers[name]["self_s"] for name in names)
            for stage, names in STAGES.items()}


class Tracer:
    """Records one span per call into a wrapped boundary, plus its counts."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTS}
        self.run = None
        self._stack = []

    def _add_count(self, name, value):
        if COUNTS[name] == "max":
            self.counts[name] = max(self.counts[name], value)
        else:
            self.counts[name] += value

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the slot so children nest
            self._stack.append(index)
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run,
                                         failed)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self._add_count(key, value)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, run):
        """Wrap every boundary in every loaded starkchain module for one run."""
        self.run = run
        originals = [
            (boundary, getattr(importlib.import_module(
                f"{PACKAGE}.{boundary.split('.')[0]}"), boundary.split(".")[1]))
            for boundary in BOUNDARIES
        ]
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        replaced = []
        try:
            for boundary, original in originals:
                wrapper = self.wrap(boundary, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            replaced.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)
            self.run = None
