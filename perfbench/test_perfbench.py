"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import loop  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402


def test_self_time_of_nested_spans():
    # run "a": root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has a
    # child [6, 8]. Run "b": a lone root [20, 23].
    spans = [
        Span("cli.run", 0.0, 10.0, None, "a"),
        Span("dynamics.evolve_lindblad", 1.0, 4.0, 0, "a"),
        Span("observables.trajectory", 5.0, 9.0, 0, "a"),
        Span("dynamics.evolve_unitary", 6.0, 8.0, 2, "a"),
        Span("cli.run", 20.0, 23.0, None, "b", error=True),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0, 3.0])
    assert tracer.additivity_gaps(spans) == pytest.approx({"a": 0.0, "b": 0.0})
    layers = tracer.layer_totals(spans)
    assert layers["cli.run"] == {"calls": 2, "self_s": pytest.approx(6.0),
                                 "errors": 1}
    stages = tracer.stage_totals(layers)
    assert stages["stage.evolve_s"] == pytest.approx(5.0)
    assert stages["stage.estimate_s"] == pytest.approx(2.0)
    assert stages["stage.write_s"] == pytest.approx(6.0)


def test_child_overrunning_its_parent_is_clipped():
    spans = [Span("cli.run", 0.0, 4.0, None, "a"),
             Span("model.build_observable", 1.0, 2.0, 0, "a"),
             Span("model.build_observable", 1.5, 5.0, 0, "a")]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_failed_run_gives_no_sample_and_counts_as_failed():
    clock = _Clock()
    runs = [{"experiment": "spin_transport"}, {"experiment": "wsl_scan"}]

    def run_one(raw):
        clock.now += 2.0
        if raw["experiment"] == "wsl_scan":
            raise ValueError("window has 1 points, need >= 5")
        return 1.5

    records = loop.closed_loop(runs, run_one, 3, clock=clock)
    summary = loop.summarize(records, timed=["spin_transport"])
    assert summary["attempted"] == 6
    assert summary["failed"] == 3
    assert summary["failed_share"] == 0.5
    assert summary["experiments"]["wsl_scan"]["samples"] == []
    assert summary["experiments"]["wsl_scan"]["median_s"] is None
    assert summary["experiments"]["spin_transport"]["samples"] == [1.5] * 3
    assert summary["pass_s"] == 1.5
    # a timed experiment without a successful run leaves pass_s missing
    assert loop.summarize(records, timed=["wsl_scan"])["pass_s"] is None


def test_failed_check_counts_as_failed():
    def run_one(raw):
        raise loop.CheckFailed("densities differ")

    records = loop.closed_loop([{"experiment": "spin_transport"}], run_one, 1)
    summary = loop.summarize(records, timed=["spin_transport"])
    assert (summary["failed"], summary["check_failures"]) == (1, 1)
    assert summary["pass_s"] is None


def test_fixed_passes_and_reference_times_around_each_run():
    clock = _Clock()
    kernel = iter([0.10, 0.30, 0.20, 0.40, 0.40])

    def run_one(raw):
        clock.now += 4.0
        return 2.0

    def between():
        t = next(kernel)
        return t, t

    records = loop.closed_loop([{"experiment": "a"}, {"experiment": "b"}],
                               run_one, 2, between=between, clock=clock)
    assert [(r.experiment, r.pass_index) for r in records] == \
        [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
    assert [r.reference_s for r in records] == pytest.approx([0.2, 0.25, 0.3, 0.4])
    summary = loop.summarize(records, timed=["a", "b"])
    assert summary["pass_s"] == 4.0
    # medians of 2/0.2, 2/0.3 and of 2/0.25, 2/0.4
    assert summary["pass_ratio"] == pytest.approx((10 + 2 / 0.3) / 2
                                                  + (8 + 5) / 2)


def test_slow_host_stops_starting_passes():
    clock = _Clock()

    def run_one(raw):
        clock.now += 4.0
        return 4.0

    records = loop.closed_loop([{"experiment": "a"}, {"experiment": "b"}],
                               run_one, 5, clock=clock, give_up_after=10.0)
    # the pass that starts at 8 s completes; none starts at 16 s
    assert len(records) == 4


def test_wrapper_reaches_names_bound_in_cli_and_observables():
    import starkchain.cli as cli
    import starkchain.dynamics as dynamics
    import starkchain.observables as observables
    from starkchain import (build_observable, build_xy_hamiltonian, paper_device,
                            PotentialSpec, prepare_initial_state)

    original = dynamics.evolve_unitary
    assert cli.evolve_unitary is original and observables.evolve_unitary is original
    dev = paper_device()
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
    state = prepare_initial_state("10000", 5)
    ops = {"P5": build_observable("density", 5, dev)}

    t = tracer.Tracer()
    with t.installed("run-1"):
        assert cli.evolve_unitary is not original
        assert cli.evolve_unitary is observables.evolve_unitary is dynamics.evolve_unitary
        observables.trajectory(h, state, np.arange(0.0, 10.0, 2.0), ops)
        cli.evolve_unitary(h, state, [0.0, 1.0])
    assert cli.evolve_unitary is original
    assert observables.evolve_unitary is original

    names = [(s.name, None if s.parent is None else t.spans[s.parent].name)
             for s in t.spans]
    assert names == [("observables.trajectory", None),
                     ("dynamics.evolve_unitary", "observables.trajectory"),
                     ("dynamics.evolve_unitary", None)]
    assert {s.run for s in t.spans} == {"run-1"}
    assert t.counts["dynamics.snapshots"] == 5 + 2
    assert t.counts["dynamics.state_dim"] == 32
