"""Keyed shot draws split over threads (dynamics._in_parts), the only
work that is: the same bytes at any thread count, the serial error, the
caller's numpy error state, no nesting, and a forked child. Dense Lindblad
blocks step on the calling thread."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import starkchain
from starkchain import (
    ConfusionMatrix,
    DomainError,
    build_sector_basis,
    build_xy_hamiltonian,
    evolve_lindblad,
    make_collapse_ops,
    paper_device,
    parse_config,
    prepare_initial_state,
    sample_shots,
)
from starkchain import cli, dynamics, observables
from starkchain.device import DeviceParams, PotentialSpec
from starkchain.dynamics import _in_parts

JOIN_S = 60  # a part that waits for its own pool would hang
PERFECT = [ConfusionMatrix.perfect()] * 5


def _threads(monkeypatch, n):
    """n threads, on a pool of their own that the test's teardown shuts."""
    monkeypatch.setattr(dynamics, "_cpus", lambda: n)
    monkeypatch.setattr(dynamics, "_pool", None)


@pytest.fixture(params=[1, 2, 3])
def threads(request, monkeypatch):
    _threads(monkeypatch, request.param)
    yield request.param
    if dynamics._pool is not None:
        dynamics._pool.shutdown()


def _snapshots(n_times=151):
    """(T, 32) 5-qubit state vectors, each of its own outcome distribution."""
    amps = np.cos(np.outer(np.arange(1, n_times + 1), np.arange(32)) / 7.0)
    return (amps / np.linalg.norm(amps, axis=1, keepdims=True)).astype(complex)


def _loop_counts(states, n_shots, seeds, n_groups):
    """The counts of one loop of fresh keyed generators in snapshot order."""
    probs = np.abs(states) ** 2
    return np.concatenate([
        np.random.Generator(np.random.Philox(key=int(seed))).multinomial(
            n_shots, p / p.sum(), size=n_groups)
        for seed, p in zip(seeds, probs)])


def test_draws_match_one_loop(threads):
    # T = 151 splits unevenly over 2 and 3 parts; a short switch interval
    # interleaves the parts' writes to the shared counts
    states = _snapshots()
    seeds = np.random.SeedSequence(7).generate_state(len(states), np.uint64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        record = sample_shots(states, PERFECT, "ZZZZZ", 600, seeds,
                              n_groups=3)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(
        record.counts, _loop_counts(states, 200, seeds, 3))


@pytest.mark.parametrize("first, second", [(3, 120), (60, 120)])
def test_lowest_failing_snapshot_is_raised(threads, first, second):
    # two snapshots have keys out of range, in two parts at 3 threads (at
    # 60 and 120, two parts on the pool), and a loop meets the first first
    seeds = list(range(151))
    seeds[first], seeds[second] = -1, 2 ** 128
    with pytest.raises(DomainError, match=r"^seed must be in .*, got -1$"):
        sample_shots(_snapshots(), PERFECT, "ZZZZZ", 10, seeds)


def test_lindblad_blocks_match_one_thread(monkeypatch, threads):
    # X+X+000 on counts 0..2: dense blocks of 126, 110 and 20 coordinates
    basis = build_sector_basis(5, (0, 2))
    h = build_xy_hamiltonian(paper_device(), PotentialSpec.linear(-15.0),
                             basis=basis)
    args = (h, prepare_initial_state("X+X+000", 5, basis=basis),
            np.arange(0.0, 300.0, 2.0),
            make_collapse_ops(paper_device(), basis=basis))
    got = evolve_lindblad(*args).coords
    monkeypatch.setattr(dynamics, "_cpus", lambda: 1)
    np.testing.assert_array_equal(got, evolve_lindblad(*args).coords)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("n", [5, 6])
def test_dense_blocks_step_on_the_callers_thread(monkeypatch, n, cpus):
    # X+X+0... on counts 0..2: dense blocks of 126/110/20 coordinates at
    # n = 5 and 262/192/30 at n = 6. On a pool thread a block's _expm work
    # raised the run's peak memory and, on two CPUs, won no time
    _threads(monkeypatch, cpus)
    idents, expm = [], dynamics._expm

    def recorded(a):
        idents.append(threading.get_ident())
        return expm(a)

    monkeypatch.setattr(dynamics, "_expm", recorded)
    dev = (paper_device() if n == 5 else
           DeviceParams.uniform(n, t1_us=20.0, t2star_us=2.0))
    basis = build_sector_basis(n, (0, 2))
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0), basis=basis)
    try:
        evolve_lindblad(h, prepare_initial_state("X+X+" + "0" * (n - 2), n,
                                                 basis=basis),
                        np.arange(0.0, 20.0, 2.0),
                        make_collapse_ops(dev, basis=basis))
    finally:
        if dynamics._pool is not None:
            dynamics._pool.shutdown()
    assert len(idents) == 3
    assert set(idents) == {threading.get_ident()}


@pytest.mark.parametrize("raw", [
    {"experiment": "thermal_transport", "noise": "lindblad", "shots": "paper"},
    {"experiment": "spin_current", "noise": "lindblad", "readout": "table-s1",
     "readout_correction": True, "shots": "paper"}],
    ids=["noisy-thermal", "corrected-current"])
def test_csvs_match_one_thread(monkeypatch, tmp_path, threads, raw):
    cli.run(parse_config(raw), out_dir=str(tmp_path / "threads"))
    monkeypatch.setattr(dynamics, "_cpus", lambda: 1)
    cli.run(parse_config(raw), out_dir=str(tmp_path / "one"))
    names = sorted(p.name for p in (tmp_path / "one").glob("*.csv"))
    assert names
    for name in names:
        assert ((tmp_path / "threads" / name).read_bytes()
                == (tmp_path / "one" / name).read_bytes())


_NESTED = """
import json, sys, threading
from starkchain import dynamics

dynamics._cpus = lambda: int(sys.argv[1])
seen = {}

def outer(part):
    inner = []
    dynamics._in_parts(
        lambda p: inner.append((threading.get_ident(), list(p))), 4)
    seen[part.start] = threading.get_ident(), inner

dynamics._in_parts(outer, 6)
print(json.dumps([threading.get_ident(), sorted(seen.items())]))
"""


@pytest.mark.parametrize("n", [1, 2, 3])
def test_call_from_a_pool_thread_runs_there(n):
    # each part calls the helper again; on a pool thread that inner call
    # runs its parts itself, so nothing waits for a pool it occupies. A
    # fresh interpreter, killed at the timeout, holds a pool that deadlocks
    src = os.path.dirname(os.path.dirname(starkchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _NESTED, str(n)], env=env,
                          capture_output=True, text=True, timeout=JOIN_S)
    assert done.returncode == 0, done.stderr
    caller, seen = json.loads(done.stdout)
    assert [start for start, _ in seen] == list(range(0, 6, 6 // n))
    for _, (here, inner) in seen:
        assert sorted(k for _, part in inner for k in part) == [0, 1, 2, 3]
        if here != caller:  # on a pool thread: one serial call, right there
            assert inner == [[here, [0, 1, 2, 3]]]


def test_parts_keep_the_callers_error_state(threads):
    states = []
    with np.errstate(divide="raise"):
        _in_parts(lambda part: states.append(np.geterr()["divide"]), 9)
    assert states == ["raise"] * threads


def _sample_in_child(queue):
    queue.put(sample_shots(_snapshots(20), PERFECT, "ZZZZZ", 60,
                           np.arange(20)).counts)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_forked_child_still_samples(monkeypatch):
    # the parent's pool is made before the fork; the child has none of its
    # threads, drops it and makes its own
    _threads(monkeypatch, 2)
    want = sample_shots(_snapshots(20), PERFECT, "ZZZZZ", 60,
                        np.arange(20)).counts
    assert dynamics._pool is not None
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_sample_in_child, args=(queue,))
    try:
        child.start()
        got = queue.get(timeout=JOIN_S)  # drained before the join
        child.join(JOIN_S)
        assert child.exitcode == 0
        np.testing.assert_array_equal(got, want)
    finally:
        if child.is_alive():  # a child waiting for its parent's threads
            child.terminate()
        dynamics._pool.shutdown()


def test_traced_functions_run_on_the_callers_thread(monkeypatch, tmp_path):
    # the benchmark's span tracer keeps one stack per process; at 2 threads
    # every solver, sampler and estimator call of a noisy shot run, as cli
    # and observables bind them, stays on the thread that called cli.run
    _threads(monkeypatch, 2)
    idents = []

    def recorded(fn):
        def call(*args, **kwargs):
            idents.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return call

    for module in (cli, observables):
        for name in ("sample_shots", "group_means", "evolve_unitary",
                     "evolve_lindblad", "trajectory"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recorded(getattr(module, name)))
    try:
        cli.run(parse_config({"experiment": "thermal_transport",
                              "noise": "lindblad", "shots": "paper"}),
                out_dir=str(tmp_path))
    finally:
        dynamics._pool.shutdown()
    names = {name for name, _ in idents}
    assert {"sample_shots", "group_means", "evolve_lindblad"} <= names
    assert {ident for _, ident in idents} == {threading.get_ident()}
