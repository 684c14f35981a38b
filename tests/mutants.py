"""A catalogue of mutants: small changes to the package that a named test
must catch. pytest does not collect this module; run it from the
repository root:

    python tests/mutants.py

It copies src/, tests/ and pyproject.toml to a temporary directory. For
each mutant it checks that the old text occurs exactly once in its file,
applies the change, runs pytest on the mutant's node ids and prints one
line: killed (a node failed) or survived, with the time taken; then it
restores the file. It exits with status 1 if a mutant survived, if its
old text does not occur exactly once, or if pytest could not run its
nodes (a collection error or a node id that names no test). A change that
moves or rewrites a mutated line updates its entry here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    nodes: tuple  # pytest node ids, at least one of which must fail
    reason: str


_DENSE_LOOP = """\
    for idx in (idx for idx in blocks if idx.size <= DENSE_BLOCK_CAP):
        r, c, v = _restricted(idx, rows, cols, vals)
        gen = np.zeros((idx.size, idx.size), dtype=vals.dtype)
        gen[r, c] += v  # added to zeros, as todense: a -0.0 becomes +0.0
        for pos, row in dense(gen, start[idx], times, steps):
            out[pos][idx] = row
"""

_DENSE_PARTS = """\
    small = [idx for idx in blocks if idx.size <= DENSE_BLOCK_CAP]

    def evolve(part):
        for idx in (small[i] for i in part):
            r, c, v = _restricted(idx, rows, cols, vals)
            gen = np.zeros((idx.size, idx.size), dtype=vals.dtype)
            gen[r, c] += v
            for pos, row in dense(gen, start[idx], times, steps):
                out[pos][idx] = row

    _in_parts(evolve, len(small))
"""

DYNAMICS = "src/starkchain/dynamics.py"
THREADS = "tests/test_threads.py"

MUTANTS = (
    Mutant(
        "in-parts-raises-highest-failure", DYNAMICS,
        "    for error in errors:\n",
        "    for error in reversed(errors):\n",
        (f"{THREADS}::test_lowest_failing_snapshot_is_raised[3-60-120]",),
        "a split run must raise the error a serial loop meets first"),
    Mutant(
        "in-parts-drops-copy-context", DYNAMICS,
        "pool.submit(contextvars.copy_context().run, work, part)",
        "pool.submit(work, part)",
        (f"{THREADS}::test_parts_keep_the_callers_error_state[2]",),
        "a pool thread must run under the caller's np.errstate"),
    Mutant(
        "in-parts-drops-fork-hook", DYNAMICS,
        "    os.register_at_fork(after_in_child=_drop_pool)\n",
        "    pass\n",
        (f"{THREADS}::test_forked_child_still_samples",),
        "a forked child must not wait on the parent's pool threads"),
    Mutant(
        "in-parts-skips-part-0", DYNAMICS,
        "        work(parts[0])\n",
        "        pass\n",
        (f"{THREADS}::test_draws_match_one_loop[2]",),
        "the calling thread's part must be drawn too"),
    Mutant(
        "in-parts-drops-nesting-guard", DYNAMICS,
        'if n == 1 or count < 2 or getattr(_on_pool, "flag", False):',
        "if n == 1 or count < 2:",
        (f"{THREADS}::test_call_from_a_pool_thread_runs_there[2]",),
        "a call from a pool thread must not wait for the pool it occupies"),
    Mutant(
        "step-lists-always-shared", DYNAMICS,
        "        if shortest * norm >= _UNIT_ROUNDOFF:\n",
        "        if True:\n",
        ("tests/test_dynamics.py::test_step_lists_match_the_loop",),
        "a block whose norm carries an interval must walk its own list"),
    Mutant(
        "dense-blocks-on-in-parts", DYNAMICS, _DENSE_LOOP, _DENSE_PARTS,
        (f"{THREADS}::test_dense_blocks_step_on_the_callers_thread",),
        "dense blocks on a pool thread raise the peak memory of a run"),
)


def _copy(root, dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(root / name, dest / name, ignore=ignore)
    shutil.copy(root / "pyproject.toml", dest / "pyproject.toml")


def _run(mutant, dest):
    """'killed', 'survived', or an error line; the file is restored."""
    path = dest / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"error: old text occurs {found} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant.nodes],
            cwd=dest, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(dest / "src")))
    finally:
        path.write_text(text)
    if done.returncode == 1:  # tests ran and one failed
        return "killed"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exited {done.returncode}: {' '.join(tail)}"


def main():
    root = Path(__file__).resolve().parent.parent
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        dest = Path(tmp)
        _copy(root, dest)
        for mutant in MUTANTS:
            start = time.perf_counter()
            result = _run(mutant, dest)
            took = time.perf_counter() - start
            print(f"{result:9} {took:6.1f} s  {mutant.name}", flush=True)
            bad += result != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
