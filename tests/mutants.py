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

Before the catalogue it checks itself on two mutants of its own
(SELF_CHECK): one that adds only a comment must read survived, and one
whose old text is in no file must read error; any other result fails
the run too.
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
    expect: str = "killed"  # the result the runner passes


DYNAMICS = "src/starkchain/dynamics.py"
MEASUREMENT = "src/starkchain/measurement.py"
OBSERVABLES = "src/starkchain/observables.py"
KEYED_HASH = "tests/test_cli.py::TestGoldenShots::test_keyed_csv_hash"
_KEY_RESET = "        bitgen.state = state\n"

MUTANTS = (
    Mutant(
        "step-lists-always-shared", DYNAMICS,
        "        if shortest * norm >= _UNIT_ROUNDOFF:\n",
        "        if True:\n",
        ("tests/test_dynamics.py::test_step_lists_match_the_loop",),
        "a block whose norm carries an interval must walk its own list"),
    Mutant(
        "keyed-generators-skip-reset", MEASUREMENT, _KEY_RESET, "        pass\n",
        (KEYED_HASH, "tests/test_measurement.py::test_draws_match_one_loop"),
        "each snapshot must draw from a generator reset to its own key"),
    Mutant(
        "key-words-swapped", MEASUREMENT,
        "(seed & _M64, seed >> 64)", "(seed >> 64, seed & _M64)",
        (KEYED_HASH,),
        "a key's low 64-bit word goes first, as Philox(key=seed) takes it"),
    Mutant(
        "expectations-drop-conj", OBSERVABLES,
        "snapshots[:, o.rows].conj()", "snapshots[:, o.rows]",
        ("tests/test_cli.py::TestGoldenShotFree::test_csv_hash[spin_current]",),
        "<psi|O|psi> conjugates the bra"),
)

# the runner's own check, run before the catalogue: a change to a comment
# alone must survive, and old text that is not in its file is an error
SELF_CHECK = (
    Mutant(
        "self-check-comment-only", MEASUREMENT, _KEY_RESET,
        "        # a comment changes nothing\n" + _KEY_RESET,
        ("tests/test_measurement.py::test_draws_match_one_loop",),
        "a mutant no test can kill reads survived", expect="survived"),
    Mutant(
        "self-check-missing-old-text", MEASUREMENT,
        "text that occurs in no file", "", (KEYED_HASH,),
        "a mutant whose old text is gone fails the runner", expect="error"),
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
    as_expected = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        dest = Path(tmp)
        _copy(root, dest)
        for mutant in SELF_CHECK + MUTANTS:
            start = time.perf_counter()
            result = _run(mutant, dest)
            took = time.perf_counter() - start
            print(f"{result:9} {took:6.1f} s  {mutant.name}", flush=True)
            as_expected.append(result.startswith(mutant.expect))
    checked = all(as_expected[:len(SELF_CHECK)])
    killed = sum(as_expected[len(SELF_CHECK):])
    print(f"self-check {'passed' if checked else 'failed'}; "
          f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if all(as_expected) else 1


if __name__ == "__main__":
    sys.exit(main())
