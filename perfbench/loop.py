"""Closed-loop runner and the accounting that turns runs into metrics.

One client runs the workload's configs in a fixed order; each run starts
only after the previous one has finished. A run that raises, or whose
outputs fail their check, adds no latency sample and counts as failed.
The number of passes is fixed, so a seed always gives the same runs and the
same failures, whatever the host's speed.
"""

import statistics
import time
import traceback
from dataclasses import dataclass


class CheckFailed(Exception):
    """A run finished but its outputs are wrong."""


@dataclass(frozen=True)
class RunRecord:
    experiment: str
    pass_index: int
    seconds: float  # wall time of the timed call, also when it failed
    elapsed: float  # wall time of the whole run, checks included
    error: str | None = None
    check_failed: bool = False
    # mean reference-kernel time just before and just after the run
    reference_s: float | None = None

    @property
    def ok(self):
        return self.error is None


def closed_loop(runs, run_one, passes, between=None, clock=time.perf_counter,
                give_up_after=None):
    """Run ``runs`` in order, ``passes`` times over.

    run_one(raw) returns the wall time of the timed call and raises on
    failure. ``between()``, if given, is called before the first run and
    after every run. It returns a pair: the reference time measured just
    after the previous run and the one measured just before the next; each
    record carries the mean of the two around its run. ``give_up_after`` is
    a safety net for a host far slower than the one the pass counts were
    sized on: no pass starts once that many seconds have gone.
    """
    start = clock()
    rows = []
    refs = []  # (after previous run, before next run), one per between() call
    if between is not None:
        refs.append(between())
    for pass_index in range(passes):
        if pass_index and give_up_after is not None \
                and clock() - start > give_up_after:
            break
        for raw in runs:
            t0 = clock()
            try:
                took = run_one(raw)
                error, check_failed = None, False
            except CheckFailed as exc:
                took, error, check_failed = clock() - t0, f"CheckFailed: {exc}", True
            except Exception as exc:  # a failed run is data; keep looping
                took = clock() - t0
                error = "".join(traceback.format_exception_only(exc)).strip()
            rows.append((raw["experiment"], pass_index, took, clock() - t0,
                         error, check_failed))
            if between is not None:
                refs.append(between())
    records = []
    for k, row in enumerate(rows):
        ref = None
        if refs:
            ref = 0.5 * (refs[k][1] + refs[k + 1][0])
        records.append(RunRecord(*row, reference_s=ref))
    return records


def summarize(records, timed):
    """Per-experiment medians and sample counts, failures, and pass times.

    ``pass_s`` is the time to produce every output of one pass: the sum of
    the median run times of the ``timed`` experiments. ``pass_ratio`` is the
    same sum over the median ratios of run time to the reference time
    measured around the run. Both are None when one of the timed experiments
    has no successful run, never the time until a crash.
    """
    experiments = {}
    for r in records:
        row = experiments.setdefault(r.experiment,
                                     {"samples": [], "ratios": [], "failed": 0})
        if r.ok:
            row["samples"].append(r.seconds)
            if r.reference_s:
                row["ratios"].append(r.seconds / r.reference_s)
        else:
            row["failed"] += 1
    for row in experiments.values():
        row["median_s"] = (statistics.median(row["samples"])
                           if row["samples"] else None)
        row["median_ratio"] = (statistics.median(row["ratios"])
                               if row["ratios"] else None)

    def total(key):
        values = [experiments.get(e, {}).get(key) for e in timed]
        return None if None in values else sum(values)

    attempted = len(records)
    failed = sum(not r.ok for r in records)
    return {
        "experiments": experiments,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else None,
        "check_failures": sum(r.check_failed for r in records),
        "pass_s": total("median_s"),
        "pass_ratio": total("median_ratio"),
    }
