"""Time to result for starkchain's five experiments, with per-module spans.

Run from the root of a starkchain source tree:

    python3 perfbench/run.py --workload paper_noisy --seed 0 --seconds 16 --trace 0

It drives the user path, ``config.parse_config`` then ``cli.run``, over one
workload (see workloads.py) in a closed loop of a fixed number of passes,
checks every run's outputs and prints one metric per line, then a JSON
summary as the last line. Times are also reported against a reference kernel
timed beside every run (reference.py). With ``--trace 1`` it alternates
untraced and traced passes and reports per-layer metrics instead. Details,
raw samples and spans go to ``.perfbench_out/``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Pin BLAS threads before numpy loads. One thread, not nproc: on a shared
# host a BLAS call split over two vCPUs waits for the slower one, and a
# 200x200 matmul was seen to take 60x longer for a minute at a time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import loop  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, ReferenceKernel  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench_out"
SETUP_PROBES = 5  # fresh interpreter start-ups per run, spread over it
# No pass starts after this many seconds of runs: a safety net that keeps a
# benchmark run within 180 s on a host far slower than the sizing host.
GIVE_UP_S = 120
# Only these reach the last line and BENCHMARK.json: they exist on every
# workload and are never 0. The per-experiment medians and failed_share are
# printed above it: most experiments appear in only some workloads,
# failed_share is 0 on two of them, and a single experiment's median of two or
# three samples spread by 30% between runs on a shared 2-vCPU host.
GATED = ("setup_s", "pass_s", "peak_rss_mb")


def _nproc():
    return len(os.sched_getaffinity(0))


class Between:
    """What runs between two workload runs.

    It times the reference kernel after every run, ``KERNEL_REPS`` calls of
    it for the workload. At fixed points, ``SETUP_PROBES`` times per
    benchmark run, it also times a fresh interpreter that imports starkchain
    and parses the workload's configs (setup_probe.py), with a second kernel
    timing after it. The host's speed drifts over tens of seconds, so the
    start-ups are spread over the run and each is also taken relative to the
    kernel times around it.
    """

    def __init__(self, kernel, workload, seed, n_runs):
        self.kernel = kernel
        self.reps = workloads.KERNEL_REPS[workload]
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                    "--workload", workload, "--seed", str(seed)]
        self.probe_every = max(1, -(-(n_runs + 1) // SETUP_PROBES))
        self.calls = 0
        self.kernel_s = []
        self.setup_s = []
        self.setup_ratios = []

    def __call__(self):
        before = after = self.kernel.measure(self.reps)
        self.kernel_s.append(before)
        if self.calls % self.probe_every == 0:
            t0 = time.perf_counter()
            subprocess.run(self.cmd, check=True)
            took = time.perf_counter() - t0
            after = self.kernel.measure(self.reps)
            self.kernel_s.append(after)
            self.setup_s.append(took)
            self.setup_ratios.append(took / (0.5 * (before + after)))
        self.calls += 1
        return before, after


def _source_digest():
    digest = hashlib.sha256()
    root = os.path.join("src", "starkchain")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _provenance():
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "samples": "one warmed process: imports and first calls are paid by "
                   "an untimed warm-up; setup_s times fresh interpreters",
        "reference_s": REFERENCE_S,
    }


class Runner:
    """Runs one config through parse_config and cli.run, then checks it."""

    def __init__(self, out_root):
        import starkchain.cli
        import starkchain.config
        from checks import check_outputs

        self.config_mod = starkchain.config
        self.cli_mod = starkchain.cli
        self.check_outputs = check_outputs
        self.out_root = out_root
        self.tracer = None  # a tracer.Tracer to install around each run
        self.reference = {}  # experiment -> files of its first good run
        self.runs = 0

    def _files(self, out_dir):
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        return files

    def __call__(self, raw):
        exp = raw["experiment"]
        # one directory per experiment, reused by every pass, so repeats
        # must give byte-identical files, summary.json included
        out_dir = os.path.join(self.out_root, exp)
        shutil.rmtree(out_dir, ignore_errors=True)
        raw = dict(raw, output_dir=out_dir)
        self.runs += 1
        gc.collect()
        if self.tracer is None:
            config = self.config_mod.parse_config(raw)
            t0 = time.perf_counter()
            self.cli_mod.run(config)
            took = time.perf_counter() - t0
        else:
            with self.tracer.installed(f"{self.runs}:{exp}"):
                config = self.config_mod.parse_config(raw)
                t0 = time.perf_counter()
                self.cli_mod.run(config)
                took = time.perf_counter() - t0
        files = self._files(out_dir)
        self.check_outputs(config, files)
        first = self.reference.setdefault(exp, files)
        if files != first:
            differ = sorted(n for n in set(files) | set(first)
                            if files.get(n) != first.get(n))
            raise loop.CheckFailed(f"rerun differs from the first run in {differ}")
        return took


def _fmt(value, unit):
    return "missing" if value is None else f"{value:.6g} {unit}"


def _report_end_to_end(args, summary, between, peak_rss_mb):
    from starkchain.config import EXPERIMENTS

    exps = summary["experiments"]
    scaled = None if summary["pass_ratio"] is None \
        else summary["pass_ratio"] * REFERENCE_S
    setup_s = statistics.median(between.setup_ratios) * REFERENCE_S
    rows = [("setup_s", _fmt(setup_s, "s"),
             f"median of {len(between.setup_ratios)} fresh interpreters, "
             "at reference speed"),
            ("setup_wall_s", _fmt(statistics.median(between.setup_s), "s"),
             "the same start-ups, wall time")]
    for exp in EXPERIMENTS:
        if exp not in exps:
            rows.append((f"{exp}_s", "n/a", "not in this workload"))
            continue
        row = exps[exp]
        note = f"median of {len(row['samples'])} samples, wall time"
        if row["median_ratio"] is not None:
            note += f"; {row['median_ratio'] * REFERENCE_S:.6g} s at reference speed"
        if row["failed"]:
            note += f"; {row['failed']} failed runs"
        rows.append((f"{exp}_s", _fmt(row["median_s"], "s"), note))
    rows.append(("failed_share",
                 f"{summary['failed']}/{summary['attempted']} = "
                 f"{summary['failed_share']:.4g}", "runs failed / attempted"))
    rows.append(("peak_rss_mb", _fmt(peak_rss_mb, "MB"), "the workload process"))
    timed = ", ".join(workloads.timed_experiments(args.workload))
    rows.append(("pass_wall_s", _fmt(summary["pass_s"], "s"),
                 "sum of the wall-time medians of " + timed))
    rows.append(("pass_s", _fmt(scaled, "s"),
                 "the same sum at reference speed"))
    rows.append(("reference_kernel_s",
                 _fmt(statistics.median(between.kernel_s), "s"),
                 f"median of {len(between.kernel_s)} kernel timings; "
                 f"reference speed is {REFERENCE_S:g} s"))
    for name, value, note in rows:
        print(f"{name:<21} {value:<16} {note}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (scaled, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
            if v is not None}


def _trace_passes(runs, runner, tracer, passes):
    """Alternate untraced and traced passes; returns both record lists."""
    records = {"untraced": [], "traced": []}
    for k in range(2 * max(1, passes // 2)):
        kind = "traced" if k % 2 else "untraced"
        runner.tracer = tracer if kind == "traced" else None
        records[kind] += loop.closed_loop(runs, runner, 1)
    return records


def _report_per_layer(records, tracer, n_runs):
    selfs = tracing.self_times(tracer.spans)
    gaps = tracing.additivity_gaps(tracer.spans, selfs)
    worst = max(gaps.values(), default=0.0)
    if worst > 1e-6:
        raise RuntimeError(f"self times do not add up to the root spans: {worst}")
    n_traced = len(records["traced"]) // n_runs
    per_pass = 1.0 / n_traced
    layers = tracing.layer_totals(tracer.spans, selfs)
    stages = tracing.stage_totals(layers)

    def pass_seconds(recs):
        sums = [sum(r.elapsed for r in recs[i:i + n_runs])
                for i in range(0, len(recs), n_runs)]
        return statistics.median(sums)

    untraced = pass_seconds(records["untraced"])
    overhead = pass_seconds(records["traced"]) - untraced
    metrics = {}
    print(f"{'boundary':<38} {'calls':>8} {'self_s':>10} {'errors':>6}   (per traced pass)")
    for name in tracing.BOUNDARIES:
        row = layers[name]
        calls, self_s, errors = (row["calls"] * per_pass, row["self_s"] * per_pass,
                                 row["errors"] * per_pass)
        print(f"{name:<38} {calls:>8.6g} {self_s:>10.4f} {errors:>6.3g}")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.errors"] = (errors, "count")
    for name, value in tracer.counts.items():
        how = tracing.COUNTS[name]
        value = value if how == "max" else value * per_pass
        metrics[name] = (value, "count")
    fits = (layers["analysis.gaussian_fit_wavefront"]["calls"]
            + layers["analysis.linear_fit"]["calls"]) * per_pass
    metrics["analysis.fits_attempted"] = (fits, "count")
    for name, value in stages.items():
        metrics[name] = (value * per_pass, "s")
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    for name in list(tracing.COUNTS) + ["analysis.fits_attempted"] + list(stages) \
            + ["trace.untraced_pass_s", "trace.overhead_s"]:
        value, unit = metrics[name]
        print(f"{name:<38} {value:.6g} {unit}")
    print(f"traced passes: {n_traced}, spans: {len(tracer.spans)}, "
          f"largest additivity gap: {worst:.3g} s")
    by_run = {}
    for s, t in zip(tracer.spans, selfs):
        experiment = s.run.split(":", 1)[1]
        row = by_run.setdefault(experiment, {})
        row[s.name] = row.get(s.name, 0.0) + t * per_pass
    for experiment, row in by_run.items():
        top = sorted(row.items(), key=lambda kv: -kv[1])[:3]
        print(f"largest self times in {experiment}: "
              + ", ".join(f"{name} {value:.3g} s" for name, value in top))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _print_failures(records, workload, seed):
    failed = [r for r in records if not r.ok]
    with open(os.path.join(OUT, "failures.jsonl"), "a") as fh:
        for r in failed:
            fh.write(json.dumps({"workload": workload, "seed": seed,
                                 "experiment": r.experiment,
                                 "error": r.error}) + "\n")
    for r in failed:
        print(f"failed: {r.experiment} (pass {r.pass_index}, seed {seed}): {r.error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "starkchain", "__init__.py")):
        print("perfbench: run from the root of a starkchain source tree "
              "(src/starkchain not found)", file=sys.stderr)
        return 2
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    os.makedirs(OUT, exist_ok=True)

    import starkchain
    if not os.path.abspath(starkchain.__file__).startswith(src + os.sep):
        print(f"perfbench: imported starkchain from {starkchain.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    provenance = _provenance()
    out_root = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out_root, ignore_errors=True)
    runs = workloads.workload_runs(args.workload, args.seed)
    passes = workloads.passes(args.workload, args.seconds)
    warm_up = loop.closed_loop(workloads.WARM_UP,
                               Runner(os.path.join(out_root, "warm-up")), 1)
    kernel = ReferenceKernel()
    kernel.measure()  # first call pays page faults and BLAS start-up

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={passes}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for r in warm_up:
        if not r.ok:
            print(f"warm-up failed: {r.experiment}: {r.error}")
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance}
    if args.trace:
        tracer = tracing.Tracer()
        records = _trace_passes(runs, Runner(out_root), tracer, passes)
        all_records = records["untraced"] + records["traced"]
        summary = loop.summarize(all_records, [])
        metrics = _report_per_layer(records, tracer, len(runs))
        with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.run, s.error]
                       for s in tracer.spans], fh)
        correct = summary["check_failures"] == 0
    else:
        between = Between(kernel, args.workload, args.seed, passes * len(runs))
        all_records = loop.closed_loop(runs, Runner(out_root), passes,
                                       between=between,
                                       give_up_after=GIVE_UP_S)
        if len(all_records) < passes * len(runs):
            print(f"stopped after {len(all_records)} of {passes * len(runs)} "
                  f"runs: no pass starts after {GIVE_UP_S} s")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = loop.summarize(all_records,
                                 workloads.timed_experiments(args.workload))
        metrics = _report_end_to_end(args, summary, between, peak_rss_mb)
        correct = summary["check_failures"] == 0 and set(metrics) == set(GATED)
        result.update(setup_samples_s=between.setup_s,
                      setup_ratios=between.setup_ratios,
                      reference_kernel_s=between.kernel_s)
    _print_failures(all_records, args.workload, args.seed)
    result.update(summary=summary, metrics=metrics,
                  records=[vars(r) for r in all_records])
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
