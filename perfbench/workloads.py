"""The benchmark's workloads: the raw configs a user would hand to the CLI.

Each workload is a closed loop: one client runs its configs in the listed
order, each starting only after the previous one has finished. The
benchmark seed becomes ``shots.seed``; the two shot-free workloads have
fixed inputs, so the seed changes nothing there.
"""

PAPER = {"device": "paper-device", "t_max": 300.0, "dt_sample": 2.0}

WHY = {
    "paper_noisy": (
        "paper settings with Lindblad noise, table-s1 readout and paper shots: "
        "shot handling and RK4 Lindblad dominate; the noisy wsl_scan crash "
        "stays in as a counted failure"
    ),
    "paper_ideal": (
        "the five experiments at paper settings, ideal and shot-free: the "
        "bypass for shot handling, where per-call costs and the n=5 Lindblad "
        "check dominate"
    ),
    "scale_up": (
        "ideal spin_transport at n=10 and decoherence_check at n=6: the dense "
        "1024-dim eigh and RK4 on the 4096-dim Liouville space dominate"
    ),
}

# Runs kept in a workload for a known defect. They count in attempted and
# failed, but stay out of pass_s: whether they finish depends on the seed
# (noisy wsl_scan raises for nine of the seeds 0-9), so including them
# would make pass_s measure the seed rather than the program.
PROBES = {"paper_noisy": ("wsl_scan",)}


def _uniform_device(n, **per_site_us):
    device = {"n_qubits": n, "coupling_mhz": [14.4] * (n - 1)}
    for key, value in per_site_us.items():
        device[key] = [value] * n
    return device


def workload_runs(name, seed):
    """Raw config mappings of one pass, in run order."""
    if name == "paper_noisy":
        noisy = dict(PAPER, noise="lindblad", readout="table-s1")
        return [
            # paper shot counts by default; only the seed is set
            dict(noisy, experiment=exp, shots={"seed": int(seed)})
            for exp in ("spin_transport", "thermal_transport",
                        "spin_current", "wsl_scan")
        ]
    if name == "paper_ideal":
        return [
            dict(PAPER, experiment=exp, noise="ideal")
            for exp in ("spin_transport", "thermal_transport", "spin_current",
                        "wsl_scan", "decoherence_check")
        ]
    if name == "scale_up":
        grid = {"t_max": 300.0, "dt_sample": 2.0, "F": 15.0}
        return [
            dict(grid, experiment="spin_transport", noise="ideal",
                 device=_uniform_device(10), initial_state="1" + "0" * 9),
            dict(grid, experiment="decoherence_check",
                 device=_uniform_device(6, t1_us=20.0, t2star_us=2.0),
                 initial_state="100000"),
        ]
    raise KeyError(f"unknown workload {name!r}; one of {sorted(WHY)}")


# Wall time of one pass, reference kernels included, on the host the
# benchmark was sized on. It turns --seconds into a fixed number of passes,
# so the runs and failures of a seed do not depend on the host's speed.
NOMINAL_PASS_S = {"paper_noisy": 13.0, "paper_ideal": 2.5, "scale_up": 5.0}
# Reference-kernel calls timed after each run (reference.py). A timing that
# is longer against the runs around it is less noisy; short runs would pay
# too much for a long one.
KERNEL_REPS = {"paper_noisy": 3, "paper_ideal": 1, "scale_up": 2}
# paper_noisy has three timed experiments of 2-4 s each; with three samples
# each, their medians still spread by 10% between runs.
MIN_PASSES = 4


def passes(name, seconds):
    """Passes of one benchmark run: about ``seconds`` on the sizing host."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[name]))


def timed_experiments(name):
    """Experiments whose median run times add up to pass_s."""
    probes = PROBES.get(name, ())
    return [raw["experiment"] for raw in workload_runs(name, 0)
            if raw["experiment"] not in probes]


# Run once, untimed, before the samples: every experiment at n=5, ideal,
# over 0-60 ns (long enough for the first wavefront). It pays the imports and
# first-call set-up of the code paths all workloads share.
WARM_UP = [
    dict(PAPER, t_max=60.0, experiment=exp, noise="ideal")
    for exp in ("spin_transport", "thermal_transport", "spin_current",
                "wsl_scan", "decoherence_check")
]
