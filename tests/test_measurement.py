"""Confusion matrices, shot sampling and per-group estimators. Snapshots
draw in order on the calling thread, each from its own key."""

import functools
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import chi2

from starkchain import (
    ConfusionMatrix,
    CountRecord,
    DeviceParams,
    DomainError,
    PotentialSpec,
    StateSpecError,
    build_xy_hamiltonian,
    evolve_lindblad,
    group_means,
    make_collapse_ops,
    parse_config,
    prepare_initial_state,
    sample_shots,
)
from starkchain import cli, measurement, observables
from starkchain.dynamics import LindbladSnapshots, _coordinates

from scipy_forms import density_matrices

PERFECT = [ConfusionMatrix.perfect()] * 5
# one ConfusionMatrix per qubit of the paper device, as a table-s1 config reads
TABLE_S1 = parse_config({"experiment": "spin_transport", "readout": "table-s1"}).readout


def _sampled(stack):
    """A stack as sample_shots takes it: state vectors as they are, and a
    (T, s, s) stack of Hermitian density matrices as the LindbladSnapshots
    of their coordinates on all s states, at times 0, 1, ..."""
    if stack.ndim == 2:
        return stack
    side = stack.shape[1]
    return LindbladSnapshots(_coordinates(stack), np.arange(side), side,
                             np.arange(len(stack), dtype=float))

# the basis pre-rotations, stated here apart from the module's butterflies:
# R_y(-pi/2) measures X and R_x(+pi/2) measures Y, bit 0 the +1 eigenvalue
_AXIS_ROT = {
    "Z": np.eye(2),
    "X": np.array([[1, 1], [-1, 1]]) / np.sqrt(2),
    "Y": np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2),
}


class TestConfusionMatrix:
    def test_matrix_layout(self):
        c = ConfusionMatrix(f0=0.981, f1=0.853)
        m = c.matrix
        np.testing.assert_allclose(m, [[0.981, 0.147], [0.019, 0.853]])
        # column stochastic
        np.testing.assert_allclose(m.sum(axis=0), 1.0)

    def test_inverse_identity(self):
        c = ConfusionMatrix(f0=0.92, f1=0.87)
        np.testing.assert_allclose(c.inverse() @ c.matrix, np.eye(2), atol=1e-12)

    def test_singular(self):
        c = ConfusionMatrix(f0=0.3, f1=0.7)
        assert c.is_singular
        with pytest.raises(DomainError):
            c.inverse()

    def test_validation(self):
        with pytest.raises(DomainError):
            ConfusionMatrix(f0=1.2, f1=0.9)
        with pytest.raises(DomainError):
            ConfusionMatrix(f0=0.9, f1=-0.1)

    def test_from_device(self):
        # one matrix per qubit from the device's readout fidelities
        cs = TABLE_S1
        assert len(cs) == 5
        assert cs[0].f0 == pytest.approx(0.981)
        assert cs[3].f1 == pytest.approx(0.859)


def _counts_of(bits, n_groups, basis):
    """The per-group outcome histograms of shots given as bits, (n_shots,
    n_qubits) with site 1 in column 0, as a CountRecord of n_groups equal
    consecutive groups."""
    bits = np.asarray(bits, dtype=np.int64)
    n_shots, n = bits.shape
    outcome = bits @ (1 << np.arange(n - 1, -1, -1))  # site 1 most significant
    group = np.arange(n_shots) // (n_shots // n_groups)
    counts = np.bincount((group << n) + outcome, minlength=n_groups << n)
    return CountRecord(counts.reshape(n_groups, 1 << n), basis)


def _strings_to_bits(strings):
    return [[int(c) for c in b] for b in strings]


class TestSampling:
    """One state sampled as a stack of one snapshot."""

    def test_bit_exact_reproducibility(self):
        data = prepare_initial_state("X+10X-", 4).data[None]
        conf = TABLE_S1[:4]
        a = sample_shots(data, conf, "ZXZY", 200, [42], n_groups=2)
        b = sample_shots(data, conf, "ZXZY", 200, [42], n_groups=2)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = sample_shots(data, conf, "ZXZY", 200, [43], n_groups=2)
        assert not np.array_equal(c.counts, a.counts)

    def test_eigenstate_is_noiseless(self):
        # X+ measured along X reports the +1 outcome, bit 0, every shot
        data = prepare_initial_state("X+X+", 2).data[None]
        rec = sample_shots(data, [ConfusionMatrix.perfect()] * 2, "XX", 500,
                           [1])
        np.testing.assert_array_equal(rec.counts, [[500, 0, 0, 0]])

    def test_computational_state(self):
        data = prepare_initial_state("10011", 5).data[None]
        rec = sample_shots(data, PERFECT, "ZZZZZ", 300, [5])
        want = np.zeros((1, 32), dtype=np.int64)
        want[0, 0b10011] = 300
        np.testing.assert_array_equal(rec.counts, want)

    def test_readout_infidelity_rate(self):
        # all-ones state: P(report 1 on qubit q) = F1 of qubit q
        data = prepare_initial_state("11111", 5).data[None]
        conf = TABLE_S1
        n = 100_000
        rec = sample_shots(data, conf, "ZZZZZ", n, [11])
        p_hat = group_means(rec, [f"P{q}" for q in range(1, 6)])[0]
        for q, f1 in enumerate(c.f1 for c in TABLE_S1):
            sigma = np.sqrt(f1 * (1 - f1) / n)
            assert abs(p_hat[q] - f1) < 3 * sigma

    def test_born_rule_marginal(self):
        data = prepare_initial_state("X+0", 2).data[None]
        rec = sample_shots(data, [ConfusionMatrix.perfect()] * 2, "ZZ",
                           50_000, [9])
        p1 = group_means(rec, ["P1"])[0, 0]
        assert abs(p1 - 0.5) < 3 * np.sqrt(0.25 / 50_000)

    def test_state_tag_check(self):
        # a sector state's amplitudes are refused without the support they
        # live on
        from starkchain import build_sector_basis
        b = build_sector_basis(3, 1)
        st = prepare_initial_state("100", 3, basis=b)
        with pytest.raises(StateSpecError):
            sample_shots(st.data[None], [ConfusionMatrix.perfect()] * 3, "ZZZ",
                         10, [0])

    def test_argument_checks(self):
        data = prepare_initial_state("00", 2).data[None]
        with pytest.raises(DomainError):
            sample_shots(data, [ConfusionMatrix.perfect()] * 2, "ZW", 10, [0])
        with pytest.raises(DomainError):
            sample_shots(data, [ConfusionMatrix.perfect()], "ZZ", 10, [0])
        with pytest.raises(DomainError):
            sample_shots(data, [ConfusionMatrix.perfect()] * 2, "ZZ", 0, [0])

    def test_batch_argument_checks(self):
        # seeds are one per snapshot, never a single scalar
        data = prepare_initial_state("00", 2).data
        conf = [ConfusionMatrix.perfect()] * 2
        with pytest.raises(DomainError, match="one seed per state"):
            sample_shots([data, data], conf, "ZZ", 10, [1])
        with pytest.raises(DomainError, match="one seed per state"):
            sample_shots([data, data], conf, "ZZ", 10, 1)
        with pytest.raises(DomainError, match="one seed per state"):
            sample_shots([], conf, "ZZ", 10, [])

    def test_groups_must_divide_the_shots_of_each_state(self):
        # the message gives the per-state counts, not the batch totals
        data = prepare_initial_state("00", 2).data
        conf = [ConfusionMatrix.perfect()] * 2
        with pytest.raises(DomainError,
                           match="^15 shots per state not divisible into 10 groups$"):
            sample_shots([data] * 3, conf, "ZZ", 15, [1, 2, 3], n_groups=10)

    @pytest.mark.parametrize("n_shots, seeds, n_groups, match", [
        (5.5, [1], 1, r"^n_shots: expected an integer, got 5\.5$"),
        (True, [1], 1, "^n_shots: expected an integer, got True$"),
        (2 ** 70, [1], 1, r"^n_shots must be in 1\.\.1000000000, got 1180591620717411303424$"),
        (10, [1], 2.5, r"^n_groups: expected an integer, got 2\.5$"),
        (10, [1.7], 1, r"^seeds must be integers, got 1\.7$"),
        (10, np.array([1.7]), 1, r"^seeds must be integers, got np\.float64\(1\.7\)$"),
        (10, [True], 1, "^seeds must be integers, got True$"),
        (10, np.array([True]), 1, "^seeds must be integers, got np.True_$"),
    ])
    def test_counts_and_seeds_are_integers(self, n_shots, seeds, n_groups, match):
        # a fractional count or seed was truncated, a bool taken as 0 or 1,
        # and a count past the int64 range ended in an OverflowError
        data = prepare_initial_state("X+0", 2).data
        conf = [ConfusionMatrix.perfect()] * 2
        with pytest.raises(DomainError, match=match):
            sample_shots([data], conf, "ZZ", n_shots, seeds, n_groups=n_groups)

    def test_integers_of_any_kind_draw_alike(self):
        # numpy integers, an integer array and Python ints wider than one
        # 64-bit word are seeds and counts as their int values are
        data = prepare_initial_state("X+0", 2).data
        conf = [ConfusionMatrix.perfect()] * 2
        want = sample_shots([data] * 2, conf, "ZZ", 10, [3, 2 ** 64 + 5],
                            n_groups=2).counts
        for seeds in ([np.uint64(3), 2 ** 64 + 5],
                      np.array([3, 2 ** 64 + 5], dtype=object)):
            got = sample_shots([data] * 2, conf, "ZZ", np.int64(10), seeds,
                               n_groups=np.uint8(2)).counts
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            sample_shots([data], conf, "ZZ", 10, np.array([3], dtype=np.uint64)).counts,
            sample_shots([data], conf, "ZZ", 10, [3]).counts)


class TestEstimators:
    def test_site_density(self):
        r = _counts_of(_strings_to_bits(("10", "10", "00", "10")), 2, "ZZ")
        means = group_means(r, ["P1"])[:, 0]
        np.testing.assert_allclose(means, [1.0, 0.5])
        assert means.mean() == pytest.approx(0.75)

    def test_pauli_pair_values(self):
        # (1-2b_i)(1-2b_j) per shot
        r = _counts_of(_strings_to_bits(("10", "01", "00", "11")), 1, "XX")
        means = group_means(r, ["XX1"])[:, 0]
        np.testing.assert_allclose(means, [(-1 - 1 + 1 + 1) / 4.0])

    def test_basis_mismatch(self):
        r = CountRecord([[1, 0, 0, 0]], "XY")
        with pytest.raises(DomainError):
            group_means(r, ["XX1"])
        # matching mixed-basis estimator works
        assert group_means(r, ["XY1"])[0, 0] == pytest.approx(1.0)

    def test_bare_name_is_refused(self):
        # a name is not a sequence of its characters: the one form is a list
        r = CountRecord([[0, 0, 1, 0]], "ZZ")
        with pytest.raises(DomainError, match=r"sequence of names, got 'P1'$"):
            group_means(r, "P1")
        np.testing.assert_array_equal(group_means(r, ["P1"]), [[1.0]])

    def test_unknown_estimator(self):
        r = CountRecord([[1, 0, 0, 0]], "ZZ")
        with pytest.raises(DomainError):
            group_means(r, ["Q1"])
        with pytest.raises(DomainError):
            group_means(r, ["P3"])
        with pytest.raises(DomainError):
            group_means(r, ["ZZ2"])

    def test_single_group_spread_is_zero(self):
        # one group per snapshot has no spread: the runner reports the means
        # and no error bars
        r = _counts_of(_strings_to_bits(("10", "00")), 1, "ZZ")
        cols, errs = cli._mean_err({"P1": group_means(r, ["P1"]).T})
        np.testing.assert_array_equal(cols["P1"], [0.5])
        assert errs == {}

    def test_group_spread_binomial_scale(self):
        """6 groups x 100 shots of a fair coin: the group spread statistic
        averages to sqrt(p(1-p)/100) ~ 0.05 over many seeds."""
        data = prepare_initial_state("X+0", 2).data
        conf = [ConfusionMatrix.perfect()] * 2
        rec = sample_shots([data] * 100, conf, "ZZ", 600, np.arange(100),
                           n_groups=6)
        spreads = group_means(rec, ["P1"]).reshape(100, 6).std(axis=1, ddof=1)
        assert 0.025 < spreads.mean() < 0.1


class TestReadoutCorrection:
    """Inverse-confusion correction of each group's histogram, through
    group_means(..., confusion=)."""

    def test_marginal_roundtrip(self):
        # reported one-site counts C (a, b), integers because every fidelity
        # has three decimals, correct back to the density b / (a + b)
        rng = np.random.default_rng(31)
        for c in TABLE_S1:
            true = 1000 * rng.integers(1, 1000, size=2)
            rec = CountRecord(np.rint(c.matrix @ true)[None], "Z")
            np.testing.assert_allclose(group_means(rec, ["P1"], confusion=[c]),
                                       [[true[1] / true.sum()]], rtol=0,
                                       atol=1e-12)

    def test_histogram_roundtrip(self):
        conf = TABLE_S1[:2]
        rng = np.random.default_rng(37)
        h_true = 10 ** 6 * rng.integers(1, 1000, size=4)
        h_rep = np.rint(np.kron(conf[0].matrix, conf[1].matrix) @ h_true)
        rec = CountRecord(h_rep[None], "ZZ")
        want = np.array([h_true[2:].sum(), h_true[1::2].sum(),
                         h_true @ [1, -1, -1, 1]]) / h_true.sum()
        np.testing.assert_allclose(
            group_means(rec, ["P1", "P2", "ZZ1"], confusion=conf)[0], want,
            rtol=0, atol=1e-12)
        # the corrected histogram itself, with the group's shot count
        np.testing.assert_allclose(
            measurement._correct_histograms(h_rep[None],
                                            [c.inverse() for c in conf])[0],
            h_true, rtol=1e-12)

    def test_clamping(self):
        conf = [ConfusionMatrix(f0=0.9, f1=0.9)]
        # a reported density below the achievable floor maps to a clamped 0
        rec = CountRecord([[100, 0]], "Z")
        assert group_means(rec, ["P1"], confusion=conf)[0, 0] == 0.0

    def test_clamping_both_ways(self):
        # densities past either end of the correctable range clamp to 0 or
        # 1, and each clamped histogram keeps the group's 100 shots
        conf = [ConfusionMatrix(f0=0.9, f1=0.8)] * 2
        rec = CountRecord([[0, 95, 5, 0]], "ZZ")  # P1 = 0.05, P2 = 0.95
        assert list(group_means(rec, ["P1", "P2"], confusion=conf)[0]) == \
            pytest.approx([0.0, 1.0], abs=1e-15)
        inv = [conf[0].inverse()]
        for hist, want in (([95.0, 5.0], [100.0, 0.0]),
                           ([5.0, 95.0], [0.0, 100.0])):
            np.testing.assert_allclose(
                measurement._correct_histograms(np.array([hist]), inv)[0],
                want, rtol=1e-15)

    def test_histogram_without_positive_total(self):
        conf = [ConfusionMatrix(f0=0.9, f1=0.9)] * 2
        rec = CountRecord([[3, 0, 1, 0], [0, 0, 0, 0]], "ZZ")
        for correct in (None, conf):
            with pytest.raises(DomainError, match="empty groups"):
                group_means(rec, ["P1", "ZZ1"], confusion=correct)
        # a product that clamps to nothing is refused, not divided by 0;
        # each column of a true inverse sums to 1, so only rounding near a
        # singular confusion gets there, and this stand-in inverse does
        with pytest.raises(DomainError, match="empty histogram"):
            measurement._correct_histograms(np.array([[3.0, 1.0]]),
                                            [-np.eye(2)])

    def test_shape_error(self):
        with pytest.raises(DomainError, match="for 5 qubits"):
            CountRecord(np.zeros((1, 7), dtype=int), "ZZZZZ")

    def test_corrected_group_means(self):
        # noisy sampling + histogram inversion recovers the ideal density
        data = prepare_initial_state("11111", 5).data[None]
        conf = TABLE_S1
        rec = sample_shots(data, conf, "ZZZZZ", 60_000, [13], n_groups=6)
        grand = group_means(rec, ["P4"], confusion=conf)[:, 0].mean()
        assert abs(grand - 1.0) < 0.01


def _reference_group_means(bitstrings, n_groups, estimator, confusion=None):
    """The string-based estimator: parse every shot's text into bits, then
    histogram and estimate group by group."""
    kind, idx = re.fullmatch(r"(P|XX|YY|XY|YX|ZZ)([1-9][0-9]*)",
                             estimator).groups()
    sites = (int(idx),) if kind == "P" else (int(idx), int(idx) + 1)
    k = len(sites)
    bits = np.array([[int(c) for c in b] for b in bitstrings], dtype=np.int64)
    vals = np.zeros(2 ** k)
    for outcome in range(2 ** k):
        obits = [(outcome >> (k - 1 - i)) & 1 for i in range(k)]
        if kind == "P":
            vals[outcome] = obits[0]
        else:
            vals[outcome] = np.prod([1.0 - 2.0 * b for b in obits])
    size = len(bitstrings) // n_groups
    means = []
    for g in range(n_groups):
        chunk = bits[g * size:(g + 1) * size]
        code = np.zeros(size, dtype=np.int64)
        for s in sites:
            code = (code << 1) | chunk[:, s - 1]
        hist = np.bincount(code, minlength=2 ** k).astype(float)
        if confusion is not None:
            inv = confusion[sites[0] - 1].inverse()
            for s in sites[1:]:
                inv = np.kron(inv, confusion[s - 1].inverse())
            out = np.clip(inv @ hist, 0.0, None)
            hist = out * (hist.sum() / out.sum())
        means.append(float(np.dot(vals, hist) / hist.sum()))
    return np.asarray(means)


@st.composite
def _records(draw):
    n = draw(st.integers(2, 5))
    basis = draw(st.text(alphabet="ZXY", min_size=n, max_size=n))
    n_groups = draw(st.integers(1, 6))
    size = draw(st.integers(1, 40))
    bits = draw(hnp.arrays(np.uint8, (n_groups * size, n),
                           elements=st.integers(0, 1)))
    # a site density, or the Pauli pair the basis measures on one bond
    bond = draw(st.integers(1, n - 1))
    pair = basis[bond - 1:bond + 1]
    if pair in ("XX", "YY", "XY", "YX", "ZZ") and draw(st.booleans()):
        estimator = f"{pair}{bond}"
    else:
        estimator = f"P{draw(st.integers(1, n))}"
    confusion = None
    if draw(st.booleans()):
        confusion = TABLE_S1[:n]
    return bits, n_groups, basis, estimator, confusion


@settings(max_examples=300, deadline=None)
@given(_records())
def test_group_means_match_string_reference(case):
    bits, n_groups, basis, estimator, confusion = case
    strings = tuple("".join(str(b) for b in row) for row in bits)
    want = _reference_group_means(strings, n_groups, estimator, confusion)
    got = group_means(_counts_of(bits, n_groups, basis), [estimator],
                      confusion=confusion)[:, 0]
    # same arithmetic as the reference, so equal to the last bit
    np.testing.assert_array_equal(got, want)


@st.composite
def _batches(draw):
    """K random states on n qubits as one stack, all unit vectors or all
    density matrices each mixing three of them, with a basis, K seeds and a
    confusion list."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    stack = _random_stack(n, k, seed=draw(st.integers(0, 2 ** 32)),
                          pure=draw(st.booleans()))
    basis = draw(st.text(alphabet="ZXY", min_size=n, max_size=n))
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=k,
                          max_size=k))
    n_groups = draw(st.integers(1, 4))
    n_shots = n_groups * draw(st.integers(1, 30))
    if draw(st.booleans()):
        confusion = TABLE_S1[:n]
    else:
        confusion = [ConfusionMatrix.perfect()] * n
    return stack, basis, seeds, n_shots, n_groups, confusion


@settings(max_examples=100, deadline=None)
@given(_batches())
def test_batch_equals_its_parts(case):
    # a stack's counts, and every estimate from them, are its snapshots'
    # one-snapshot calls, one after another
    stack, basis, seeds, n_shots, n_groups, confusion = case
    parts = [sample_shots(_sampled(stack[k:k + 1]), confusion, basis,
                          n_shots, [seed], n_groups=n_groups)
             for k, seed in enumerate(seeds)]
    batch = sample_shots(_sampled(stack), confusion, basis, n_shots, seeds,
                         n_groups=n_groups)
    np.testing.assert_array_equal(batch.counts,
                                  np.vstack([p.counts for p in parts]))
    assert batch.n_groups == len(stack) * n_groups and batch.basis == basis
    for est in _estimators(basis):
        for correct in (None, confusion):
            got = group_means(batch, [est], confusion=correct)[:, 0]
            want = np.vstack([group_means(p, [est], confusion=correct)[:, 0]
                              for p in parts])
            assert np.array_equal(got.reshape(len(stack), n_groups), want)


def _estimators(basis):
    n = len(basis)
    names = [f"P{j}" for j in range(1, n + 1)]
    return names + [basis[b - 1:b + 1] + str(b) for b in range(1, n)
                    if basis[b - 1:b + 1] in ("XX", "YY", "XY", "YX", "ZZ")]


@settings(max_examples=200, deadline=None)
@given(_records())
def test_counts_of_a_record_give_its_means(case):
    # the histograms of drawn shots give every estimator of their basis as
    # the string reference does, to the last bit, with and without readout
    # correction
    bits, n_groups, basis, _, _ = case
    counts = _counts_of(bits, n_groups, basis)
    assert counts.n_groups == n_groups
    np.testing.assert_array_equal(counts.counts.sum(axis=1),
                                  len(bits) // n_groups)
    strings = tuple("".join(str(b) for b in row) for row in bits)
    for est in _estimators(basis):
        for correct in (None, TABLE_S1[:len(basis)]):
            np.testing.assert_array_equal(
                group_means(counts, [est], confusion=correct)[:, 0],
                _reference_group_means(strings, n_groups, est, correct))


def _axis_sum_counts(record, sites):
    """Reference: a CountRecord's histogram over the listed sites as an
    axis sum of its (n_groups, 2, ..., 2) view over the other sites."""
    n = record.n_qubits
    per_site = record.counts.reshape((record.n_groups,) + (2,) * n)
    others = tuple(q for q in range(1, n + 1) if q not in sites)
    return per_site.sum(axis=others).reshape(record.n_groups, 1 << len(sites))


@st.composite
def _count_records(draw):
    """A CountRecord drawn directly, its counts up to 2^47 (sums of up to
    32 of them stay below 2^53), some rows empty, and its estimators."""
    n = draw(st.integers(1, 5))
    basis = draw(st.text(alphabet="ZXY", min_size=n, max_size=n))
    top = draw(st.sampled_from([1, 50, 2 ** 47]))
    counts = draw(hnp.arrays(np.int64, (draw(st.integers(1, 6)), 1 << n),
                             elements=st.integers(0, top)))
    return CountRecord(counts, basis)


@settings(max_examples=200, deadline=None)
@given(_records(), _count_records(), st.data())
def test_one_pass_equals_the_per_name_calls(case, drawn, data):
    # group_means over a list of names gives, column by column, each name's
    # own call to the last bit, for counts of drawn bits and for a drawn
    # CountRecord, with and without readout correction
    bits, n_groups, basis, _, _ = case
    for rec in (_counts_of(bits, n_groups, basis), drawn):
        n = rec.n_qubits
        names = data.draw(st.lists(st.sampled_from(_estimators(rec.basis)),
                                   min_size=1, max_size=6))
        for correct in (None, TABLE_S1[:n]):
            try:
                got = group_means(rec, names, confusion=correct)
            except DomainError as exc:  # an empty group, or one corrected
                with pytest.raises(DomainError, match=re.escape(str(exc))):
                    for name in names:
                        group_means(rec, [name], confusion=correct)[:, 0]
                continue
            assert got.shape == (rec.n_groups, len(names))
            for k, name in enumerate(names):
                np.testing.assert_array_equal(
                    got[:, [k]], group_means(rec, [name], confusion=correct))
        if isinstance(rec, CountRecord):
            # the one product gives the former axis sums, exactly
            tuples = [(j,) for j in range(1, n + 1)]
            tuples += [(b, b + 1) for b in range(1, n)]
            for sites, hist in zip(tuples, rec.site_histograms(tuples)):
                assert hist.dtype == float and hist.flags.c_contiguous
                np.testing.assert_array_equal(hist,
                                              _axis_sum_counts(rec, sites))


def _random_stack(n, k, seed, pure=False):
    """k random states on n qubits: unit vectors, or density matrices each
    mixing three of them."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(k, 3, 2 ** n)) + 1j * rng.normal(size=(k, 3, 2 ** n))
    vecs /= np.linalg.norm(vecs, axis=2)[:, :, None]
    if pure:
        return vecs[:, 0]
    weights = rng.dirichlet(np.ones(3), size=k)
    return np.einsum("km,kmi,kmj->kij", weights, vecs, vecs.conj())


class TestCounts:
    def test_pure_z_state_with_perfect_readout_is_deterministic(self):
        stack = np.array([prepare_initial_state(s, 5).data
                          for s in ("10011", "00000", "11111")])
        rec = sample_shots(stack, PERFECT, "ZZZZZ", 60, [4, 5, 6], n_groups=3)
        want = np.zeros((9, 32), dtype=np.int64)
        for k, outcome in enumerate((0b10011, 0, 0b11111)):
            want[3 * k:3 * k + 3, outcome] = 20
        np.testing.assert_array_equal(rec.counts, want)
        np.testing.assert_array_equal(
            group_means(rec, ["P1"]).reshape(3, 3), [[1] * 3, [0] * 3, [1] * 3])

    def test_counts_sum_to_the_group_size(self):
        stack = _random_stack(3, 4, seed=2)
        conf = TABLE_S1[:3]
        rec = sample_shots(_sampled(stack), conf, "XYZ", 90, [1, 2, 3, 4],
                           n_groups=3)
        assert rec.counts.shape == (12, 8) and rec.n_groups == 12
        np.testing.assert_array_equal(rec.counts.sum(axis=1), 30)
        assert rec.basis == "XYZ"

    def test_each_snapshot_regenerates_on_its_own(self):
        # snapshot k's groups depend on its state and seed alone
        conf = TABLE_S1[:3]
        seeds = [11, 12, 13, 14]
        for pure in (False, True):
            stack = _random_stack(3, 4, seed=5, pure=pure)
            batch = sample_shots(_sampled(stack), conf, "XZY", 40, seeds,
                                 n_groups=2)
            for k, seed in enumerate(seeds):
                one = sample_shots(_sampled(stack[k:k + 1]), conf, "XZY", 40,
                                   [seed], n_groups=2)
                np.testing.assert_array_equal(one.counts,
                                              batch.counts[2 * k:2 * k + 2])

    @pytest.mark.parametrize("basis, pure, on_support", [
        ("ZZZZ", True, True), ("ZZZZ", False, False), ("XYZX", True, False),
        ("YXXY", False, True)])
    def test_pooled_counts_follow_the_confused_born_law(self, basis, pure,
                                                        on_support):
        # 200 snapshots of one state on 4 qubits, each drawn from its own
        # seed, pool to one multinomial of 120 000 shots from the exact law
        # q = (C_1 x ... x C_4) p of table-s1 readout, p = diag(U rho U^dag)
        # after the basis pre-rotation U. Pearson's statistic against q stays
        # below the chi-square quantile at p = 1e-6 (15 degrees of freedom);
        # against p, the law with the confusion dropped, it does not. The
        # state lives on the 10 states of one or two excitations, passed as
        # the support, or on the whole space.
        n, k, n_shots = 4, 200, 600
        full = np.arange(16)
        support = full[[bin(i).count("1") in (1, 2) for i in full]] \
            if on_support else full
        rng = np.random.default_rng(8)
        vecs = rng.normal(size=(3, support.size)) \
            + 1j * rng.normal(size=(3, support.size))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        rho = np.zeros((16, 16), dtype=complex)
        if pure:
            data = vecs[0]
            rho[np.ix_(support, support)] = np.outer(data, data.conj())
        else:
            weights = rng.dirichlet(np.ones(3))
            data = np.einsum("m,mi,mj->ij", weights, vecs, vecs.conj())
            rho[np.ix_(support, support)] = data
        u = functools.reduce(np.kron, [_AXIS_ROT[a] for a in basis])
        born = np.real(np.diag(u @ rho @ u.conj().T))
        conf = TABLE_S1[:n]
        law = functools.reduce(np.kron, [c.matrix for c in conf]) @ born
        rec = sample_shots(_sampled(np.array([data] * k)), conf, basis, n_shots,
                           np.arange(5000, 5000 + k), n_groups=6,
                           support=support if on_support else None)
        pooled = rec.counts.sum(axis=0)
        total = k * n_shots
        assert pooled.sum() == total and (total * law).min() >= 5

        def pearson(p):
            with np.errstate(divide="ignore"):
                return np.sum((pooled - total * p) ** 2 / (total * p))

        bound = chi2.isf(1e-6, df=15)
        assert pearson(law) < bound
        assert pearson(born) > bound

    @pytest.mark.parametrize("pure", [True, False])
    def test_born_kernel_matches_the_per_state_rotation(self, pure):
        # the sampler's batched kernel, against diag(U rho U^dag)
        # computed one state at a time
        basis = "XYZ"
        stack = _random_stack(3, 5, seed=12, pure=pure)
        u = functools.reduce(np.kron, [_AXIS_ROT[a] for a in basis])
        got = measurement._outcome_probabilities(
            np.arange(8), stack if pure else _coordinates(stack), basis)
        for k, data in enumerate(stack):
            rho = np.outer(data, data.conj()) if pure else data
            want = np.real(np.diag(u @ rho @ u.conj().T))
            np.testing.assert_allclose(got[k], want / want.sum(), rtol=0,
                                       atol=1e-14)

    @pytest.mark.parametrize("basis", ["ZZZZ", "XYZX", "YYXZ"])
    @pytest.mark.parametrize("pure", [True, False])
    def test_perfect_readout_applies_no_product(self, monkeypatch, basis,
                                                pure):
        # perfect matrices map p to itself: the probabilities equal those
        # without confusion bit for bit, and no per-qubit map runs but the
        # basis butterflies
        stack = _random_stack(4, 6, seed=21, pure=pure)
        stack = stack if pure else _coordinates(stack)
        support = np.arange(16)
        want = measurement._outcome_probabilities(support, stack, basis)
        maps, per_qubit = [], measurement._per_qubit

        def counted(cols, qubit_maps):
            maps.append([m is not None for m in qubit_maps])
            return per_qubit(cols, qubit_maps)

        monkeypatch.setattr(measurement, "_per_qubit", counted)
        got = measurement._outcome_probabilities(support, stack, basis,
                                                 PERFECT[:4])
        np.testing.assert_array_equal(got, want)
        assert maps == ([] if basis == "ZZZZ"
                        else [[axis != "Z" for axis in basis]])

    def test_stack_checks(self):
        conf = [ConfusionMatrix.perfect()] * 2
        good = np.array([prepare_initial_state("01", 2).data] * 2)
        with pytest.raises(StateSpecError, match="full-space"):
            sample_shots(good[:, :3], conf, "ZZ", 10, [1, 2])
        with pytest.raises(DomainError, match="^snapshot 1: state vector norm"):
            sample_shots(good * [[1], [2]], conf, "ZZ", 10, [1, 2])
        # density matrices are sampled only as LindbladSnapshots, which hold
        # them to the density rule when made; a (T, s, s) array is refused
        # by its shape, valid or not
        rho = np.array([np.outer(v, v.conj()) for v in good])
        for stack in (rho, rho * 1.1):
            with pytest.raises(StateSpecError, match=r"on 4 of the full-space "
                               r"states of 2 qubits, got a stack of shape "
                               r"\(2, 4, 4\)$"):
                sample_shots(stack, conf, "ZZ", 10, [1, 2])
        with pytest.raises(DomainError, match="one seed per state"):
            sample_shots(good, conf, "ZZ", 10, [1])
        with pytest.raises(DomainError, match="not divisible into 3 groups"):
            sample_shots(good, conf, "ZZ", 10, [1, 2], n_groups=3)
        # an empty basis is refused
        with pytest.raises(DomainError, match="^basis must be over"):
            sample_shots(good, [], "", 10, [1, 2])

    def test_record_checks(self):
        with pytest.raises(DomainError, match="for 2 qubits"):
            CountRecord(np.zeros((2, 8), dtype=int), "ZZ")
        with pytest.raises(DomainError, match="non-negative"):
            CountRecord([[1, -1, 0, 0]], "ZZ")
        with pytest.raises(DomainError):
            CountRecord([[1, 0, 0, 0]], "ZQ")
        rec = CountRecord([[1, 0, 0, 0], [0, 0, 0, 0]], "ZZ")
        assert not rec.counts.flags.writeable
        with pytest.raises(DomainError, match="empty groups"):
            group_means(rec, ["P1"])
        # a caller's array is copied: writing to it leaves the record be
        mine = np.array([[1, 0, 0, 0]], dtype=np.int64)
        rec = CountRecord(mine, "ZZ")
        mine[0, 0] = 7
        assert rec.counts[0, 0] == 1

    def test_counts_held_once(self):
        # an ideal shot run on 12 qubits from one excitation: 12 states on
        # the support, 20 snapshots x 10 groups x 4096 counts. The sampler
        # hands its counts to the record, so the call peaks near one array
        n, snapshots = 12, 20
        support = 1 << np.arange(n)
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(snapshots, n)) + 1j * rng.normal(size=(snapshots, n))
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
        conf = [ConfusionMatrix(f0=0.97, f1=0.92)] * n
        args = (stack, conf, "Z" * n, 100, np.arange(snapshots))
        sample_shots(*args, n_groups=10, support=support)  # first-call set-up
        tracemalloc.start()
        try:
            rec = sample_shots(*args, n_groups=10, support=support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.counts.nbytes == snapshots * 10 * 4096 * 8
        assert peak < 1.5 * rec.counts.nbytes

    def test_no_born_map_is_made(self):
        # a noisy thermal_transport snapshot stack on 12 qubits measured in
        # X: 151 snapshots on the 79 states of counts 0..2. Its whole Born
        # map would be 4096 x 79^2 real entries, 205 MB; the pair sums and
        # butterflies peak within a small multiple of the (151, 4096)
        # probabilities and the (151, 79^2) coordinates, 12.4 MB together
        n = 12
        support = np.array([i for i in range(1 << n) if bin(i).count("1") <= 2])
        rng = np.random.default_rng(5)
        vecs = (rng.normal(size=(151, support.size))
                + 1j * rng.normal(size=(151, support.size)))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        stack = _coordinates(np.einsum("ki,kj->kij", vecs, vecs.conj()))
        assert stack.shape == (151, 79 * 79)
        measurement._outcome_probabilities(support, stack[:2], "X" * n)
        tracemalloc.start()
        try:
            probs = measurement._outcome_probabilities(support, stack, "X" * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (151, 4096)
        assert peak < 1.5 * (probs.nbytes + stack.nbytes)


@st.composite
def _support_stacks(draw):
    """(support, stack, basis, confusion): two unit vectors or two density
    matrices on a random ascending support of n <= 6 qubits, a basis over
    the three axis letters and one random confusion matrix per qubit."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, 2 ** n))
    support = np.sort(rng.choice(2 ** n, size=size, replace=False))
    vecs = rng.normal(size=(2, 3, size)) + 1j * rng.normal(size=(2, 3, size))
    vecs /= np.linalg.norm(vecs, axis=2)[:, :, None]
    if draw(st.booleans()):
        stack = vecs[:, 0]
    else:
        weights = rng.dirichlet(np.ones(3), size=2)
        stack = np.einsum("km,kmi,kmj->kij", weights, vecs, vecs.conj())
    basis = "".join(draw(st.lists(st.sampled_from("ZXY"), min_size=n,
                                  max_size=n)))
    fidelity = st.floats(0.5, 1.0)
    confusion = [ConfusionMatrix(f0=draw(fidelity), f1=draw(fidelity))
                 for _ in range(n)]
    return support, stack, basis, confusion


@settings(max_examples=80, deadline=None)
@given(_support_stacks())
def test_support_kernel_matches_the_dense_rotation(case):
    # Born probabilities diag(U rho U^dag) of the stack scattered to the
    # full space, then (C_1 x ... x C_n) p, against the kernel's per-qubit
    # butterflies on the support
    support, stack, basis, confusion = case
    dim = 2 ** len(basis)
    u = functools.reduce(np.kron, [_AXIS_ROT[a] for a in basis])
    c = functools.reduce(np.kron, [m.matrix for m in confusion])
    born = []
    for data in stack:
        if stack.ndim == 2:
            full = np.zeros(dim, dtype=complex)
            full[support] = data
            rho = np.outer(full, full.conj())
        else:
            rho = np.zeros((dim, dim), dtype=complex)
            rho[np.ix_(support, support)] = data
        p = np.clip(np.real(np.diag(u @ rho @ u.conj().T)), 0.0, None)
        born.append(p / p.sum())
    born = np.array(born)
    if stack.ndim == 3:
        stack = _coordinates(stack)
    np.testing.assert_allclose(
        measurement._outcome_probabilities(support, stack, basis), born,
        rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        measurement._outcome_probabilities(support, stack, basis, confusion),
        born @ c.T, rtol=0, atol=1e-13)


class TestSupportArgument:
    @pytest.mark.parametrize("basis", ["ZZZZ", "XYZX"])
    @pytest.mark.parametrize("pure", [True, False])
    def test_counts_match_the_full_space_stack(self, basis, pure):
        # the same snapshots on their support and scattered onto the whole
        # space draw the same counts
        rng = np.random.default_rng(3)
        support = np.array([1, 2, 4, 8, 9])
        vecs = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        if pure:
            stack, full = vecs, np.zeros((6, 16), dtype=complex)
            full[:, support] = vecs
        else:
            stack = np.einsum("ki,kj->kij", vecs, vecs.conj())
            full = np.zeros((6, 16, 16), dtype=complex)
            full[:, support[:, None], support] = stack
        conf = TABLE_S1[:4]
        seeds = list(range(20, 26))
        got = sample_shots(_sampled(stack), conf, basis, 600, seeds,
                           n_groups=6, support=support)
        want = sample_shots(_sampled(full), conf, basis, 600, seeds, n_groups=6)
        np.testing.assert_array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("basis", ["ZZZZ", "XYZX"])
    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("support", [[2, 1], [9, 8, 4, 2, 1]])
    def test_support_in_the_stacks_order(self, basis, pure, support):
        # a stack given with a descending support draws what the same stack
        # reordered onto the ascending support draws
        rng = np.random.default_rng(5)
        support = np.array(support)
        vecs = (rng.normal(size=(6, support.size))
                + 1j * rng.normal(size=(6, support.size)))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        stack = vecs if pure else np.einsum("ki,kj->kij", vecs, vecs.conj())
        rise = stack[:, ::-1] if pure else stack[:, ::-1, ::-1]
        conf = TABLE_S1[:4]
        seeds = list(range(30, 36))
        got = sample_shots(_sampled(stack), conf, basis, 600, seeds,
                           n_groups=6, support=support)
        want = sample_shots(_sampled(rise), conf, basis, 600, seeds,
                            n_groups=6, support=support[::-1])
        np.testing.assert_array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("support", [[1, 1], [-1, 2], [3, 16], [],
                                         [[1, 2]], [0.0, 1.0], [2, 1, 2]])
    def test_bad_support_refused(self, support):
        good = np.array([prepare_initial_state("0001", 4).data[:2]])
        with pytest.raises(DomainError, match="^support must be distinct"):
            sample_shots(good, PERFECT[:4], "ZZZZ", 10, [1], support=support)

    def test_stack_must_fit_the_support(self):
        vec = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(StateSpecError, match="on 2 of the full-space "
                           "states of 4 qubits, got a stack of shape"):
            sample_shots(vec, PERFECT[:4], "ZZZZ", 10, [1], support=[0, 5])


@st.composite
def _snapshot_cases(draw):
    """(full, snapshots, basis, confusion): two positive Hermitian matrices
    on s reached states of a run's basis of d states of n <= 5 qubits, as
    LindbladSnapshots, with full the full-space index of each basis state
    in a random order, and a basis over the three axis letters."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 2 ** n))
    full = rng.permutation(2 ** n)[:dim]
    reached = np.sort(rng.choice(dim, size=draw(st.integers(1, dim)),
                                 replace=False))
    vecs = (rng.normal(size=(2, 3, reached.size))
            + 1j * rng.normal(size=(2, 3, reached.size)))
    vecs /= np.linalg.norm(vecs, axis=2)[:, :, None]
    weights = rng.dirichlet(np.ones(3), size=2)
    stack = np.einsum("km,kmi,kmj->kij", weights, vecs, vecs.conj())
    stack = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
    snapshots = LindbladSnapshots(_coordinates(stack), reached, dim, [0.0, 1.0])
    basis = "".join(draw(st.lists(st.sampled_from("ZXY"), min_size=n,
                                  max_size=n)))
    fidelity = st.floats(0.5, 1.0)
    confusion = [ConfusionMatrix(f0=draw(fidelity), f1=draw(fidelity))
                 for _ in range(n)]
    return full, snapshots, basis, confusion


def _complex_born(support, matrices, basis):
    """Born probabilities Re(rho B^T), B[i, j*s + k] = W_ij conj(W_ik) of
    W = U[:, support], of a complex (T, s, s) stack, clipped and
    normalised: the complex product the pair sums stand in for."""
    u = functools.reduce(np.kron, [_AXIS_ROT[a] for a in basis])
    w = u[:, support]
    born_map = (w[:, :, None] * w[:, None, :].conj()).reshape(len(w), -1)
    p = np.clip((matrices.reshape(len(matrices), -1) @ born_map.T).real,
                0.0, None)
    return p / p.sum(axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(_snapshot_cases())
def test_real_born_map_matches_the_complex_product(case):
    # the pair sums of the coordinates through the butterflies against the
    # complex product on the matrices they stand for, on the run's whole
    # basis; the snapshots read on their support agree with their matrices
    # read as a plain stack on the run's basis, in Z on every qubit bit for
    # bit, as the diagonal
    full, snapshots, basis, confusion = case
    matrices = density_matrices(snapshots)
    reached = full[snapshots.support]
    plain = _coordinates(matrices)
    z = "Z" * len(basis)
    assert np.array_equal(plain[:, ::full.size + 1],
                          np.diagonal(matrices, axis1=1, axis2=2).real)
    np.testing.assert_allclose(
        measurement._outcome_probabilities(reached, snapshots.coords, basis),
        _complex_born(full, matrices, basis), rtol=0, atol=1e-14)
    for conf in (None, confusion):
        got = measurement._outcome_probabilities(
            reached, snapshots.coords, basis, conf)
        want = measurement._outcome_probabilities(full, plain, basis, conf)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(
            measurement._outcome_probabilities(reached, snapshots.coords, z,
                                               conf),
            measurement._outcome_probabilities(full, plain, z, conf))


class TestLindbladSnapshotArgument:
    @staticmethod
    def _snapshots():
        # a Lindblad run on the full space of 3 qubits from "X+10", which
        # reaches 7 of the 8 states, all but 111
        dev = DeviceParams.uniform(3, t1_us=1.0, t2star_us=0.5)
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-9.0))
        return evolve_lindblad(h, prepare_initial_state("X+10", 3),
                               np.arange(0.0, 40.0, 4.0),
                               make_collapse_ops(dev))

    def test_checked_once(self, monkeypatch):
        # the solver's snapshots reach the Born map without _checked_stack,
        # and draw in Z what snapshots made again from their matrices draw;
        # a stack of state vectors is checked, once; the matrices as a
        # plain array are refused by their shape
        snapshots = self._snapshots()
        matrices = density_matrices(snapshots)
        calls, checked = [], measurement._checked_stack

        def counted(stack):
            calls.append(len(stack))
            return checked(stack)

        monkeypatch.setattr(measurement, "_checked_stack", counted)
        seeds = np.arange(len(snapshots))
        got = sample_shots(snapshots, PERFECT[:3], "ZZZ", 100, seeds)
        want = sample_shots(_sampled(matrices), PERFECT[:3], "ZZZ", 100, seeds)
        assert calls == []
        np.testing.assert_array_equal(got.counts, want.counts)
        sample_shots(np.eye(8, dtype=complex)[:3], PERFECT[:3], "ZZZ", 100,
                     seeds[:3])
        assert calls == [3]
        with pytest.raises(StateSpecError, match=r"got a stack of shape "
                           r"\(10, 8, 8\)$"):
            sample_shots(matrices, PERFECT[:3], "ZZZ", 100, seeds)

    @pytest.mark.parametrize("basis", ["ZZZ", "XYX"])
    def test_support_in_basis_order(self, basis):
        # read as a basis listed in descending full-space order, the
        # snapshots draw what their matrices, reordered onto the ascending
        # support, draw
        snapshots = self._snapshots()
        order = np.arange(8)[::-1]
        seeds = np.arange(len(snapshots))
        got = sample_shots(snapshots, PERFECT[:3], basis, 600, seeds,
                           n_groups=6, support=order)
        full = density_matrices(snapshots)
        want = sample_shots(_sampled(full[:, ::-1, ::-1]), PERFECT[:3], basis,
                            600, seeds, n_groups=6)
        np.testing.assert_array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("support", [[1, 1, 2, 3, 4, 5, 6, 7],
                                         [0, 1, 2, 3, 4, 5, 6, 8], 3])
    def test_bad_support_refused(self, support):
        with pytest.raises(DomainError, match="^support must be distinct"):
            sample_shots(self._snapshots(), PERFECT[:3], "ZZZ", 10,
                         np.arange(10), support=support)
        with pytest.raises(StateSpecError, match="on 4 of the full-space"):
            sample_shots(self._snapshots(), PERFECT[:3], "ZZZ", 10,
                         np.arange(10), support=[0, 1, 2, 3])


class TestKeyedStreams:
    """One Philox, reset per key, draws each key's stream exactly as a
    fresh Generator(Philox(key=seed)) does."""

    # consecutive keys, the edges of the two key words among them
    SEEDS = [0, 1, 2, 3, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 7,
             2 ** 128 - 1, 41]

    @staticmethod
    def _draws(gen, lead):
        # lead doubles, then one 32-bit integer, leave a partly used buffer
        # and a held half-word behind for the next key
        return (gen.random(lead),
                gen.integers(0, 1 << 32, size=1, dtype=np.uint32),
                gen.multinomial(600, [0.1, 0.2, 0.3, 0.4], size=6),
                gen.random(3))

    @pytest.mark.parametrize("lead", [0, 1, 3, 5])
    def test_matches_a_fresh_generator(self, lead):
        streams = measurement._keyed_generators(self.SEEDS)
        for seed, gen in zip(self.SEEDS, streams):
            fresh = np.random.Generator(np.random.Philox(key=seed))
            for got, want in zip(self._draws(gen, lead),
                                 self._draws(fresh, lead)):
                np.testing.assert_array_equal(got, want)

    def test_one_generator_per_call(self):
        gens = list(measurement._keyed_generators([5, 6, 7]))
        assert gens[0] is gens[1] is gens[2]

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_key_out_of_range(self, seed):
        with pytest.raises(DomainError, match="seed must be in"):
            next(measurement._keyed_generators([seed]))


def _distinct_snapshots(n_times=151):
    """(T, 32) 5-qubit state vectors, each of its own outcome distribution."""
    amps = np.cos(np.outer(np.arange(1, n_times + 1), np.arange(32)) / 7.0)
    return (amps / np.linalg.norm(amps, axis=1, keepdims=True)).astype(complex)


@pytest.mark.parametrize("n_groups", [1, 2, 3])
def test_draws_match_one_loop(n_groups):
    # the counts of one loop of fresh keyed generators in snapshot order
    states = _distinct_snapshots()
    seeds = np.random.SeedSequence(7).generate_state(len(states), np.uint64)
    probs = np.abs(states) ** 2
    want = np.concatenate([
        np.random.Generator(np.random.Philox(key=int(seed))).multinomial(
            600 // n_groups, p / p.sum(), size=n_groups)
        for seed, p in zip(seeds, probs)])
    record = sample_shots(states, PERFECT, "ZZZZZ", 600, seeds,
                          n_groups=n_groups)
    np.testing.assert_array_equal(record.counts, want)


@pytest.mark.parametrize("first, second", [(3, 120), (60, 120)])
@pytest.mark.parametrize("n_groups", [1, 2, 3])
def test_lowest_failing_snapshot_is_raised(n_groups, first, second):
    # two snapshots have keys out of range; a loop meets the first first
    seeds = list(range(151))
    seeds[first], seeds[second] = -1, 2 ** 128
    with pytest.raises(DomainError, match=r"^seed must be in .*, got -1$"):
        sample_shots(_distinct_snapshots(), PERFECT, "ZZZZZ", 12, seeds,
                     n_groups=n_groups)


def test_traced_functions_run_on_the_callers_thread(monkeypatch, tmp_path):
    # the benchmark's span tracer keeps one stack per process; every
    # solver, sampler and estimator call of a noisy shot run, as cli and
    # observables bind them, stays on the thread that called cli.run
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
    cli.run(parse_config({"experiment": "thermal_transport",
                          "noise": "lindblad", "shots": "paper"}),
            out_dir=str(tmp_path))
    names = {name for name, _ in idents}
    assert {"sample_shots", "group_means", "evolve_lindblad"} <= names
    assert {ident for _, ident in idents} == {threading.get_ident()}
