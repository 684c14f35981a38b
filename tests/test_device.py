"""Device parameter container and potential handling."""

import dataclasses
import math
import re

import numpy as np
import pytest

from starkchain import (
    ANGULAR_PER_MHZ,
    ConfusionMatrix,
    DeviceParams,
    DomainError,
    PotentialSpec,
    device_preset,
    paper_device,
)
from starkchain.device import TABLE_S1


class TestDeviceParams:
    def test_paper_device_values(self):
        dev = paper_device()
        assert dev.n_qubits == 5
        np.testing.assert_allclose(dev.coupling_mhz, [14.60, 14.65, 14.17, 14.26])
        np.testing.assert_allclose(dev.anharmonicity_mhz, [-242, -196, -239, -196, -242])
        np.testing.assert_allclose(dev.t1_us, [17, 30, 42, 17, 36])
        np.testing.assert_allclose(dev.t2star_us, [1.53, 4.39, 2.20, 2.19, 2.25])
        # the readout fidelities are the paper's Table S1, beside the preset
        assert TABLE_S1 == ((0.981, 0.853), (0.957, 0.897), (0.957, 0.891),
                            (0.923, 0.859), (0.971, 0.917))

    def test_preset_lookup(self):
        dev = device_preset("paper-device")
        ref = paper_device()
        assert dev.n_qubits == ref.n_qubits
        for name in ("coupling_mhz", "anharmonicity_mhz", "t1_us", "t2star_us"):
            np.testing.assert_array_equal(getattr(dev, name), getattr(ref, name))
        with pytest.raises(DomainError):
            device_preset("no-such-device")

    def test_uniform_constructor(self):
        dev = DeviceParams.uniform(7, coupling_mhz=3.0)
        assert dev.n_qubits == 7
        assert len(dev.coupling_mhz) == 6
        np.testing.assert_allclose(dev.coupling_mhz, 3.0)

    @pytest.mark.parametrize("n", [2.7, "5", 5.0, None, 1, True])
    def test_uniform_refuses_what_the_constructor_refuses(self, n):
        # a count is not rounded or parsed: 2.7 is not 2 qubits, "5" not 5
        message = f"n_qubits must be an integer >= 2, got {n!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DeviceParams.uniform(n)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(paper_device(), n_qubits=n)

    def test_frozen(self):
        dev = paper_device()
        with pytest.raises(dataclasses.FrozenInstanceError):
            dev.n_qubits = 6

    def test_replace(self):
        dev = paper_device()
        dev2 = dev.replace(t1_us=np.full(5, 1e9))
        assert dev2.n_qubits == 5
        np.testing.assert_allclose(dev2.t1_us, 1e9)
        np.testing.assert_allclose(dev2.coupling_mhz, dev.coupling_mhz)
        # the readout fidelities are not device fields
        with pytest.raises(DomainError, match="readout_f0"):
            dev.replace(readout_f0=[0.9] * 5)

    def test_length_validation(self):
        with pytest.raises(DomainError):
            DeviceParams(
                n_qubits=5,
                coupling_mhz=np.ones(3),  # should be 4
                anharmonicity_mhz=np.zeros(5),
                t1_us=np.ones(5),
                t2star_us=np.ones(5),
            )

    def test_nonpositive_lifetimes_rejected(self):
        with pytest.raises(DomainError):
            DeviceParams.uniform(3, coupling_mhz=1.0, t1_us=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("t1_us", [17.0, 30.0, "42", 17.0, 36.0],
         r"t1_us\[2\]: expected a number, got '42'"),
        ("anharmonicity_mhz", [True] * 5,
         r"anharmonicity_mhz\[0\]: expected a number, got True"),
        ("coupling_mhz", [1.0, 2.0, 3.0, 1j], r"coupling_mhz\[3\]: expected a number"),
        ("anharmonicity_mhz", [0.0] * 4 + [-10 ** 400],
         r"anharmonicity_mhz\[4\]: must be finite, got -inf"),
        ("t2star_us", [1.0, math.nan, 1.0, 1.0, 1.0], r"t2star_us\[1\]: must be finite"),
        ("coupling_mhz", 14.4, r"coupling_mhz: expected a list of 4 numbers, got 14.4"),
        # a string is not a list of its characters
        ("coupling_mhz", "1234", r"coupling_mhz: expected a list of 4 numbers"),
        ("coupling_mhz", np.ones((4, 1)), r"coupling_mhz\[0\]: expected a number"),
        ("t1_us", [17.0] * 4, r"t1_us: expected a list of 5 numbers"),
    ])
    def test_one_number_rule(self, field, value, message):
        with pytest.raises(DomainError, match=message):
            paper_device().replace(**{field: value})

    def test_integer_and_numpy_values_are_numbers(self):
        dev = paper_device().replace(t1_us=np.arange(1, 6),
                                     coupling_mhz=(14, 14, 14, 14))
        assert dev.t1_us == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert all(type(v) is float for v in dev.t1_us + dev.coupling_mhz)


class TestDeviceHoldsItsValues:
    def test_callers_array_is_not_kept(self):
        t1 = np.full(5, 20.0)
        dev = paper_device().replace(t1_us=t1)
        built = DeviceParams(5, *(np.ones(n) for n in (4, 5, 5, 5)))
        t1[0] = 0.0
        assert dev.t1_us[0] == 20.0 and dev.t1_ns[0] == 20e3
        assert built.coupling_mhz == (1.0,) * 4

    def test_fields_are_read_only(self):
        dev = paper_device()
        with pytest.raises(TypeError):
            dev.t1_us[0] = 0
        # the array views are copies: writing into one leaves the device
        dev.coupling_rad_ns[0] = 0.0
        assert dev.coupling_mhz[0] == 14.60

    def test_equality_and_hash(self):
        assert paper_device() == paper_device()
        assert hash(paper_device()) == hash(paper_device())
        assert paper_device() != paper_device().replace(t1_us=[1.0] * 5)
        assert len({paper_device(), paper_device()}) == 1


@pytest.mark.parametrize("f0", ["0.9", True, math.nan, 1.5])
def test_confusion_matrix_keeps_the_number_rule(f0):
    with pytest.raises(DomainError, match="^f0: "):
        ConfusionMatrix(f0=f0, f1=0.9)


@pytest.mark.parametrize("field", ["f0", "f1"])
def test_confusion_matrix_names_a_bool_fidelity(field):
    # a bool is not a fidelity: the message names the field and the value
    fidelities = dict({"f0": 0.9, "f1": 0.9}, **{field: True})
    with pytest.raises(DomainError,
                       match=rf"^{field}: expected a number, got True$"):
        ConfusionMatrix(**fidelities)


class TestPotentialSpec:
    @pytest.mark.parametrize("value", ["15", True, None, math.inf, 10 ** 400],
                             ids=["str", "bool", "none", "inf", "past-float-range"])
    def test_gradient_keeps_the_number_rule(self, value):
        with pytest.raises(DomainError, match="^gradient_mhz: "):
            PotentialSpec(gradient_mhz=value)

    def test_linear_offsets(self):
        pot = PotentialSpec.linear(15.0)
        offs = pot.offsets_mhz(5)
        # h_j = F * j with 1-based site index j
        np.testing.assert_allclose(offs, [15, 30, 45, 60, 75])

    def test_descending_gradient(self):
        pot = PotentialSpec.linear(-15.0)
        offs = pot.offsets_mhz(5)
        np.testing.assert_allclose(offs, [-15, -30, -45, -60, -75])

    def test_angular_units(self):
        pot = PotentialSpec.linear(1.0)
        np.testing.assert_allclose(
            pot.offsets_rad_ns(3), np.array([1.0, 2.0, 3.0]) * ANGULAR_PER_MHZ
        )

    def test_bloch_period(self):
        # T_B = 1/F: 15 MHz -> 66.67 ns, sign of the ramp does not matter
        assert PotentialSpec.linear(15.0).bloch_period_ns == pytest.approx(1e3 / 15.0)
        assert PotentialSpec.linear(-15.0).bloch_period_ns == pytest.approx(1e3 / 15.0)
        with pytest.raises(DomainError):
            PotentialSpec.linear(0.0).bloch_period_ns
