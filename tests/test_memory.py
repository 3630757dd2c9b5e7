import numpy as np
import pytest

from sketchycgm import (
    AllocationLedger,
    CodedDiffractionOperator,
    EntrySamplingOperator,
    Sketch,
    ledger,
    nscalars,
)


def test_nscalars_real_and_complex():
    assert nscalars(np.zeros(5)) == 5
    assert nscalars(np.zeros(5, dtype=complex)) == 10
    assert nscalars(np.zeros((3, 4)), np.zeros(2, dtype=complex)) == 16
    assert nscalars() == 0


def test_add_sub_live():
    led = AllocationLedger()
    led.add("a", 10)
    led.add("b", 5)
    led.sub("a", 4)
    assert led.live() == {"a": 6, "b": 5}
    assert led.total_live() == 11


def test_peak_is_high_water_mark():
    led = AllocationLedger()
    led.add("a", 10)
    led.sub("a", 10)
    led.add("a", 3)
    assert led.peak == 10


def test_track_restores_on_exit():
    led = AllocationLedger()
    led.add("x", 2)
    with led.track("x", 100):
        assert led.total_live() == 102
    assert led.total_live() == 2
    assert led.peak == 102


def test_track_restores_on_exception():
    led = AllocationLedger()
    with pytest.raises(RuntimeError):
        with led.track("x", 7):
            raise RuntimeError("boom")
    assert led.total_live() == 0


def test_negative_counts_rejected():
    led = AllocationLedger()
    with pytest.raises(ValueError):
        led.add("a", -1)
    led.add("a", 1)
    with pytest.raises(ValueError, match="negative"):
        led.sub("a", 2)


def test_reset_clears_everything():
    led = AllocationLedger()
    led.add("a", 50)
    led.reset()
    assert led.live() == {}
    assert led.peak == 0


def test_building_operators_and_sketches_charges_nothing():
    # their storage counts only while a solve holds them
    before = ledger.live()
    CodedDiffractionOperator(16, 4, seed=0)
    EntrySamplingOperator(3, 3, [0, 1, 2], [2, 0, 1])
    Sketch(10, 10, 1)
    Sketch(10, 10, 1, field="complex", psd=True)
    assert ledger.live() == before
