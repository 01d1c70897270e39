import math
import random

import pytest
from hypothesis import given, strategies as st

from qkdmetro.network import BUILDERS, build_gpon_scenario
from qkdmetro.optical_path import (FiberSpan, Filter, Lumped, dbm_to_watts, element_loss,
                                   element_rejection_db, transmittance)
from qkdmetro.params import DEFAULT_ATTENUATION

import light_path_oracle as oracle
from light_path_oracle import Connector, LaunchPoint, LightPath, path_loss


def test_fiber_attenuation_interpolation():
    span = FiberSpan(10.0, DEFAULT_ATTENUATION)
    assert span.alpha_db_per_km(1310.0) == 0.35
    assert span.alpha_db_per_km(1490.0) == 0.24
    assert span.alpha_db_per_km(1550.0) == 0.21
    # linear between the 1490 and 1550 pivots
    assert math.isclose(span.alpha_db_per_km(1520.0), 0.225, rel_tol=1e-12)
    # clamped outside the table
    assert span.alpha_db_per_km(1260.0) == 0.35
    assert span.alpha_db_per_km(1625.0) == 0.21


@pytest.mark.parametrize("kind", BUILDERS)
def test_nan_wavelength_is_named(kind):
    scenario = BUILDERS[kind]()
    message = "wavelength nan nm is not a number"
    with pytest.raises(ValueError, match=message):
        scenario.link.loss_db(1.0, math.nan)
    with pytest.raises(ValueError, match=message):
        scenario.link.var_span.alpha_db_per_km(math.nan)


def test_fiber_span_validation():
    with pytest.raises(ValueError):
        FiberSpan(-1.0, DEFAULT_ATTENUATION)
    with pytest.raises(ValueError):
        FiberSpan(1.0, atten_db_per_km=((1550.0, 0.0),))


def test_element_losses():
    assert element_loss(FiberSpan(10.0, DEFAULT_ATTENUATION), 1550.0) == pytest.approx(2.1)
    assert element_loss(Lumped("ROADM express", 2.5, 30.0), 1550.0) == 2.5
    assert element_loss(Lumped("ROADM drop", 2.0, 30.0), 1550.0) == 2.0
    assert element_loss(Lumped("splitter", 6.3, 0.0), 1550.0) == 6.3
    assert element_loss(Lumped("mux", 1.0, 30.0), 1550.0) == 1.0
    with pytest.raises(TypeError):
        element_loss("not an element", 1550.0)


_DB = st.floats(min_value=0.0, max_value=100.0)


@given(st.text(max_size=12), _DB, _DB, st.floats(min_value=1260.0, max_value=1675.0))
def test_lumped_loss_and_rejection_are_flat(label, loss_db, isolation_db, wavelength_nm):
    # the lumped rule: the loss at any wavelength, the isolation on top of
    # it for a leak, bit for bit
    element = Lumped(label, loss_db, isolation_db)
    assert element_loss(element, wavelength_nm) == loss_db
    assert element_rejection_db(element, wavelength_nm) == loss_db + isolation_db


def test_filter_band_behaviour():
    f = Filter(center_nm=1550.0, width_nm=0.8, insertion_loss_db=1.5,
               out_of_band_rejection_db=90.0)
    assert f.in_band(1550.3)
    assert not f.in_band(1551.0)
    assert element_loss(f, 1550.0) == 1.5
    assert element_loss(f, 1490.0) == 91.5
    for width in (0.0, -0.4, math.nan, math.inf):
        with pytest.raises(ValueError, match="filter width must be finite"):
            Filter(center_nm=1550.0, width_nm=width, insertion_loss_db=1.5,
                   out_of_band_rejection_db=90.0)


def test_element_rejection_adds_isolation():
    assert element_rejection_db(Lumped("ROADM express", 2.5, 30.0), 1490.0) == 2.5 + 30.0
    assert element_rejection_db(Lumped("mux", 1.0, 30.0), 1490.0) == 31.0
    f = Filter(1550.0, 0.8, 1.5, 90.0)
    # a filter rejects every classical leak, even one inside its passband
    assert element_rejection_db(f, 1550.0) == 91.5
    # a splitter has no isolation: a leak meets its in-band loss
    assert element_rejection_db(Lumped("splitter", 6.3, 0.0), 1490.0) == element_loss(
        Lumped("splitter", 6.3, 0.0), 1490.0)
    # a fiber falls back to its loss at the leak wavelength
    span = FiberSpan(5.0, DEFAULT_ATTENUATION)
    assert element_rejection_db(span, 1490.0) == element_loss(span, 1490.0)


def test_oracle_connector_is_loss_only():
    # the oracle's connectors: their loss at any wavelength, rejection
    # equal to it, and no Raman row
    for wavelength_nm in (1310.0, 1490.0, 1550.0):
        assert oracle.element_loss(Connector(0.5), wavelength_nm) == 0.5
        assert oracle.element_rejection_db(Connector(0.5), wavelength_nm) == 0.5
    path = LightPath((Connector(0.5),), (LaunchPoint(1490.0, 0.0),))
    nb = oracle.background_yield(path, build_gpon_scenario().detector, 0.8)
    assert nb.forward_raman_w == nb.backward_raman_w == 0.0
    assert nb.crosstalk_w > 0.0
    # the product holds connectors only as floats, no element
    with pytest.raises(TypeError):
        element_loss(Connector(0.5), 1550.0)


def test_path_loss_additive_and_permutation_invariant():
    elements = [FiberSpan(5.0, DEFAULT_ATTENUATION), Connector(0.5),
                Lumped("ROADM express", 2.5, 30.0), Lumped("mux", 1.0, 30.0)]
    total = path_loss(LightPath(tuple(elements)), 1550.0)
    assert total == pytest.approx(5.0 * 0.21 + 0.5 + 2.5 + 1.0)
    rng = random.Random(7)
    for _ in range(10):
        rng.shuffle(elements)
        assert path_loss(LightPath(tuple(elements)), 1550.0) == pytest.approx(total)


def test_light_path_validation():
    with pytest.raises(ValueError):
        LightPath(())


def test_dbm_watts_round_trip():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(-30.0) == pytest.approx(1e-6)
    for dbm in (-20.0, -3.0, 0.0, 2.0, 10.0):
        assert 10.0 * math.log10(dbm_to_watts(dbm) / 1e-3) == pytest.approx(dbm)


def test_launch_point_attenuation():
    lp = LaunchPoint(1490.0, power_dbm=2.0, attenuation_db=12.0)
    assert lp.launch_watts() == pytest.approx(dbm_to_watts(-10.0))


def test_transmittance():
    assert transmittance(0.0) == 1.0
    assert transmittance(10.0) == pytest.approx(0.1)
    assert transmittance(3.0) == pytest.approx(0.501187, rel=1e-5)

