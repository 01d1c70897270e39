"""Record semantics of every record class of the package.

Every record is a named tuple, LinkModel and the parameter records
among them.  Each prints as the dataclass it replaced did, refuses
assignment and deletion, and checks its input when built directly.
"""

import pytest

from qkdmetro import calibrate as cal, config, errors, keyrate
from qkdmetro import network, noise, optical_path as op, sweep
from qkdmetro.params import DEFAULT_ATTENUATION

from parameter_oracle import flatten

# the default scenario's parameter records, which take every field
DEFAULT_SCENARIO = network.build_gpon_scenario()

# (record, its repr as a frozen dataclass of the same fields printed it)
CASES = [
    (op.FiberSpan(2.0, DEFAULT_ATTENUATION),
     "FiberSpan(length_km=2.0, atten_db_per_km=((1310.0, 0.35), (1490.0, 0.24), "
     "(1550.0, 0.21)))"),
    (op.RoadmNode("add", 2.0, 30.0),
     "RoadmNode(mode='add', loss_db=2.0, isolation_db=30.0)"),
    (op.Splitter(4, 0.0), "Splitter(ratio=4, excess_loss_db=0.0)"),
    (op.Filter(1550.0, 0.8, 1.5, 90.0),
     "Filter(center_nm=1550.0, width_nm=0.8, insertion_loss_db=1.5, "
     "out_of_band_rejection_db=90.0)"),
    (op.MuxDemux(1.0, 30.0), "MuxDemux(insertion_loss_db=1.0, adjacent_isolation_db=30.0)"),
    (network.Scenario(*"abcd"), "Scenario(kind='a', params='b', inputs='c', link='d')"),
    (network.Inputs(*"abcdef"),
     "Inputs(rho='a', rho_beyond='b', launch_w='c', detector_terms='d', "
     "decoy_terms='e', keyrate_terms='f')"),
    (network.LinkModel(*"abcd"), "LinkModel(head='a', var_span='b', tail='c', terms='d')"),
    (config.SweepSpec(0.0, 2.0, 0.5), "SweepSpec(start_km=0.0, stop_km=2.0, step_km=0.5)"),
    (cal.Anchor("gpon", 0.0, "qber", 0.02),
     "Anchor(scenario='gpon', length_km=0.0, observable='qber', target=0.02, "
     "weight=1.0)"),
    (cal.FitParam("rho", 1e-11, 1e-7, True),
     "FitParam(name='rho', lo=1e-11, hi=1e-07, log_scale=True)"),
    (cal.CalibrationResult({"rho": 1e-9}, 0.5, (0.5,), ()),
     "CalibrationResult(params={'rho': 1e-09}, residual=0.5, residuals=(0.5,), "
     "anchors=())"),
    (DEFAULT_SCENARIO.detector,
     "DetectorModel(efficiency=0.1, gate_width_s=1e-09, dark_count_prob=2e-05, "
     "deadtime_s=1e-05, misalignment_error=0.001, pulse_rate_hz=1000000.0)"),
    (DEFAULT_SCENARIO.decoy, "DecoyParams(mu=0.79, nu=0.0395, estimator_mode='exact_y0')"),
    (DEFAULT_SCENARIO.keyrate_params, "KeyRateParams(q=0.5, f=1.05, e0=0.5)"),
]
RECORDS = [record for record, _ in CASES]
IDS = [type(record).__name__ for record in RECORDS]


def _values(record):
    return [getattr(record, name) for name in record._fields]


def _unchecked(cls, values):
    """A cls record of values, built without the constructor's checks."""
    return cls._make(values)


def _hash(record):
    try:
        return hash(record)
    except TypeError:  # a dict field
        return None


def test_every_record_class_is_covered():
    assert len({type(record) for record in RECORDS}) == 15
    assert all(isinstance(r, tuple) for r in RECORDS)


@pytest.mark.parametrize("record,expected", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(record, expected):
    assert repr(record) == expected


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_by_value_and_hashed_alike(record):
    again = type(record)(*_values(record))
    assert again == record and not again != record
    assert _hash(again) == _hash(record)
    first, *rest = _values(record)
    assert _unchecked(type(record), [("unlike", first), *rest]) != record


def test_named_tuple_records_equal_a_plain_tuple_of_their_values():
    # the caveat the README states: records are named tuples, which
    # compare as tuples, the parameter records too
    assert op.MuxDemux(1.0, 30.0) == (1.0, 30.0)
    assert cal.Anchor("gpon", 0.0, "qber", 0.02) == ("gpon", 0.0, "qber", 0.02, 1.0)
    assert DEFAULT_SCENARIO.keyrate_params == (0.5, 1.05, 0.5)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(record):
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, record._fields[0])


@pytest.mark.parametrize("build,message", [
    (lambda: op.FiberSpan(-1.0, DEFAULT_ATTENUATION),
     "fiber length must be non-negative"),
    (lambda: op.FiberSpan(1.0, ((1550.0, 0.0),)), "fiber attenuation"),
    (lambda: op.Splitter(1, 0.0), "splitter ratio"),
    (lambda: op.Filter(1550.0, 0.0, 1.5, 90.0), "filter width"),
    (lambda: config.SweepSpec(2.0, 1.0, 0.5), "start must not exceed stop"),
    (lambda: config.SweepSpec(start_km=0.0, stop_km=1.0, step_km=0.0),
     "step must be positive"),
    (lambda: cal.Anchor("gpon", 0.0, "loss", 1.0), "unknown observable"),
    (lambda: cal.Anchor("gpon", -1.0, "qber", 0.02), "must be >= 0"),
    (lambda: cal.Anchor("gpn", 0.0, "qber", 0.02), "unknown scenario 'gpn'"),
    (lambda: noise.DetectorModel(0.0, 1e-9, 2e-5, 1e-5, 0.001, 1e6),
     "detector efficiency"),
    (lambda: keyrate.DecoyParams(0.5, 0.5, "exact_y0"), "need 0 < nu < mu"),
    (lambda: keyrate.KeyRateParams(0.5, 0.9, 0.5), "error-correction efficiency"),
])
def test_direct_construction_checks_its_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_elements_and_parameter_records_take_every_field():
    # params.TABLE alone holds the defaults; no record restates one
    for cls in (op.FiberSpan, op.RoadmNode, op.Splitter, op.Filter, op.MuxDemux):
        assert cls._field_defaults == {}
    for cls in (noise.DetectorModel, keyrate.DecoyParams, keyrate.KeyRateParams):
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("record", [DEFAULT_SCENARIO.detector, DEFAULT_SCENARIO.decoy,
                                    DEFAULT_SCENARIO.keyrate_params],
                         ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("call", [
    lambda values, fields: (values[:-1], {}),                       # a field missing
    lambda values, fields: (values + values[-1:], {}),              # one too many
    lambda values, fields: (values, {fields[0]: values[0]}),        # a field twice
    lambda values, fields: (values[:-1], {"flavour": values[-1]}),  # no such field
], ids=["missing", "extra", "repeated", "unknown"])
def test_parameter_record_takes_each_field_once(record, call):
    args, kwargs = call(list(record), record._fields)
    with pytest.raises(TypeError):
        type(record)(*args, **kwargs)


def _assert_exact_result_types(perf):
    assert type(perf) is network.QkdPerformance
    assert type(perf.noise) is noise.NoiseBudget
    assert type(perf.yield_gain) is keyrate.YieldGain
    assert type(perf.rates) is keyrate.DistillationRates


@pytest.mark.parametrize("kind", network.BUILDERS)
def test_evaluate_link_results_are_exactly_their_record_types(kind):
    # the per-evaluation records are built without their constructors;
    # each must still be of its own type, not a plain tuple
    scenario = network.BUILDERS[kind]()
    perf = network.evaluate_link(scenario, 2.0)
    by_point = network.evaluate_point(scenario.link.at(2.0), scenario.inputs)
    # the parameter stage's own result is plain data, the view's flattened
    assert type(by_point) is tuple and by_point == flatten(perf)
    _assert_exact_result_types(perf)
    assert len(perf.noise) == len(noise.NoiseBudget._fields)
    assert len(perf.yield_gain) == len(keyrate.YieldGain._fields)
    assert len(perf.rates) == len(keyrate.DistillationRates._fields)


def test_lenient_collapse_result_is_exactly_a_yield_gain():
    scenario = network.build_gpon_scenario(estimator_mode="one_decoy_bound")
    with pytest.raises(errors.BoundCollapse):
        network.evaluate_link(scenario, 200.0)
    perf = network.evaluate_link(scenario, 200.0, on_collapse="zero")
    _assert_exact_result_types(perf)
    assert perf.yield_gain[2:] == (0.0, 0.5, 0.0)
    assert perf.rates.secret_bps == 0.0


def test_sweep_records_are_exactly_sweep_records():
    scenario = network.build_backbone_scenario()
    records = sweep.run_sweep(scenario, config.SweepSpec(0.0, 4.0, 2.0))
    assert [type(rec) for rec in records] == [sweep.SweepRecord] * 3
    assert all(len(rec) == len(sweep.CSV_HEADER) for rec in records)
