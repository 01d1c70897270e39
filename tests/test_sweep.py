import csv
import io
import math
import random
import struct
from operator import attrgetter
from pathlib import Path

import pytest

from qkdmetro.config import SweepSpec, parse_config_file
from qkdmetro.errors import BoundCollapse
from qkdmetro.keyrate import DistillationRates, YieldGain
from qkdmetro.network import (RESULT_FIELDS, QkdPerformance, build_gpon_scenario,
                              evaluate_link, evaluate_point, with_overrides)
from qkdmetro.noise import NoiseBudget
from qkdmetro.sweep import (CSV_HEADER, SweepRecord, aes_rekey, read_csv, run_sweep,
                            write_csv)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _expected_record(length_km, perf):
    """The SweepRecord of evaluate_link's perf at length_km, by name."""
    yg, rates = perf.yield_gain, perf.rates
    return SweepRecord(length_km=length_km, total_loss_db=perf.loss_db, eta=perf.eta,
                       y0=perf.noise.total_y0, q_mu=yg.q_mu, qber=yg.e_mu,
                       raw_bps=rates.raw_bps, sifted_bps=rates.sifted_bps,
                       ec_corrected_bps=rates.ec_corrected_bps,
                       secret_bps=rates.secret_bps)


def test_run_sweep_matches_evaluate_link():
    scenario = build_gpon_scenario()
    records = run_sweep(scenario, SweepSpec(0.0, 3.0, 1.0))
    assert [r.length_km for r in records] == [0.0, 1.0, 2.0, 3.0]
    for rec in records:
        perf = evaluate_link(scenario, rec.length_km, on_collapse="zero")
        assert rec == _expected_record(rec.length_km, perf)


# Each field of evaluate_point's result, in order, and where
# evaluate_link's QkdPerformance view holds it.
VIEW_PATHS = {
    "total_loss_db": "loss_db", "eta": "eta", "y0": "noise.total_y0",
    "q_mu": "yield_gain.q_mu", "qber": "yield_gain.e_mu", "raw_bps": "rates.raw_bps",
    "sifted_bps": "rates.sifted_bps", "ec_corrected_bps": "rates.ec_corrected_bps",
    "secret_bps": "rates.secret_bps", "forward_raman_w": "noise.forward_raman_w",
    "backward_raman_w": "noise.backward_raman_w", "crosstalk_w": "noise.crosstalk_w",
    "dark_yield": "noise.dark_yield", "y1_low": "yield_gain.y1_low",
    "e1_up": "yield_gain.e1_up", "q1_low": "yield_gain.q1_low",
}


def _bits(values):
    return [struct.pack("<d", x) for x in values]


# (config, its overrides, the sweep): gpon runs past its secret-rate
# cutoff near 4 km, and with the one-decoy bound past its collapse near
# 108.5 km, which strict mode raises and lenient mode records as zero.
LAYOUT_CASES = {
    "backbone": ("backbone", {}, SweepSpec(0.0, 10.0, 2.5)),
    "two_fiber": ("backbone_two_fiber", {}, SweepSpec(0.0, 10.0, 2.5)),
    "gpon": ("gpon", {}, SweepSpec(0.0, 8.0, 1.0)),
    "gpon_collapsed": ("gpon", {"estimator_mode": "one_decoy_bound"},
                       SweepSpec(100.0, 110.0, 5.0)),
}


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_evaluate_point_result_is_the_flat_layout(case, strict):
    name, overrides, spec = LAYOUT_CASES[case]
    scenario = with_overrides(parse_config_file(CONFIG_DIR / f"{name}.cfg")[0],
                              **overrides)
    on_collapse = "raise" if strict else "zero"
    assert tuple(VIEW_PATHS) == RESULT_FIELDS
    # the plain result holds every float of the view
    assert sorted(VIEW_PATHS.values()) == sorted(["loss_db", "eta", *[
        f"{view}.{field}" for view, record in (("noise", NoiseBudget),
                                               ("yield_gain", YieldGain),
                                               ("rates", DistillationRates))
        for field in record._fields]])
    assert RESULT_FIELDS[:9] == CSV_HEADER[1:]

    results = {}
    for length in spec.lengths():
        try:
            results[length] = evaluate_point(scenario.link.at(length), scenario.inputs,
                                             on_collapse)
        except BoundCollapse:
            assert strict and case == "gpon_collapsed"
            with pytest.raises(BoundCollapse):
                evaluate_link(scenario, length, on_collapse)
            with pytest.raises(BoundCollapse):
                run_sweep(scenario, spec, strict)
            break
    else:
        assert not (strict and case == "gpon_collapsed")
        rows = run_sweep(scenario, spec, strict)
        assert [type(row) for row in rows] == [SweepRecord] * len(results)
        assert [_bits(row) for row in rows] == [
            _bits((length, *result[:9])) for length, result in results.items()]

    for length, result in results.items():
        assert type(result) is tuple and len(result) == len(RESULT_FIELDS)
        perf = evaluate_link(scenario, length, on_collapse)
        assert _bits([attrgetter(VIEW_PATHS[name])(perf) for name in RESULT_FIELDS]) \
            == _bits(result)
    if case == "gpon":
        assert results[8.0][RESULT_FIELDS.index("secret_bps")] == 0.0
    if case == "gpon_collapsed" and not strict:
        assert results[110.0][RESULT_FIELDS.index("y1_low")] == 0.0


def test_csv_round_trip_is_exact():
    scenario = build_gpon_scenario()
    records = run_sweep(scenario, SweepSpec(0.0, 5.0, 0.5))
    buf = io.StringIO()
    write_csv(records, buf)
    buf.seek(0)
    back = read_csv(buf)
    assert back == records  # full-precision repr round-trips floats
    # a named tuple equals any tuple of its values
    assert all(type(r) is SweepRecord for r in back + records)


def test_result_records_keep_their_fields_and_are_immutable():
    assert SweepRecord._fields == CSV_HEADER
    assert QkdPerformance._fields == ("loss_db", "eta", "noise", "yield_gain", "rates")
    assert NoiseBudget._fields == ("forward_raman_w", "backward_raman_w",
                                   "crosstalk_w", "dark_yield", "total_y0")
    assert YieldGain._fields == ("q_mu", "e_mu", "y1_low", "e1_up", "q1_low")
    assert DistillationRates._fields == ("raw_bps", "sifted_bps",
                                         "ec_corrected_bps", "secret_bps")
    perf = evaluate_link(build_gpon_scenario(), 2.0)
    for rec in (perf, perf.noise, perf.yield_gain, perf.rates,
                run_sweep(build_gpon_scenario(), SweepSpec(2.0, 2.0, 1.0))[0]):
        for name in (rec._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0.0)


# Floats whose repr is the most unusual: the non-finite ones, a signed
# zero, the extremes and a 17-digit sum.
_ODD_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 5e-324,
               1.7976931348623157e308, 0.1 + 0.2)


@pytest.mark.parametrize("records", [
    [SweepRecord(*(_ODD_FLOATS * 2)[i:i + len(CSV_HEADER)]) for i in range(4)],
    [],
])
def test_write_csv_bytes_match_the_csv_writer(records):
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(map(repr, rec))
    buf = io.StringIO()
    write_csv(records, buf)
    assert buf.getvalue() == expected.getvalue()


def test_read_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_csv(io.StringIO("length,loss\n1,2\n"))


_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
_ROW = ",".join(["1.5"] * len(CSV_HEADER)) + "\n"


def test_read_csv_reads_a_header_only_stream_as_no_records():
    assert read_csv(io.StringIO(_HEADER_LINE)) == []


def test_read_csv_rejects_an_empty_stream():
    with pytest.raises(ValueError, match="header"):
        read_csv(io.StringIO(""))


@pytest.mark.parametrize("bad_row", [
    "1.0,2.0\n",                                      # short
    ",".join(["1.0"] * (len(CSV_HEADER) + 1)) + "\n",  # long
    _ROW.replace("1.5", "fast", 1),                    # not a number
])
def test_read_csv_names_the_line_of_a_bad_row(bad_row):
    with pytest.raises(ValueError, match="line 3:"):
        read_csv(io.StringIO(_HEADER_LINE + _ROW + bad_row + _ROW))


def test_csv_header_shape():
    assert CSV_HEADER[0] == "length_km"
    assert CSV_HEADER[-1] == "secret_bps"
    buf = io.StringIO()
    write_csv([], buf)
    assert buf.getvalue().strip() == ",".join(CSV_HEADER)


def test_strict_and_lenient_agree_when_nothing_collapses():
    scenario = build_gpon_scenario()
    spec = SweepSpec(0.0, 3.0, 1.0)
    assert run_sweep(scenario, spec, strict=True) == run_sweep(scenario, spec)


def test_aes_rekey_reference_value():
    # 160 links at 2.4 Gbit/s each, rekeying 256-bit keys at 1 kbit/s
    assert aes_rekey(160 * 2.4e9, 1000.0, 256) == 98304000000.0
    assert aes_rekey(160 * 2.4e9, 1000.0, 256) < 2 ** 37


def test_aes_rekey_scaling_properties():
    rng = random.Random(11)
    for _ in range(200):
        total = rng.uniform(1e6, 1e12)
        key_rate = rng.uniform(1.0, 1e6)
        bits = rng.choice([128, 192, 256])
        base = aes_rekey(total, key_rate, bits)
        assert aes_rekey(2 * total, key_rate, bits) == pytest.approx(2 * base)
        assert aes_rekey(total, 2 * key_rate, bits) == pytest.approx(base / 2)
        assert aes_rekey(total, key_rate, 2 * bits) == pytest.approx(2 * base)


def test_aes_rekey_validation():
    with pytest.raises(ValueError):
        aes_rekey(0.0, 1000.0, 256)
    with pytest.raises(ValueError):
        aes_rekey(1e9, -1.0, 256)
    for args in ((math.nan, 1000.0, 256), (1e9, math.nan, 256),
                 (1e9, 1000.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            aes_rekey(*args)
