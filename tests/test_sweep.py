import csv
import io
import math
import random

import pytest

from qkdmetro.config import SweepSpec
from qkdmetro.keyrate import DistillationRates, YieldGain
from qkdmetro.network import QkdPerformance, build_gpon_scenario, evaluate_link
from qkdmetro.noise import NoiseBudget
from qkdmetro.sweep import (CSV_HEADER, SweepRecord, aes_rekey, read_csv,
                            record_from_performance, run_sweep, write_csv)


def test_run_sweep_matches_evaluate_link():
    scenario = build_gpon_scenario()
    records = run_sweep(scenario, SweepSpec(0.0, 3.0, 1.0))
    assert [r.length_km for r in records] == [0.0, 1.0, 2.0, 3.0]
    for rec in records:
        perf = evaluate_link(scenario, rec.length_km, on_collapse="zero")
        assert rec == record_from_performance(rec.length_km, perf)


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
                record_from_performance(2.0, perf)):
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
