import io
import math
import os
import subprocess
import sys

import pytest

from qkdmetro.cli import main
from qkdmetro.network import BUILDERS, with_overrides
from qkdmetro.params import CONFIG_KEYS, DEFAULTS, LAUNCH_PLANS
from qkdmetro.sweep import read_csv

GPON_CFG = """\
[scenario]
kind = gpon

[sweep]
start_km = 0
stop_km = 2
step_km = 1
"""


@pytest.fixture
def gpon_config(tmp_path):
    path = tmp_path / "gpon.cfg"
    path.write_text(GPON_CFG)
    return str(path)


def test_rekey_prints_reference_value(capsys):
    assert main(["rekey", "--total-bps", "384e9",
                 "--key-rate", "1000", "--key-bits", "256"]) == 0
    assert capsys.readouterr().out.strip() == "98304000000.0"


def test_rekey_rejects_bad_arguments(capsys):
    assert main(["rekey", "--total-bps", "0",
                 "--key-rate", "1000", "--key-bits", "256"]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_writes_csv(gpon_config, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", gpon_config, "--out", str(out)]) == 0
    records = read_csv(io.StringIO(out.read_text()))
    assert [r.length_km for r in records] == [0.0, 1.0, 2.0]


def test_sweep_to_stdout_and_svg(gpon_config, tmp_path, capsys):
    svg = tmp_path / "chart.svg"
    assert main(["sweep", "--config", gpon_config, "--out", "-",
                 "--svg", str(svg)]) == 0
    assert capsys.readouterr().out.startswith("length_km,")
    assert svg.read_text().startswith("<svg")


def test_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nkind = gpon\nflux = 9\n")
    assert main(["sweep", "--config", str(bad), "--out", "-"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_sweep_rejects_nan_ec_efficiency(tmp_path, capsys):
    cfg = tmp_path / "nan_f.cfg"
    cfg.write_text(GPON_CFG + "\n[source]\nec_efficiency = nan\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) != 0
    err = capsys.readouterr().err
    assert "error: line 10: error-correction efficiency must be >= 1" in err
    assert not out.exists() or read_csv(io.StringIO(out.read_text())) == []


# Bad inputs with the exit code and first stderr line a sweep gives on them;
# a line holds for both scenario kinds unless it is given per kind: the
# connector keys and power_1510/1470_dbm exist on the backbone only, the
# splitter, downstream attenuation and power_1490/1310_dbm keys on gpon only.
# The bad key sits on line 5 of the config.
def _not_on(kind, key):
    return f"error: line 5: {key!r} does not apply to a {kind} scenario"


BAD_SWEEP_INPUTS = [
    ("[scenario]\nduty_cycle = -1\n", 2, "error: line 5: duty cycle must be in [0, 1]"),
    ("[scenario]\nduty_cycle = 2\n", 2, "error: line 5: duty cycle must be in [0, 1]"),
    ("[scenario]\nduty_cycle = nan\n", 2, "error: line 5: duty cycle must be in [0, 1]"),
    ("[detector]\ndeadtime_us = nan\n", 2,
     "error: line 5: deadtime must be finite and non-negative"),
    ("[detector]\ngate_ns = nan\n", 2,
     "error: line 5: gate width must be finite and non-negative"),
    ("[detector]\npulse_rate_hz = nan\n", 2,
     "error: line 5: pulse rate must be finite and positive"),
    ("[detector]\npulse_rate_hz = inf\n", 2,
     "error: line 5: pulse rate must be finite and positive"),
    ("[detector]\npulse_rate_hz = 0\n", 2,
     "error: line 5: pulse rate must be finite and positive"),
    ("[detector]\npulse_rate_hz = -1\n", 2,
     "error: line 5: pulse rate must be finite and positive"),
    ("[filter]\nwidth_nm = -0.4\n", 2,
     "error: line 5: filter width must be finite and positive"),
    ("[filter]\nwidth_nm = 0\n", 2,
     "error: line 5: filter width must be finite and positive"),
    ("[detector]\ndark_count_prob = 2\n", 2,
     "error: line 5: dark count probability must be in [0, 1]"),
    ("[raman]\nrho = nan\n", 2,
     "error: line 5: raman coefficient must be finite and non-negative"),
    ("[raman]\nrho = inf\n", 2,
     "error: line 5: raman coefficient must be finite and non-negative"),
    ("[raman]\nrho_beyond = nan\nsplit_km = 1\n", 2,
     "error: line 5: raman coefficient must be finite and non-negative"),
    ("[classical]\npower_dbm = inf\n", 2,
     "error: line 5: launch power must be finite and <= 3000"),
    ("[classical]\npower_dbm = nan\n", 2,
     "error: line 5: launch power must be finite and <= 3000"),
    ("[classical]\npower_dbm = -inf\n", 2,
     "error: line 5: launch power must be finite and <= 3000"),
    # 10^(P/10) mW overflows just above 3082 dBm
    ("[classical]\npower_dbm = 4000\n", 2,
     "error: line 5: launch power must be finite and <= 3000"),
    ("[classical]\npower_dbm = 3000.0000000000005\n", 2,
     "error: line 5: launch power must be finite and <= 3000"),
    ("[scenario]\ndownstream_atten_db = nan\n", 2,
     {"backbone": _not_on("backbone", "downstream_atten_db"),
      "gpon": "error: line 5: downstream attenuation must be finite and non-negative"}),
    # an attenuator has no gain
    ("[scenario]\ndownstream_atten_db = -4000\n", 2,
     {"backbone": _not_on("backbone", "downstream_atten_db"),
      "gpon": "error: line 5: downstream attenuation must be finite and non-negative"}),
    ("[scenario]\ndownstream_atten_db = -5e-324\n", 2,
     {"backbone": _not_on("backbone", "downstream_atten_db"),
      "gpon": "error: line 5: downstream attenuation must be finite and non-negative"}),
    ("[scenario]\nsplitter_ratio = 0\n", 2,
     {"backbone": _not_on("backbone", "splitter_ratio"),
      "gpon": "error: line 5: splitter ratio must be in [2, 4]"}),
    ("[scenario]\nsplitter_ratio = -2\n", 2,
     {"backbone": _not_on("backbone", "splitter_ratio"),
      "gpon": "error: line 5: splitter ratio must be in [2, 4]"}),
    ("[source]\nec_efficiency = nan\n", 2,
     "error: line 5: error-correction efficiency must be >= 1"),
    ("[raman]\nsplit_km = -1\nrho_beyond = 1e-9\n", 2,
     "error: line 5: split length must be finite and non-negative"),
    ("[raman]\nrho_beyond = -1e-9\nsplit_km = 1\n", 2,
     "error: line 5: raman coefficient must be finite and non-negative"),
    # either alone would leave the span whole without a word
    ("[raman]\nsplit_km = 1\n", 2,
     "error: line 5: split_km and rho_beyond must be set together"),
    ("[raman]\nrho_beyond = 1e-9\n", 2,
     "error: line 5: split_km and rho_beyond must be set together"),
    ("[fiber]\nconnector_every_km = 0\n", 2,
     {"backbone": "error: line 5: connector spacing must be finite and >= 0.001",
      "gpon": _not_on("gpon", "connector_every_km")}),
    ("[fiber]\nconnector_every_km = -1\n", 2,
     {"backbone": "error: line 5: connector spacing must be finite and >= 0.001",
      "gpon": _not_on("gpon", "connector_every_km")}),
    ("[fiber]\nconnector_every_km = inf\n", 2,
     {"backbone": "error: line 5: connector spacing must be finite and >= 0.001",
      "gpon": _not_on("gpon", "connector_every_km")}),
    ("[fiber]\nconnector_loss_db = -3\n", 2,
     {"backbone": "error: line 5: connector loss must be finite and non-negative",
      "gpon": _not_on("gpon", "connector_loss_db")}),
    ("[fiber]\nconnector_loss_db = nan\n", 2,
     {"backbone": "error: line 5: connector loss must be finite and non-negative",
      "gpon": _not_on("gpon", "connector_loss_db")}),
    ("[scenario]\nbudget_db = nan\n", 2, "error: line 5: loss budget must be finite"),
    ("[scenario]\nfixed_km = nan\n", 2,
     "error: line 5: fixed fiber length must be finite and non-negative"),
    ("[source]\nmu = nan\n", 2, "error: line 5: mu must be in (0, 1.5]"),
    ("[detector]\nefficiency = nan\n", 2,
     "error: line 5: detector efficiency must be in (0, 1]"),
    ("[source]\nsifting_q = nan\n", 2, "error: line 5: sifting factor must be in (0, 1]"),
    ("[detector]\ndark_count_prob = -1\n", 2,
     "error: line 5: dark count probability must be in [0, 1]"),
    ("[detector]\ndark_count_prob = nan\n", 2,
     "error: line 5: dark count probability must be in [0, 1]"),
    ("[filter]\nwidth_nm = nan\n", 2,
     "error: line 5: filter width must be finite and positive"),
    ("[raman]\nsplit_km = -1\n", 2,
     "error: line 5: split length must be finite and non-negative"),
    ("[filter]\nrejection_db = -1\n", 2,
     "error: line 5: filter rejection must be finite and non-negative"),
    ("[filter]\nrejection_db = -100\n", 2,
     "error: line 5: filter rejection must be finite and non-negative"),
    ("[filter]\nrejection_db = nan\n", 2,
     "error: line 5: filter rejection must be finite and non-negative"),
    ("[filter]\ninsertion_db = -5\n", 2,
     "error: line 5: filter insertion loss must be finite and non-negative"),
    ("[fiber]\nalpha_1550_db_km = nan\n", 2,
     "error: line 5: fiber attenuation must be finite and positive"),
    ("[fiber]\nalpha_1310_db_km = 0\n", 2,
     "error: line 5: fiber attenuation must be finite and positive"),
    ("[classical]\npower_1310_dbm = nan\n", 2,
     {"backbone": _not_on("backbone", "power_1310_dbm"),
      "gpon": "error: line 5: launch power must be finite and <= 3000"}),
    ("[classical]\npower_1490_dbm = 4000\n", 2,
     {"backbone": _not_on("backbone", "power_1490_dbm"),
      "gpon": "error: line 5: launch power must be finite and <= 3000"}),
    ("[source]\nestimator_mode = bogus\n", 2,
     "error: line 5: estimator mode must be one of ['exact_y0', 'one_decoy_bound'], "
     "got 'bogus'"),
    # a connector every centimetre: 1,000 dB per km, 100,000 connectors per
    # 1 km of sweep
    ("[fiber]\nconnector_every_km = 1e-5\n", 2,
     {"backbone": "error: line 5: connector spacing must be finite and >= 0.001",
      "gpon": _not_on("gpon", "connector_every_km")}),
    ("[fiber]\nconnector_every_km = 0.000999\n", 2,
     {"backbone": "error: line 5: connector spacing must be finite and >= 0.001",
      "gpon": _not_on("gpon", "connector_every_km")}),
]


def _first_line(first_line, kind):
    return first_line[kind] if isinstance(first_line, dict) else first_line


@pytest.mark.parametrize("kind", ["gpon", "backbone"])
@pytest.mark.parametrize("extra,code,first_line", BAD_SWEEP_INPUTS)
def test_sweep_bad_input_exit_code_and_message(kind, extra, code, first_line,
                                               tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # [scenario] is repeated when extra opens it; sections merge
    cfg.write_text(f"[scenario]\nkind = {kind}\n\n{extra}\n"
                   "[sweep]\nstart_km = 0\nstop_km = 2\nstep_km = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", "-"]) == code
    assert capsys.readouterr().err.splitlines()[0] == _first_line(first_line, kind)


def _builder_overrides(kind, extra):
    """The builder keywords that the config lines of extra set."""
    overrides, section = {}, None
    for line in extra.splitlines():
        if line.startswith("["):
            section = line[1:-1]
            continue
        key, _, text = (part.strip() for part in line.partition("="))
        param, _, key_format, convert = CONFIG_KEYS[section, key][:4]
        value = convert(text)
        if key == "power_dbm":
            overrides.update((power, value) for _, power, _, _, _ in LAUNCH_PLANS[kind])
        elif param == "alpha_table":
            table = overrides.get(param, DEFAULTS[kind][param])
            overrides[param] = tuple((nm, value if key_format.format(nm) == key else a)
                                     for nm, a in table)
        else:
            overrides[param] = value
    return overrides


@pytest.mark.parametrize("kind", ["gpon", "backbone"])
@pytest.mark.parametrize("extra,code,first_line", BAD_SWEEP_INPUTS)
def test_builder_and_with_overrides_raise_the_config_message(kind, extra, code,
                                                             first_line):
    message = _first_line(first_line, kind).split(": ", 2)[2]
    overrides = _builder_overrides(kind, extra)
    if "does not apply" in message:
        message = f"unknown scenario parameters: {sorted(overrides)}"
    with pytest.raises(ValueError) as exc:
        BUILDERS[kind](**overrides)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        with_overrides(BUILDERS[kind](), **overrides)
    assert str(exc.value) == message


# The range ends of the launch powers and the downstream attenuation, each
# accepted: the sweep writes finite values only.
@pytest.mark.parametrize("kind,extra", [
    ("gpon", "[classical]\npower_dbm = 3000\n"),
    ("backbone", "[classical]\npower_dbm = 3000\n"),
    ("gpon", "[classical]\npower_dbm = -4000\n"),
    ("gpon", "[classical]\npower_1490_dbm = 3000\n[scenario]\ndownstream_atten_db = 0\n"),
    ("gpon", "[scenario]\ndownstream_atten_db = 4000\n"),
    ("backbone", "[classical]\npower_1510_dbm = 3000\npower_1470_dbm = -1e300\n"),
])
def test_launch_power_range_ends_are_accepted(kind, extra, tmp_path, capsys):
    cfg = tmp_path / "ends.cfg"
    cfg.write_text(f"[scenario]\nkind = {kind}\n\n{extra}\n"
                   "[sweep]\nstart_km = 0\nstop_km = 2\nstep_km = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", "-"]) == 0
    records = read_csv(io.StringIO(capsys.readouterr().out))
    assert len(records) == 3
    assert all(math.isfinite(value) for rec in records for value in rec)


def test_an_underflowing_decoy_bound_is_a_named_domain_error(tmp_path, capsys):
    # mu is in range, but mu*nu - nu*nu underflows to 0 with nu = mu/20
    cfg = tmp_path / "tiny_mu.cfg"
    cfg.write_text("[scenario]\nkind = gpon\n[source]\nmu = 1e-300\n"
                   "[sweep]\nstart_km = 0\nstop_km = 2\nstep_km = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", "-"]) == 1
    assert capsys.readouterr().err == (
        "error: the decoy bound needs mu*nu - nu*nu > 0, which underflows to 0 "
        "at mu = 1e-300, nu = 5e-302\n")


def test_an_overflowed_noise_names_the_qber(tmp_path, capsys):
    # rho is in range, but the noise it scales overflows to inf, and the
    # QBER, inf / inf, is NaN
    cfg = tmp_path / "loud.cfg"
    cfg.write_text("[scenario]\nkind = backbone\n[raman]\nrho = 1e300\n"
                   "[sweep]\nstart_km = 0\nstop_km = 2\nstep_km = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", "-"]) == 1
    assert capsys.readouterr().err == (
        "error: the QBER is nan, not in [0, 1]: the background yield Y0 = inf "
        "overflowed\n")


# Lengths and spacings whose connector count, ceil(length / spacing), is
# past network.MAX_CONNECTORS: it was an OverflowError traceback out of
# main.  No other value is drawn, as the count allocates a list.
@pytest.mark.parametrize("argv,fiber,error", [
    (["path-loss", "--wavelength", "1550", "--length-km", "1e300"], "",
     "a 1e+300 km span with a connector every 2.5 km"),
    (["optimize-mu", "--length-km", "1e300"], "",
     "a 1e+300 km span with a connector every 2.5 km"),
    # the least spacing, at a length just past the cap
    (["sweep", "--out", "-"], "[fiber]\nconnector_every_km = 0.001\n",
     "a 1001.0 km span with a connector every 0.001 km"),
])
def test_a_span_of_too_many_connectors_is_an_error(argv, fiber, error, tmp_path,
                                                    capsys):
    cfg = tmp_path / "backbone.cfg"
    cfg.write_text(f"[scenario]\nkind = backbone\n{fiber}"
                   "[sweep]\nstart_km = 0\nstop_km = 1001\nstep_km = 1001\n")
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {error} needs more than 1000000 connectors\n"
    assert captured.out == ""


# Values each in range that a builder rejects together, on the kinds they
# apply to, with the first stderr line of a sweep and the builder's
# exception type: the line is that of the first key involved, in the order
# the error names them (nu before mu; the filter insertion loss, the fixed
# fiber length, its attenuation; the splitter ratio).  The config is laid
# out as in BAD_SWEEP_INPUTS.
CROSS_FIELD_INPUTS = [
    ("gpon", "[source]\nnu = 0.9\n", "error: line 5: need 0 < nu < mu", ValueError),
    ("backbone", "[source]\nnu = 0.9\n", "error: line 5: need 0 < nu < mu",
     ValueError),
    ("backbone", "[source]\nmu = 0.1\nnu = 0.2\n", "error: line 6: need 0 < nu < mu",
     ValueError),
    ("backbone", "[filter]\ninsertion_db = 20\n",
     "error: line 5: element defaults exceed the no-fiber loss target", ValueError),
    ("backbone", "[scenario]\nfixed_km = 20\n",
     "error: line 5: element defaults exceed the no-fiber loss target", ValueError),
    ("gpon", "[filter]\ninsertion_db = 20\n",
     "error: line 5: element defaults exceed the no-fiber loss target", ValueError),
    ("backbone", "[fiber]\nalpha_1550_db_km = 25\n",
     "error: line 5: element defaults exceed the no-fiber loss target", ValueError),
    # the loss target reads only the 1550 nm pivot, so its line is blamed
    ("backbone", "[fiber]\nalpha_1550_db_km = 25\nalpha_1310_db_km = 0.5\n",
     "error: line 5: element defaults exceed the no-fiber loss target", ValueError),
    ("gpon", "[scenario]\nsplitter_ratio = 8\n",
     "error: line 5: splitter ratio must be in [2, 4]", ValueError),
]


@pytest.mark.parametrize("kind,extra,first_line,error", CROSS_FIELD_INPUTS)
def test_sweep_cross_field_error_exit_code_and_message(kind, extra, first_line,
                                                       error, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[scenario]\nkind = {kind}\n\n{extra}\n"
                   "[sweep]\nstart_km = 0\nstop_km = 2\nstep_km = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == first_line


@pytest.mark.parametrize("kind,extra,first_line,error", CROSS_FIELD_INPUTS)
def test_builder_and_with_overrides_raise_the_cross_field_error(kind, extra,
                                                                first_line, error):
    message = first_line.split(": ", 2)[2]
    overrides = _builder_overrides(kind, extra)
    for build in (lambda: BUILDERS[kind](**overrides),
                  lambda: with_overrides(BUILDERS[kind](), **overrides)):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error
        assert str(exc.value) == message


@pytest.mark.parametrize("sweep,first_line", [
    ("start_km = 0\nstop_km = inf\nstep_km = 1\n",
     "error: line 4: sweep start, stop and step must be finite"),
    ("start_km = 0\nstop_km = 2\nstep_km = nan\n",
     "error: line 4: sweep start, stop and step must be finite"),
    ("start_km = 3\nstop_km = 2\nstep_km = 1\n",
     "error: line 4: sweep start must not exceed stop"),
    ("start_km = 0\nstop_km = 2e6\nstep_km = 1\n",
     "error: line 4: sweep has more than 1000000 points"),
])
def test_sweep_rejects_non_finite_range(sweep, first_line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[scenario]\nkind = gpon\n\n[sweep]\n{sweep}")
    assert main(["sweep", "--config", str(cfg), "--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == first_line


# Every float option, each given a value that is not a finite number.
NON_FINITE_OPTIONS = [
    (["path-loss", "--wavelength", "1550"], "--length-km", "inf"),
    (["path-loss", "--length-km", "0"], "--wavelength", "nan"),
    (["optimize-mu"], "--length-km", "nan"),
    (["optimize-mu"], "--length-km", "-inf"),
    (["rekey", "--key-rate", "1000", "--key-bits", "256"], "--total-bps", "nan"),
    (["rekey", "--key-rate", "1000", "--key-bits", "256"], "--total-bps", "inf"),
    (["rekey", "--total-bps", "1e9", "--key-bits", "256"], "--key-rate", "nan"),
]


@pytest.mark.parametrize("argv,option,value", NON_FINITE_OPTIONS)
def test_float_options_reject_non_finite(argv, option, value, gpon_config, capsys):
    if argv[0] != "rekey":
        argv = [argv[0], "--config", gpon_config, *argv[1:]]
    assert main([*argv, f"{option}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qkdmetro ")
    assert f"argument {option}: not a finite number: '{value}'" in captured.err


# Every number option whose range argparse checks, each given a finite
# value outside it: a negative length, a rekey argument that is not
# positive.  Each is a usage error, as a non-finite value is.
OUT_OF_RANGE_OPTIONS = [
    (["path-loss", "--wavelength", "1550"], "--length-km", "-1", "non-negative"),
    (["optimize-mu"], "--length-km", "-1e-300", "non-negative"),
    (["rekey", "--key-rate", "1000", "--key-bits", "256"], "--total-bps", "-1", "positive"),
    (["rekey", "--total-bps", "1e9", "--key-bits", "256"], "--key-rate", "0", "positive"),
    (["rekey", "--total-bps", "1e9", "--key-bits", "256"], "--key-rate", "-5", "positive"),
    (["rekey", "--total-bps", "1e9", "--key-rate", "1000"], "--key-bits", "-3", "positive"),
    (["rekey", "--total-bps", "1e9", "--key-rate", "1000"], "--key-bits", "0", "positive"),
]


@pytest.mark.parametrize("argv,option,value,what", OUT_OF_RANGE_OPTIONS)
def test_number_options_reject_values_out_of_range(argv, option, value, what,
                                                    gpon_config, capsys):
    if argv[0] != "rekey":
        argv = [argv[0], "--config", gpon_config, *argv[1:]]
    assert main([*argv, f"{option}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qkdmetro ")
    assert f"argument {option}: not a {what} number: '{value}'" in captured.err


def test_key_bits_keeps_the_int_message(capsys):
    assert main(["rekey", "--total-bps", "1e9", "--key-rate", "1000",
                 "--key-bits", "2.5"]) == 2
    assert "argument --key-bits: invalid int value: '2.5'" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["sweep", "--config", "/nonexistent.cfg", "--out", "-"]) == 1


def test_usage_error_exits_2(capsys):
    assert main(["sweep"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("wavelength", ["-1550", "0", "1259.9", "1675.1"])
def test_path_loss_rejects_a_wavelength_outside_the_fiber_bands(wavelength,
                                                                gpon_config, capsys):
    assert main(["path-loss", "--config", gpon_config,
                 f"--wavelength={wavelength}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qkdmetro path-loss ")
    assert (f"argument --wavelength: '{wavelength}' nm lies outside the O to U "
            "bands, 1260-1675 nm") in captured.err


@pytest.mark.parametrize("wavelength", ["1260", "1675"])
def test_path_loss_takes_the_band_edges(wavelength, gpon_config, capsys):
    assert main(["path-loss", "--config", gpon_config,
                 "--wavelength", wavelength]) == 0
    assert float(capsys.readouterr().out) > 0.0


def test_path_loss_reports_zero_length_aggregate(gpon_config, capsys):
    assert main(["path-loss", "--config", gpon_config,
                 "--wavelength", "1550", "--length-km", "0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(9.0, abs=0.01)


def test_optimize_mu_runs(gpon_config, capsys):
    assert main(["optimize-mu", "--config", gpon_config,
                 "--length-km", "0"]) == 0
    mu_star = float(capsys.readouterr().out)
    assert 0.05 <= mu_star <= 1.5


def test_calibrate_with_bundled_anchors(gpon_config, tmp_path, capsys):
    out = tmp_path / "fit.txt"
    assert main(["calibrate", "--config", gpon_config, "--out", str(out),
                 "--free", "rho"]) == 0
    text = out.read_text()
    assert text.startswith("rho = ")
    assert "# weighted residual" in text


def test_calibrate_with_explicit_anchor_file(gpon_config, tmp_path, capsys):
    anchors = tmp_path / "anchors.csv"
    anchors.write_text("scenario,length_km,observable,target,weight\n"
                       "gpon,0,qber,0.04,1\n")
    assert main(["calibrate", "--config", gpon_config, "--free", "rho",
                 "--anchors", str(anchors), "--out", "-"]) == 0
    assert "rho = " in capsys.readouterr().out


@pytest.mark.parametrize("free,message", [
    ("bogus", "unknown free parameter 'bogus'; choose from rho, rho_beyond, "
              "launch_dbm, e_det, dark_count_prob"),
    ("rho,rho", "free parameter 'rho' given twice"),
    (",", "need at least one free parameter"),
    ("", "need at least one free parameter"),
    (" , ", "need at least one free parameter"),
])
def test_calibrate_rejects_bad_free_names_as_usage_errors(free, message,
                                                          gpon_config, capsys):
    assert main(["calibrate", "--config", gpon_config, "--out", "-",
                 "--free", free]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qkdmetro calibrate ")
    assert f"argument --free: {message}" in captured.err


def test_calibrate_rejects_rho_beyond_on_a_whole_span(capsys):
    # rho_beyond enters no formula without split_km, so fitting it alone
    # would report a value the anchors never constrained
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "backbone.cfg")
    assert main(["calibrate", "--config", config, "--free", "rho_beyond",
                 "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: split_km and rho_beyond must be set together\n"


def test_calibrate_reports_a_short_anchor_row_at_its_line(gpon_config, tmp_path,
                                                          capsys):
    anchors = tmp_path / "anchors.csv"
    anchors.write_text("scenario,length_km,observable,target,weight\n"
                       "gpon,0,qber\n")
    assert main(["calibrate", "--config", gpon_config, "--free", "rho",
                 "--anchors", str(anchors), "--out", "-"]) == 1
    assert capsys.readouterr().err == (
        "error: anchor CSV line 2: expected 5 fields, got 3\n")


def test_calibrate_rejects_a_mistyped_anchor_kind(gpon_config, tmp_path, capsys):
    # the gpn row would otherwise be dropped as another kind's anchor
    anchors = tmp_path / "anchors.csv"
    anchors.write_text("scenario,length_km,observable,target,weight\n"
                       "gpon,0,qber,0.04,1\ngpn,0,secret_bps,500,1\n")
    assert main(["calibrate", "--config", gpon_config, "--free", "rho",
                 "--anchors", str(anchors), "--out", "-"]) == 1
    assert capsys.readouterr().err == (
        "error: anchor CSV line 3: unknown scenario 'gpn'\n")


def test_calibrate_rejects_nan_anchor_weight(gpon_config, tmp_path, capsys):
    anchors = tmp_path / "anchors.csv"
    anchors.write_text("scenario,length_km,observable,target,weight\n"
                       "gpon,0,qber,0.04,nan\n")
    assert main(["calibrate", "--config", gpon_config, "--free", "rho",
                 "--anchors", str(anchors), "--out", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_import_loads_neither_networkx_nor_calibrate():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, qkdmetro.cli; print([m for m in "
            "('networkx', 'qkdmetro.calibrate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _loaded_after(module, candidates):
    """Those of candidates in sys.modules after a python -S process, which
    loads no site packages, imports module from src."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print([m for m in {candidates!r} if m in sys.modules])")
    return subprocess.run([sys.executable, "-S", "-c", code], check=True,
                          capture_output=True, text=True).stdout.strip()


def test_imports_stay_off_the_cli_path():
    # dataclasses pulls in inspect, ast, dis and tokenize; importlib.resources
    # and calibrate serve only the calibrate command, and csv only reading
    assert _loaded_after("qkdmetro.cli", ("dataclasses", "inspect", "importlib.resources",
                                          "qkdmetro.calibrate", "csv", "_csv")) == "[]"
    assert _loaded_after("qkdmetro.calibrate", ("dataclasses",)) == "[]"


def test_version_exits_cleanly():
    assert main(["--version"]) == 0
