"""Distance sweeps, CSV emission and the AES rekey arithmetic."""

from collections import namedtuple

from .network import evaluate_link

CSV_HEADER = ("length_km", "total_loss_db", "eta", "y0", "q_mu", "qber",
              "raw_bps", "sifted_bps", "ec_corrected_bps", "secret_bps")

# One sweep point: a named tuple whose fields are the CSV columns, built
# by record_from_performance as tuple.__new__(SweepRecord, (...)) (see
# README).
SweepRecord = namedtuple("SweepRecord", CSV_HEADER)


def record_from_performance(length_km, perf):
    yg = perf.yield_gain
    # the rates' fields are the last four columns, in order
    return tuple.__new__(SweepRecord, (length_km, perf.loss_db, perf.eta,
                                       perf.noise.total_y0, yg.q_mu, yg.e_mu,
                                       *perf.rates))


def run_sweep(scenario, spec, strict=False):
    """One SweepRecord per length, ascending.

    In the default lenient mode a collapsed decoy bound at some length is
    recorded as zero secret rate; strict mode propagates the error.
    """
    records = []
    for length in spec.lengths():
        perf = evaluate_link(scenario, length,
                             on_collapse="raise" if strict else "zero")
        records.append(record_from_performance(length, perf))
    return records


def write_csv(records, stream):
    """Emit records at full floating precision (repr round-trips), a write
    per row; a float's repr holds no comma, quote or line break to quote."""
    stream.write(",".join(CSV_HEADER) + "\n")
    for rec in records:
        stream.write(",".join(map(repr, rec)) + "\n")


def read_csv(stream):
    import csv  # off the CLI's import path: only reading needs it
    reader = csv.reader(stream)
    header = tuple(next(reader, ()))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected sweep CSV header: {header}")
    try:
        return [SweepRecord(*map(float, row)) for row in reader if row]
    except (TypeError, ValueError):
        raise ValueError(f"sweep CSV line {reader.line_num}: expected "
                         f"{len(CSV_HEADER)} numbers") from None


def aes_rekey(total_bps, key_rate_bps, key_len_bits):
    """Bits encrypted per key when rekeying an aggregate classical flow.

    A key of key_len_bits is consumed every key_len_bits/key_rate_bps
    seconds, during which total_bps*that many bits are encrypted.
    """
    if not all(x > 0 for x in (total_bps, key_rate_bps, key_len_bits)):
        raise ValueError("all rekey arguments must be positive")
    return total_bps / (key_rate_bps / key_len_bits)
