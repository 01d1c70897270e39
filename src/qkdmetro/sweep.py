"""Distance sweeps, CSV emission and the AES rekey arithmetic."""

from collections import namedtuple

from .network import evaluate_point

CSV_HEADER = ("length_km", "total_loss_db", "eta", "y0", "q_mu", "qber",
              "raw_bps", "sifted_bps", "ec_corrected_bps", "secret_bps")

# One sweep point: a named tuple whose fields are the CSV columns, built
# by run_sweep as tuple.__new__(SweepRecord, (...)) (see README) from the
# length and the first fields of evaluate_point's result, which are the
# other columns in order (network.RESULT_FIELDS).
SweepRecord = namedtuple("SweepRecord", CSV_HEADER)


def run_sweep(scenario, spec, strict=False):
    """One SweepRecord per length, ascending.

    In the default lenient mode a collapsed decoy bound at some length is
    recorded as zero secret rate; strict mode propagates the error.
    """
    # an exact tuple, which evaluate_point unpacks on CPython's fast path
    # (a named tuple takes the iterator path); the same values
    at, inputs = scenario.link.at, tuple(scenario.inputs)
    on_collapse = "raise" if strict else "zero"
    columns = len(CSV_HEADER) - 1
    records = []
    for length in spec.lengths():
        result = evaluate_point(at(length), inputs, on_collapse)
        records.append(tuple.__new__(SweepRecord, (length, *result[:columns])))
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
