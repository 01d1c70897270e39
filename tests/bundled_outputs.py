"""The bundled outputs: every command of the CLI run on the bundled configs,
its output committed under tests/outputs/.

COMMANDS maps each command's name to its command line.  An argument
"{out}/<file>" names a file the command writes, recorded as <file>; a
command that names none prints its output, recorded as <name>.txt.  Each
command must exit 0.  tests/test_bundled_outputs.py runs the table
through cli.main in process and compares the bytes with the committed
files, so a change that moves one last digit of any output fails it.

A change that alters an output on purpose re-records every file, so its
diff shows which moved:

    PYTHONPATH=src python tests/bundled_outputs.py

Re-recording clears tests/outputs/ first, so it writes exactly the files
of the table.  It needs no test dependency.
"""

import contextlib
import io
from pathlib import Path

from qkdmetro.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
OUTPUTS = Path(__file__).resolve().parent / "outputs"

_CONFIG_NAMES = ("backbone", "backbone_two_fiber", "gpon")


def _config(name):
    return ("--config", f"{{configs}}/{name}.cfg")


COMMANDS = {
    **{f"sweep_{cfg}": ("sweep", *_config(cfg), "--out", f"{{out}}/sweep_{cfg}.csv",
                        "--svg", f"{{out}}/sweep_{cfg}.svg")
       for cfg in _CONFIG_NAMES},
    **{f"calibrate_{cfg}": ("calibrate", *_config(cfg), "--out", "-")
       for cfg in _CONFIG_NAMES},
    "calibrate_gpon_e_det": ("calibrate", *_config("gpon"), "--out", "-",
                             "--free", "rho,launch_dbm,e_det"),
    "calibrate_backbone_two_fiber_rho_beyond": (
        "calibrate", *_config("backbone_two_fiber"), "--out", "-",
        "--free", "rho,rho_beyond"),
    **{f"optimize_mu_{cfg}_{km}km": ("optimize-mu", *_config(cfg), "--length-km", km)
       for cfg in _CONFIG_NAMES for km in ("0", "1.5", "3")},
    **{f"path_loss_{cfg}_{nm}nm_{km}km": ("path-loss", *_config(cfg),
                                          "--wavelength", nm, "--length-km", km)
       for cfg in _CONFIG_NAMES for nm in ("1310", "1490", "1550")
       for km in ("0", "5", "7.3")},
}


def _written(name):
    return [arg.removeprefix("{out}/") for arg in COMMANDS[name]
            if arg.startswith("{out}/")]


def files(name):
    """The names of the files that the command of name records."""
    return _written(name) or [f"{name}.txt"]


def run(name, out_dir):
    """Run the command of name, writing its files into out_dir.  Returns
    {file name: bytes} of each output it records."""
    argv = [arg.format(configs=CONFIGS, out=out_dir) for arg in COMMANDS[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    printed = stdout.getvalue().encode("utf-8")
    # a command prints its output or writes it to files, not both
    if code != 0 or bool(printed) == bool(_written(name)):
        raise RuntimeError(f"{name}: exit {code}, printed {printed[:80]!r}")
    if printed:
        return {f"{name}.txt": printed}
    return {file_name: (Path(out_dir) / file_name).read_bytes()
            for file_name in _written(name)}


def record(out_dir=OUTPUTS):
    """Clear out_dir and write every output of the table into it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(exist_ok=True)
    for old in out_dir.iterdir():
        old.unlink()
    for name in COMMANDS:
        for file_name, data in run(name, out_dir).items():
            (out_dir / file_name).write_bytes(data)


if __name__ == "__main__":
    record()
