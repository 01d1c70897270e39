"""Every bundled output is byte-identical to the committed one (see
tests/bundled_outputs.py, which also re-records them)."""

import pytest

from bundled_outputs import COMMANDS, OUTPUTS, files, run


def test_the_committed_files_are_those_of_the_table():
    expected = sorted(file_name for name in COMMANDS for file_name in files(name))
    assert sorted(path.name for path in OUTPUTS.iterdir()) == expected


@pytest.mark.parametrize("name", COMMANDS)
def test_output_is_byte_identical(name, tmp_path):
    outputs = run(name, tmp_path)
    assert sorted(outputs) == sorted(files(name))
    for file_name, data in outputs.items():
        assert data == (OUTPUTS / file_name).read_bytes(), file_name
