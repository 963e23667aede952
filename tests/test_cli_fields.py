"""Each CLI field is declared once, with its check and its CSV header name."""

from dataclasses import fields

import pytest

from nakfade.cli import _COMMANDS, RunConfig

# The fields that change no number, so no CSV header names them: the SNR grid
# is the first column, lambda_scaled names its columns, and workers and out
# change neither.
NO_NUMBER = {"snr_db", "lambda_scaled", "workers", "out"}


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_every_field_read_has_a_header_name_or_changes_no_number(name):
    declared = {f.name: f.metadata for f in fields(RunConfig)}
    for field in _COMMANDS[name][1].split():
        assert "check" in declared[field], f"{field} is not declared through _option"
        assert (declared[field]["header"] is None) == (field in NO_NUMBER), field

