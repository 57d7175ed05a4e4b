"""The command line's case table (``cli_cases.py``), run in process."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from cli_cases import CHAINS, run_chain

from approxrate.cli import main


def _in_process(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("chain", list(CHAINS))
def test_each_cli_case_exits_and_writes_as_its_table_says(chain, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_chain(CHAINS[chain], _in_process) == []
