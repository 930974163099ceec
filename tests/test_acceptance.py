"""Acceptance suite: every headline claim in the `qlstab reproduce` registry
must pass all of its checks. The thresholds live in the registry
(`qlstab.cli.REPRODUCTIONS`); run with `pytest tests/test_acceptance.py -v`."""

import json

import pytest

from qlstab.cli import REPRODUCTIONS, main

# the claims of the desk-scale criteria 02, 03, 05, 06, 09 and 11
SLOW = {
    "aklt-not-fts",
    "vbs3-fts", "vbs4-fts",
    "ccz-triangle-rfts", "ccz-kagome-rfts",
    "w-product-robust",
    "graph-rapid-mixing",
    "graph-line6-probes", "ising-gibbs-correlation",
}


def test_slow_claims_registered():
    assert SLOW <= set(REPRODUCTIONS)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
    for name in REPRODUCTIONS
])
def test_claim(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["reproduce", name, "--output", str(out)])
    result = json.loads(out.read_text())["certificates"][name]
    print(capsys.readouterr().err, end="")
    assert result["failed_checks"] == []
    assert rc == 0
