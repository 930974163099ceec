"""Acceptance suite: every headline claim in the `qlstab reproduce` registry
must pass all of its checks. The thresholds live in the registry
(`qlstab.cli.REPRODUCTIONS`); run with `pytest tests/test_acceptance.py -v`."""

import json

import pytest

from qlstab.cli import REPRODUCTIONS, main

# the one desk-scale claim, the kagome 2x2 robustness check (D = 4096, about
# 7 s); every other claim takes 0.1 s or less and runs on every push
SLOW = {"ccz-kagome-rfts"}


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
