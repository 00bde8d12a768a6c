"""The 24 golden reports of ``scripts/golden_reports.py``, run in process and
checked against the committed manifest ``tests/golden_manifest.json``.

Where the manifest's environment key (numpy version, BLAS library, machine)
is this one, every report must have its recorded sha256. Everywhere, its
fingerprint must be the recorded one: verdicts, a search's per-n counts and
tolerances exactly, and worst margins within 1e-12 relative to max(1,
|margin|), margins being relative quantities already. The manifest is
rewritten with ``golden_reports.py OUT_DIR --write-manifest PATH``.
"""

import hashlib
import json
import math
import runpy
from pathlib import Path

import pytest

from cstar_schur.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = runpy.run_path(str(ROOT / "scripts" / "golden_reports.py"))
MANIFEST = json.loads((ROOT / "tests" / "golden_manifest.json").read_text())
SAME_ENVIRONMENT = MANIFEST["environment"] == GOLDEN["environment_key"]()


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_manifest_lists_every_golden_command():
    commands = GOLDEN["golden_commands"]()
    assert len(commands) == 24
    assert {name: g["argv"] for name, g in MANIFEST["goldens"].items()} == commands


@pytest.mark.parametrize("name", sorted(MANIFEST["goldens"]))
def test_golden_report_matches_the_manifest(name, tmp_path, capsys):
    want = MANIFEST["goldens"][name]
    path = tmp_path / name
    assert main([*want["argv"], "--json", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    got = GOLDEN["fingerprint"](json.loads(data))
    for key in ("verdicts", "per_n", "tolerances"):
        assert got[key] == want[key], key
    margins = zip(got["worst_margins"], want["worst_margins"], strict=True)
    assert all(_close(a, b) for a, b in margins)
    if SAME_ENVIRONMENT:
        assert hashlib.sha256(data).hexdigest() == want["sha256"]
