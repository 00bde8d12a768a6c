"""The benchmark's verdict check holds on every workload's reports at its seed.

perfbench/workloads.py reads the report schema (the ``per_n`` counts and the
trial-0 witness among ``details.violations`` of a search, each check's
counts in a verify report) and compares fingerprints with
perfbench/reference.json, so a change that breaks either would otherwise
show only when the benchmark runs. workloads.py is read and executed here
without importing it as a file, so nothing is written under perfbench/.
"""

import json
import types
from pathlib import Path

import pytest

from cstar_schur.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    mod = types.ModuleType("perfbench_workloads")
    mod.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


@pytest.mark.parametrize("workload", ["suite_grid", "search_hits", "search_miss"])
def test_workloads_pass_the_verdict_check(workload, tmp_path, capsys):
    w = _workloads()
    seed = w.REFERENCE_SEED
    reference = w.load_reference()
    for index, argv in enumerate(w.commands(workload, seed, tmp_path)):
        code = main(argv)
        payload = json.loads(Path(argv[-1]).read_text())
        assert w.verdict_errors(workload, seed, index, code, payload, reference) == []
    capsys.readouterr()
