"""The prose around the code: module references resolve, and the README's library example runs."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("verify", "suites", "algebra", "amatrix", "calculus", "generate", "module_an", "cli")
REFERENCE = re.compile(r"\b(%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))


def test_module_references_resolve():
    # ``suites._COMMUTATOR_PAIRS`` must name an attribute of ``cstar_schur.suites``;
    # ``suites.py`` names a file
    paths = [
        *sorted((ROOT / "src" / "cstar_schur").glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        ROOT / "README.md",
    ]
    stale = []
    for path in paths:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for module, name in REFERENCE.findall(line):
                if name != "py" and not hasattr(importlib.import_module(f"cstar_schur.{module}"), name):
                    stale.append(f"{path.relative_to(ROOT)}:{lineno}: {module}.{name}")
    assert stale == []


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme.split("As a library:", 1)[1], re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    positive, min_eigenvalue, passed = out.getvalue().splitlines()
    assert positive == "True" and passed == "True"
    assert float(min_eigenvalue) == pytest.approx(-0.2021421, abs=1e-6)
