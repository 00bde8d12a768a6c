"""The prose around the code: module references resolve, the README's
command lines parse, and its library example runs."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from cstar_schur.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("verify", "suites", "algebra", "amatrix", "calculus", "generate", "module_an", "cli")
REFERENCE = re.compile(r"\b(%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))


def test_module_references_resolve():
    # ``suites._COMMUTATOR_PAIRS`` must name an attribute of ``cstar_schur.suites``;
    # ``suites.py`` names a file
    paths = [
        *sorted((ROOT / "src" / "cstar_schur").glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
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


def test_readme_command_lines_parse():
    # a command line the README shows must not name a flag the CLI dropped
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [
        line.strip()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.strip().startswith("cstar-schur ")
    ]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).command == argv[0], line
