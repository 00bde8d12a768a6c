"""What a process pays for before and during a search, each in a fresh interpreter.

``import cstar_schur`` defers ``cstar_schur.suites`` to the first use of a name
it exports from there. ``search`` and ``verify --from-witness`` must not import
it at all, while ``import cstar_schur.cli`` must still load every module that
perfbench/spans.py wraps, or ``perfbench/run.py --trace 1`` misses the layers
of a suite that imports them later; ``numpy.random`` waits for the first
draw. A search's chunk stacks must reuse heap memory rather than map fresh
pages for each chunk, whatever was compiled before it. The package's only
runtime dependency is numpy.
"""

import ast
import ctypes
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _python(code: str, env: dict | None = None) -> str:
    """The stdout of ``code`` run in a fresh interpreter importing this checkout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", **(env or {})}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_every_traced_module_and_not_the_suites():
    # spans.py is executed from its source, so nothing is written under perfbench/
    out = _python(f"""
        import sys, types
        import cstar_schur.cli
        spans = types.ModuleType("perfbench_spans")
        exec(compile(open({str(SPANS)!r}).read(), {str(SPANS)!r}, "exec"), spans.__dict__)
        targets = [*spans.FUNCTION_TARGETS.values(), *spans.METHOD_TARGETS.values()]
        targets += spans.generate_targets().values()
        missing = sorted({{t[0] for t in targets}} - set(sys.modules))
        print(missing, len(spans.generate_targets()) > 0, "cstar_schur.suites" in sys.modules)
    """)
    assert out.split() == ["[]", "True", "False"]


def test_package_exports_the_suite_names_lazily():
    out = _python("""
        import sys
        import cstar_schur
        print("cstar_schur.suites" in sys.modules)
        values = {name: getattr(cstar_schur, name) for name in cstar_schur._SUITE_NAMES}
        suites = sys.modules["cstar_schur.suites"]
        print(len(values) > 0 and all(v is getattr(suites, k) for k, v in values.items()))
    """)
    assert out.split() == ["False", "True"]


def test_search_and_from_witness_leave_the_suites_unimported(tmp_path):
    out = _python(f"""
        import contextlib, io, sys
        from pathlib import Path
        from cstar_schur.cli import main
        wdir = Path({str(tmp_path)!r}) / "wit"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["search", "--shape", "2", "--n", "2", "--trials", "50",
                         "--witness-dir", str(wdir)]) == 0
            witness = str(next(wdir.glob("*.json")))
            report = str(wdir / "r.json")
            assert main(["verify", "--from-witness", witness, "--json", report]) == 0
        print("cstar_schur.suites" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--suite", "module", "--trials", "1"]) == 0
        print("cstar_schur.suites" in sys.modules)
    """)
    assert out.split() == ["False", "True"]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_search_chunks_reuse_heap_memory_with_a_bytecode_cache(tmp_path):
    # An installed copy imports from a bytecode cache, so no compile frees the
    # large block that would raise glibc's dynamic mmap threshold; without a
    # fixed heap policy every 128 KiB chunk stack is then a fresh mapping,
    # about 16 000 minor faults per 2 000-trial search_miss pass.
    env = {"PYTHONPYCACHEPREFIX": str(tmp_path / "pycache"), "PYTHONDONTWRITEBYTECODE": ""}
    _python("import cstar_schur.cli, cstar_schur.suites", env)
    out = _python("""
        import contextlib, io, os, resource
        from cstar_schur.cli import main

        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        argv = ["search", "--shape", "2", "--n", "8", "--trials", "500", "--json", os.devnull]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            before = faults()
            assert main(argv) == 0
        print(faults() - before)
    """, env)
    assert int(out) < 1000


def test_cli_import_leaves_numpy_random_to_the_first_draw():
    # numpy.random costs a process about 10 ms and 6 MB; a command that draws
    # nothing should not pay for it
    out = _python("""
        import contextlib, io, sys
        from cstar_schur.cli import main
        print("numpy.random" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["search", "--shape", "2", "--n", "2", "--trials", "5"]) == 0
        print("numpy.random" in sys.modules)
    """)
    assert out.split() == ["False", "True"]


def test_the_package_imports_no_scipy_and_depends_on_numpy_alone():
    # the CLI runs of test_cli_runs_never_import_scipy sample routes; this
    # reads every import statement, lazy ones included
    imports = []
    for path in sorted((ROOT / "src" / "cstar_schur").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.name, node.module))
    assert imports and not [i for i in imports if i[1].split(".")[0] == "scipy"]
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the stdlib from Python 3.11")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]

    def names(requirements):
        return [re.match(r"[\w.-]+", r).group().lower() for r in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])
