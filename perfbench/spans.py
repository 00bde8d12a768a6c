"""Span recording around the calls into each ``cstar_schur`` layer.

The wrappers are installed from outside the package: each traced function is
replaced by a wrapper in every ``cstar_schur.*`` module namespace that holds
it (the package imports functions by name, so ``_spectral_norm`` alone lives
in four modules), and ``uninstall`` puts every original object back.
Spans are kept in memory as parallel lists and written out once, at the end.
The recorder assumes one thread: the benchmark always runs ``--threads 1``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# The search-hit witnesses are built by this method, not by a module function.
METHOD_TARGETS = {"amatrix.to_json": ("cstar_schur.amatrix", "AMatrix", "to_json")}

FUNCTION_TARGETS = {
    "cli.main": ("cstar_schur.cli", "main"),
    "cli.emit_json": ("cstar_schur.cli", "_emit_json"),
    "verify.run_suites": ("cstar_schur.verify", "run_suites"),
    "verify.run_suite": ("cstar_schur.verify", "run_suite"),
    "verify.counterexample_search": ("cstar_schur.verify", "counterexample_search"),
    "amatrix.schur_product": ("cstar_schur.amatrix", "schur_product"),
    "amatrix.psd_check": ("cstar_schur.amatrix", "psd_check"),
    "amatrix.cholesky_psd_check": ("cstar_schur.amatrix", "cholesky_psd_check"),
    "algebra.spectral_norm": ("cstar_schur.algebra", "_spectral_norm"),
    "calculus.elem_exp": ("cstar_schur.calculus", "elem_exp"),
    "calculus.elem_cos": ("cstar_schur.calculus", "elem_cos"),
    "calculus.elem_sin": ("cstar_schur.calculus", "elem_sin"),
    "module_an.inner_product": ("cstar_schur.module_an", "inner_product"),
}

# Leaf layers whose calls and self time are reported under their span name.
LAYER_SPANS = (
    "amatrix.schur_product",
    "amatrix.psd_check",
    "amatrix.cholesky_psd_check",
    "amatrix.to_json",
    "algebra.spectral_norm",
    "calculus.elem_exp",
    "module_an.inner_product",
    "cli.emit_json",
)
CALL_ONLY_SPANS = ("calculus.elem_cos", "calculus.elem_sin")
VERIFY_SPANS = ("verify.run_suites", "verify.run_suite", "verify.counterexample_search")


def generate_targets() -> dict[str, tuple[str, str]]:
    """Every ``random_*`` entry point of ``generate`` plus ``haar_unitary``."""
    gen = sys.modules["cstar_schur.generate"]
    names = sorted(
        n for n, v in vars(gen).items() if n.startswith("random_") and callable(v)
    )
    return {f"generate.{n}": ("cstar_schur.generate", n) for n in names + ["haar_unitary"]}


def package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "cstar_schur" or name.startswith("cstar_schur."))
    ]


class Recorder:
    """In-memory spans: name, start, end, parent index and command id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.commands: list[int] = []
        self.counts: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.commands.append(self.command)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        rows = [
            [index[n], s, e, p, c]
            for n, s, e, p, c in zip(
                self.names, self.starts, self.ends, self.parents, self.commands
            )
        ]
        with open(path, "w") as fh:
            json.dump({"names": table, "spans": rows, "counts": dict(self.counts)}, fh,
                      separators=(",", ":"))


def _count_psd(rec, args, result):
    rec.counts["eigensolves"] += len(args[0].blocks)


def _count_search(rec, args, result):
    rec.counts["trials"] += result.trials
    rec.counts["violations"] += result.failures


def _count_suite(rec, args, result):
    for r in result:
        rec.counts["trials"] += r.trials
        rec.counts["violations"] += r.failures


def _count_json(rec, args, result):
    rec.counts["json_bytes"] += os.path.getsize(args[1])


# Counters taken at the same boundaries as the spans, after the span closes.
# run_suites is not counted: its reports are the run_suite reports again.
COUNTERS = {
    "amatrix.psd_check": _count_psd,
    "verify.counterexample_search": _count_search,
    "verify.run_suite": _count_suite,
    "cli.emit_json": _count_json,
}


def _wrap(rec: Recorder, span: str, fn):
    counter = COUNTERS.get(span)
    suite_span = span == "verify.run_suite"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = f"verify.suite.{args[0]}" if suite_span else span
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            counter(rec, args, result)
        return result

    return wrapper


class Tracer:
    """Installs span wrappers into the imported ``cstar_schur`` modules."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("wrappers are already installed")
        modules = package_modules()
        targets = {**FUNCTION_TARGETS, **generate_targets()}
        for span, (modname, attr) in targets.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = _wrap(self.rec, span, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapper)
        for span, (modname, cls_name, attr) in METHOD_TARGETS.items():
            cls = getattr(sys.modules[modname], cls_name)
            self._set(cls, attr, _wrap(self.rec, span, vars(cls)[attr]))

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, orig = self._restore.pop()
            setattr(owner, name, orig)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged, so overlapping or
    overhanging children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def layer_metrics(rec: Recorder, suites) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    own = self_times(rec.starts, rec.ends, rec.parents)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    incl: Counter = Counter()
    for name, s, e, t in zip(rec.names, rec.starts, rec.ends, own):
        calls[name] += 1
        self_s[name] += t
        incl[name] += e - s
    gen = [n for n in calls if n.startswith("generate.")]
    out = {
        "generate.calls": sum(calls[n] for n in gen),
        "generate.self_s": sum(self_s[n] for n in gen),
    }
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in CALL_ONLY_SPANS:
        out[f"{name}.calls"] = calls[name]
    out["amatrix.psd_check.eigensolves"] = rec.counts["eigensolves"]
    for suite in suites:
        out[f"verify.suite.{suite}.s"] = incl[f"verify.suite.{suite}"]
    out["verify.self_s"] = sum(self_s[n] for n in VERIFY_SPANS) + sum(
        self_s[f"verify.suite.{s}"] for s in suites
    )
    trials, violations = rec.counts["trials"], rec.counts["violations"]
    out["verify.trials"] = trials
    out["verify.violations"] = violations
    out["verify.violation_ratio"] = violations / trials if trials else 0.0
    out["cli.json_bytes"] = rec.counts["json_bytes"]
    return out
