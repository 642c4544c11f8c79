"""Span recorder that times realmask's public functions from outside.

`Tracer.install` replaces each target function in every `realmask` module
namespace that binds it (so `derive_seed` is wrapped in `measure`,
`estimate`, `experiments` and the package itself) and `uninstall` puts the
originals back.  The program's source is never touched: the wrappers see a
call exactly when another module looks the name up at call time, which is how
every call inside realmask is written.

Spans are kept in memory as [name, start, end, parent, op] lists and written
out once, at the end of a run.  A span's self time is its duration minus the
time its direct child spans cover; calls run on one thread, so children never
overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path


def _batch_size(args, _result) -> int:
    counts = args[0]
    return int(counts.shape[0]) if getattr(counts, "ndim", 0) == 3 else 1


def _text_bytes(args, _result) -> int:
    return len(args[0].encode())


def _files_bytes(_args, result) -> int:
    return sum(Path(p).stat().st_size for p in result) if result else 0


# (module, function, amount name, amount function).  The amount function sees
# the call's positional arguments and its result (None when the call raised).
TARGETS = (
    ("qcore", "partial_trace", None, None),
    ("masker", "mask_pure", None, None),
    ("walk", "run_masking_walk", None, None),
    ("optics", "simulate_masking", None, None),
    ("optics", "solve_prep_angles", None, None),
    ("measure", "derive_seed", None, None),
    ("measure", "generator", None, None),
    ("measure", "sample_counts", None, None),
    ("measure", "poisson_resample", None, None),
    ("measure", "tables_from_csv", "bytes", _text_bytes),
    ("estimate", "qsv_run", None, None),
    ("estimate", "mle_qubit_batch", "items", _batch_size),
    ("estimate", "purity_from_counts", None, None),
    ("estimate", "bootstrap_std", None, None),
    ("estimate", "decode_real_state", None, None),
    ("experiments", "run_fig3", None, None),
    ("experiments", "run_fig4", None, None),
    ("experiments", "run_fig5", None, None),
    ("experiments", "run_equivalence", None, None),
    ("experiments", "write_report", "bytes", _files_bytes),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.amounts: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._wrappers: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, amount):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if amount is not None:
                    self.amounts[name] = self.amounts.get(name, 0) + amount(args, result)

        return traced

    def install(self) -> None:
        """Bind a wrapper in place of each target in every realmask namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "realmask" or n.startswith("realmask.")]
        for mod_name, fn_name, _kind, amount in TARGETS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(importlib.import_module(f"realmask.{mod_name}"), fn_name)
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, original, amount)
            wrapper = self._wrappers[name]
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def bindings(self) -> dict[str, list[str]]:
        """Module namespaces each wrapper was bound into (while installed)."""
        out: dict[str, list[str]] = {}
        for mod, _attr, original in self._patched:
            name = f"{original.__module__.removeprefix('realmask.')}.{original.__name__}"
            out.setdefault(name, []).append(mod.__name__)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, busy_s, self_s and its amount (items or bytes).

        busy_s counts only spans with no enclosing span of the same name, so
        a function that reaches itself again is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _op) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec["busy_s"] += end - start
        for name, value in self.amounts.items():
            kind = next(k for m, f, k, _ in TARGETS if f"{m}.{f}" == name)
            out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})[kind] = value
        return out

    def write(self, path: Path, t0: float) -> None:
        """Dump every span, times in seconds from `t0`, as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[n], round(a - t0, 7), round(b - t0, 7), parent, op]
            for n, a, b, parent, op in self.spans
        ]
        doc = {"names": names, "columns": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
