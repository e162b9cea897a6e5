"""Span tracing from outside the program, and the per-module metrics.

The tracer replaces a function by a timing wrapper under the name its callers
look up at call time: a module attribute (``fock.bar``), a name another module
imported with ``from .x import y`` (``cli.canonical_upper``), or the kernel
behind ``wedge._kernel``.  Nothing under ``src/`` changes; ``uninstall`` puts
every original back.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``value`` a per-call quantity (words
returned by the kernel, bytes a cache call read or wrote).  A span's self
time is its duration minus the durations of its direct children.

Laurent arithmetic and ``symfunc`` are not wrapped: a wrapper per call would
cost more than the calls.  Their time shows in the callers' self time.
"""

from __future__ import annotations

import os
from time import perf_counter

def _words_out(args, kwargs, result):
    return len(result)


def _stored_bytes(args, kwargs, result):
    return os.path.getsize(result)


def patch_table(prog):
    """Every wrapped call site, by the module whose namespace the caller reads,
    as (module, attribute, span name, value function or None).  A value
    function gets (args, kwargs, result) and runs after the span has ended."""
    w, f, c, p, mio, cli, v = (
        prog.wedge, prog.fock, prog.canonical, prog.partitions,
        prog.matrixio, prog.cli, prog.verify,
    )

    def loaded_bytes(args, kwargs, result):
        return os.path.getsize(mio.cache_path(*args[:4]))

    table = [
        (w._kernel, "straighten_terms", "kernel", _words_out),
        (w, "_straighten_minimal", "wedge.lookup", None),
        (w, "bar_basis", "wedge.bar_basis", None),
        (w, "b_action_words", "wedge.b_action_words", None),
        (f, "bar", "fock.bar", None),
        (c, "_canonical_basis", "canonical.solve", None),
        (mio, "cache_store", "matrixio.store", _stored_bytes),
        (mio, "cache_load", "matrixio.load", loaded_bytes),
        (mio, "render", "matrixio.render", None),
        (cli, "main", "cli", None),
        (v, "run_suite", "verify.suite", None),
    ]
    for name in ("f_action", "e_action", "b_action", "v_op", "u_op", "s_alpha", "psi_q"):
        table.append((f, name, "fock.ops", None))
    for name in ("v_op_via_heisenberg", "s_alpha_via_characters"):
        table.append((f, name, "fock.oracle", None))
    for mod in (f, v):
        table.append((mod, "ribbon_strips_above", "partitions.strips", None))
    table.append((f, "ribbon_strips_below", "partitions.strips", None))
    for name in ("add_node_variants", "remove_node_variants"):
        table.append((f, name, "partitions.nodes", None))
    table.append((c, "yamanouchi_domino_tableaux", "partitions.dominoes", None))
    for mod in (cli, v):
        table.append((mod, "a_matrix", "canonical.a_matrix", None))
        table.append((mod, "adjoint_matrix", "canonical.adjoint", None))
    for mod in (cli, v, c):
        table.append((mod, "canonical_upper", "canonical.basis", None))
        table.append((mod, "canonical_lower", "canonical.basis", None))
    for name in ("check_duality", "domino_theorem_check", "steinberg_g_minus"):
        table.append((v, name, "canonical.checks", None))
    return table


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._patches: list = []

    def install(self, prog) -> None:
        for module, attr, name, value_fn in patch_table(prog):
            orig = getattr(module, attr)
            if name == "verify.suite":
                wrapper = self._suite_wrapper(orig)
            else:
                wrapper = self._wrapper(orig, name, value_fn)
            setattr(module, attr, wrapper)
            self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def _wrapper(self, orig, name, value_fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if value_fn is not None and result is not None:
                    span[4] = value_fn(args, kwargs, result)

        return traced

    def _suite_wrapper(self, orig):
        # One span name per suite, so each suite's time is reported apart.
        def traced(name, *args, **kwargs):
            return self._wrapper(orig, f"verify.suite.{name}", None)(name, *args, **kwargs)

        return traced

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "value"],
            "spans": self.spans,
        }


class Profile:
    """Calls, inclusive time, self time and summed values by span name."""

    def __init__(self, spans):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.value: dict[str, int] = {}
        self.bar_calls_in_solve = 0
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "fock.bar" and spans[parent][0] == "canonical.solve":
                    self.bar_calls_in_solve += 1
        self.top_level_s = 0.0
        for i, (name, start, end, parent, value) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            self.value[name] = self.value.get(name, 0) + value
            if parent < 0:
                self.top_level_s += dur

    def module_self(self, module: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.split(".")[0] == module)


MODULES = ("kernel", "wedge", "fock", "canonical", "partitions", "matrixio", "cli", "verify")
SUITES = ("involution", "heisenberg", "ribbon", "steinberg", "domino", "uqsl")

# Metrics that are counts of work: they must repeat exactly between traced
# passes and between traced runs of one seed.
COUNT_METRICS = (
    "kernel.calls", "kernel.words_out", "wedge.lookups", "wedge.bar_basis.calls",
    "wedge.b_action_words.calls", "fock.bar.calls", "fock.ops.calls",
    "fock.oracle.calls", "canonical.solve.bar_calls", "matrixio.store.calls",
    "matrixio.store.bytes", "matrixio.load.calls", "matrixio.load.bytes",
    "cli.requests", "verify.suites", "trace.spans",
)


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-module metrics of one traced pass that took wall_s seconds."""
    p = Profile(spans)
    calls, self_s = p.calls, p.self_s
    kernel_calls = calls.get("kernel", 0)
    lookups = calls.get("wedge.lookup", 0)
    out = {
        "kernel.calls": kernel_calls,
        "kernel.words_out": p.value.get("kernel", 0),
        "kernel.busy_s": p.busy.get("kernel", 0.0),
        "kernel.share": p.busy.get("kernel", 0.0) / wall_s,
        "wedge.lookups": lookups,
        "wedge.memo_hit_ratio": 1.0 - kernel_calls / lookups if lookups else 0.0,
        "wedge.bar_basis.calls": calls.get("wedge.bar_basis", 0),
        "wedge.bar_basis.self_s": self_s.get("wedge.bar_basis", 0.0),
        "wedge.b_action_words.calls": calls.get("wedge.b_action_words", 0),
        "wedge.b_action_words.self_s": self_s.get("wedge.b_action_words", 0.0),
        "fock.bar.calls": calls.get("fock.bar", 0),
        "fock.bar.self_s": self_s.get("fock.bar", 0.0),
        "fock.ops.calls": calls.get("fock.ops", 0),
        "fock.ops.self_s": self_s.get("fock.ops", 0.0),
        "fock.oracle.calls": calls.get("fock.oracle", 0),
        "fock.oracle.self_s": self_s.get("fock.oracle", 0.0),
        "canonical.a_matrix.self_s": self_s.get("canonical.a_matrix", 0.0),
        "canonical.solve.self_s": self_s.get("canonical.solve", 0.0),
        "canonical.solve.bar_calls": p.bar_calls_in_solve,
        "canonical.adjoint.self_s": self_s.get("canonical.adjoint", 0.0),
        "partitions.strips.self_s": self_s.get("partitions.strips", 0.0),
        "partitions.nodes.self_s": self_s.get("partitions.nodes", 0.0),
        "partitions.dominoes.self_s": self_s.get("partitions.dominoes", 0.0),
        "matrixio.store.calls": calls.get("matrixio.store", 0),
        "matrixio.store.bytes": p.value.get("matrixio.store", 0),
        "matrixio.store.busy_s": p.busy.get("matrixio.store", 0.0),
        "matrixio.load.calls": calls.get("matrixio.load", 0),
        "matrixio.load.bytes": p.value.get("matrixio.load", 0),
        "matrixio.load.busy_s": p.busy.get("matrixio.load", 0.0),
        "matrixio.render.busy_s": p.busy.get("matrixio.render", 0.0),
        "cli.requests": calls.get("cli", 0),
        "verify.suites": sum(n for name, n in calls.items() if name.startswith("verify.suite.")),
    }
    for suite in SUITES:
        out[f"verify.suite_s.{suite}"] = p.busy.get(f"verify.suite.{suite}", 0.0)
    for module in MODULES:
        out[f"{module}.self_s"] = p.module_self(module)
    # Harness time outside every wrapped call: request set-up, stdout capture.
    out["bench.self_s"] = wall_s - p.top_level_s
    out["trace.spans"] = len(spans)
    return out
