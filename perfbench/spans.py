"""Spans and counters around the package's public functions, for a traced run.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper, in
every ``quditcorr`` module namespace that binds it (``eig_sym`` is bound in
both ``linalg`` and ``discord``, ``ptrace_b`` in five modules), and
``uninstall`` puts the originals back. A name that no longer exists keeps
``calls = 0``. Each span records its layer, start, end and parent; spans stay
in memory until ``write_spans``. A layer's self time is its busy time minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

LAYERS = (
    "cli.main",
    "cli.build_parser",
    "matfile.parse_matrix_file",
    "linalg.check_density",
    "linalg.ptrace_a",
    "linalg.ptrace_b",
    "linalg.eig_sym",
    "bloch.bloch_of_subsystem",
    "bloch.bloch_opt",
    "bloch.corrmat_opt",
    "discord.discord_hs",
    "discord.discord_hsa",
    "discord.xi_matrix",
    "discord.purity",
    "states.werner_state",
    "bench.werner_sweep",
)
LAYER_FIELDS = ("calls", "busy_us", "self_us", "errors")
COUNTERS = (
    "bloch.corrmat_opt.elements_read",
    "bloch.corrmat_opt.bytes_read_computed",
    "matfile.parse_matrix_file.bytes",
    "matfile.parse_matrix_file.entries",
    "cli.main.exit_0",
    "cli.main.exit_1",
    "cli.main.exit_2",
    "cli.main.exit_3",
)
COMPLEX_BYTES = 16  # one complex128 element of rho
PACKAGE = "quditcorr"


class Tracer:
    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.busy_ns = [0] * n
        self.self_ns = [0] * n
        self.errors = [0] * n
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.reads_by_dims = {}  # (da, db) -> elements one corrmat_opt call read
        self.spans = []  # (layer index, start ns, end ns, parent span index or -1)
        self._stack = []  # [span index, ns covered by children] per open span
        self._patched = []  # (namespace, attribute, original)

    def install(self) -> None:
        wrapped = {}
        for i, layer in enumerate(LAYERS):
            mod_name, fn_name = layer.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            fn = getattr(module, fn_name, None)
            # An alias of a function already wrapped keeps calls = 0.
            if not callable(fn) or id(fn) in wrapped:
                continue
            wrapped[id(fn)] = (fn, self._wrap(i, fn))
        for name, module in list(sys.modules.items()):
            if module is None or (name != PACKAGE and not name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    setattr(module, attr, wrapped[id(value)][1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, i: int, fn):
        layer = LAYERS[i]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = {
            "bloch.corrmat_opt": self._after_corrmat,
            "matfile.parse_matrix_file": self._after_parse,
            "cli.main": self._after_main,
        }.get(layer)
        counter_cls = None
        if layer == "bloch.corrmat_opt" and "reads" in inspect.signature(fn).parameters:
            counter_cls = getattr(sys.modules[fn.__module__], "ReadCounter", None)

        def wrapper(*args, **kwargs):
            if counter_cls is not None and len(args) < 4 and kwargs.get("reads") is None:
                kwargs["reads"] = counter_cls()
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.errors[i] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[sid] = (i, start, end, parent)
                self.calls[i] += 1
                self.busy_ns[i] += dur
                self.self_ns[i] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if after is not None:
                    after(args, kwargs, result)

        return wrapper

    def _after_corrmat(self, args, kwargs, result):
        reads = kwargs.get("reads")
        if reads is None or result is None:
            return
        self.counters["bloch.corrmat_opt.elements_read"] += reads.count
        self.counters["bloch.corrmat_opt.bytes_read_computed"] += reads.count * COMPLEX_BYTES
        da = args[1] if len(args) > 1 else kwargs.get("da")
        db = args[2] if len(args) > 2 else kwargs.get("db")
        self.reads_by_dims[(da, db)] = reads.count

    def _after_parse(self, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        try:
            self.counters["matfile.parse_matrix_file.bytes"] += os.path.getsize(path)
        except OSError:
            pass
        if result is not None:
            self.counters["matfile.parse_matrix_file.entries"] += result[0].size

    def _after_main(self, args, kwargs, code):
        key = f"cli.main.exit_{code}"
        if key in self.counters:
            self.counters[key] += 1

    def layer_values(self, per: int) -> dict:
        """Every layer field and counter, divided by ``per`` (passes traced)."""
        values = {}
        for i, layer in enumerate(LAYERS):
            values[f"{layer}.calls"] = self.calls[i] / per
            values[f"{layer}.busy_us"] = self.busy_ns[i] / 1e3 / per
            values[f"{layer}.self_us"] = self.self_ns[i] / 1e3 / per
            values[f"{layer}.errors"] = self.errors[i] / per
        for name, count in self.counters.items():
            values[name] = count / per
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,layer,start_ns,end_ns,parent\n")
            for sid, (i, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{LAYERS[i]},{start},{end},{parent}\n")
