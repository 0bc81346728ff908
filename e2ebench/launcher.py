"""Traced launcher: run the ``repro`` CLI with its layer boundaries wrapped.

Usage::

    PYTHONPATH=src python e2ebench/launcher.py SPANS.json ARGV...

is ``python -m repro ARGV...`` plus a span recorder.  An import hook
wraps each target in :data:`TIMED` and :data:`COUNTED` as soon as the
module defining it has executed, so every later ``from ... import f``
binds the wrapper; bindings taken earlier (import cycles) are rebound
when the outermost import finishes.  Spans (name, start, end, parent)
are kept in memory and written to ``SPANS.json`` when the CLI returns,
together with call counts, a few registry counters and the result of
the wrapping self-check.  Nothing under ``src/`` is modified.

Only the standard library is imported before ``repro``, so the import
time recorded as ``cli.import`` is the program's own.
"""

from __future__ import annotations

import contextvars
import functools
import importlib.machinery
import itertools
import json
import sys
import threading
import time

#: Timed targets: (module, attribute or Class.method, layer metric name).
TIMED = (
    ("repro.runner.executor", "run_one", "runner.run_one"),
    ("repro.runner.cache", "ResultCache.get_payload", "runner.cache.get"),
    ("repro.runner.cache", "ResultCache.put_payload", "runner.cache.put"),
    ("repro.data.synthetic", "MarkovCorpus.sentence_pair",
     "data.sentence_pair"),
    ("repro.data.packing", "SequencePacker.pack", "data.pack"),
    ("repro.trace.bert_trace", "build_iteration_trace",
     "trace.build_iteration_trace"),
    ("repro.trace.kernel_table", "KernelTable.from_kernels",
     "trace.from_kernels"),
    ("repro.trace.parameters", "group_by_layer", "trace.group_by_layer"),
    ("repro.trace.passes", "PassManager.run", "trace.passes.run"),
    ("repro.hw.timing", "kernel_times", "hw.kernel_times"),
    ("repro.profiler.profiler", "profile_trace", "profiler.profile_trace"),
    ("repro.profiler.profiler", "Profile.time_where", "profiler.time_where"),
    ("repro.profiler.breakdown", "summarize", "profiler.summarize"),
    ("repro.grid.engine", "build_grid_trace", "grid.build_grid_trace"),
    ("repro.grid.engine", "profile_grid", "grid.profile_grid"),
    ("repro.serve.app", "App.handle", "serve.handle"),
    ("repro.serve.service", "ProfilingService.profile_payload",
     "serve.profile_payload"),
    ("repro.serve.service", "ProfilingService.perfetto_payload",
     "serve.perfetto_payload"),
    ("repro.serve.service", "ProfilingService.grid_payload",
     "serve.grid_payload"),
    ("repro.serve.service", "ProfilingService.grid_cache_key",
     "serve.grid_cache_key"),
    ("repro.serve.service", "render_json", "serve.render_json"),
    ("repro.obs.timeline_export", "profile_to_chrome_trace",
     "obs.profile_to_chrome_trace"),
)

#: Targets called too often to time (tens of thousands of calls per
#: run): counted only, so their cost stays in the caller's self time.
COUNTED = (
    ("repro.trace.kernel_table", "KernelTable.kernel",
     "trace.kernel_rows_materialized"),
    ("repro.ops.base", "Kernel.__init__", "ops.kernels_constructed"),
)

#: ``code.co_flags`` bit of an ``async def`` function.
CO_COROUTINE = 0x80

#: Span name of time spent executing ``repro.*`` module bodies.
IMPORT_SPAN = "cli.import"

#: Registry counters copied into the dump (``result=`` labelled).
REGISTRY_COUNTERS = ("result_cache.requests", "gemm_memo.lookups")


class Recorder:
    """In-memory spans and counters; ids come from ``itertools.count``,
    whose ``next`` is atomic, so worker threads need no lock."""

    def __init__(self):
        self.names: list[str] = []
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("e2ebench_span", default=-1)
        self.counters: dict[str, itertools.count] = {}

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def timed(self, fn, name: str):
        index = self.name_index(name)
        ids, current, records = self._ids, self._current, self.records
        clock = time.perf_counter

        if fn.__code__.co_flags & CO_COROUTINE:
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid, parent = next(ids), current.get()
                token = current.set(sid)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    records.append((sid, index, start, end, parent))
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = next(ids), current.get()
            token = current.set(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                records.append((sid, index, start, end, parent))
        return wrapper

    def counted(self, fn, name: str):
        counter = self.counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return wrapper

    def count(self, name: str) -> int:
        # next() returns the number of earlier increments.
        return next(self.counters[name]) if name in self.counters else 0

    def span_begin(self) -> tuple:
        sid, parent = next(self._ids), self._current.get()
        return sid, parent, self._current.set(sid), time.perf_counter()

    def span_end(self, begun: tuple, name: str) -> None:
        sid, parent, token, start = begun
        end = time.perf_counter()
        self._current.reset(token)
        self.records.append((sid, self.name_index(name), start, end, parent))


class Wrapper:
    """Installs the wrappers and checks that none is bypassed."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.by_module: dict[str, list[tuple]] = {}
        for kind, table in (("timed", TIMED), ("counted", COUNTED)):
            for module, attr, name in table:
                self.by_module.setdefault(module, []).append(
                    (kind, attr, name))
        #: id(original) -> (original, wrapper), for rebinding stale refs.
        self.originals: dict[int, tuple] = {}
        self.installed: dict[tuple[str, str], object] = {}

    @staticmethod
    def _resolve(module, attr: str) -> tuple:
        """(object holding the target, its name there, the function)."""
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        raw = vars(holder)[leaf]
        if isinstance(raw, (classmethod, staticmethod)):
            return holder, leaf, raw.__func__, type(raw)
        return holder, leaf, raw, None

    def wrap_module(self, module) -> None:
        for kind, attr, name in self.by_module.get(module.__name__, ()):
            holder, leaf, fn, descriptor = self._resolve(module, attr)
            make = (self.recorder.timed if kind == "timed"
                    else self.recorder.counted)
            wrapped = make(fn, name)
            setattr(holder, leaf, descriptor(wrapped) if descriptor
                    else wrapped)
            self.originals[id(fn)] = (fn, wrapped)
            self.installed[(module.__name__, attr)] = wrapped

    def _stale(self):
        """(module, name, wrapper) of every binding to an original."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                entry = self.originals.get(id(value))
                if entry is not None and entry[0] is value:
                    yield module, key, entry[1]

    def rebind_stale(self) -> None:
        for module, key, wrapped in list(self._stale()):
            setattr(module, key, wrapped)

    def check(self) -> tuple[list[str], list[str]]:
        """(stale bindings, targets of loaded modules not wrapped)."""
        stale = [f"{module.__name__}.{key}"
                 for module, key, _ in self._stale()]
        unwrapped = [
            f"{module_name}.{attr}"
            for module_name, targets in self.by_module.items()
            if module_name in sys.modules
            for _, attr, _ in targets
            if self._resolve(sys.modules[module_name], attr)[2]
            is not self.installed.get((module_name, attr))]
        return stale, unwrapped


class ImportHook:
    """Meta-path finder timing ``repro.*`` module bodies and wrapping
    each target module the moment it has executed."""

    def __init__(self, recorder: Recorder, wrapper: Wrapper):
        self.recorder = recorder
        self.wrapper = wrapper
        self.depth = threading.local()

    def find_spec(self, name, path, target=None):
        if name != "repro" and not name.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None \
                or not hasattr(spec.loader, "exec_module"):
            return spec
        run = spec.loader.exec_module
        hook = self

        def exec_module(module):
            depth = getattr(hook.depth, "value", 0)
            hook.depth.value = depth + 1
            begun = hook.recorder.span_begin()
            try:
                run(module)
            finally:
                hook.recorder.span_end(begun, IMPORT_SPAN)
                hook.depth.value = depth
            hook.wrapper.wrap_module(module)
            if depth == 0:
                hook.wrapper.rebind_stale()

        spec.loader.exec_module = exec_module
        return spec


def _registry_counters() -> dict:
    metrics = sys.modules.get("repro.obs.metrics")
    if metrics is None:
        return {}
    snapshot = metrics.get_registry().snapshot()
    return {name: snapshot[name]["series"] for name in REGISTRY_COUNTERS
            if name in snapshot}


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    wrapper = Wrapper(recorder)
    sys.meta_path.insert(0, ImportHook(recorder, wrapper))
    code = 1
    try:
        from repro import cli
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        stale, unwrapped = wrapper.check()
        dump = {
            "names": recorder.names,
            "spans": recorder.records,
            "counts": {name: recorder.count(name)
                       for _, _, name in COUNTED},
            "registry": _registry_counters(),
            "stale": stale,
            "unwrapped": unwrapped,
        }
        with open(out_path, "w") as handle:
            json.dump(dump, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
