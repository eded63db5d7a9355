"""Span tracer: host time per simulator layer, from the benchmark's side.

The benchmark wraps the public entry points of each layer's classes —
layers are named after the modules — and every call through a wrapper
is a *span* (layer, start, end, parent).  Spans are folded into totals
as they close, so a traced pass holds O(layers) state however many
events it runs:

* a layer's *self time* is the time inside its spans minus the time of
  the child spans they contain;
* every wrapped entry point (a *site*) keeps its call count and its
  inclusive time, for metrics like ``htm.vm.commit_s``;
* counters are taken at the same boundaries (workload ops, L1 hits,
  conflicts, cache hits, result bytes).

A span costs host time.  :func:`calibrate` measures the cost of an
empty span, split into the part that lands inside the span and the part
that lands in its parent; each closing span takes the first part off its
own self time and the second off its parent's, and :func:`layer_report`
bills both to ``tracing.self_s`` instead.

Targets are resolved by name.  A target that no longer exists — a layer
was refactored or deleted — is listed in :attr:`Recorder.missing` and
skipped, never a crash.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import time
from pathlib import Path
from typing import Any, Callable

#: the program's layers, in report order
LAYERS = (
    "kernel", "simulator", "workloads", "mem", "htm.vm", "htm.policy",
    "htm.tx", "signatures", "trace", "runner",
)

#: (layer, module, class, methods).  ``"*"`` wraps every public method
#: the class defines, ``"+"`` every public method of the class and of
#: each loaded subclass (the concrete schemes and policies).
TARGETS: tuple[tuple[str, str, str, Any], ...] = (
    ("kernel", "repro.sim.kernel", "EventQueue", ("run", "step", "at")),
    ("simulator", "repro.simulator", "Simulator", (
        "__init__", "run",
        # simulator mechanics that resolution policies call back into:
        # billed to the simulator, not to the policy that asked
        "_stall_on", "_doom", "_begin_abort", "_wait_cycle", "_youngest",
        "_resume_retry",
    )),
    ("workloads", "repro.workloads.base", "Program", ("verify",)),
    ("mem", "repro.mem.hierarchy", "MemoryHierarchy", "*"),
    ("mem", "repro.mem.memory", "MainMemory", "*"),
    # the package import loads every bundled scheme, so "+" sees them
    ("htm.vm", "repro.htm.vm", "VersionManager", "+"),
    ("htm.policy", "repro.htm.policy", "ConflictResolution", "+"),
    ("htm.policy", "repro.htm.policy", "CommitArbitration", "+"),
    ("htm.policy", "repro.htm.backoff", "BackoffPolicy", ("delay",)),
    ("htm.tx", "repro.htm.transaction", "TxFrame", "*"),
    ("signatures", "repro.signatures.hashes", "H3HashFamily", ("mask", "indexes")),
    ("signatures", "repro.signatures.bloom", "BloomSignature", "*"),
    ("signatures", "repro.signatures.bloom", "CountingSummarySignature", "*"),
    ("trace", "repro.trace", "Tracer", "*"),
    ("runner", "repro.runner.cache", "ResultCache", ("get", "put")),
    ("runner", "repro.simulator", "SimResult", ("from_json",)),
)

#: event-queue entry points whose callback argument is wrapped in a
#: ``simulator`` span: event callbacks are billed to the simulator
SCHEDULE_METHODS = ("schedule", "schedule_fast")

#: memory-hierarchy accesses whose ``AccessResult.l1_hit`` is counted
L1_ACCESSES = ("read", "write", "local_write", "allocate_write")

#: runner metric -> the site whose inclusive time it reports
RUNNER_SITES = {
    "cache_get": "ResultCache.get",
    "cache_put": "ResultCache.put",
    "decode": "SimResult.from_json",
    "pool_wait": "pool_wait",
}


class _Layer:
    __slots__ = ("self_s", "calls")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0


class _Site:
    __slots__ = ("layer", "incl_s", "calls")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.incl_s = 0.0
        self.calls = 0


class Recorder:
    """Span totals for one process, plus the patches that feed them.

    ``span_cost`` is ``(inside, outside)`` from :func:`calibrate`; the
    zero default keeps raw span times.
    """

    def __init__(self, span_cost: tuple[float, float] = (0.0, 0.0)) -> None:
        #: child time accumulated by each open span, innermost last
        self.stack: list[float] = []
        self.layers: dict[str, _Layer] = {}
        self.sites: dict[str, _Site] = {}
        self.counts: dict[str, int] = {}
        self.span_in, self.span_out = span_cost
        #: targets that could not be resolved, as ``module:name``
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.pid = os.getpid()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- spans ------------------------------------------------------------
    def spanner(self, layer_name: str, site_name: str) -> Callable[[Callable], Callable]:
        """A function that wraps callables so each call is one span."""
        layer = self.layers.get(layer_name)
        if layer is None:
            layer = self.layers[layer_name] = _Layer()
        site = self.sites.get(site_name)
        if site is None:
            site = self.sites[site_name] = _Site(layer_name)
        stack = self.stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        span_in, span_out = self.span_in, self.span_out

        def wrap(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                push(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    layer.self_s += dt - pop() - span_in
                    layer.calls += 1
                    site.incl_s += dt
                    site.calls += 1
                    if stack:
                        stack[-1] += dt + span_out

            return traced

        return wrap

    def span(self, layer_name: str, site_name: str, fn: Callable) -> Callable:
        return self.spanner(layer_name, site_name)(fn)

    # -- patching ---------------------------------------------------------
    def install(self) -> "Recorder":
        """Patch every target; :meth:`uninstall` undoes it."""
        for layer, module, cls_name, methods in TARGETS:
            cls = self._resolve(module, cls_name)
            if cls is None:
                continue
            if isinstance(methods, tuple):
                for name in methods:
                    if name in cls.__dict__:
                        self._wrap_method(layer, cls, name)
                    else:
                        self.missing.append(f"{module}:{cls_name}.{name}")
                continue
            for klass in _with_subclasses(cls) if methods == "+" else [cls]:
                for name in _public_methods(klass):
                    self._wrap_method(layer, klass, name)
        self._install_schedule()
        self._install_workloads()
        self._install_pool_wait()
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def _import(self, module: str) -> Any:
        try:
            return importlib.import_module(module)
        except ImportError:
            self.missing.append(module)
            return None

    def _resolve(self, module: str, attr: str) -> Any:
        found = getattr(self._import(module), attr, None)
        if found is None:
            self.missing.append(f"{module}:{attr}")
        return found

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _wrap_method(self, layer: str, cls: type, name: str) -> None:
        raw = cls.__dict__[name]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        traced = self.span(layer, f"{cls.__name__}.{name}",
                           raw.__func__ if kind is not None else raw)
        observe = self._observer(layer, cls.__name__, name)
        if observe is not None:
            traced = _observed(traced, observe)
        self._patch(cls, name, kind(traced) if kind is not None else traced)

    def _observer(self, layer: str, cls_name: str, name: str) -> Callable | None:
        """The counter taken at this boundary, if any."""
        count = self.count
        if cls_name == "MemoryHierarchy" and name in L1_ACCESSES:
            def l1(result: Any, _args: tuple) -> None:
                count("mem.accesses")
                if result.l1_hit:
                    count("mem.l1_hits")
            return l1
        if layer == "htm.policy" and name == "resolve":
            return lambda _result, _args: count("htm.policy.conflicts")
        if cls_name == "ResultCache" and name == "get":
            def hit(result: Any, _args: tuple) -> None:
                count("runner.cache_gets")
                if result is not None:
                    count("runner.cache_hits")
            return hit
        if cls_name == "SimResult" and name == "from_json":
            def size(_result: Any, args: tuple) -> None:
                count("runner.decodes")
                count("runner.result_bytes", len(args[-1]))
            return size
        return None

    def _install_schedule(self) -> None:
        queue_cls = self._resolve("repro.sim.kernel", "EventQueue")
        if queue_cls is None:
            return
        event = self.spanner("simulator", "event")
        for name in SCHEDULE_METHODS:
            if name not in queue_cls.__dict__:
                self.missing.append(f"repro.sim.kernel:EventQueue.{name}")
                continue
            kernel = self.span("kernel", f"EventQueue.{name}", queue_cls.__dict__[name])

            def schedule(queue: Any, delay: int, fn: Callable, _kernel=kernel) -> Any:
                return _kernel(queue, delay, event(fn))

            self._patch(queue_cls, name, schedule)

    def _install_workloads(self) -> None:
        package = self._import("repro.workloads")
        original = self._resolve("repro.workloads", "make_workload")
        if original is None:
            return
        ops = self._import("repro.htm.ops")
        tx_types = tuple(
            getattr(ops, name) for name in ("Tx", "OpenTx") if hasattr(ops, name)
        )
        make = self.span("workloads", "make_workload", original)
        step = self.spanner("workloads", "generator.send")

        def factory(body: Callable) -> Callable:
            return lambda: _TracedGen(self, step(body().send), factory, tx_types)

        def make_workload(*args: Any, **kwargs: Any) -> Any:
            program = make(*args, **kwargs)
            # a copy: some factories memoize their Programs process-wide
            return dataclasses.replace(
                program, threads=[factory(t) for t in program.threads]
            )

        self._patch(package, "make_workload", make_workload)

    def _install_pool_wait(self) -> None:
        original = self._resolve("repro.runner.executor", "as_completed")
        if original is None:
            return
        # time blocked on workers: a wait, not runner work, so it stays
        # out of the runner's self time and of every share
        wait = self.spanner("wait", "pool_wait")

        def as_completed(*args: Any, **kwargs: Any) -> Any:
            yield from _iterate(wait(original(*args, **kwargs).__next__))

        self._patch(self._import("repro.runner.executor"), "as_completed", as_completed)

    # -- totals -----------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The totals as plain data (what a pool worker hands back)."""
        return {
            "layers": {k: [v.self_s, v.calls] for k, v in self.layers.items()},
            "sites": {k: [v.layer, v.incl_s, v.calls] for k, v in self.sites.items()},
            "counts": dict(self.counts),
        }

    def merge(self, snap: dict[str, Any]) -> None:
        """Add another process's :meth:`snapshot` to these totals."""
        for name, (self_s, calls) in snap["layers"].items():
            layer = self.layers.setdefault(name, _Layer())
            layer.self_s += self_s
            layer.calls += calls
        for name, (layer_name, incl_s, calls) in snap["sites"].items():
            site = self.sites.setdefault(name, _Site(layer_name))
            site.incl_s += incl_s
            site.calls += calls
        for key, n in snap["counts"].items():
            self.count(key, n)

    def reset(self) -> None:
        """Zero the totals in place (the wrappers hold references)."""
        del self.stack[:]
        for layer in self.layers.values():
            layer.self_s, layer.calls = 0.0, 0
        for site in self.sites.values():
            site.incl_s, site.calls = 0.0, 0
        self.counts.clear()
        self.pid = os.getpid()


def _observed(traced: Callable, observe: Callable[[Any, tuple], None]) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = traced(*args, **kwargs)
        observe(result, args)
        return result

    return wrapper


def _iterate(next_item: Callable[[], Any]) -> Any:
    while True:
        try:
            yield next_item()
        except StopIteration:
            return


class _TracedGen:
    """A thread or transaction-body generator whose steps are spans.

    The simulator drives it through ``next``/``send`` exactly like the
    generator it wraps.  Yielded ``Tx``/``OpenTx`` ops come back with
    their body factories wrapped too, so re-executions stay traced.
    """

    __slots__ = ("_send", "_rec", "_factory", "_tx_types")

    def __init__(self, rec: Recorder, send: Callable, factory: Callable,
                 tx_types: tuple[type, ...]) -> None:
        self._send = send
        self._rec = rec
        self._factory = factory
        self._tx_types = tx_types

    def __iter__(self) -> "_TracedGen":
        return self

    def __next__(self) -> Any:
        return self._op(self._send(None))

    def send(self, value: Any) -> Any:
        return self._op(self._send(value))

    def _op(self, op: Any) -> Any:
        self._rec.count("workloads.ops")
        if isinstance(op, self._tx_types):
            changes = {"body": self._factory(op.body)}
            if getattr(op, "compensate", None) is not None:
                changes["compensate"] = self._factory(op.compensate)
            op = dataclasses.replace(op, **changes)
        return op


def _public_methods(cls: type) -> list[str]:
    """Public functions (plain, class- or static) that ``cls`` defines."""
    return [
        name for name, raw in vars(cls).items()
        if not name.startswith("_")
        and not isinstance(raw, type)
        and (callable(raw) or isinstance(raw, (classmethod, staticmethod)))
    ]


def _with_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in out:
            out.append(klass)
            todo.extend(klass.__subclasses__())
    return out


def calibrate() -> tuple[float, float]:
    """Seconds one empty span adds ``(inside it, outside it)``.

    Times ``n`` calls of an empty function bare and through a span (the
    latter inside a root span); the smallest of five estimates is kept,
    as for any fixed cost timed on a noisy host.
    """
    n = 50_000
    def empty() -> None:
        pass

    def bare_loop() -> None:
        for _ in range(n):
            pass

    def plain_loop() -> None:
        for _ in range(n):
            empty()

    clock = time.perf_counter
    best_in = best_out = float("inf")
    for _ in range(5):
        rec = Recorder()
        child = rec.span("child", "child", empty)

        def traced_loop() -> None:
            for _ in range(n):
                child()

        rec.span("root", "root", traced_loop)()
        t0 = clock()
        bare_loop()
        bare = clock() - t0
        t0 = clock()
        plain_loop()
        call = (clock() - t0 - bare) / n
        best_in = min(best_in, rec.sites["child"].incl_s / n - call)
        best_out = min(best_out, (rec.layers["root"].self_s - bare) / n)
    return max(best_in, 0.0), max(best_out, 0.0)


def layer_report(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics from a recorder's totals.

    ``<layer>.share`` is the layer's self time over the summed self time
    of all program layers; the tracer's own cost (``tracing.self_s``)
    and the benchmark's loop (``bench.self_s``) are left out of it.
    """
    def self_s(name: str) -> float:
        return rec.layers[name].self_s if name in rec.layers else 0.0

    def calls(name: str) -> int:
        return rec.layers[name].calls if name in rec.layers else 0

    def inclusive(layer: str, method: str) -> float:
        return sum(
            site.incl_s for name, site in rec.sites.items()
            if site.layer == layer and name.endswith("." + method)
        )

    def site_s(name: str) -> float:
        return rec.sites[name].incl_s if name in rec.sites else 0.0

    def ratio(num: str, den: str) -> float:
        d = rec.counts.get(den, 0)
        return rec.counts.get(num, 0) / d if d else 0.0

    program = sum(self_s(name) for name in LAYERS)
    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.share"] = self_s(name) / program if program else 0.0
    spans = sum(layer.calls for layer in rec.layers.values())
    out["tracing.self_s"] = spans * (rec.span_in + rec.span_out)
    out["bench.self_s"] = self_s("bench")
    out["mem.calls"] = calls("mem")
    out["htm.vm.calls"] = calls("htm.vm")
    out["signatures.calls"] = calls("signatures")
    out["htm.vm.commit_s"] = inclusive("htm.vm", "commit")
    out["htm.vm.abort_s"] = inclusive("htm.vm", "abort")
    out["htm.policy.conflicts"] = rec.counts.get("htm.policy.conflicts", 0)
    out["mem.l1_hit_ratio"] = ratio("mem.l1_hits", "mem.accesses")
    out["workloads.ops"] = rec.counts.get("workloads.ops", 0)
    # the runner's parent-side sites, in seconds and as shares of the
    # traced pass; only ``campaign`` reaches them, so elsewhere both are 0
    traced_wall = site_s("pass")
    for metric, site in RUNNER_SITES.items():
        out[f"runner.{metric}_s"] = site_s(site)
        out[f"runner.{metric}_share"] = site_s(site) / traced_wall if traced_wall else 0.0
    out["runner.result_kb"] = ratio("runner.result_bytes", "runner.decodes") / 1024
    out["runner.cache_hit_ratio"] = ratio("runner.cache_hits", "runner.cache_gets")
    return out


# -- pool workers ---------------------------------------------------------
#: the recorder of this process when it serves as a traced pool worker;
#: per-process state by design: each worker reports its own totals
_WORKER: list[Recorder] = []
#: recorders installed with :class:`installed` in this process
_ACTIVE: list[Recorder] = []


def traced_worker(span_dir: str, span_cost: tuple[float, float], spec: Any) -> str:
    """Pool task of a traced campaign pass: run ``spec`` under spans.

    A forked worker inherits the parent's patched classes and recorder
    and zeroes the totals it inherited; a spawned one installs its own.
    After every spec the worker rewrites ``span_dir/worker-<pid>.json``,
    so the parent holds every worker's totals once it holds the last
    result.
    """
    from repro.runner.executor import execute_spec

    if not _WORKER:
        _WORKER.append(_ACTIVE[-1] if _ACTIVE else Recorder(span_cost).install())
    rec = _WORKER[0]
    if rec.pid != os.getpid():
        rec.reset()
    payload = rec.span("bench", "worker", execute_spec)(spec).to_json()
    Path(span_dir, f"worker-{os.getpid()}.json").write_text(json.dumps(rec.snapshot()))
    return payload


class installed:
    """``with installed(rec) as rec:`` — patched inside, restored after."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec

    def __enter__(self) -> Recorder:
        self.rec.install()
        _ACTIVE.append(self.rec)
        return self.rec

    def __exit__(self, *exc: Any) -> None:
        _ACTIVE.remove(self.rec)
        self.rec.uninstall()
