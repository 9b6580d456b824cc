"""Instrumentation applied from outside the program.

The Recorder replaces functions of the `ltt` package with wrappers, and
restores them afterwards; nothing under src/ changes. It always groups
calls into *units* of work (a test-time episode, or a pretraining batch)
and times each unit and the optimisation step inside it in process CPU
time. On a shared virtual machine the wall time of a unit also counts time
the host gave the core to other tenants; CPU time leaves that out. With tracing on it wraps
every public function and method of every `ltt` module and keeps one span
per call in memory: (name, start, end, parent span, unit id).

Every `ALLOC_SAMPLE_EVERY`-th traced unit is an allocation sample instead: it
runs under tracemalloc with spans off, because tracemalloc slows an
episode about threefold. Span-derived metrics leave those units out.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
import tracemalloc
from dataclasses import dataclass, field

from .stats import matmul_cost

# called inside every tensor op; a span per call would double the trace
SKIP = frozenset({"tensor.active_tape"})

STEP_OPENER = "encoder.ClipModel.encode_image_batch"
STEP_CLOSER = "optim.AdamW.step"
TAPE_EXIT = "tensor.Tape.__exit__"
ALLOC_SAMPLE_EVERY = 20


@dataclass
class Unit:
    """Times are process CPU time in ns."""
    id: int
    invocation: int
    start: int
    end: int = 0
    step_start: int = 0
    step_end: int = 0
    sampled: bool = False
    alloc_peak: int = 0
    counters: dict = field(default_factory=dict)


@dataclass
class Invocation:
    """Times are wall-clock ns."""
    traced: bool
    start: int
    end: int = 0
    first_unit_start: int = 0
    units: int = 0


def _targets():
    """(name, owner, attr, original) for every public function and method
    defined in an `ltt` module, plus the hook on Tape.__exit__."""
    import ltt
    modules = [importlib.import_module(f"ltt.{m.name}")
               for m in pkgutil.iter_modules(ltt.__path__)]
    out = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj):
                for mname, m in sorted(vars(obj).items()):
                    fn = m.__func__ if isinstance(m, (classmethod, staticmethod)) else m
                    if inspect.isfunction(fn) and (not mname.startswith("_")
                                                   or f"{short}.{obj.__name__}.{mname}" == TAPE_EXIT):
                        out.append((f"{short}.{obj.__name__}.{mname}", obj, mname, m))
    return [t for t in out if t[0] not in SKIP], [ltt, *modules]


class Recorder:
    """Unit timing always; spans, counters and allocation samples when tracing.

    `opener` names the call whose start opens a unit when none is open and
    `closer` the call whose end closes it; for episodes both are
    `ttt.run_episode`. `hooks` maps a name to `fn(args, result)`, run after
    every call of that name.
    """

    def __init__(self, opener: str, closer: str, hooks: dict | None = None):
        self.opener = opener
        self.closer = closer
        self.hooks = dict(hooks or {})
        self.tracing = False
        self.recording = False  # spans on for the current call
        self.units: list[Unit] = []
        self.unit: Unit | None = None
        self.invocations: list[Invocation] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list = []
        self._traced_units = 0

    # -- names --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- invocations ----------------------------------------------------------

    def begin_invocation(self, traced: bool):
        self._install(traced)
        self.invocations.append(Invocation(traced, time.perf_counter_ns()))

    def end_invocation(self):
        inv = self.invocations[-1]
        inv.end = time.perf_counter_ns()
        self._uninstall()
        if self.unit is not None:
            raise RuntimeError(f"unit left open by {self.opener!r}")

    # -- units ----------------------------------------------------------------

    def _open_unit(self):
        inv = self.invocations[-1]
        if inv.units == 0:
            inv.first_unit_start = time.perf_counter_ns()
        unit = Unit(len(self.units), len(self.invocations) - 1, time.process_time_ns())
        inv.units += 1
        if self.tracing:
            self._traced_units += 1
            unit.sampled = self._traced_units % ALLOC_SAMPLE_EVERY == ALLOC_SAMPLE_EVERY // 2
        self.unit = unit
        if unit.sampled:
            self.recording = False
            tracemalloc.start()
        else:
            self.recording = self.tracing

    def _close_unit(self):
        unit = self.unit
        unit.end = time.process_time_ns()
        if unit.sampled:
            unit.alloc_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self.units.append(unit)
        self.unit = None
        self.recording = self.tracing

    def count(self, key: str, value):
        if self.unit is not None:
            c = self.unit.counters
            c[key] = c.get(key, 0) + value

    # -- wrapping ---------------------------------------------------------------

    def _install(self, traced: bool):
        self.tracing = self.recording = traced
        targets, modules = _targets()
        probes = {self.opener, self.closer, STEP_OPENER, STEP_CLOSER, *self.hooks}
        for name, owner, attr, original in targets:
            if not traced and name not in probes:
                continue
            is_method = inspect.isclass(owner)
            fn = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
            wrapped = self._wrap(name, fn, traced)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(wrapped)
            if is_method:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:  # every module that imported the function by name
                for a, v in list(vars(mod).items()):
                    if v is original:
                        self._patched.append((mod, a, original))
                        setattr(mod, a, wrapped)

    def _uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.tracing = self.recording = False

    def _wrap(self, name: str, fn, traced: bool):
        if name == TAPE_EXIT:
            return self._tape_exit(fn)
        inner = self._span(name, fn) if traced else fn
        opens, closes = name == self.opener, name == self.closer
        step_opens, step_closes = name == STEP_OPENER, name == STEP_CLOSER
        hook = self.hooks.get(name)
        if not (opens or closes or step_opens or step_closes or hook):
            return inner
        rec = self

        def probe(*args, **kwargs):
            if opens and rec.unit is None:
                rec._open_unit()
            unit = rec.unit
            if step_opens and unit is not None and not unit.step_start:
                unit.step_start = time.process_time_ns()
            result = inner(*args, **kwargs)
            if step_closes and unit is not None:
                unit.step_end = time.process_time_ns()
            if hook is not None:
                hook(args, result)
            if closes and rec.unit is not None:
                rec._close_unit()
            return result

        return probe

    def _span(self, name: str, fn):
        rec = self
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        nid = self.name_id(name)
        if name == "tensor.matmul":
            def extra(args):
                a, b = args[0], args[1]
                flops, nbytes = matmul_cost(a.shape, b.shape, a.data.itemsize)
                rec.count("tensor.matmul.flop", flops)
                rec.count("tensor.matmul.bytes", nbytes)
                return nid
        elif name == STEP_OPENER:
            from ltt.tensor import active_tape
            taped, nograd = self.name_id(name + "#taped"), self.name_id(name + "#nograd")

            def extra(args):
                rec.count("encoder.encode_image_batch.rows", len(args[1]))
                return taped if active_tape() is not None else nograd
        else:
            extra = None

        def span(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            sid = nid if extra is None else extra(args)
            parent = stack[-1] if stack else -1
            unit = rec.unit.id if rec.unit is not None else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent, unit)

        return span

    def _tape_exit(self, fn):
        rec = self

        def tape_exit(tape, *exc):
            if rec.recording:
                rec.count("tensor.tape_nodes", tape.num_nodes)
            return fn(tape, *exc)

        return tape_exit
