"""Per-layer attribution of host time, from outside the program.

:class:`Tracer` wraps, at run time, the functions and methods that the
layer modules of ``repro`` define (for the engine only its public entry
points), and removes the wrappers again on :meth:`Tracer.uninstall`.
Every call, and every resumption of a generator, that crosses from one
layer into another opens a span; a call that stays inside its caller's
layer opens none.  A layer's self time is the duration of its spans minus
the time covered by spans nested in them.  Each simulation point runs
under a root span (name ``point``) whose self time is the host time no
layer claims: experiment glue, benchmark bookkeeping and tracer cost.

Generators are timed per resumption: a wrapped generator function, and
every generator handed to ``Engine.process``, is driven through a proxy
that opens a span around each ``send``/``throw``.  Counters are kept at
the same boundaries (see ``COUNTED``) and are exact.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from collections import defaultdict

#: layer name -> module-name prefixes (the longest matching prefix wins)
LAYERS = (
    ("engine", ("repro.sim.engine",)),
    ("resources", ("repro.sim.resources",)),
    ("network", ("repro.machine.network", "repro.machine.topology")),
    ("mpi", ("repro.mpi",)),
    ("dataspaces", ("repro.dataspaces",)),
    ("core", ("repro.core",)),
    ("flow", ("repro.flow", "repro.faults")),
    ("io", ("repro.ffs", "repro.adios", "repro.machine.filesystem")),
    ("operators", ("repro.operators",)),
    ("kernels", ("repro.perf.kernels", "repro.perf.registry", "repro.perf.parallel")),
    ("apps", ("repro.apps",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)
#: index of the pseudo-layer owning the root span of every point
ROOT = len(LAYERS)
#: spans kept in memory; later spans still count towards self times and
#: counters but are not stored
MAX_SPANS = 3_000_000

#: The engine is entered from every other layer millions of times per
#: run; wrapping its internals would cost more than it measures, so only
#: the calls other layers make into it are wrapped.  Its queue, dispatch
#: and ``Process`` stepping count as engine self time.
ENGINE_ENTRY = {
    "Engine": ("run", "run_until_process", "timeout", "event", "process",
               "any_of", "all_of", "peek"),
    "Event": ("succeed", "fail", "_add_callback"),
    "Process": ("interrupt",),
}


def _nbytes_arg(args, kwargs, pos=1):
    return float(args[pos] if len(args) > pos else kwargs["nbytes"])


def _count_wakeup(tr, args, kwargs, result):
    tr.counts["resources.wakeups"] += 1
    if not getattr(args[1], "_stale", False):
        tr.counts["resources.live_wakeups"] += 1


def _count_transfer(tr, args, kwargs, result):
    if _nbytes_arg(args, kwargs) > 0:
        tr.counts["resources.transfers"] += 1


def _count_reduce(tr, args, kwargs, result):
    from repro.mpi.datasize import nbytes_of

    nbytes_of = getattr(nbytes_of, "__wrapped__", nbytes_of)  # bypass the tracer
    tr.counts["mpi.reduce_calls"] += 1
    tr.counts["mpi.reduce_bytes"] += sum(nbytes_of(v) for v in args[1])


def _count_intersect(tr, args, kwargs, result):
    tr.counts["dataspaces.intersect_calls"] += 1
    if result is not None:
        tr.counts["dataspaces.intersect_hits"] += 1


def _count_pack(tr, args, kwargs, result):
    tr.counts["ffs.packs"] += 1
    tr.counts["ffs.bytes"] += len(result)


def _count_fs_write(tr, args, kwargs, result):
    tr.counts["fs.writes"] += 1
    tr.counts["fs.bytes_written"] += _nbytes_arg(args, kwargs)


def _counter(name):
    def hook(tr, args, kwargs, result):
        tr.counts[name] += 1

    return hook


#: (module, qualname) -> hook(tracer, args, kwargs, result), run after
#: the call returns (for generator functions: when the generator is made)
COUNTED = {
    ("repro.sim.resources", "SharedBandwidth.transfer"): _count_transfer,
    ("repro.sim.resources", "SharedBandwidth._on_wakeup"): _count_wakeup,
    ("repro.machine.network", "Network.collective_time"): _counter("network.collectives"),
    ("repro.mpi.world", "World._complete_collective"): _counter("mpi.collectives"),
    ("repro.mpi.ops", "Op.reduce_all"): _count_reduce,
    ("repro.dataspaces.space", "DataSpaces.put"): _counter("dataspaces.puts"),
    ("repro.dataspaces.space", "DataSpaces.get"): _counter("dataspaces.gets"),
    ("repro.dataspaces.space", "Region.intersect"): _count_intersect,
    ("repro.core.client", "StagingClient.write_step"): _counter("core.write_steps"),
    ("repro.core.client", "StagingClient.serve_fetch"): _counter("core.fetches"),
    ("repro.flow.pool", "BufferPool.acquire"): _counter("flow.acquires"),
    ("repro.ffs.encode", "encode"): _count_pack,
    ("repro.ffs.encode", "encode_into"): _count_pack,
    ("repro.machine.filesystem", "ParallelFileSystem.write"): _count_fs_write,
}


def layer_of(module_name):
    """Index of the layer owning *module_name*, or ``ROOT`` if none does."""
    best, best_len = ROOT, -1
    for i, (_name, prefixes) in enumerate(LAYERS):
        for p in prefixes:
            if (module_name == p or module_name.startswith(p + ".")) and len(p) > best_len:
                best, best_len = i, len(p)
    return best


def _wrappable(name, value):
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if not isinstance(value, types.FunctionType):
        return False
    return not (name.startswith("__") and name.endswith("__")) or name in ("__init__", "__call__")


class Tracer:
    """Span recorder and wrapper installer (one per traced process)."""

    def __init__(self):
        self.names = ["point"]
        self.name_ids = {}
        self.self_s = [0.0] * (len(LAYERS) + 1)
        self.counts = defaultdict(float)
        self.stack = [[ROOT, 0.0, -1]]
        self.keep = [False]  # store spans? (a cell the wrappers read)
        self.point = [-1]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_point = array("i")
        self.dropped = 0
        self._undo = []

    # -- spans ---------------------------------------------------------
    def _name_id(self, label):
        nid = self.name_ids.get(label)
        if nid is None:
            nid = self.name_ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def _open(self, nid, t0):
        """Store a span's start; returns its index, or -1 if not stored."""
        if not self.keep[0]:
            return -1
        idx = len(self.span_start)
        if idx >= MAX_SPANS:
            self.dropped += 1
            return -1
        self.span_name.append(nid)
        self.span_start.append(t0)
        self.span_end.append(t0)
        self.span_parent.append(self.stack[-1][2])
        self.span_point.append(self.point[0])
        return idx

    def begin_point(self, point_id):
        """Open the root span of one simulation point."""
        self.point[0] = point_id
        t0 = time.perf_counter()
        self.stack.append([ROOT, 0.0, self._open(0, t0), t0])

    def end_point(self):
        """Close the root span; its self time goes to ``unattributed``."""
        t1 = time.perf_counter()
        frame = self.stack.pop()
        self.self_s[ROOT] += t1 - frame[3] - frame[1]
        if frame[2] >= 0:
            self.span_end[frame[2]] = t1
        self.point[0] = -1

    def snapshot(self):
        """Self times and counters accumulated so far, by metric name."""
        out = {f"{name}.self_s": self.self_s[i] for i, name in enumerate(LAYER_NAMES)}
        out["unattributed_s"] = self.self_s[ROOT]
        out.update(self.counts)
        return out

    def reset_totals(self):
        self.self_s[:] = [0.0] * len(self.self_s)  # in place: wrappers hold the list
        self.counts = defaultdict(float)

    # -- wrappers ------------------------------------------------------
    def _wrap_call(self, fn, layer, nid):
        stack, tr, pc = self.stack, self, time.perf_counter
        keep, end, selfs = self.keep, self.span_end, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            t0 = pc()
            frame = [layer, 0.0, tr._open(nid, t0) if keep[0] else -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                d = t1 - t0
                selfs[layer] += d - frame[1]
                stack[-1][1] += d
                if frame[2] >= 0:
                    end[frame[2]] = t1

        return traced

    def _drive(self, gen, layer, nid):
        """Proxy generator timing each resumption of *gen* as *layer*."""
        stack, tr, pc = self.stack, self, time.perf_counter
        keep, end, selfs = self.keep, self.span_end, self.self_s
        send, throw = gen.send, gen.throw
        value = exc = None
        while True:
            if stack[-1][0] == layer:
                try:
                    out = send(value) if exc is None else throw(exc)
                except StopIteration as stop:
                    return stop.value
            else:
                t0 = pc()
                frame = [layer, 0.0, tr._open(nid, t0) if keep[0] else -1]
                stack.append(frame)
                try:
                    out = send(value) if exc is None else throw(exc)
                except StopIteration as stop:
                    out, exc = stop, None
                except BaseException as err:  # re-raised below, after the span closes
                    out, exc = None, err
                else:
                    exc = None
                t1 = pc()
                stack.pop()
                d = t1 - t0
                selfs[layer] += d - frame[1]
                stack[-1][1] += d
                if frame[2] >= 0:
                    end[frame[2]] = t1
                if exc is not None:
                    raise exc
                if isinstance(out, StopIteration):
                    return out.value
            try:
                value, exc = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # delivered into gen on the next turn
                value, exc = None, err

    def _wrap_gen(self, fn, layer, nid):
        drive = self._drive

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            proxy = drive(fn(*args, **kwargs), layer, nid)
            proxy.__name__, proxy.__qualname__ = fn.__name__, fn.__qualname__
            return proxy

        return traced

    def _wrap(self, fn, layer, label, hook):
        nid = self._name_id(label)
        if inspect.isgeneratorfunction(fn):
            w = self._wrap_gen(fn, layer, nid)
        else:
            w = self._wrap_call(fn, layer, nid)
        if hook is None:
            return w
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = w(*args, **kwargs)
            hook(tr, args, kwargs, result)
            return result

        return counted

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every loaded layer module; :meth:`uninstall` reverts it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced = {}
        modules = [
            (name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and name.startswith("repro") and layer_of(name) != ROOT
        ]
        for modname, mod in modules:
            layer = layer_of(modname)
            lname = LAYER_NAMES[layer]
            for attr, value in list(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == modname
                    and lname != "engine"
                ):
                    hook = COUNTED.get((modname, value.__qualname__))
                    if modname == "repro.perf.kernels" and attr in getattr(mod, "__all__", ()):
                        hook = _counter("kernels.calls")
                    replaced[id(value)] = self._wrap(
                        value, layer, f"{lname}:{value.__qualname__}", hook
                    )
                elif isinstance(value, type) and value.__module__ == modname:
                    self._wrap_class(value, modname, layer, lname)
        # Re-point every module global that names a wrapped function, so
        # ``from x import f`` call sites go through the wrapper too.
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                w = replaced.get(id(value))
                if w is not None and isinstance(value, types.FunctionType):
                    self._set(mod, attr, w)
        self._hook_process()

    def _wrap_class(self, cls, modname, layer, lname):
        allowed = ENGINE_ENTRY.get(cls.__name__, ()) if lname == "engine" else None
        for attr, value in list(vars(cls).items()):
            if allowed is not None and attr not in allowed:
                continue
            if not _wrappable(attr, value):
                continue
            fn = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
            hook = COUNTED.get((modname, f"{cls.__qualname__}.{attr}"))
            w = self._wrap(fn, layer, f"{lname}:{cls.__qualname__}.{attr}", hook)
            if isinstance(value, staticmethod):
                w = staticmethod(w)
            elif isinstance(value, classmethod):
                w = classmethod(w)
            try:
                self._set(cls, attr, w)
            except (AttributeError, TypeError):
                self._undo.pop()  # a class that refuses new attributes stays bare

    def _hook_process(self):
        """Proxy each generator started as a process, by its module's layer.

        Generators from wrapped generator functions are proxied already;
        the rest (closures, experiment-local bodies) get a proxy here so
        their resumptions are not booked as engine time.
        """
        from repro.sim.engine import Process

        original = Process.__init__
        drive = self._drive
        proxy_code = drive.__code__
        name_id = self._name_id

        @functools.wraps(original)
        def init(proc, env, gen, name=""):
            code = getattr(gen, "gi_code", None)
            if code is not None and code is not proxy_code:
                modname = gen.gi_frame.f_globals.get("__name__", "") if gen.gi_frame else ""
                layer = layer_of(modname)
                label = LAYER_NAMES[layer] if layer != ROOT else "unattributed"
                proxy = drive(gen, layer, name_id(f"{label}:{gen.__qualname__}"))
                proxy.__name__, proxy.__qualname__ = gen.__name__, gen.__qualname__
                gen = proxy
            original(proc, env, gen, name)

        self._set(Process, "__init__", init)

    def uninstall(self):
        """Restore every attribute :meth:`install` replaced."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- output --------------------------------------------------------
    def span_arrays(self):
        """Recorded spans as numpy arrays (see the README for the schema)."""
        import numpy as np

        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "point": np.frombuffer(self.span_point, dtype=np.int32),
            "names": np.array(self.names),
            "dropped": np.array(self.dropped),
        }
