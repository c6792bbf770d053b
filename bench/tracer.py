"""Outside-in tracer: runs one benchmark job with every hopfseq function timed.

    python3 bench/tracer.py OUT.json SPAWN_MONOTONIC cli ARGS...
    python3 bench/tracer.py OUT.json SPAWN_MONOTONIC lib ARGS...

An import hook times each hopfseq module body and, once it has run,
wraps every function, method and lru_cache the module defines.  Every
module attribute that holds a wrapped object is rebound to its wrapper,
so `from .x import f` bindings and in-module global calls are caught.

Each call adds to its key's call count and self time (duration minus the
time covered by traced callees).  The first SPAN_CAP calls of each key
are also kept as spans (name, start, end, parent span) and written out
with the totals when the job ends.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib.machinery
import inspect
import json
import sys
import time
from pathlib import Path

PKG = "hopfseq"
SPAN_CAP = 64          # spans kept per key; counts and times stay complete
LATTICE_KEY = "groups._subgroup_lattice"
# calls that build or load a Hopf algebra; only the outermost one counts
ALGEBRA_KEYS = frozenset({
    "hopf.group_algebra", "hopf.dual_group_algebra", "hopf.bicrossed_product",
    "hopf.drinfeld_double", "hopf.dual_hopf", "io_formats.load_hopf",
    "exact.trivial_hopf", "exact.standalone_subalgebra", "exact.hopf_cokernel",
})


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}        # key -> [calls, self seconds]
        self.spans: list = []                   # (key, start, end, parent id)
        self._child = [0.0]                     # time covered by callees, per frame
        self._sids = [-1]                       # open span ids; -1 is the job root
        self._wrapped: dict[int, tuple] = {}    # id(original) -> (original, wrapper)
        self.lattices: dict[int, int] = {}      # id(lattice) -> classes in it
        self.algebras = 0                       # outermost ALGEBRA_KEYS calls
        self._building = 0

    # -- wrapping ----------------------------------------------------------

    def _make(self, fn, key: str):
        st = self.stats.setdefault(key, [0, 0.0])
        child, sids, spans, pc = self._child, self._sids, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            n = st[0]
            st[0] = n + 1
            sid = -1
            if n < SPAN_CAP:
                sid = len(spans)
                parent = sids[-1]
                spans.append(None)
                sids.append(sid)
            child.append(0.0)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                st[1] += (t1 - t0) - child.pop()
                child[-1] += t1 - t0
                if sid >= 0:
                    sids.pop()
                    spans[sid] = (key, t0, t1, parent)

        if key == LATTICE_KEY:
            inner = traced

            def traced(*args, **kwargs):
                result = inner(*args, **kwargs)
                self.lattices[id(result)] = len(result)
                return result

        elif key in ALGEBRA_KEYS:
            inner = traced

            def traced(*args, **kwargs):
                self.algebras += self._building == 0
                self._building += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._building -= 1

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def wrap(self, fn, key: str):
        hit = self._wrapped.get(id(fn))
        if hit is not None and hit[0] is fn:
            return hit[1]
        wrapper = self._make(fn, key)
        self._wrapped[id(fn)] = (fn, wrapper)
        return wrapper

    def _wrap_class(self, cls, short: str) -> None:
        for attr, val in list(vars(cls).items()):
            key = f"{short}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(val):
                setattr(cls, attr, self.wrap(val, key))
            elif isinstance(val, (staticmethod, classmethod)):
                setattr(cls, attr, type(val)(self.wrap(val.__func__, key)))
            elif isinstance(val, property) and val.fget is not None:
                setattr(cls, attr, property(self.wrap(val.fget, key), val.fset,
                                            val.fdel, val.__doc__))

    def instrument(self, module) -> None:
        short = _short(module.__name__)
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                self._wrap_class(obj, short)
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                setattr(module, name, self.wrap(obj, f"{short}.{obj.__qualname__}"))
        self.rebind()

    def rebind(self) -> None:
        """Point every hopfseq module attribute at the wrapper of its value."""
        for modname, module in list(sys.modules.items()):
            if modname != PKG and not modname.startswith(PKG + "."):
                continue
            for name, obj in list(vars(module).items()):
                hit = self._wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    # -- import hook ---------------------------------------------------------

    def find_spec(self, fullname, path=None, target=None):
        if fullname != PKG and not fullname.startswith(PKG + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        run_body = spec.loader.exec_module
        timed_body = self._make(run_body, f"{_short(fullname)}.<import>")

        def exec_module(module):
            timed_body(module)
            self.instrument(module)

        spec.loader.exec_module = exec_module
        return spec

    def report(self, job: str, import_s: float) -> dict:
        return {
            "job": job,
            "import_s": import_s,
            "lattice_classes": sum(self.lattices.values()),
            "algebras": self.algebras,
            "stats": self.stats,
            "spans": [s for s in self.spans if s is not None],
        }


def _short(modname: str) -> str:
    return modname.split(".", 1)[1] if "." in modname else modname


def main(argv: list[str]) -> int:
    out, spawn, kind, args = argv[0], float(argv[1]), argv[2], argv[3:]
    tracer = Tracer()
    sys.meta_path.insert(0, tracer)
    if kind == "cli":
        from hopfseq.cli import main as entry
    else:
        from libjob import main as entry
    tracer.rebind()
    import_s = time.monotonic() - spawn
    try:
        return entry(args)
    finally:
        sys.stdout.flush()
        Path(out).write_text(json.dumps(tracer.report(Path(out).stem, import_s)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
