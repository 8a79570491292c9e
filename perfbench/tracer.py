"""Outside-in per-layer tracer for recollab.

The tracer times calls into each layer from outside the program: it wraps
every public function of each layer module, the constructor and public
methods of the classes defined there, `Matrix.mul`, and
`ResolutionCache.get`/`put`.  It leaves out what runs per matrix entry or per
matrix operation and would cost more to time than it does: the scalar `Field`
classes, the other `Matrix` methods, and the helpers in `SKIP`.  Modules
import names with `from .exactfield import rref`, so each wrapped function is
rebound in every `recollab.*` namespace that holds it, not only where it is
defined.

Attribution rules:

* A call into a layer from another layer (or from the benchmark) opens a
  span.  A call from the same layer (`rank` calling `rref`) opens none, so
  layer time is never counted twice.
* A layer's self time is the duration of its spans minus the time of the
  spans of other layers opened inside them.
* A metric group (`exactfield.solve` covers `solve`, `solve_matrix` and
  `express_in_row_basis`) counts every call, and adds time only for its
  outermost active call.

Spans are kept in memory as (id, parent id, name, start, duration, request)
and written when the pass ends.  Counts depend only on the inputs, so two
traced runs with one seed give identical counts; times do not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("exactfield", "algebra", "modules", "complexes", "homology",
          "recollement", "verify", "cli")

# Functions reported under another group name.
GROUPS = {
    "exactfield.solve_matrix": "exactfield.solve",
    "exactfield.express_in_row_basis": "exactfield.solve",
    "exactfield.Matrix.mul": "exactfield.matmul",
    "cli.ResolutionCache.get": "cli.cache.get",
    "cli.ResolutionCache.put": "cli.cache.put",
}

# Argument checks and formatting called once per matrix operation.
SKIP = {"exactfield.check_same_field", "exactfield.field_tag_str"}

# Classes whose methods are not wrapped, apart from the ones named here.
NARROW_CLASSES = {"exactfield": {"Matrix": ("mul",)}}

# Work counts taken by the probes below.
WORK = ("exactfield.rref.entries", "exactfield.rref.q_calls",
        "exactfield.rref.fp_calls", "exactfield.matmul.macs",
        "exactfield.sparse_rank.nnz", "modules.tensor_over.relation_entries",
        "cli.cache.hits", "cli.cache.misses", "cli.cache.bytes")


def _field_tag(field):
    return "Q" if getattr(field, "p", None) is None else f"F{field.p}"


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)      # layer -> self time
        self.work = Counter()                 # named work counts
        self.shapes = defaultdict(lambda: [0, 0.0])   # (kind, dims, field) -> [calls, s]
        self.spans = []
        self.request = None
        self._groups = {}                     # group -> [calls, active, seconds]
        self._stack = []                      # [layer, span id, child time]
        self._resolutions = []                # (module, n_max) per call
        self._undo = []
        self._next_id = 0

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap the layer functions and rebind them in every recollab module."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"recollab.{layer}")
            for name, obj in list(vars(mod).items()):
                key = f"{layer}.{name}"
                if name.startswith("_") or key in SKIP:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(layer, key, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "recollab" and not modname.startswith("recollab."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer, cls):
        narrow = NARROW_CLASSES.get(layer, {})
        if layer == "exactfield" and cls.__name__ not in narrow:
            return
        names = narrow.get(cls.__name__)
        for name, obj in list(vars(cls).items()):
            if names is not None and name not in names:
                continue
            if name != "__init__" and name.startswith("_"):
                continue
            if not inspect.isfunction(obj):     # properties, static methods
                continue
            self._undo.append((cls, name, obj))
            setattr(cls, name, self._wrap(layer, f"{layer}.{cls.__name__}.{name}", obj))

    def uninstall(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, layer, key, fn):
        group = GROUPS.get(key, key)
        state = self._groups.setdefault(group, [0, 0, 0.0])
        probe = getattr(self, "_probe_" + group.replace(".", "_"), None)
        signature = inspect.signature(fn) if probe is not None else None
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = None
            if probe is not None:
                if kwargs:      # probes read arguments by position
                    bound = signature.bind(*args, **kwargs)
                    args, kwargs = bound.args, bound.kwargs
                args, note = probe(args)
            stack = tracer._stack
            entry = not stack or stack[-1][0] != layer
            state[0] += 1
            outer = state[1] == 0
            state[1] += 1
            if entry:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][1] if stack else None
                frame = [layer, span_id, 0.0]
                stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                state[1] -= 1
                if outer:
                    state[2] += dt
                if entry:
                    stack.pop()
                    tracer.self_s[layer] += dt - frame[2]
                    if stack:
                        stack[-1][2] += dt
                    tracer.spans.append((span_id, parent, key, t0, dt,
                                         tracer.request))
            if note is not None:
                tracer._after(group, note, result, dt)
            return result

        return traced

    # -- work counts, taken from arguments before the call ------------------

    def _probe_exactfield_rref(self, args):
        m = args[0]
        self.work["exactfield.rref.entries"] += m.nrows * m.ncols
        self.work["exactfield.rref.q_calls" if getattr(m.field, "p", None) is None
                  else "exactfield.rref.fp_calls"] += 1
        return args, ("rref", m.nrows, m.ncols, m.field)

    def _probe_exactfield_matmul(self, args):
        a, b = args[0], args[1]
        self.work["exactfield.matmul.macs"] += a.nrows * a.ncols * b.ncols
        return args, ("matmul", a.nrows, a.ncols, b.ncols, a.field)

    def _probe_exactfield_sparse_rank(self, args):
        columns = list(args[0])
        self.work["exactfield.sparse_rank.nnz"] += sum(len(c) for c in columns)
        return (columns,) + tuple(args[1:]), None

    def _probe_modules_tensor_over(self, args):
        m, n = args[0], args[1]
        middle = m.right_algebra if hasattr(m, "right_algebra") else m.algebra
        size = m.dim * n.dim
        # the unwrapped method: a probe must not make traced calls itself
        generators = inspect.unwrap(type(middle).generators)(middle)
        self.work["modules.tensor_over.relation_entries"] += (
            len(generators) * size * size)
        return args, None

    def _probe_complexes_projective_resolution(self, args):
        # content hashes are taken after the run, outside every span
        self._resolutions.append((args[0], args[1]))
        return args, None

    def _probe_cli_cache_put(self, args):
        store, key = args[0], args[1]
        path = store.root / store._filename(key)
        return args, ("put", None if path.exists() else path)

    def _probe_cli_cache_get(self, args):
        return args, ("get",)

    def _after(self, group, note, result, dt):
        """Counts that need the result or the duration of the call."""
        if group == "cli.cache.get":
            self.work["cli.cache.hits" if result is not None
                      else "cli.cache.misses"] += 1
        elif group == "cli.cache.put":
            if note[1] is not None:
                self.work["cli.cache.bytes"] += note[1].stat().st_size
        else:
            cell = self.shapes[note]
            cell[0] += 1
            cell[1] += dt

    # -- results -----------------------------------------------------------

    @property
    def calls(self):
        return {g: s[0] for g, s in sorted(self._groups.items()) if s[0]}

    @property
    def seconds(self):
        return {g: s[2] for g, s in sorted(self._groups.items()) if s[0]}

    def distinct_resolutions(self):
        return len({(m.algebra.content_hash(), m.content_hash(), n_max)
                    for m, n_max in self._resolutions})

    def metrics(self):
        """Every per-layer figure, by metric name."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for group, (calls, _, secs) in self._groups.items():
            out[f"{group}.calls"] = calls
            out[f"{group}.s"] = secs
        for name in WORK:
            out[name] = self.work[name]
        calls = len(self._resolutions)
        distinct = self.distinct_resolutions()
        out["complexes.projective_resolution.distinct"] = distinct
        out["complexes.projective_resolution.unique_ratio"] = (
            distinct / calls if calls else 1.0)
        out["cli.cache.get_s"] = out["cli.cache.get.s"]
        out["cli.cache.put_s"] = out["cli.cache.put.s"]
        return out

    def _shape_rows(self, kind=None):
        return [(k[0], "x".join(map(str, k[1:-1])), _field_tag(k[-1]), c, t)
                for k, (c, t) in self.shapes.items() if kind in (None, k[0])]

    def top_shapes(self, kind, n=5):
        """The `n` shapes of `kind` that took the most time: (kind, dims, field, calls, s)."""
        return sorted(self._shape_rows(kind), key=lambda r: -r[4])[:n]

    def artefact(self, workload, seed):
        """The run's trace: deterministic counts, times, shapes and spans."""
        return {
            "schema": "perfbench.trace.v1",
            "workload": workload,
            "seed": seed,
            "counts": {"calls": self.calls, "work": dict(sorted(self.work.items())),
                       "distinct_resolutions": self.distinct_resolutions()},
            "times": {"seconds": self.seconds, "self_s": dict(self.self_s)},
            "shapes": self._shape_rows(),
            "span_fields": ["id", "parent", "name", "start", "duration", "request"],
            "spans": self.spans,
        }
