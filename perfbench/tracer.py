"""Per-layer tracing of homquiver, installed from outside the package.

``install`` replaces every ``homquiver.*`` module binding of the public
functions in ``TARGETS`` (and the listed ``Matrix`` / ``RootSystem``
methods) with a wrapper that records a span: name, start, end, parent
span and run id.  Modules import each other's functions with
``from .levi import ...``, so a function is rebound in every module
that holds it, not only where it is defined.

Spans and counters stay in memory while the traced code runs; ``dump``
writes them out once at the end.  Self time of a span is its duration
minus the durations of its direct children (calls are single-threaded,
so children never overlap).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "rootsystem", "geometry", "bott", "levi", "quiver",
    "bundle", "linalg", "cohomology", "bundleio", "cli",
)

# (module, attribute path inside the module, span name)
TARGETS = (
    ("rootsystem", "build_root_system", "rootsystem.build_root_system"),
    ("rootsystem", "RootSystem.root_from_fund", "rootsystem.root_from_fund"),
    ("geometry", "build_geometry", "geometry.build_geometry"),
    ("bott", "dominantize", "bott.dominantize"),
    ("levi", "arrow_multiplicity", "levi.arrow_multiplicity"),
    ("levi", "freudenthal", "levi.freudenthal"),
    ("levi", "klimyk_tensor", "levi.klimyk_tensor"),
    ("quiver", "arrows_from", "quiver.arrows_from"),
    ("quiver", "quiver_window", "quiver.quiver_window"),
    ("quiver", "borel_relation_instances", "quiver.borel_relation_instances"),
    ("bundle", "check_relations", "bundle.check_relations"),
    ("bundle", "solve_derived_arrows", "bundle.solve_derived_arrows"),
    ("bundle", "validate", "bundle.validate"),
    ("bundle", "tangent", "bundle.tangent"),
    ("bundle", "cotangent", "bundle.cotangent"),
    ("bundle", "colon_quotient", "bundle.colon_quotient"),
    ("bundle", "subrep_generated", "bundle.subrep_generated"),
    ("bundle", "direct_sum", "bundle.direct_sum"),
    ("bundle", "gabriel_decompose", "bundle.gabriel_decompose"),
    ("linalg", "Matrix.__matmul__", "linalg.Matrix.matmul"),
    ("linalg", "Matrix.rank", "linalg.Matrix.rank"),
    ("linalg", "Matrix.rref", "linalg.Matrix.rref"),
    ("linalg", "Matrix.nullspace", "linalg.Matrix.nullspace"),
    ("cohomology", "h0", "cohomology.h0"),
    ("cohomology", "h0_am", "cohomology.h0_am"),
    ("cohomology", "find_pairings", "cohomology.find_pairings"),
    ("cohomology", "compose_path", "cohomology.compose_path"),
    ("cohomology", "euler", "cohomology.euler"),
    ("bundleio", "load_rep", "bundleio.load_rep"),
    ("bundleio", "save_rep", "bundleio.save_rep"),
    ("cli", "main", "cli.main"),
)

HOOK = "trace.hook"  # time spent computing expensive counters, kept out of self times
COUNTED = frozenset((
    "levi.arrow_multiplicity", "linalg.Matrix.matmul", "linalg.Matrix.rref",
    "cohomology.compose_path", "quiver.borel_relation_instances",
))


def _entry_bits(matrix) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for row in matrix.data for x in row),
        default=0,
    )


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.active = False
        self.run_id = -1
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self._current = -1
        self._freudenthal = None
        self._freudenthal_start = (0, 0)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._current
        self._current = idx
        return idx, parent

    def _close(self, idx, parent, name, start, end):
        self._current = parent
        self.spans[idx] = (name, start, end, parent, self.run_id)

    def _hook(self, fn, *args):
        idx, parent = self._open()
        start = time.perf_counter()
        fn(*args)
        self._close(idx, parent, HOOK, start, time.perf_counter())

    # ----- counters measured at the call boundary --------------------------

    def _count(self, name, args, result):
        c = self.counters
        if name == "levi.arrow_multiplicity":
            c[name + ".useful"] += result == 1
        elif name == "linalg.Matrix.matmul":
            a, b = args
            c[name + ".mults"] += a.rows * a.cols * b.cols
            self._hook(self._bits, result)
        elif name == "linalg.Matrix.rref":
            self._hook(self._bits, result[0])
        elif name == "cohomology.compose_path":
            c[name + ".steps"] += args[1].k
        elif name == "quiver.borel_relation_instances":
            self._hook(self._instances, args[1], result)

    def _bits(self, matrix):
        bits = _entry_bits(matrix)
        if bits > self.maxima["linalg.max_entry_bits"]:
            self.maxima["linalg.max_entry_bits"] = bits

    def _instances(self, support, instances):
        support = set(support)
        useful = 0
        for inst in instances:
            end = tuple(
                a - b - c for a, b, c in zip(inst.source, inst.beta.fund, inst.gamma.fund)
            )
            useful += inst.source in support and end in support
        name = "quiver.borel_relation_instances"
        self.counters[name + ".instances"] += len(instances)
        self.counters[name + ".useful"] += useful

    def wrap(self, fn, name):
        tracer = self
        counted = name in COUNTED

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, start, time.perf_counter())
            if counted:
                tracer._count(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ----- freudenthal cache statistics -------------------------------------

    def start(self):
        """Begin recording; cache statistics are taken from here on."""
        if self._freudenthal is not None:
            info = self._freudenthal.cache_info()
            self._freudenthal_start = (info.hits, info.misses)
        self.active = True

    def stop(self):
        self.active = False
        if self._freudenthal is not None:
            info = self._freudenthal.cache_info()
            h0, m0 = self._freudenthal_start
            self.counters["levi.freudenthal.hits"] += info.hits - h0
            self.counters["levi.freudenthal.misses"] += info.misses - m0
            self._freudenthal_start = (info.hits, info.misses)

    # ----- output -----------------------------------------------------------

    def to_dict(self) -> dict:
        if None in self.spans:
            raise RuntimeError("tracer dumped while a span is still open")
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], a, b, p, r] for n, a, b, p, r in self.spans],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, separators=(",", ":"))

    def merge(self, doc: dict, run_id: int):
        """Append another process's dumped spans under the given run id."""
        offset = len(self.spans)
        names = doc["names"]
        for n, a, b, p, _ in doc["spans"]:
            self.spans.append((names[n], a, b, p + offset if p >= 0 else -1, run_id))
        for k, v in doc["counters"].items():
            self.counters[k] += v
        for k, v in doc["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)


def install(tracer: Tracer):
    """Wrap every target in every loaded homquiver module.  Call once per
    process: a second call would wrap the wrappers."""
    import homquiver  # noqa: F401  (loads every submodule but the CLI)
    import homquiver.cli  # noqa: F401

    modules = [m for n, m in sys.modules.items()
               if n == "homquiver" or n.startswith("homquiver.")]
    for module_name, path, span in TARGETS:
        home = sys.modules["homquiver." + module_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], span))
            continue
        original = getattr(home, path)
        wrapped = tracer.wrap(original, span)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
        if span == "levi.freudenthal":
            tracer._freudenthal = original


def self_times(spans) -> dict:
    """Per-name [calls, total seconds, self seconds] from a span list."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for name, start, end, parent, _ in spans:
        dur = end - start
        row = out[name]
        row[0] += 1
        row[1] += dur
        row[2] += dur
        if parent >= 0:
            out[spans[parent][0]][2] -= dur
    return dict(out)


def per_layer(tracer: Tracer) -> dict:
    """The per-layer metric values of everything traced so far."""
    spans = tracer.spans
    times = self_times(spans)
    c, mx = tracer.counters, tracer.maxima
    out = {}

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    for _, _, name in TARGETS:
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(
            row[2] for n, row in times.items() if n.startswith(layer + ".")
        )
    bri = "quiver.borel_relation_instances"
    out[bri + ".instances"] = c[bri + ".instances"]
    out[bri + ".useful_ratio"] = _ratio(c[bri + ".useful"], c[bri + ".instances"])
    am = "levi.arrow_multiplicity"
    out[am + ".useful_ratio"] = _ratio(c[am + ".useful"], calls(am))
    hits, misses = c["levi.freudenthal.hits"], c["levi.freudenthal.misses"]
    out["levi.freudenthal.hit_ratio"] = _ratio(hits, hits + misses)
    out["linalg.Matrix.matmul.mults"] = c["linalg.Matrix.matmul.mults"]
    out["linalg.max_entry_bits"] = mx["linalg.max_entry_bits"]
    out["cohomology.compose_path.steps"] = c["cohomology.compose_path.steps"]
    out["trace.spans"] = len(spans)
    out["trace.hook_s"] = self_s(HOOK)
    return out


def _ratio(part, whole):
    return part / whole if whole else 0.0
