"""Per-layer tracing, installed from the benchmark's own files.

The tracer wraps public functions and methods of each tensorgp module
(and the elimination routine of ``Matrix``) with spans.  A span records
its name, start, end and parent, in thread CPU time, the clock the
operations are timed in; a layer's self time is its spans' duration minus
the part covered by their child spans and by the reference slices that
interrupted them.  Spans are kept in memory, up to ``MAX_SPANS``, and
written out once, at the end of the run.  Counts are taken at
the same boundaries, so ratios are measured where the work happens.

Wrapped names are patched wherever tensorgp holds a reference to them
(``from x import f`` copies the reference into the importing module), and
the originals are restored by :meth:`Tracer.uninstall`.  A name the
program no longer has is skipped and reads 0.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("exactlin.elim.calls", "count", "lower"),
    ("exactlin.elim.self_s", "s", "lower"),
    ("exactlin.elim.cells", "count", "lower"),
    ("exactlin.matmul.calls", "count", "lower"),
    ("exactlin.matmul.self_s", "s", "lower"),
    ("exactlin.kron.calls", "count", "lower"),
    ("exactlin.kron.self_s", "s", "lower"),
    ("exactlin.matrix.created", "count", "lower"),
    ("algebra.modulemap.created", "count", "lower"),
    ("algebra.modulemap.self_s", "s", "lower"),
    ("algebra.module.created", "count", "lower"),
    ("algebra.module.self_s", "s", "lower"),
    ("algebra.hom_space.calls", "count", "lower"),
    ("algebra.hom_space.self_s", "s", "lower"),
    ("bimodule.tensor_map.calls", "count", "lower"),
    ("bimodule.tensor_map.self_s", "s", "lower"),
    ("bimodule.iterate_functor_map.calls", "count", "lower"),
    ("bimodule.iterate_functor_map.self_s", "s", "lower"),
    ("bimodule.graft.calls", "count", "lower"),
    ("bimodule.memo.entries", "count", "lower"),
    ("bimodule.memo.hit_ratio", "ratio", "higher"),
    ("tensor_ring.assemble_star.calls", "count", "lower"),
    ("tensor_ring.assemble_star.self_s", "s", "lower"),
    ("tensor_ring.hom_t.calls", "count", "lower"),
    ("tensor_ring.hom_t.self_s", "s", "lower"),
    ("tensor_ring.ind.calls", "count", "lower"),
    ("tensor_ring.ind.self_s", "s", "lower"),
    ("tensor_ring.memo.entries", "count", "lower"),
    ("resolution.c1.calls", "count", "lower"),
    ("resolution.c1.self_s", "s", "lower"),
    ("resolution.c1.useful_ratio", "ratio", "higher"),
    ("resolution.c2.self_s", "s", "lower"),
    ("resolution.c3.self_s", "s", "lower"),
    ("resolution.star_compose.calls", "count", "lower"),
    ("resolution.star_compose.self_s", "s", "lower"),
    ("resolution.exactness_oracle.self_s", "s", "lower"),
    ("resolution.hom_complex_oracle.self_s", "s", "lower"),
    ("resolution.replay.calls", "count", "lower"),
    ("resolution.replay.self_s", "s", "lower"),
    ("resolution.positions", "count", "higher"),
    ("special_rings.trivext_checks.self_s", "s", "lower"),
    ("special_rings.morita_checks.self_s", "s", "lower"),
    ("special_rings.triangular_checks.self_s", "s", "lower"),
    ("special_rings.mu_transport.self_s", "s", "lower"),
    ("search.candidates", "count", "higher"),
    ("search.full_checks", "count", "lower"),
    ("search.decisive_ratio", "ratio", "higher"),
    ("search.hunt.self_s", "s", "lower"),
    ("formats.render.self_s", "s", "lower"),
    ("formats.load.self_s", "s", "lower"),
    ("formats.bytes_out", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# spans kept for the span file; later spans are still timed and counted
MAX_SPANS = 300_000

# (span name, module, owner class or None, attribute); the span name is
# also the prefix of the layer's .calls and .self_s metrics.  Hom-space
# bases are built by hom_space in general and by free_hom_basis on a free
# source, which is what the checkers call; both count as algebra.hom_space.
_SPANS = [
    ("exactlin.elim", "exactlin", "Matrix", "_compute_rref"),
    ("exactlin.matmul", "exactlin", "Matrix", "__matmul__"),
    ("exactlin.kron", "exactlin", None, "kron"),
    ("algebra.modulemap", "algebra", "ModuleMap", "__init__"),
    ("algebra.module", "algebra", "LeftModule", "__init__"),
    ("algebra.hom_space", "algebra", None, "hom_space"),
    ("algebra.hom_space", "algebra", None, "free_hom_basis"),
    ("bimodule.tensor_map", "bimodule", None, "tensor_map"),
    ("bimodule.iterate_functor_map", "bimodule", None, "iterate_functor_map"),
    ("bimodule.graft", "bimodule", None, "graft"),
    ("tensor_ring.assemble_star", "tensor_ring", "TensorRing", "assemble_star"),
    ("tensor_ring.hom_t", "tensor_ring", "TensorRing", "hom_t"),
    ("tensor_ring.ind", "tensor_ring", "TensorRing", "ind"),
    ("resolution.check_complete", "resolution", None, "check_complete"),
    ("resolution.c1", "resolution", None, "check_c1"),
    ("resolution.c2", "resolution", None, "check_c2"),
    ("resolution.c3", "resolution", None, "check_c3"),
    ("resolution.star_compose", "resolution", None, "star_compose"),
    ("resolution.exactness_oracle", "resolution", None, "exactness_oracle"),
    ("resolution.hom_complex_oracle", "resolution", None, "hom_complex_oracle"),
    ("resolution.replay", "resolution", None, "replay_verdict"),
    ("resolution.check_strongly_gp", "resolution", None, "check_strongly_gp"),
    ("special_rings.trivext_checks", "special_rings", None, "trivext_checks"),
    ("special_rings.morita_checks", "special_rings", None, "morita_checks"),
    ("special_rings.triangular_checks", "special_rings", None, "triangular_checks"),
    ("special_rings.mu_transport", "special_rings", None, "mu_transport"),
    ("search.hunt", "search", None, "hunt_strongly_gp"),
    ("formats.render", "formats", None, "render"),
    ("formats.load", "formats", None, "load"),
]

# count-only wrappers: (counter, module, owner class or None, attribute)
_COUNTS = [
    ("exactlin.matrix.created", "exactlin", "Matrix", "__init__"),
    ("algebra.modulemap.unchecked", "algebra", "ModuleMap", "unchecked"),
    ("algebra.module.unchecked", "algebra", "LeftModule", "unchecked"),
]

# memo tables of bimodule: function -> (cache name, key from the arguments,
# or None when the call bypasses the table)
_MEMO = {
    "power": ("power", lambda m, i: i),
    "iterate_functor": ("model", lambda m, i, x: (i, x) if i else None),
    "graft": ("graft", lambda m, a, b, x: (a, b, x) if a and b else None),
    "graft_inverse": ("graft_inv", lambda m, a, b, x: (a, b, x) if a and b else None),
}


def _package_modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == "tensorgp" or name.startswith("tensorgp."))]


def memo_entries(rings) -> tuple:
    """(bimodule entries, tensor ring entries) over the given rings'
    memo tables, each table counted once."""
    bim_seen, ring_seen = {}, {}
    for ring in rings:
        ring_seen[id(ring)] = ring._cache
        bim_seen[id(ring.bimodule)] = ring.bimodule._cache

    def size(caches):
        return sum(len(v) if isinstance(v, dict) else 1
                   for cache in caches.values() for v in cache.values())

    return size(bim_seen), size(ring_seen)


class Tracer:
    def __init__(self, sampler):
        self.sampler = sampler
        self.names = []
        self._name_ids = {}
        self.sp_name = array("I")
        self.sp_parent = array("q")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.recording = True
        self.active = False  # spans and counts are taken only while set
        self.dropped = 0
        self._patches = []
        self._stack = []     # child time covered so far, per open span
        self._ids = []       # span id per open span, -1 when not recorded
        self._hunt_depth = 0
        self.reset()

    # -- aggregates -----------------------------------------------------

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def snapshot(self) -> dict:
        return {"calls": Counter(self.calls), "self_s": dict(self.self_s),
                "counts": Counter(self.counts)}

    # -- wrapping -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name: str, fn, after=None):
        tracer = self
        stack, ids = self._stack, self._ids
        name_id = self._name_id(name)
        clock = time.thread_time

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = -1
            if tracer.recording:
                if len(tracer.sp_name) < MAX_SPANS:
                    sid = len(tracer.sp_name)
                    tracer.sp_name.append(name_id)
                    tracer.sp_parent.append(ids[-1] if ids else -1)
                    tracer.sp_start.append(0.0)
                    tracer.sp_end.append(0.0)
                else:
                    tracer.dropped += 1
            stack.append(0.0)
            ids.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                ids.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
                if sid >= 0:
                    tracer.sp_start[sid] = t0
                    tracer.sp_end[sid] = t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, counter: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _memo_wrapper(self, fn, cache_name: str, key_of):
        tracer = self

        def wrapper(*args, **kwargs):
            key = key_of(*args, **kwargs) if tracer.active else None
            if key is not None:
                tracer.counts["bimodule.memo.lookups"] += 1
                if key not in args[0]._cache.get(cache_name, {}):
                    tracer.counts["bimodule.memo.misses"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, module, attr: str, make):
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for mod in _package_modules():
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def _patch_method(self, cls, attr: str, make):
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch(self, module_name: str, owner, attr: str, make):
        module = sys.modules.get("tensorgp." + module_name)
        if module is None:
            return
        if owner is None:
            self._patch_function(module, attr, make)
        else:
            cls = getattr(module, owner, None)
            if cls is not None:
                self._patch_method(cls, attr, make)

    def _charge_slice(self, cost: float):
        """A reference slice ran inside the open span: count it as child
        time, so that it is not the span's self time."""
        if self._stack:
            self._stack[-1] += cost

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.sampler.on_slice = self._charge_slice
        after = {
            "exactlin.elim": self._after_elim,
            "resolution.check_complete": self._after_check_complete,
            "resolution.check_strongly_gp": self._after_strong,
            "formats.render": self._after_render,
        }
        for name, module_name, owner, attr in _SPANS:
            if name == "search.hunt":
                make = self._hunt_wrapper
            else:
                make = (lambda fn, name=name: self._span_wrapper(name, fn, after.get(name)))
            self._patch(module_name, owner, attr, make)
        for counter, module_name, owner, attr in _COUNTS:
            self._patch(module_name, owner, attr,
                        lambda fn, counter=counter: self._count_wrapper(counter, fn))
        for attr, (cache_name, key_of) in _MEMO.items():
            self._patch("bimodule", None, attr,
                        lambda fn, c=cache_name, k=key_of: self._memo_wrapper(fn, c, k))

    def uninstall(self):
        self.sampler.on_slice = None
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- hooks ----------------------------------------------------------

    def _after_elim(self, args, result):
        m = args[0]
        self.counts["exactlin.elim.cells"] += m.rows * m.cols

    def _after_check_complete(self, args, report):
        self.counts["resolution.positions"] += len(args[0].positions())

    def _after_strong(self, args, report):
        if self._hunt_depth:
            self.counts["search.full_checks"] += 1
            if all(v.status == "pass" for v in report.verdicts if v.label == "SC1"):
                self.counts["search.sc1_pass"] += 1

    def _after_render(self, args, text):
        self.counts["formats.bytes_out"] += len(text.encode())

    def _hunt_wrapper(self, fn):
        inner = self._span_wrapper("search.hunt", fn)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._hunt_depth += 1
            try:
                catalog = inner(*args, **kwargs)
            finally:
                self._hunt_depth -= 1
            self.counts["search.candidates"] += catalog.total
            return catalog

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ---------------------------------------------------------

    def stop_recording(self):
        self.recording = False

    def write_spans(self, path):
        """Write the recorded spans as gzip'd tab-separated lines:
        id, parent id, name, start and end in microseconds of thread CPU
        time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.sp_start[0] if len(self.sp_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(f"# spans={len(self.sp_name)} dropped={self.dropped}\n")
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            names = self.names
            for sid in range(len(self.sp_name)):
                out.write(f"{sid}\t{self.sp_parent[sid]}\t{names[self.sp_name[sid]]}\t"
                          f"{(self.sp_start[sid] - origin) * 1e6:.1f}\t"
                          f"{(self.sp_end[sid] - origin) * 1e6:.1f}\n")


def layer_values(snap: dict, scale: float, entries: tuple) -> dict:
    """Per-layer metric values of one traced pass.  Times are scaled to
    normalised seconds; ``entries`` are the memo sizes after the pass."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    out = {}
    for name, _module, _owner, _attr in _SPANS:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = self_s.get(name, 0.0) * scale
    out["exactlin.elim.cells"] = counts["exactlin.elim.cells"]
    out["exactlin.matrix.created"] = counts["exactlin.matrix.created"]
    out["algebra.modulemap.created"] = calls.get("algebra.modulemap", 0) \
        + counts["algebra.modulemap.unchecked"]
    out["algebra.module.created"] = calls.get("algebra.module", 0) \
        + counts["algebra.module.unchecked"]
    lookups = counts["bimodule.memo.lookups"]
    out["bimodule.memo.entries"], out["tensor_ring.memo.entries"] = entries
    out["bimodule.memo.hit_ratio"] = \
        (lookups - counts["bimodule.memo.misses"]) / lookups if lookups else 0.0
    positions = counts["resolution.positions"]
    c1_calls = calls.get("resolution.c1", 0)
    out["resolution.positions"] = positions
    out["resolution.c1.useful_ratio"] = positions / c1_calls if c1_calls else 0.0
    out["search.candidates"] = counts["search.candidates"]
    out["search.full_checks"] = counts["search.full_checks"]
    full = counts["search.full_checks"]
    out["search.decisive_ratio"] = counts["search.sc1_pass"] / full if full else 0.0
    out["formats.bytes_out"] = counts["formats.bytes_out"]
    return out
