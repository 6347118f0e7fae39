"""The four workloads: their seeded inputs, the timed library calls, and
the checks made on every result.

Each workload exposes the same small surface to the runner:

- ``make_inputs()`` builds a fresh list of operations from the seed
  (fresh objects, so no per-object cache survives from an earlier pass);
- ``call(op)`` is the timed library work of one operation;
- ``verify(op, result)`` checks the result against computations made apart
  from the program or against properties the method must have, and
  raises :class:`Mismatch` on any disagreement (untimed);
- ``items(op, result)`` is the number of items the operation completed;
- ``digest(op, result)`` summarises the verdicts, which must repeat
  exactly from pass to pass.

Everything tensorgp is reached through its module objects (``res.``,
``fmt.`` ...), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import tensorgp.algebra as alg
import tensorgp.bimodule as bim
import tensorgp.formats as fmt
import tensorgp.resolution as res
import tensorgp.search as srch
import tensorgp.special_rings as spec
from tensorgp.exactlin import GF, QQ, Matrix
from tensorgp.tensor_ring import StarMorphism

import independent
import rings


# largest free rank in the corpus windows
MAX_RANK = 2


class Mismatch(Exception):
    """A result disagrees with an independent computation or a property."""


def _require(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def _prime(field):
    return field.p if field.is_prime else None


def fill_ring_memos(ring, max_rank: int):
    """Fill the ring-level memo tables the timed calls consult: free
    modules, functor-power models and grafts of the free modules, the
    induced free modules, and the models over them."""
    n = ring.nilpotency
    for r in range(max_rank + 1):
        free = ring.free(r)
        for i in range(n + 2):
            ring.model(i, free)
        for a in range(1, n + 1):
            for b in range(1, n + 1 - a):
                bim.graft(ring.bimodule, a, b, free)
        ind = ring.ind_free(r)
        ring.model(1, ind.x)
        for r2 in range(max_rank + 1):
            ring.assemble_star(StarMorphism.zero(ring, r, r2))


# -- corpora: check, both oracles, replay, format round trip ------------------------


@dataclass
class WindowResult:
    report: object
    exactness: dict
    defects: dict
    replays: tuple
    window_text: str
    window_text_again: str
    report_text: str
    report_text_again: str


def report_from_doc(field, doc):
    """Rebuild a check report from its loaded document, witnesses
    included, with the format's own matrix reader."""
    verdicts = []
    for i, node in enumerate(doc["verdicts"]):
        wd = node.get("witness")
        witness = None
        where = f"report.verdicts[{i}].witness"
        if wd is not None:
            kind = wd["type"]
            if kind == "block":
                witness = res.BlockWitness(wd["j"], fmt.matrix_from_doc(field, wd["component"], where))
            elif kind == "kernel":
                witness = res.KernelWitness(fmt.matrix_from_doc(field, wd["vector"], where))
            elif kind == "functionals":
                witness = res.FunctionalWitness(tuple(
                    fmt.matrix_from_doc(field, m, where) for m in wd["components"]))
            else:
                raise Mismatch(f"unknown witness type {kind!r}")
        verdicts.append(res.Verdict(node["label"], node.get("k"), node["status"], witness,
                                    node.get("note", "")))
    return res.CheckReport(doc["scheme"], tuple(verdicts), window_local=doc["window_local"])


class CorpusWorkload:
    """Seeded periodic windows over a fixed ring pool.  One operation is
    one window: check_complete, both oracles, replay of every failing
    verdict, and a round trip of the window and its report through the
    file format."""

    def __init__(self, seed: int, fields, count: int, large: int, path_rank: int = MAX_RANK):
        self.seed = seed
        self.count = count
        self.large = large
        self.path_rank = path_rank
        self.rings = [ring for field in fields for ring in rings.corpus_ring_pool(field)]
        # larger path-quiver windows: 4 vertices, nilpotency 3
        self.large_rings = [rings.bimodule_ring(rings.path_bimodule(field, 4), 3)
                            for field in fields] if large else []
        for ring in self.rings:
            fill_ring_memos(ring, MAX_RANK)
        for ring in self.large_rings:
            fill_ring_memos(ring, 3)

    def make_inputs(self) -> list:
        """Window i is over ring i mod (pool size), with period 1 + i mod 2
        and ranks that cycle through every combination up to the maximum
        rank (at most ``path_rank`` on the nilpotency-2 path ring), so every
        seed has the same mix of shapes; the seed draws the maps."""
        rng = random.Random(self.seed)
        windows = []
        top = MAX_RANK + 1
        for i in range(self.count):
            ring = self.rings[i % len(self.rings)]
            period = 1 + i % 2
            j = i // len(self.rings)
            cap = self.path_rank if ring.nilpotency == 2 else MAX_RANK
            ranks = tuple(min(r, cap) for r in (j % top, (j // top + j) % top)[:period])
            windows.append(srch.random_window(ring, rng.randrange(1 << 30), ranks))
        for i in range(self.large):
            ring = self.large_rings[i % len(self.large_rings)]
            windows.append(srch.random_window(ring, rng.randrange(1 << 30), (2 + i % 2,)))
        return windows

    def call(self, w) -> WindowResult:
        report = res.check_complete(w)
        exactness = res.exactness_oracle(w)
        defects = res.hom_complex_oracle(w)
        replays = tuple(res.replay_verdict(w, v) for v in report.failures())
        field = w.ring.algebra.field
        window_text = fmt.render(fmt.window_to_doc(w))
        w2 = fmt.window_from_doc(fmt.load(window_text))
        window_text_again = fmt.render(fmt.window_to_doc(w2))
        report_text = fmt.render(fmt.report_to_doc(field, report))
        report2 = report_from_doc(field, fmt.load(report_text))
        report_text_again = fmt.render(fmt.report_to_doc(field, report2))
        return WindowResult(report, exactness, defects, replays, window_text,
                            window_text_again, report_text, report_text_again)

    def verify(self, w, r: WindowResult):
        p = _prime(w.ring.algebra.field)
        for k in w.positions():
            c12 = r.report.status(k, "C1") == "pass" and r.report.status(k, "C2") == "pass"
            _require(c12 == r.exactness[k], f"C1 and C2 disagree with the exactness oracle at k={k}")
            a_in = w.assembled(k - 1)
            a_out = w.assembled(k)
            own = independent.exact_pair(a_in.entries, a_out.entries, a_out.cols, p)
            _require(c12 == own, f"C1 and C2 disagree with the rank test at k={k}")
            c3 = r.report.status(k, "C3") == "pass"
            _require(c3 == (r.defects[k] == 0), f"C3 disagrees with the Hom-complex oracle at k={k}")
        _require(all(r.replays), "a failing verdict does not replay")
        _require(r.window_text == r.window_text_again, "window text changed on a round trip")
        _require(r.report_text == r.report_text_again, "report text changed on a round trip")

    def items(self, w, r) -> int:
        return 1

    def digest(self, w, r):
        return tuple((v.label, v.k, v.status) for v in r.report.verdicts)


# -- hunt-fp: exhaustive one-periodic hunts ---------------------------------------------


@dataclass(frozen=True)
class Hunt:
    label: str
    ring: object
    max_rank: int
    corner: bool


def _hunt_list():
    """(label, ring, max rank, is the corner ring): 1,028 candidates in 27
    hunts over F_2 .. F_7, with nilpotency 0 to 2 and ranks up to 2.  The
    hunts in the middle of the list by cost (k2-N2/F3, k2/F7, k3/F3,
    dual/F7, corner-N2/F2) cost within about 20% of each other, so the
    median call does not jump between hunts of very different size.  The
    corner ring over F_7 (344 candidates, a quarter of the time of all the
    others together) is left out, so that two passes fit in a run."""
    F2, F3 = rings.F2, rings.F3
    out = [("ground/F2", rings.bare_ring(rings.ground(F2)), 1, False),
           ("ground/F3", rings.bare_ring(rings.ground(F3)), 1, False)]
    for field in (F2, F3, rings.F5, rings.F7):
        p = field.p
        dual = rings.dual_numbers(field)
        k2 = rings.product_fields(field, 2)
        if p > 2:
            out += [(f"dual/F{p}", rings.bare_ring(dual), 1, False),
                    (f"k2/F{p}", rings.bare_ring(k2), 1, False)]
        out += [
            (f"dual-N1/F{p}", rings.bare_ring(dual, 1), 1, False),
            (f"k2-N2/F{p}", rings.bare_ring(k2, 2), 1, False),
        ]
        if p < 7:
            out.append((f"corner/F{p}", rings.bimodule_ring(rings.corner_bimodule(field), 1), 1,
                        True))
    for field in (F2, F3):
        out += [
            (f"k3/F{field.p}", rings.bare_ring(rings.product_fields(field, 3)), 1, False),
            (f"corner-N2/F{field.p}", rings.bimodule_ring(rings.corner_bimodule(field), 2), 1,
             True),
        ]
    out += [
        ("path3/F2", rings.bimodule_ring(rings.path_bimodule(F2, 3), 2), 1, False),
        ("ground-r2/F2", rings.bare_ring(rings.ground(F2)), 2, False),
        ("ground-r2/F3", rings.bare_ring(rings.ground(F3)), 2, False),
        ("dual-r2/F2", rings.bare_ring(rings.dual_numbers(F2)), 2, False),
    ]
    return out


_SMALL_HUNTS = ("ground/F2", "corner/F2", "k2-N2/F3")


class HuntWorkload:
    """A fixed list of exhaustive hunts over F_2 .. F_7; the seed only
    shuffles their order.  One operation is one hunt_strongly_gp call;
    its items are the candidates it classified."""

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.hunts = [Hunt(label, ring, rank, corner) for label, ring, rank, corner in _hunt_list()
                      if not small or label in _SMALL_HUNTS]
        self.rings = [h.ring for h in self.hunts]
        self._dims = {}
        self._projectives = {}
        for h in self.hunts:
            fill_ring_memos(h.ring, h.max_rank)
            m = h.ring.bimodule
            p = h.ring.algebra.field.p
            right = [_np(a) for a in m.right_action]
            left = [_np(a) for a in m.left_action]
            self._dims[h.label] = independent.tensor_power_dims(
                right, left, h.ring.algebra.dim, h.ring.nilpotency + 1, p)
            if h.corner:
                self._projectives[h.label] = _corner_projectives(h.ring)

    def make_inputs(self) -> list:
        order = list(self.hunts)
        random.Random(self.seed).shuffle(order)
        return order

    def call(self, h: Hunt):
        return srch.hunt_strongly_gp(h.ring, h.max_rank)

    def verify(self, h: Hunt, catalog):
        ring = h.ring
        p = ring.algebra.field.p
        dims = self._dims[h.label]
        _require(dims[ring.nilpotency + 1] == 0, "the bimodule is not nilpotent at the stated index")
        expected = independent.hunt_total(dims, ring.nilpotency, h.max_rank, p)
        _require(catalog.total == expected,
                 f"{h.label}: catalog total {catalog.total}, expected {expected}")
        _require(sum(g.count for g in catalog.groups) == catalog.total,
                 f"{h.label}: group counts do not sum to the total")
        _require(srch.reverify_catalog(ring, catalog), f"{h.label}: catalog does not re-verify")
        for g in catalog.groups:
            w = _one_periodic(ring, g)
            exact = res.exactness_oracle(w)[0]
            defect = res.hom_complex_oracle(w)[0]
            _require(g.passed == (exact and defect == 0),
                     f"{h.label}: representative of rank {g.rank} disagrees with the oracles")
            a = w.assembled(0)
            ind_dim = sum(g.rank * dims[i] for i in range(ring.nilpotency + 1))
            _require(g.kernel_dim == ind_dim - independent.rank(a.entries, p),
                     f"{h.label}: kernel dimension disagrees with the rank")
            _require(exact == independent.exact_pair(a.entries, a.entries, a.cols, p),
                     f"{h.label}: exactness disagrees with the rank test")
            if h.corner and g.passed and g.kernel_dim:
                _require(self._is_projective(h, w),
                         f"{h.label}: a nonzero passing kernel is not projective")

    def _is_projective(self, h: Hunt, w) -> bool:
        """Criterion 4: over the hereditary corner ring a passing kernel is
        a sum of the two indecomposable projectives."""
        small, big = self._projectives[h.label]
        mod = h.ring.to_algebra_module(res.extract_gp(w, 0))
        for a in range(mod.dim + 1):
            for b in range(mod.dim // big.dim + 1):
                if a * small.dim + b * big.dim == mod.dim and \
                        srch.modules_isomorphic_bruteforce(mod, _sum_modules(small, a, big, b)):
                    return True
        return False

    def items(self, h, catalog) -> int:
        return catalog.total

    def digest(self, h, catalog):
        return (h.label, catalog.total,
                tuple((g.rank, g.kernel_dim, g.passed, g.count) for g in catalog.groups))


def _np(m: Matrix):
    return np.array(m.entries, dtype=np.int64).reshape(m.rows, m.cols)


def _one_periodic(ring, group):
    p = ring.free(group.rank)
    comps = tuple(alg.ModuleMap(p, ring.model(i, p).result, m)
                  for i, m in enumerate(group.representative))
    s = StarMorphism(ring, group.rank, group.rank, comps)
    return res.ResolutionWindow(ring, 0, (group.rank, group.rank), (s,), period=1)


def _simple(algebra, which: int):
    action = [Matrix.from_rows(algebra.field, [[1 if i == which else 0]])
              for i in range(algebra.dim)]
    return alg.LeftModule(algebra, 1, tuple(action))


def _corner_projectives(ring):
    """The indecomposable projectives of the corner ring, as modules over
    its structure-constant model: the stalk of the first simple and the
    induced second simple."""
    small = ring.to_algebra_module(ring.ind(_simple(ring.algebra, 0)))
    big = ring.to_algebra_module(ring.ind(_simple(ring.algebra, 1)))
    return small, big


def _sum_modules(m1, a: int, m2, b: int):
    from tensorgp.exactlin import direct_sum

    algebra = m1.algebra
    action = []
    for i in range(algebra.dim):
        acc = Matrix.zeros(algebra.field, 0, 0)
        for _ in range(a):
            acc = direct_sum(acc, m1.action[i])
        for _ in range(b):
            acc = direct_sum(acc, m2.action[i])
        action.append(acc)
    return alg.LeftModule(algebra, m1.dim * a + m2.dim * b, tuple(action))


# -- specialize: the three criterion-7 equivalences ---------------------------------------


class SpecializeWorkload:
    """Seeded instances of the three specialization equivalences.  One
    operation is one instance: the specialized checker and the checker it
    must agree with, verdict for verdict."""

    def __init__(self, seed: int, per_kind: int):
        self.seed = seed
        self.per_kind = per_kind
        self.trivext = rings.trivext_pool()
        self.rings = [d.ring for d in self.trivext]
        for ring in self.rings:
            fill_ring_memos(ring, 2)

    def make_inputs(self) -> list:
        rng = random.Random(self.seed)
        ops = []
        for i in range(self.per_kind):
            d = self.trivext[i % len(self.trivext)]
            period = 1 + i % 2
            ranks = tuple(rng.randrange(3) for _ in range(period))
            ops.append(("trivext", d, srch.random_window(d.ring, rng.randrange(1 << 30), ranks)))
            field = rings.F2 if i % 2 == 0 else rings.F3
            sub = random.Random(rng.randrange(1 << 30))
            md = rings.random_morita_data(sub, field)
            ops.append(("morita", md, rings.random_morita_window(md, sub)))
            sub = random.Random(rng.randrange(1 << 30))
            td = rings.random_triangular_data(sub, field)
            ops.append(("triangular", td, rings.random_triangular_window(td, sub)))
        return ops

    def call(self, op):
        kind, d, w = op
        if kind == "trivext":
            return spec.trivext_checks(d, w), res.check_complete(w)
        if kind == "morita":
            return spec.morita_checks(d, w), res.check_complete(spec.mu_transport(d, w))
        return spec.triangular_checks(d, w), spec.morita_checks(d.as_morita(), w.as_morita(d))

    def verify(self, op, result):
        kind, d, w = op
        special, other = result
        if kind == "trivext":
            for v in special.verdicts:
                _require(v.status == other.status(v.k, v.label),
                         f"trivext {v.label} at k={v.k} disagrees with the generic checker")
            return
        if kind == "morita":
            for k in w.positions():
                for lab, glab in (("C1'", "C1"), ("C2'", "C2"), ("C3'", "C3")):
                    _require(special.status(k, lab) == other.status(k, glab),
                             f"context {lab} at k={k} disagrees with the generic checker")
            return
        tri, mor = special, other
        for k in w.positions():
            c1 = all(tri.status(k, lab) == "pass" for lab in ("(i) complex", "(ii) complex", "(iii)"))
            _require((mor.status(k, "C1'") == "pass") == c1, f"triangular C1 at k={k}")
            mor2 = mor.status(k, "C2'")
            if mor2 == "skip":
                _require(tri.status(k, "(ii) exact") == "skip" and tri.status(k, "(iv)") == "skip",
                         f"triangular C2 skip at k={k}")
            else:
                c2 = tri.status(k, "(ii) exact") == "pass" and tri.status(k, "(iv)") == "pass"
                _require((mor2 == "pass") == c2, f"triangular C2 at k={k}")
            c3 = tri.status(k, "(i) lift") == "pass" and tri.status(k, "(v)") == "pass"
            _require((mor.status(k, "C3'") == "pass") == c3, f"triangular C3 at k={k}")

    def items(self, op, result) -> int:
        return 1

    def digest(self, op, result):
        return (op[0],) + tuple((v.label, v.k, v.status) for r in result for v in r.verdicts)


# -- the registry ---------------------------------------------------------------------------

# name -> (factory taking (seed, scale), expected normalised seconds of one
# pass, about the median measured for the reference figures); scale < 1
# shrinks the inputs for smoke runs.  A run makes as many
# whole passes as fit in its time by the expected figure, at least one, so
# the number of passes does not depend on how fast the machine happens to
# be.
WORKLOADS = {
    "corpus-fp": (lambda seed, scale: CorpusWorkload(seed, (GF(2), GF(3)),
                                                     max(10, round(312 * scale)),
                                                     2 if scale >= 1 else 0), 15.5),
    "corpus-q": (lambda seed, scale: CorpusWorkload(seed, (QQ,), max(5, round(40 * scale)), 0,
                                                    path_rank=1), 6.5),
    "hunt-fp": (lambda seed, scale: HuntWorkload(seed, small=scale < 1), 7.9),
    "specialize": (lambda seed, scale: SpecializeWorkload(seed, max(2, round(60 * scale))), 5.6),
}
