"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact (zero disagreements); the corpus sizes
meet or exceed the stated minimums.
"""

import random
import time

import pytest

from tensorgp.exactlin import QQ, Matrix, is_exact_pair
from tensorgp.algebra import ModuleMap, free_module, hom_space
from tensorgp.bimodule import zero_bimodule
from tensorgp.tensor_ring import StarMorphism, TModule, TensorRing
from tensorgp.resolution import (
    ResolutionWindow,
    check_compatibility,
    check_complete,
    check_strongly_gp,
    complex_window,
    exactness_oracle,
    extract_gp,
    hom_complex_oracle,
    lift_resolution,
    replay_verdict,
)
from tensorgp.search import hunt_strongly_gp, modules_isomorphic_bruteforce, random_window
from tensorgp.special_rings import (
    TrivialExtData,
    morita_checks,
    morita_context_algebra,
    morita_to_trivext,
    mu_transport,
    triangular_checks,
    trivext_checks,
)

from helpers import (
    F2,
    F3,
    augmentation_bimodule,
    corner_bimodule,
    dual_numbers,
    path_bimodule,
    product_fields,
    random_hom,
    random_module,
    random_morita_data,
    random_morita_window,
    random_triangular_data,
    random_triangular_window,
    x_multiplication,
)

# failures collected by the corpus suites, replayed in criterion 9
_COLLECTED_FAILURES = []


def _ring_pool(fields=(F2, F3)):
    rings = []
    for field in fields:
        r_dual = dual_numbers(field)
        r_prod = product_fields(field, 2)
        rings.append(TensorRing(r_dual, zero_bimodule(r_dual), 0))
        rings.append(TensorRing(r_prod, zero_bimodule(r_prod), 0))
        m = corner_bimodule(field)
        rings.append(TensorRing(m.algebra, m, 1))
        rings.append(TensorRing(r_dual, zero_bimodule(r_dual), 1))
        p = path_bimodule(field, 3)
        rings.append(TensorRing(p.algebra, p, 2))
    return rings


def _window_corpus(count=312, fields=(F2, F3), seed=10_000, path_rank=2):
    """Seeded corpus of periodic windows: nilpotency 0..2, ranks up to 2
    (up to ``path_rank`` on the nilpotency-2 path ring), periods 1 and 2."""
    rings = _ring_pool(fields)
    windows = []
    for i in range(count):
        ring = rings[i % len(rings)]
        rng = random.Random(seed + i)
        period = 1 + (i % 2)
        cap = path_rank if ring.nilpotency == 2 else 2
        ranks = tuple(min(rng.randrange(3), cap) for _ in range(period))
        windows.append(random_window(ring, 2 * seed + i, ranks))
    return windows


@pytest.fixture(scope="module")
def corpus():
    """The F_2 and F_3 corpus, then a small one over Q: rank-2 windows on
    the path ring cost seconds each over Q, so its ranks stop at 1 there."""
    return _window_corpus() + _window_corpus(20, (QQ,), seed=30_000, path_rank=1)


def _over_q(windows):
    return sum(w.ring.algebra.field == QQ for w in windows)


def _collect_failures(window, report):
    for v in report.failures():
        _COLLECTED_FAILURES.append((window, v))


def test_criterion_1_complex_and_exactness_against_assembled_matrices(corpus):
    start = time.time()
    positions = 0
    for w in corpus:
        report = check_complete(w)
        oracle = exactness_oracle(w)
        _collect_failures(w, report)
        for k in w.positions():
            paper = (report.status(k, "C1") == "pass"
                     and report.status(k, "C2") == "pass")
            assert paper == oracle[k], f"disagreement at k={k}"
            positions += 1
    elapsed = time.time() - start
    print(f"criterion 1: PASS ({len(corpus)} windows, {_over_q(corpus)} of them over Q, "
          f"{positions} positions, 0 disagreements, {elapsed:.1f}s)")


def test_criterion_2_functional_lifting_against_hom_complex(corpus):
    start = time.time()
    positions = 0
    for w in corpus:
        report = check_complete(w)
        defects = hom_complex_oracle(w)
        for k in w.positions():
            assert (report.status(k, "C3") == "pass") == (defects[k] == 0), \
                f"disagreement at k={k}"
            positions += 1
    elapsed = time.time() - start
    print(f"criterion 2: PASS ({len(corpus)} windows, {_over_q(corpus)} of them over Q, "
          f"{positions} positions, 0 disagreements, {elapsed:.1f}s)")


def test_criterion_3_canonical_worked_example():
    start = time.time()
    r = dual_numbers(F2)
    ring = TensorRing(r, zero_bimodule(r), 0)
    x = x_multiplication(F2)
    s = StarMorphism(ring, 1, 1, (ModuleMap(ring.free(1), ring.free(1), x.mat),))
    w = ResolutionWindow(ring, 0, (1, 1), (s,), period=1)
    report = check_complete(w)
    assert report.passed and not report.window_local
    g = extract_gp(w, 0)
    assert g.x.dim == 1
    strong = check_strongly_gp(s)
    assert strong.passed
    elapsed = time.time() - start
    print(f"criterion 3: PASS (window certified, kernel dimension 1, "
          f"one-periodic check passes, {elapsed:.2f}s)")


def test_criterion_4_hereditary_sanity():
    start = time.time()
    m = corner_bimodule(F2)
    ring = TensorRing(m.algebra, m, 1)
    catalog = hunt_strongly_gp(ring, 1)
    assert catalog.total == 9  # 1 + 2**(2+1) candidates
    # indecomposable projectives: the stalk of the first simple (dim 1) and
    # the induced second simple (dim 2)
    from helpers import simple_over_product

    proj_small = ring.to_algebra_module(ring.ind(simple_over_product(ring.algebra, 0)))
    proj_big = ring.to_algebra_module(ring.ind(simple_over_product(ring.algebra, 1)))
    assert proj_small.dim == 1 and proj_big.dim == 2
    for g in catalog.passing():
        if g.kernel_dim == 0:
            continue
        # a nonzero passing kernel would have to be projective: verify by
        # brute-force isomorphism with a sum of the indecomposables
        p = ring.free(g.rank)
        comps = tuple(ModuleMap(p, ring.model(i, p).result, mat)
                      for i, mat in enumerate(g.representative))
        s = StarMorphism(ring, g.rank, g.rank, comps)
        w = ResolutionWindow(ring, 0, (g.rank, g.rank), (s,), period=1)
        t = extract_gp(w, 0)
        mod = ring.to_algebra_module(t)
        found = any(
            a * 1 + b * 2 == mod.dim and modules_isomorphic_bruteforce(
                mod, _sum_modules(proj_small, a, proj_big, b))
            for a in range(mod.dim + 1) for b in range(mod.dim // 2 + 1)
        )
        assert found, f"nonzero passing kernel of dim {g.kernel_dim} is not projective"
    elapsed = time.time() - start
    print(f"criterion 4: PASS (exhaustive catalog of {catalog.total} candidates, "
          f"passing kernels all trivial or projective, {elapsed:.2f}s)")


def _sum_modules(m1, a, m2, b):
    from tensorgp.exactlin import direct_sum

    algebra = m1.algebra
    dims = m1.dim * a + m2.dim * b
    action = []
    for i in range(algebra.dim):
        acc = Matrix.zeros(algebra.field, 0, 0)
        for _ in range(a):
            acc = direct_sum(acc, m1.action[i])
        for _ in range(b):
            acc = direct_sum(acc, m2.action[i])
        action.append(acc)
    from tensorgp.algebra import LeftModule

    return LeftModule(algebra, dims, tuple(action))


def test_criterion_5_adjunction_dimensions():
    start = time.time()
    rings = _ring_pool()
    checked_ind = 0
    checked_stalk = 0
    rng = random.Random(500)
    while checked_ind < 100:
        ring = rings[checked_ind % len(rings)]
        x = random_module(ring.algebra, rng)
        y = random_module(ring.algebra, rng)
        v = random_hom(ring.model(1, y).result, y, rng)
        t = TModule(ring, y, v.mat)
        assert len(ring.hom_t(ring.ind(x), t)) == len(hom_space(x, y))
        checked_ind += 1
    while checked_stalk < 100:
        ring = rings[checked_stalk % len(rings)]
        x = random_module(ring.algebra, rng)
        u = random_hom(ring.model(1, x).result, x, rng)
        t = TModule(ring, x, u.mat)
        y = random_module(ring.algebra, rng)
        assert len(ring.hom_t(t, ring.stalk(y))) == len(hom_space(ring.coker(t).module, y))
        checked_stalk += 1
    elapsed = time.time() - start
    print(f"criterion 5: PASS ({checked_ind} induction and {checked_stalk} stalk "
          f"instances, exact dimension agreement, {elapsed:.1f}s)")


def test_criterion_6_context_ring_coordinate_bijection():
    start = time.time()
    checked = 0
    for i in range(50):
        field = F2 if i % 2 == 0 else F3
        rng = random.Random(900 + i)
        d = random_morita_data(rng, field)
        direct = morita_context_algebra(d)
        model = morita_to_trivext(d).ring.algebra_model()
        assert direct.dim == model.dim
        assert direct.consts == model.consts
        assert direct.unit == model.unit
        checked += 1
    elapsed = time.time() - start
    print(f"criterion 6: PASS ({checked} context rings, structure tables agree "
          f"under the coordinate bijection, {elapsed:.1f}s)")


def _trivext_pool():
    pool = []
    for field in (F2, F3):
        m = corner_bimodule(field)
        pool.append(TrivialExtData(m.algebra, m))
        r = dual_numbers(field)
        pool.append(TrivialExtData(r, zero_bimodule(r)))
    return pool


def test_criterion_7_specialization_equivalences():
    start = time.time()
    # trivial extension form vs the generic checker
    pool = _trivext_pool()
    for i in range(200):
        d = pool[i % len(pool)]
        ring = d.ring
        rng = random.Random(3000 + i)
        period = 1 + (i % 2)
        ranks = [rng.randrange(3) for _ in range(period)]
        w = random_window(ring, 4000 + i, tuple(ranks))
        special = trivext_checks(d, w)
        generic = check_complete(w)
        _collect_failures(w, generic)
        for v in special.verdicts:
            assert v.status == generic.status(v.k, v.label), \
                f"trivext {v.label} at k={v.k}"
    t1 = time.time()

    # context ring form vs the generic checker after transport
    for i in range(200):
        field = F2 if i % 2 == 0 else F3
        rng = random.Random(5000 + i)
        d = random_morita_data(rng, field)
        w = random_morita_window(d, rng, max_rank=2)
        direct = morita_checks(d, w)
        generic = check_complete(mu_transport(d, w))
        for k in w.positions():
            for lab, glab in (("C1'", "C1"), ("C2'", "C2"), ("C3'", "C3")):
                assert direct.status(k, lab) == generic.status(k, glab), \
                    f"context {lab} at k={k}"
    t2 = time.time()

    # triangular form vs the context form at the zero corner
    for i in range(200):
        field = F2 if i % 2 == 0 else F3
        rng = random.Random(7000 + i)
        d = random_triangular_data(rng, field)
        w = random_triangular_window(d, rng, max_rank=2)
        tri = triangular_checks(d, w)
        mor = morita_checks(d.as_morita(), w.as_morita(d))
        for k in w.positions():
            c1 = all(tri.status(k, lab) == "pass"
                     for lab in ("(i) complex", "(ii) complex", "(iii)"))
            assert (mor.status(k, "C1'") == "pass") == c1
            mor2 = mor.status(k, "C2'")
            if mor2 == "skip":
                assert tri.status(k, "(ii) exact") == "skip"
                assert tri.status(k, "(iv)") == "skip"
            else:
                c2 = (tri.status(k, "(ii) exact") == "pass"
                      and tri.status(k, "(iv)") == "pass")
                assert (mor2 == "pass") == c2
            c3 = (tri.status(k, "(i) lift") == "pass"
                  and tri.status(k, "(v)") == "pass")
            assert (mor.status(k, "C3'") == "pass") == c3
    elapsed = time.time() - start
    print(f"criterion 7: PASS (3 x 200 instances verdict-for-verdict; "
          f"splits {t1 - start:.1f}s / {t2 - t1:.1f}s / {time.time() - t2:.1f}s, "
          f"total {elapsed:.1f}s)")


def _alternating_complex(algebra, mats, period):
    fr = free_module(algebra, 1)
    maps = [ModuleMap(fr, fr, m) for m in mats]
    return complex_window(maps, period=period)


def _compat_corpus():
    """(bimodule, levels, base window) triples where compatibility holds."""
    out = []
    for field in (F2, F3):
        # alternating idempotent complex over k x k with the corner bimodule
        prod = product_fields(field, 2)
        e1 = Matrix.from_rows(field, [[1, 0], [0, 0]])
        e2 = Matrix.from_rows(field, [[0, 0], [0, 1]])
        pc = _alternating_complex(prod, [e1, e2, e1], 2)
        out.append((corner_bimodule(field), 1, pc))
        # the same complex with the zero bimodule at any level
        out.append((zero_bimodule(prod), 1, pc))
        # multiplication by x over the dual numbers with the zero bimodule
        r = dual_numbers(field)
        xm = x_multiplication(field)
        out.append((zero_bimodule(r), 2, complex_window([xm], period=1)))
        # contractible identity-then-zero complex with the path bimodule
        prod3 = product_fields(field, 3)
        fr3 = free_module(prod3, 1)
        ident = Matrix.identity(field, 3)
        zero = Matrix.zeros(field, 3, 3)
        pc3 = _alternating_complex(prod3, [ident, zero, ident], 2)
        out.append((path_bimodule(field, 3), 2, pc3))
    return out


def test_criterion_8_compatibility_and_lift_coherence():
    start = time.time()
    lifted_count = 0
    for bimodule, levels, pc in _compat_corpus():
        report = check_compatibility(bimodule, pc, levels)
        assert report.passed, f"corpus instance unexpectedly incompatible: {report.summary()}"
        ring = TensorRing(bimodule.algebra, bimodule, levels)
        lifted = lift_resolution(ring, pc)  # asserts the full check internally
        assert check_complete(lifted).passed
        lifted_count += 1
    # the incompatible fixture is refused with the failing level
    m = augmentation_bimodule(F2)
    pc = complex_window([x_multiplication(F2)], period=1)
    report = check_compatibility(m, pc, 1)
    assert not report.passed
    fails = report.failures()
    assert fails[0].label.startswith("F1"), "witness must name level 1"
    for v in fails:
        _COLLECTED_FAILURES.append(("compat", (m, pc), v))
    elapsed = time.time() - start
    print(f"criterion 8: PASS ({lifted_count} compatible instances lifted and "
          f"re-certified; incompatible fixture refused at level 1, {elapsed:.1f}s)")


def _adversarial_fixtures():
    """Fifty crafted failing windows across the ring pool."""
    rings = _ring_pool()
    fixtures = []
    i = 0
    while len(fixtures) < 50:
        ring = rings[i % len(rings)]
        kind = i % 3
        rank = 1 + (i % 2)
        p = ring.free(rank)
        if kind == 0:
            comps = [ModuleMap.identity(p)]
            comps += [ModuleMap.zero(p, ring.model(j, p).result)
                      for j in range(1, ring.nilpotency + 1)]
            s = StarMorphism(ring, rank, rank, tuple(comps))
        elif kind == 1:
            s = StarMorphism.zero(ring, rank, rank)
        else:
            s = random_window(ring, 60_000 + i, (rank,)).maps[0]
        w = ResolutionWindow(ring, 0, (rank, rank), (s,), period=1)
        report = check_complete(w)
        if report.failures():
            fixtures.append((w, report))
        i += 1
    return fixtures


def test_criterion_9_witness_integrity():
    from tensorgp.resolution import replay_compat_verdict

    start = time.time()
    replayed = replayed_q = 0
    for item in _COLLECTED_FAILURES:
        if item[0] == "compat":
            _, (m, pc), v = item
            assert replay_compat_verdict(m, pc, v)
        else:
            w, v = item
            assert replay_verdict(w, v)
            replayed_q += _over_q([w])
        replayed += 1
    adversarial = 0
    for w, report in _adversarial_fixtures():
        for v in report.failures():
            assert replay_verdict(w, v)
            adversarial += 1
    assert adversarial >= 50
    elapsed = time.time() - start
    print(f"criterion 9: PASS ({replayed} corpus failures ({replayed_q} over Q) and "
          f"{adversarial} adversarial failures replayed, {elapsed:.1f}s)")
