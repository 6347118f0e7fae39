"""Golden digest of the bytes the checkers and oracles produce on seeded
inputs: rendered reports with their witnesses, exactness-oracle results
and Hom-complex defects of windows over F_2, F_3 and Q, and one rendered
hunt catalog.  A refactor that changes any verdict, witness or oracle
figure changes the digest."""

import hashlib

from tensorgp import formats
from tensorgp.exactlin import QQ
from tensorgp.tensor_ring import TensorRing
from tensorgp.resolution import check_complete, exactness_oracle, hom_complex_oracle
from tensorgp.search import hunt_strongly_gp, random_window

from helpers import F2, F3, corner_bimodule, ring_pool, window_corpus

GOLDEN = "ad2d0b8dd3582a0277b68c15d0db17c2fcd852424f681c24e0d7c8210c66144c"


def _windows():
    windows = window_corpus(40, (F2, F3), seed=50_000)
    windows += window_corpus(10, (QQ,), seed=60_000, path_rank=1)
    # window-local segments, one per ring of the F_3 and Q pools
    for i, ring in enumerate(ring_pool((F3, QQ))):
        cap = 1 if ring.nilpotency == 2 else 2
        windows.append(random_window(ring, 70_000 + i, (cap, 1, cap), periodic=False))
    return windows


def golden_digest() -> str:
    h = hashlib.sha256()
    for w in _windows():
        field = w.ring.algebra.field
        h.update(formats.render(formats.report_to_doc(field, check_complete(w))).encode())
        h.update(repr(sorted(exactness_oracle(w).items())).encode())
        h.update(repr(sorted(hom_complex_oracle(w).items())).encode())
    m = corner_bimodule(F2)
    catalog = hunt_strongly_gp(TensorRing(m.algebra, m, 1), 1)
    h.update(formats.render(formats.catalog_to_doc(F2, catalog)).encode())
    return h.hexdigest()


def test_golden_digest():
    assert golden_digest() == GOLDEN
