"""The algebras, bimodules and rings the workloads run over.

The constructors come from the test suite's ``tests/helpers.py`` (``run.py``
puts ``tests/`` on the path); this module adds only what the workloads
need on top of them.
"""

from __future__ import annotations

from tensorgp.exactlin import GF
from tensorgp.bimodule import zero_bimodule
from tensorgp.tensor_ring import TensorRing
from tensorgp.special_rings import TrivialExtData

from helpers import (  # noqa: F401  -- re-exported for the workloads
    corner_bimodule,
    dual_numbers,
    ground_algebra as ground,
    path_bimodule,
    product_fields,
    random_morita_data,
    random_morita_window,
    random_triangular_data,
    random_triangular_window,
)

F2, F3, F5, F7 = GF(2), GF(3), GF(5), GF(7)


def bare_ring(a, nilpotency: int = 0) -> TensorRing:
    return TensorRing(a, zero_bimodule(a), nilpotency)


def bimodule_ring(m, nilpotency: int) -> TensorRing:
    return TensorRing(m.algebra, m, nilpotency)


def corpus_ring_pool(field) -> list:
    """The acceptance corpus's five rings over one field: nilpotency 0, 1
    and 2, semisimple and local bases, a hereditary tensor ring and a
    path algebra."""
    dual = dual_numbers(field)
    prod = product_fields(field, 2)
    return [
        bare_ring(dual, 0),
        bare_ring(prod, 0),
        bimodule_ring(corner_bimodule(field), 1),
        bare_ring(dual, 1),
        bimodule_ring(path_bimodule(field, 3), 2),
    ]


def trivext_pool() -> list:
    pool = []
    for field in (F2, F3):
        m = corner_bimodule(field)
        pool.append(TrivialExtData(m.algebra, m))
        r = dual_numbers(field)
        pool.append(TrivialExtData(r, zero_bimodule(r)))
    return pool
