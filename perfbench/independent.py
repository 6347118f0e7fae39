"""Checks computed apart from tensorgp: plain numpy mod p and plain
``Fraction`` elimination, fed only with matrix entries and the structure
data of the rings.  Nothing here calls tensorgp's linear algebra."""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _rank_mod_p(arr: np.ndarray, p: int) -> int:
    a = arr.copy() % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        a[[rank, pr]] = a[[pr, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, c]), p - 2, p)) % p
        below = a[rank + 1:, c].copy()
        a[rank + 1:] = (a[rank + 1:] - np.outer(below, a[rank])) % p
        rank += 1
    return rank


def _rank_q(rows) -> int:
    a = [[Fraction(v) for v in row] for row in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    rank = 0
    for c in range(n_cols):
        pr = next((i for i in range(rank, n_rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        pv = a[rank][c]
        for i in range(rank + 1, n_rows):
            if a[i][c] != 0:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def rank(entries, p) -> int:
    """Rank of a matrix given as rows of scalars; p is a prime or None
    for Q."""
    if not entries or not entries[0]:
        return 0
    if p is None:
        return _rank_q(entries)
    return _rank_mod_p(np.array(entries, dtype=np.int64), p)


def _product_is_zero(g, f, p) -> bool:
    if not g or not f or not f[0]:
        return True
    if p is None:
        inner = len(f)
        return all(sum(g[i][k] * f[k][j] for k in range(inner)) == 0
                   for i in range(len(g)) for j in range(len(f[0])))
    prod = np.array(g, dtype=np.int64) @ np.array(f, dtype=np.int64)
    return not (prod % p).any()


def exact_pair(f, g, g_cols: int, p) -> bool:
    """im(f) = ker(g) for f then g, each given as rows of scalars, with
    g_cols the dimension of the middle space: the product vanishes and
    rank(f) = g_cols - rank(g)."""
    return _product_is_zero(g, f, p) and rank(f, p) == g_cols - rank(g, p)


# -- tensor power dimensions ----------------------------------------------------


def tensor_power_dims(right_action, left_action, algebra_dim: int, top: int, p: int) -> list:
    """dim of M (x)_R ... (x)_R M (i factors) for i = 0..top, over F_p.

    The i-fold tensor product over R is the i-fold tensor product over k
    modulo the middle relations (m r) (x) m' - m (x) (r m') at each of the
    i - 1 junctions, so each dimension is one rank computation.
    ``right_action`` and ``left_action`` are lists of d x d integer
    matrices, one per basis element of R.
    """
    d = right_action[0].shape[0] if right_action else 0
    dims = [algebra_dim]
    for i in range(1, top + 1):
        full = d ** i
        if full == 0:
            dims.append(0)
            continue
        cols = []
        for t in range(i - 1):  # junction between factors t and t + 1
            before = np.eye(d ** t, dtype=np.int64)
            after = np.eye(d ** (i - t - 2), dtype=np.int64)
            for r_act, l_act in zip(right_action, left_action):
                middle = np.kron(r_act, np.eye(d, dtype=np.int64)) \
                    - np.kron(np.eye(d, dtype=np.int64), l_act)
                cols.append(np.kron(np.kron(before, middle), after) % p)
        rel_rank = _rank_mod_p(np.hstack(cols), p) if cols else 0
        dims.append(full - rel_rank)
    return dims


def hunt_total(power_dims: list, nilpotency: int, max_rank: int, p: int) -> int:
    """Number of one-periodic candidates up to max_rank: component i of a
    rank-r candidate ranges over Hom(R^r, F^i(R^r)), of dimension
    r * dim F^i(R^r) = r * r * dim M^(x)i."""
    total = 0
    for r in range(max_rank + 1):
        exponent = r * sum(r * power_dims[i] for i in range(nilpotency + 1))
        total += p ** exponent
    return total
