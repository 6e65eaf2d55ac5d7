"""Symmetry groups of finite quandles.

The inner group Inn(X) is generated by the right translations S_x; the full
automorphism group Aut(X) comes from the backtracking table search in
``quandles.perms``, the same search that computes Aut(G) from a Cayley
table, and isomorphism tests run its depth-first step between two tables.
Aut(X) carries the search's own stabilizer chain and Inn(X) a Schreier-Sims
chain; k-transitivity of either is read off its chain by
``PermGroup.is_k_transitive``.
``is_connected`` does not build Inn(X): it is ``_connected_tables``, the
package's one connectivity test, a breadth-first search over k tables at once.

An independent brute-force search over all bijections exists as an oracle
for tiny orders.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .groups import _first_equal_rows, _row_chunks
from .perms import Permutation, PermGroup, _colours, _dfs_first, _Search, table_automorphism_group

_BRUTE_FORCE_BOUND = 7


def inner_group(quandle):
    """Group generated by the right translations S_x, x in X."""
    cache = quandle._cache
    if "inn" not in cache:
        gens = [Permutation(quandle.column(x)) for x in range(quandle.order)]
        cache["inn"] = PermGroup(gens, degree=quandle.order)
    return cache["inn"]


def automorphism_group_backtrack(quandle):
    """Aut(X) as a PermGroup with exact order, by the shared table search."""
    cache = quandle._cache
    if "aut" not in cache:
        cache["aut"] = table_automorphism_group(quandle)
    return cache["aut"]


def brute_force_aut(quandle):
    """Oracle: every bijection preserving the table, by exhaustive filtering."""
    n = quandle.order
    if n > _BRUTE_FORCE_BOUND:
        raise ValueError(f"brute force capped at order {_BRUTE_FORCE_BOUND}, got {n}")
    t = quandle.table.tolist()
    out = []
    pairs = [(a, b) for a in range(n) for b in range(n)]
    for p in itertools.permutations(range(n)):
        if all(p[t[a][b]] == t[p[a]][p[b]] for a, b in pairs):
            out.append(Permutation(p))
    return out


# -- transitivity -----------------------------------------------------------


def is_connected(quandle):
    """Inn(X) has a single orbit: the columns S_x move 0 to every point."""
    return bool(_connected_tables(quandle.table[None])[0])


def _connected_tables(tables):
    """Mask over a (k, n, n) array of quandle tables: a single Inn orbit, by one
    breadth-first search from 0 on all k (row y lists y*b for every column S_b)."""
    seen = np.zeros(tables.shape[:2], dtype=bool)
    seen[:, 0] = True
    frontier = seen.copy()
    while frontier.any():
        i, y = np.nonzero(frontier)
        step = np.zeros_like(seen)
        step[i[:, None], tables[i, y]] = True
        frontier = step & ~seen
        seen |= frontier
    return seen.all(axis=1)


def is_two_point_homogeneous(quandle):
    """Inn(X) is transitive on ordered pairs of distinct points; ValueError
    below 2 points."""
    return inner_group(quandle).is_k_transitive(2)


def aut_is_doubly_transitive(quandle):
    """Aut(X) doubly transitive, read off the chain of the table search;
    ValueError below 2 points."""
    return automorphism_group_backtrack(quandle).is_k_transitive(2)


# -- isomorphism ----------------------------------------------------------------


def quandle_isomorphic(x, y):
    """An isomorphism x -> y as a Permutation, or None.

    The depth-first step of the automorphism search, with source and target
    tables distinct.  Both tables are coloured with shared names
    (``perms._colours``): unequal colour histograms refuse at once, and
    otherwise each point of x may go only to the points of y of its colour.
    """
    if x.order != y.order:
        return None
    cx, cy = _colours(x.table, y.table)
    if not np.array_equal(np.sort(cx), np.sort(cy)):
        return None
    res = _dfs_first(_Search(x, y, cx, cy))
    return Permutation(res) if res is not None else None


# -- embedding into the conjugation quandle of Inn -------------------------------


@dataclass
class EmbeddingReport:
    """Outcome of checking a -> S_a against conjugation in Inn(X).

    The homomorphism clause asks S_{a*b} = S_b^-1 ; S_a ; S_b (apply S_b^-1
    first), which is axiom 3 and holds in every quandle; injectivity can
    fail, and the first witnessing pair is recorded.
    """

    translations: list
    inn_order: int
    is_homomorphism: bool
    homomorphism_witness: tuple
    is_injective: bool
    injectivity_witness: tuple

    @property
    def is_embedding(self):
        return self.is_homomorphism and self.is_injective


def embed_in_conj_inn(quandle):
    n = quandle.order
    t = quandle.table
    cols = t.T
    rng = np.arange(n)
    hom_witness = None
    for s in _row_chunks(n, n * n):
        # bad[a, b, x]: (x*b)*(a*b) != (x*a)*b, so S_{a*b} != S_b^-1 ; S_a ; S_b at x*b
        bad = t[cols[None], t[s, :, None]] != t[cols[s, None, :], rng[:, None]]
        if bad.any():
            a, b, _ = np.argwhere(bad)[0]
            hom_witness = (int(a) + s.start, int(b))
            break
    earlier = _first_equal_rows(cols)
    repeats = np.flatnonzero(earlier != rng)
    inj_witness = (int(earlier[repeats[0]]), int(repeats[0])) if len(repeats) else None
    return EmbeddingReport(
        translations=[Permutation(c) for c in cols.tolist()],
        inn_order=inner_group(quandle).order(),
        is_homomorphism=hom_witness is None,
        homomorphism_witness=hom_witness,
        is_injective=inj_witness is None,
        injectivity_witness=inj_witness,
    )


# -- one-stop structural report ---------------------------------------------------


@dataclass
class QuandleAnalysis:
    order: int
    inn_order: int
    aut_order: int
    connected: bool
    two_point_homogeneous: bool
    aut_doubly_transitive: bool
    commutative: bool
    involutory: bool
    provenance: str

    def to_dict(self):
        return {
            "order": self.order,
            "inner_group_order": self.inn_order,
            "automorphism_group_order": self.aut_order,
            "connected": self.connected,
            "two_point_homogeneous": self.two_point_homogeneous,
            "aut_doubly_transitive": self.aut_doubly_transitive,
            "commutative": self.commutative,
            "involutory": self.involutory,
            "provenance": self.provenance,
        }


def analyze_quandle(quandle):
    from .quandle import is_commutative, is_involutory

    inn = inner_group(quandle)
    aut = automorphism_group_backtrack(quandle)
    n = quandle.order
    return QuandleAnalysis(
        order=n,
        inn_order=inn.order(),
        aut_order=aut.order(),
        connected=is_connected(quandle),
        two_point_homogeneous=is_two_point_homogeneous(quandle) if n >= 2 else None,
        aut_doubly_transitive=aut_is_doubly_transitive(quandle) if n >= 2 else None,
        commutative=is_commutative(quandle),
        involutory=is_involutory(quandle),
        provenance=quandle.provenance.describe() if quandle.provenance else "table",
    )
