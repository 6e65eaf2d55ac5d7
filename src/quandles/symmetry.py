"""Symmetry groups of finite quandles.

The inner group Inn(X) is built from the right translations S_g of the
generators g of X alone, which generate every S_x; the full automorphism
group Aut(X) comes from the backtracking table search in
``quandles.perms``, the same search that computes Aut(G) from a Cayley
table, and isomorphism tests run its depth-first step between two tables.
Aut(X) carries the search's own stabilizer chain and Inn(X) a Schreier-Sims
chain; k-transitivity of either is read off its chain by
``PermGroup.is_k_transitive``.
``is_connected`` does not build Inn(X): it is ``_connected_tables``, the
package's one connectivity test, a breadth-first search over k tables at once.

An independent brute-force search over all bijections exists as an oracle
for tiny orders: ``brute_force_aut``, which filters them with the same
``groups._brute_force_bijections`` as the group-side oracle, under its cap
on the bijections filtered.
"""

from dataclasses import dataclass

import numpy as np

from .groups import _brute_force_bijections, _first_witness, _row_lookup, _smallest
from .perms import Permutation, PermGroup, _colours, _dfs_first, _Search, table_automorphism_group


def inner_group(quandle):
    """Inn(X) from the columns of ``quandle.generators()``, which generate
    every column by the closure argument of ``quandles.quandle``."""
    cache = quandle._cache
    if "inn" not in cache:
        gens = [Permutation(quandle.column(x)) for x in quandle.generators().tolist()]
        cache["inn"] = PermGroup(gens, degree=quandle.order)
    return cache["inn"]


def automorphism_group_backtrack(quandle):
    """Aut(X) as a PermGroup with exact order, by the shared table search."""
    cache = quandle._cache
    if "aut" not in cache:
        cache["aut"] = table_automorphism_group(quandle)
    return cache["aut"]


def brute_force_aut(quandle):
    """Oracle: every bijection preserving the table, by exhaustive filtering; orders up to 8."""
    return [Permutation(p) for p in _brute_force_bijections(quandle.table)]


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
    tables distinct.  Each table is coloured on its own (``perms._colours``),
    and equal seeds hash alike: unequal colour histograms refuse at once, and
    otherwise each point of x may go only to the points of y of its colour.
    """
    if x.order != y.order:
        return None
    cx, cy = _colours(x.table), _colours(y.table)
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
    t = _smallest(quandle.table, n)
    cols = t.T
    rng = np.arange(n)
    row_of = np.argsort(cols[0])        # a = S_0^-1(a*0): the column S_0 is a bijection

    def sides(rows):
        # [a, b, x]: (x*b)*(a*b) against (x*a)*b, so S_{a*b} != S_b^-1 ; S_a ; S_b at x*b
        return t[cols[None], rows[:, :, None]], t[cols[row_of[rows[:, 0]], None, :], rng[:, None]]

    witness = _first_witness(t, sides)
    hom_witness = None if witness is None else witness[:2]
    earlier = _row_lookup(cols)(cols)
    repeats = np.flatnonzero(earlier != rng)
    inj_witness = (int(earlier[repeats[0]]), int(repeats[0])) if len(repeats) else None
    return EmbeddingReport(
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
