"""Permutations, the stabilizer-chain group engine and the table search.

Orders are cross-checked against brute_force_closure, a separate
word-enumeration oracle that never touches the chain code, and the table
automorphism search against Hillar and Rhea's closed form for |Aut| of a
finite abelian group.
"""

import random
import tracemalloc
from collections import defaultdict
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.groups import catalog_groups, make_symmetric
from quandles.perms import (
    _ELEMENT_CAP,
    PermGroup,
    Permutation,
    all_permutations,
    brute_force_closure,
    brute_force_k_transitive,
    compose,
    group_from_generators,
    table_automorphism_group,
)
from quandles.quandle import conj_quandle, enumerate_quandle_tables, trivial_quandle


def hillar_rhea_aut_order(factors):
    """|Aut| of the direct sum of cyclic groups of the given prime-power
    orders (Hillar and Rhea, "Automorphisms of finite abelian groups",
    Amer. Math. Monthly 114, 2007, Theorem 4.1).

    Per prime p with exponents e_1 <= ... <= e_k, and d_j, c_j the largest
    and smallest l with e_l = e_j, the p-part has order
    prod (p^d_j - p^(j-1)) * prod p^(e_j (k - d_j)) * prod p^((e_j - 1)(k - c_j + 1)).
    """
    exponents = defaultdict(list)
    for f in factors:
        if f == 1:
            continue
        p = next(q for q in range(2, f + 1) if f % q == 0)
        e = 0
        while f > 1:
            assert f % p == 0, "factors must be prime powers"
            f //= p
            e += 1
        exponents[p].append(e)
    total = 1
    for p, es in exponents.items():
        es.sort()
        k = len(es)
        d = [max(l for l in range(1, k + 1) if es[l - 1] == e) for e in es]
        c = [min(l for l in range(1, k + 1) if es[l - 1] == e) for e in es]
        total *= prod(p ** d[j] - p ** j for j in range(k))
        total *= prod(p ** (es[j] * (k - d[j])) for j in range(k))
        total *= prod(p ** ((es[j] - 1) * (k - c[j] + 1)) for j in range(k))
    return total


def test_compose_applies_left_factor_first():
    p = Permutation([1, 0, 2])
    q = Permutation([0, 2, 1])
    # (p then q): 0 -> 1 -> 2
    assert compose(p, q).images == (2, 0, 1)
    assert (p * q).images == (2, 0, 1)


def test_identity_and_degree():
    e = Permutation.identity(3)
    assert e.is_identity()
    assert e.degree == 3
    p = Permutation([2, 0, 1])
    assert (p * e.inverse()).images == p.images
    assert not p.is_identity()


def test_inverse_and_order():
    p = Permutation([1, 2, 0, 4, 3])
    assert compose(p, p.inverse()).is_identity()
    assert p.cycle_type() == (2, 3)
    assert p.order() == 6
    assert p.cycles() == [(0, 1, 2), (3, 4)]


def test_call_and_validation():
    p = Permutation([1, 0])
    assert p(0) == 1
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


def test_line_round_trip():
    p = Permutation([3, 1, 0, 2])
    assert Permutation.from_line(p.to_line()) == p


@settings(max_examples=60)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_composition_laws(a, b, c):
    p, q, r = Permutation(a), Permutation(b), Permutation(c)
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert compose(p, q).inverse() == compose(q.inverse(), p.inverse())
    assert compose(p, p.inverse()).is_identity()


def _symmetric_gens(n):
    cyc = Permutation(list(range(1, n)) + [0])
    swap = Permutation([1, 0] + list(range(2, n)))
    return [cyc, swap]


def test_symmetric_group_order_matches_brute_force():
    for n in (2, 3, 4, 5):
        g = PermGroup(_symmetric_gens(n))
        want = brute_force_closure(_symmetric_gens(n), n)
        assert g.order() == len(want)
        assert {p.images for p in g.elements()} == want


def test_large_symmetric_group():
    g = PermGroup(_symmetric_gens(7))
    assert g.order() == 5040
    assert g.stabilizer(0).order() == 720
    elems = g.elements()
    assert len({p.images for p in elems}) == 5040


def test_contains_via_sifting():
    g = PermGroup(_symmetric_gens(5))
    assert g.contains(Permutation([4, 3, 2, 1, 0]))
    cyclic = PermGroup([Permutation([1, 2, 3, 4, 0])])
    assert cyclic.order() == 5
    assert not cyclic.contains(Permutation([1, 0, 2, 3, 4]))


def test_orbit_stabilizer_balance():
    groups = [
        PermGroup(_symmetric_gens(6)),
        PermGroup([Permutation([1, 2, 3, 4, 5, 0])]),
        PermGroup([Permutation([1, 0, 3, 2, 4, 5]), Permutation([0, 1, 2, 3, 5, 4])]),
    ]
    for g in groups:
        for x in range(g.degree):
            assert len(g.orbit(x)) * g.stabilizer(x).order() == g.order()


@settings(max_examples=40)
@given(st.lists(st.permutations(list(range(6))), max_size=3))
def test_orbits_stabilizers_and_transversals_match_closure_oracle(gen_images):
    g = PermGroup(gen_images, degree=6)
    closure = brute_force_closure(gen_images, 6)
    for x in range(6):
        assert g.orbit(x) == sorted({t[x] for t in closure})
        assert {p.images for p in g.stabilizer(x).elements()} == {t for t in closure if t[x] == x}
    levels, _ = g._ensure_chain()
    for i, tr in enumerate(levels):
        for pt, rep in tr.items():
            assert rep[i] == pt
            assert rep in closure


def test_k_transitivity():
    s4 = PermGroup(_symmetric_gens(4))
    assert s4.is_k_transitive(1)
    assert s4.is_k_transitive(2)
    assert s4.is_k_transitive(4)
    c4 = PermGroup([Permutation([1, 2, 3, 0])])
    assert c4.is_k_transitive(1)
    assert not c4.is_k_transitive(2)   # order 4 < 4*3
    with pytest.raises(ValueError):
        s4.is_k_transitive(0)
    with pytest.raises(ValueError):
        s4.is_k_transitive(5)


def _assert_chain_read_matches_tuple_bfs(group):
    n = group.degree
    for k in range(1, n + 1):
        want = brute_force_k_transitive(group.generators, n, k)
        assert group.is_k_transitive(k) == want, (group.generators, k)


def test_k_transitivity_matches_tuple_bfs_on_inn_and_aut_of_every_small_quandle():
    tables = 0
    for n in range(1, 6):
        for x in enumerate_quandle_tables(n):
            tables += 1
            _assert_chain_read_matches_tuple_bfs(PermGroup([x.column(b) for b in range(n)], degree=n))
            _assert_chain_read_matches_tuple_bfs(table_automorphism_group(x.rows()))
    assert tables == 447


@settings(max_examples=60)
@given(st.lists(st.permutations(list(range(6))), max_size=3))
def test_k_transitivity_matches_tuple_bfs_on_random_groups(gen_images):
    _assert_chain_read_matches_tuple_bfs(PermGroup(gen_images, degree=6))


def test_transitivity_degree_is_divisible():
    # |G| is divisible by n(n-1)...(n-k+1) when G is k-transitive
    g = PermGroup(_symmetric_gens(6))
    n, total = 6, g.order()
    falling = 1
    for k in range(1, 4):
        falling *= n - k + 1
        if g.is_k_transitive(k):
            assert total % falling == 0


def test_elements_enumeration_is_deterministic():
    gens = [Permutation([1, 2, 0, 3]), Permutation([0, 1, 3, 2])]
    a = [p.images for p in PermGroup(gens).elements()]
    b = [p.images for p in PermGroup(gens).elements()]
    assert a == b


def _recursive_walk(group):
    """Oracle: the elements as the former recursive walk over the chain
    listed them, one tuple at a time."""
    levels, _ = group._ensure_chain()
    n = group.degree
    reps = [[tr[p] for p in sorted(tr)] for tr in levels if len(tr) > 1]

    def walk(i):
        if i == len(reps):
            yield tuple(range(n))
            return
        for deeper in walk(i + 1):
            for u in reps[i]:
                yield tuple(u[x] for x in deeper)

    return list(walk(0))


def test_element_order_matches_the_recursive_walk():
    s5 = PermGroup(_symmetric_gens(5))                           # Schreier-Sims chain
    aut = table_automorphism_group(trivial_quandle(6).rows())    # search chain, Sym(6)
    for g in (s5, aut, aut.stabilizer(0), s5.stabilizer(2)):
        want = _recursive_walk(g)
        arr = g.element_array()
        assert arr.shape == (g.order(), g.degree) and arr.dtype == np.int8
        assert list(map(tuple, arr.tolist())) == want
        assert [p.images for p in g.elements()] == want


def test_element_array_refuses_past_its_cap():
    g = PermGroup(_symmetric_gens(40))
    assert g.order() == factorial(40)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceed the element cap"):
            g.element_array()
        with pytest.raises(ValueError, match="exceed the element cap"):
            g.elements()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # the cap counts entries: Sym(10) at degree 10 fits, Sym(11) does not
    assert factorial(10) * 10 <= _ELEMENT_CAP < factorial(11) * 11


def test_trivial_and_identity_groups():
    g = PermGroup([], degree=5)
    assert g.order() == 1
    assert g.orbit(3) == [3]
    assert list(g.elements()) == [Permutation.identity(5)]
    assert g.base() == []
    assert PermGroup([Permutation.identity(3)]).order() == 1


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        PermGroup([Permutation([1, 0]), Permutation([0, 1, 2])])


def test_line_serialization_round_trip():
    g = PermGroup(_symmetric_gens(5))
    h = PermGroup.from_lines(g.to_lines())
    assert h.order() == g.order()
    assert all(g.contains(p) for p in h.generators)


def test_base_points_increase():
    for gens in ([_symmetric_gens(6)[0]], _symmetric_gens(5), [Permutation([0, 1, 3, 4, 2])]):
        base = PermGroup(gens).base()
        assert base == sorted(base)
        assert len(base) == len(set(base))


def test_group_from_generators_helper():
    g = group_from_generators([[1, 2, 0]])
    assert g.order() == 3
    assert g.degree == 3


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24


@settings(max_examples=30)
@given(st.permutations(list(range(5))))
def test_every_element_of_closure_is_contained(images):
    p = Permutation(images)
    g = PermGroup([p, Permutation([1, 0, 2, 3, 4])])
    for q in g.elements():
        assert g.contains(q)
    assert g.order() == len(brute_force_closure(list(g.generators), 5))


def test_hillar_rhea_formula_known_values():
    assert hillar_rhea_aut_order([1]) == 1
    assert hillar_rhea_aut_order([9]) == 6            # units mod 9
    assert hillar_rhea_aut_order([4, 2]) == 8         # Aut(Z4 x Z2) is dihedral of order 8
    assert hillar_rhea_aut_order([3, 2]) == 2
    assert hillar_rhea_aut_order([2] * 5) == 9999360  # |GL(5, 2)|


def test_table_search_matches_hillar_rhea_on_abelian_groups():
    for g in catalog_groups(32, include_nonabelian=False):
        factors, _ = g.abelian_coordinates
        found = table_automorphism_group(g.table.tolist()).order()
        assert found == hillar_rhea_aut_order(factors), g.name


def _search_chain_tables(rng):
    for n in range(1, 6):
        for x in enumerate_quandle_tables(n):
            yield x.rows()
    for g in catalog_groups(32, include_nonabelian=False):
        yield g.table.tolist()
    conj = conj_quandle(make_symmetric(4), 1).rows()
    for _ in range(3):
        sigma = list(range(24))
        rng.shuffle(sigma)
        moved = [[0] * 24 for _ in range(24)]
        for a in range(24):
            for b in range(24):
                moved[sigma[a]][sigma[b]] = sigma[conj[a][b]]
        yield moved


def test_search_chain_matches_an_independent_rebuild():
    # the chain the search hands back against Schreier-Sims run from scratch
    # on its generators, and against the closure oracle where that is small
    rng = random.Random(6)
    tables = 0
    for rows in _search_chain_tables(rng):
        tables += 1
        n = len(rows)
        aut = table_automorphism_group(rows)
        rebuilt = PermGroup(aut.generators, degree=n)
        assert aut.order() == rebuilt.order()
        assert aut.base() == rebuilt.base()
        if aut.order() <= 50_000:
            assert set(map(tuple, aut.element_array().tolist())) == set(
                map(tuple, rebuilt.element_array().tolist())
            )
        stab = aut.stabilizer(0)
        assert all(g(0) == 0 for g in stab.generators)
        assert PermGroup(stab.generators, degree=n).order() == stab.order()
        if aut.order() <= 5_000:
            closure = brute_force_closure(aut.generators, n)
            assert {p.images for p in stab.elements()} == {t for t in closure if t[0] == 0}
        gens = [g.images for g in aut.generators]
        for _ in range(4):
            outside = list(range(n))
            rng.shuffle(outside)
            inside = tuple(range(n))
            for g in rng.choices(gens, k=6) if gens else ():
                inside = tuple(g[x] for x in inside)
            assert aut.contains(outside) == rebuilt.contains(outside)
            assert aut.contains(inside) and rebuilt.contains(inside)
    assert tables == 447 + 55 + 3
