"""Permutations, the stabilizer-chain group engine and the table search.

Orders are cross-checked against brute_force_closure, a separate
word-enumeration oracle that never touches the chain code, and the table
automorphism search against Hillar and Rhea's closed form for |Aut| of a
finite abelian group.
"""

import ast
import hashlib
import itertools
import random
import tracemalloc
from collections import defaultdict
from math import factorial, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles.perms as perms
from quandles.groups import (
    FiniteGroup,
    automorphism_array,
    automorphism_group,
    catalog_groups,
    direct_product,
    make_abelian,
    make_cyclic,
    make_dicyclic,
    make_dihedral_group,
    make_quaternion8,
    make_symmetric,
    scalar_map,
)
from quandles.perms import (
    _ELEMENT_CAP,
    PermGroup,
    Permutation,
    _dfs_first,
    _Search,
    automorphism_group_backtrack,
    brute_force_closure,
    brute_force_k_transitive,
    compose,
    quandle_isomorphic,
    table_automorphism_group,
)
from quandles.quandle import (
    Quandle,
    alexander,
    conj_quandle,
    dihedral,
    enumerate_quandle_tables,
    takasaki,
    trivial_quandle,
)
from quandles.symmetry import analyze_quandle, aut_is_doubly_transitive, brute_force_aut, inner_group


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


def test_str_is_cycle_notation_and_repr_wraps_it():
    assert str(Permutation.identity(4)) == "()"
    assert str(Permutation([1, 0, 3, 2])) == "(0 1)(2 3)"
    assert repr(Permutation.identity(4)) == "Permutation(id, degree=4)"
    assert repr(Permutation([1, 0, 3, 2, 4])) == "Permutation((0 1)(2 3), degree=5)"


def _order_by_composition(p):
    k, cur = 1, p
    while not cur.is_identity():
        cur, k = compose(cur, p), k + 1
    return k


def test_element_order_matches_repeated_composition():
    for n in range(1, 7):
        for images in itertools.permutations(range(n)):
            p = Permutation(images)
            assert p.order() == _order_by_composition(p), images
    # one cycle of each prime length 2..17 on 58 points: order 510,510, which
    # composing until the identity took about a second to reach
    images, start = [], 0
    for k in (2, 3, 5, 7, 11, 13, 17):
        images += [start + (i + 1) % k for i in range(k)]
        start += k
    assert Permutation(images).order() == 2 * 3 * 5 * 7 * 11 * 13 * 17


def test_call_and_validation():
    p = Permutation([1, 0])
    assert p(0) == 1
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


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
    assert g.stabilizer().order() == 720
    elems = g.elements()
    assert len({p.images for p in elems}) == 5040


def test_contains_via_sifting():
    g = PermGroup(_symmetric_gens(5))
    assert g.contains(Permutation([4, 3, 2, 1, 0]))
    cyclic = PermGroup([Permutation([1, 2, 3, 4, 0])])
    assert cyclic.order() == 5
    assert not cyclic.contains(Permutation([1, 0, 2, 3, 4]))


@settings(max_examples=40)
@given(st.lists(st.permutations(list(range(6))), max_size=3))
def test_orbits_stabilizers_and_transversals_match_closure_oracle(gen_images):
    g = PermGroup(gen_images, degree=6)
    closure = brute_force_closure(gen_images, 6)
    levels, _ = g._ensure_chain()
    assert sorted(levels[0]) == sorted({t[0] for t in closure})
    assert {p.images for p in g.stabilizer().elements()} == {t for t in closure if t[0] == 0}
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
            _assert_chain_read_matches_tuple_bfs(table_automorphism_group(x))
    assert tables == 447


@settings(max_examples=60)
@given(st.lists(st.permutations(list(range(6))), max_size=3))
def test_k_transitivity_matches_tuple_bfs_on_random_groups(gen_images):
    _assert_chain_read_matches_tuple_bfs(PermGroup(gen_images, degree=6))


def test_an_intransitive_group_is_refused_before_any_chain_is_built():
    # <(0 1), (2 3 4)> on 5 points: orbits {0, 1} and {2, 3, 4}
    g = PermGroup([[1, 0, 2, 3, 4], [0, 1, 3, 4, 2]])
    assert [g.is_k_transitive(k) for k in (1, 2, 3)] == [False, False, False]
    assert g._chain is None
    assert g.order() == 6 and g._chain is not None
    assert not g.is_k_transitive(1)                    # read off the chain now


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
    aut = table_automorphism_group(trivial_quandle(6))           # search chain, Sym(6)
    for g in (s5, aut, aut.stabilizer(), s5.stabilizer()):
        want = _recursive_walk(g)
        arr = g.element_array()
        assert arr.shape == (g.order(), g.degree) and arr.dtype == np.uint8
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
    assert all(len(tr) == 1 for tr in g._ensure_chain()[0])
    assert list(g.elements()) == [Permutation.identity(5)]
    assert PermGroup([Permutation.identity(3)]).order() == 1


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        PermGroup([Permutation([1, 0]), Permutation([0, 1, 2])])


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
    for g in (g for g in catalog_groups(32) if g.is_abelian()):
        factors, _ = g.abelian_coordinates
        found = table_automorphism_group(g).order()
        assert found == hillar_rhea_aut_order(factors), g.name


def _search_chain_tables(rng):
    for n in range(1, 6):
        for x in enumerate_quandle_tables(n):
            yield x
    for g in (g for g in catalog_groups(32) if g.is_abelian()):
        yield g
    conj = conj_quandle(make_symmetric(4), 1).table.tolist()
    for _ in range(3):
        sigma = list(range(24))
        rng.shuffle(sigma)
        moved = [[0] * 24 for _ in range(24)]
        for a in range(24):
            for b in range(24):
                moved[sigma[a]][sigma[b]] = sigma[conj[a][b]]
        yield Quandle(moved)


def test_search_chain_matches_an_independent_rebuild():
    # the chain the search hands back against Schreier-Sims run from scratch
    # on its generators, and against the closure oracle where that is small
    rng = random.Random(6)
    tables = 0
    for t in _search_chain_tables(rng):
        tables += 1
        n = t.order
        aut = table_automorphism_group(t)
        rebuilt = PermGroup(aut.generators, degree=n)
        assert aut.order() == rebuilt.order()
        assert [len(tr) for tr in aut._ensure_chain()[0]] == [len(tr) for tr in rebuilt._ensure_chain()[0]]
        if aut.order() <= 50_000:
            assert set(map(tuple, aut.element_array().tolist())) == set(
                map(tuple, rebuilt.element_array().tolist())
            )
        stab = aut.stabilizer()
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


# sha256 of the Schreier-Sims chains of Inn for round 0 of the benchmark's
# analyze-stream seed 1401 (70 relabeled tables of order 3 to 63) and of the
# right regular representation, every column a generator, of each catalog
# group of order <= 16: every level's transversal in insertion order, then
# the strong generators.  Computed before the chain kept its inverse reps and
# skipped tree edges; the chain build must not move it.
CHAIN_DIGEST = "b3470b02704a5004e0868b1cb44b43a76dc2b55882f361f9f6dfdad431cb1b4c"


def test_schreier_sims_chains_are_pinned(bench_inputs):
    groups = [inner_group(Quandle(t)) for _, _, t in bench_inputs.stream_rounds(1401, 1)[0]]
    groups += [PermGroup(g.table.T.tolist(), degree=g.order) for g in catalog_groups(16)]
    h = hashlib.sha256()
    for g in groups:
        levels, sgens = g._ensure_chain()
        h.update(repr(([list(tr.items()) for tr in levels], sgens)).encode())
    assert (len(groups), h.hexdigest()) == (70 + 35, CHAIN_DIGEST)


# -- gates of the table search ----------------------------------------------------
#
# The search prunes by colour and propagates through generator columns only;
# these gates compare it with oracles that share neither.


def _relabeled(table, sigma):
    """The same table under the relabeling a -> sigma[a]."""
    moved = np.empty_like(table)
    moved[sigma[:, None], sigma[None, :]] = sigma[table]
    return moved


def test_search_finds_every_automorphism_of_every_quandle_up_to_order_5():
    # element sets against brute_force_aut, which filters all n! bijections
    tables = 0
    for n in range(1, 6):
        for x in enumerate_quandle_tables(n):
            tables += 1
            found = set(map(tuple, table_automorphism_group(x).element_array().tolist()))
            assert found == {p.images for p in brute_force_aut(x)}, x.table.tolist()
    assert tables == 447


def test_search_keeps_the_aut_order_of_conj_s4_on_any_labeling():
    table = conj_quandle(make_symmetric(4), 1).table
    rng = np.random.default_rng(4)
    for sigma in [np.arange(24)] + [rng.permutation(24) for _ in range(3)]:
        assert table_automorphism_group(Quandle(_relabeled(table, sigma))).order() == 24


def _plain_first_isomorphism(x, y):
    """The depth-first step with one colour: every point of y is a candidate."""
    one = np.zeros(x.order, dtype=np.int64)
    return _dfs_first(_Search(x, y, one, one))


def test_isomorphism_agrees_with_the_plain_search_on_relabeled_pairs():
    # both return the least isomorphism in lexicographic order, or None
    rng = np.random.default_rng(16)
    z7, f9 = make_cyclic(7), make_abelian([3, 3])
    pool = [
        dihedral(6), dihedral(7), dihedral(8), trivial_quandle(6), conj_quandle(make_symmetric(3)),
        conj_quandle(make_quaternion8()), conj_quandle(make_dihedral_group(4)),
        alexander(z7, scalar_map(z7, 2)), alexander(z7, scalar_map(z7, 3)),
        takasaki(f9), alexander(f9, scalar_map(f9, 2)), *enumerate_quandle_tables(4),
    ]
    found = refused = 0
    for x in pool:
        for y in pool:
            if x.order != y.order:
                continue
            y = Quandle(_relabeled(y.table, rng.permutation(y.order)))
            iso = quandle_isomorphic(x, y)
            assert (iso and iso.images) == _plain_first_isomorphism(x, y)
            if iso is None:
                refused += 1
                continue
            found += 1
            f = np.array(iso.images)
            assert np.array_equal(f[x.table], y.table[f[:, None], f[None, :]])
    assert found > 100 and refused > 1000


def _relabeled_group(group, rng):
    """group under a random relabeling that keeps the identity 0."""
    sigma = np.concatenate([[0], 1 + rng.permutation(group.order - 1)])
    return FiniteGroup(_relabeled(group.table, sigma))


def _brute_force_isomorphic(g, h):
    """Oracle: some bijection fixing 0 carries g's table onto h's, by
    filtering all (n - 1)! of them, 40,320 at a time."""
    n = g.order
    rest = itertools.permutations(range(1, n))
    while chunk := list(itertools.islice(rest, factorial(8))):
        f = np.hstack([np.zeros((len(chunk), 1), dtype=np.uint8), np.array(chunk, dtype=np.uint8)])
        if (f[:, g.table] == h.table[f[:, :, None], f[:, None, :]]).all(axis=(1, 2)).any():
            return True
    return False


def test_isomorphism_search_takes_groups():
    # a relabeled catalog group is found isomorphic by a map keeping all n^2
    # products; two catalog groups of one order are not, which brute force
    # over the bijections fixing 0 confirms to order 10 (9! of them, under a
    # second)
    rng = np.random.default_rng(42)
    catalog = catalog_groups(16)
    for g in catalog:
        h = _relabeled_group(g, rng)
        iso = quandle_isomorphic(g, h)
        assert iso is not None, g.name
        f = np.array(iso.images)
        assert np.array_equal(f[g.table], h.table[f[:, None], f[None, :]]), g.name
    refused = brute = 0
    for g, h in itertools.combinations(catalog, 2):
        if g.order != h.order:
            continue
        assert quandle_isomorphic(g, h) is None, (g.name, h.name)
        assert quandle_isomorphic(g, _relabeled_group(h, rng)) is None, (g.name, h.name)
        refused += 1
        if g.order <= 10:
            assert not _brute_force_isomorphic(g, h), (g.name, h.name)
            assert _brute_force_isomorphic(g, _relabeled_group(g, rng)), g.name
            brute += 1
    # pairs of one order among the catalog's groups of order 4, 6, 8, 9, 10, 12, 14 and 16
    assert (refused, brute) == (1 + 1 + 10 + 1 + 1 + 3 + 1 + 36, 1 + 1 + 10 + 1 + 1)


def test_each_group_and_quandle_is_searched_once(monkeypatch):
    # every route to Aut reads the one cache entry its first search left
    search, searched = perms.table_automorphism_group, []
    monkeypatch.setattr(perms, "table_automorphism_group", lambda t: searched.append(t) or search(t))
    g, x = make_dihedral_group(6), dihedral(6)
    aut = automorphism_group_backtrack(g)
    assert g._cache["aut"] is aut and aut.order() == 12
    assert len(automorphism_array(g)) == len(automorphism_group(g)) == 12
    assert automorphism_group_backtrack(g) is aut
    assert analyze_quandle(x).aut_order == 12 and not aut_is_doubly_transitive(x)
    assert automorphism_group_backtrack(x) is x._cache["aut"]
    assert [id(t) for t in searched] == [id(g), id(x)]


_SEARCH_PARTS = {"_Search", "_dfs_first", "_colours", "table_automorphism_group"}


def test_only_perms_names_the_table_search_parts():
    # every other module reaches the search through automorphism_group_backtrack
    # and quandle_isomorphic: no import, attribute or call of its parts
    others = [p for p in Path(perms.__file__).parent.glob("*.py") if p.name != "perms.py"]
    named = {}
    for path in others:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in _SEARCH_PARTS:
                named.setdefault(path.name, set()).add(name)
    assert {"groups.py", "symmetry.py", "theorems.py"} <= {p.name for p in others}
    assert named == {}


def _row_walk_lengths(table):
    """Not an invariant: per row map x -> a*x, the lengths of the chains a walk
    visits from each unseen point in label order.  A quandle's row map need
    not be a bijection, so these chains depend on the labels."""
    n = len(table)
    out = []
    for row in np.asarray(table).tolist():
        seen, lengths = [False] * n, []
        for x in range(n):
            length = 0
            while not seen[x]:
                seen[x], length, x = True, length + 1, row[x]
            lengths.append(length)
        out.append(sorted(lengths))
    return np.array(out)


def test_a_seed_that_is_not_invariant_breaks_the_search(monkeypatch):
    # the gates must be able to fail: seeding with the row "cycle type" loses
    # automorphisms of Conj(D8), whose |Aut| is 256
    x = conj_quandle(make_dihedral_group(8), 1)
    assert table_automorphism_group(x).order() == 256
    seeds = perms._colour_seeds
    monkeypatch.setattr(perms, "_colour_seeds", lambda t: np.hstack([seeds(t), _row_walk_lengths(t)]))
    assert table_automorphism_group(x).order() != 256


def test_colours_only_prune(monkeypatch, bench_inputs):
    # with every point one colour the search returns the same group with the
    # same generators; only its work grows: Conj(D8) takes 12,401,371 forced
    # checks instead of 2,844, so the budget is raised for this test alone
    tables = [*catalog_groups(12), conj_quandle(make_dihedral_group(8), 1)]
    tables += [Quandle(t) for _, _, t in bench_inputs.stream_rounds(1401, 1)[0]]
    want = [table_automorphism_group(t) for t in tables]
    monkeypatch.setattr(perms, "_colours", lambda table: np.zeros(len(table), dtype=np.uint64))
    monkeypatch.setattr(perms, "_SEARCH_BUDGET", 20_000_000)
    for t, group in zip(tables, want):
        found = table_automorphism_group(t)
        assert found.order() == group.order(), t
        assert [p.images for p in found.generators] == [p.images for p in group.generators], t


def test_hard_conjugation_tables_take_under_5000_forced_checks(monkeypatch):
    # Conj(D4 x Z2) needs 4,617 and Conj(Dic4) and Conj(D8) 2,844 each; before
    # colours pruned the candidates the search made 191,339 and 93,326 nodes
    monkeypatch.setattr(perms, "_SEARCH_BUDGET", 5000)
    d4z2 = direct_product(make_dihedral_group(4), make_cyclic(2))
    for group, order in ((d4z2, 73_728), (make_dicyclic(4), 256), (make_dihedral_group(8), 256)):
        assert table_automorphism_group(conj_quandle(group, 1)).order() == order


# The table search's forced checks (``_Search.work``) and generators on every
# quandle of order <= 4, each catalog group of order <= 16 and round 0 of
# analyze-stream seed 2101: their total, and the sha256 of each search's
# (work, generators) in turn.  Computed before ``_assign`` walked agens and
# the trail directly; the budget accounting must not drift.
SEARCH_WORK_PIN = (40_986, "cf40a428e75b87aea6bda11ed786a85cbf633d445544634e0bd4eefc9928cd55")


def test_search_work_and_generators_are_pinned(monkeypatch, bench_inputs):
    searches = []

    class Recorded(_Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(perms, "_Search", Recorded)
    tables = [*(x for n in range(1, 5) for x in enumerate_quandle_tables(n)), *catalog_groups(16)]
    tables += [Quandle(t) for _, _, t in bench_inputs.stream_rounds(2101, 1)[0]]
    h, total = hashlib.sha256(), 0
    for t in tables:
        searches.clear()
        gens = [p.images for p in table_automorphism_group(t).generators]
        (search,) = searches
        total += search.work
        h.update(repr((search.work, gens)).encode())
    assert len(tables) == 43 + 35 + 70
    assert (total, h.hexdigest()) == SEARCH_WORK_PIN
