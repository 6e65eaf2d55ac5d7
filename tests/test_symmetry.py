"""Symmetry computations: Inn, Aut, transitivity, isomorphism, embedding.

The backtracking automorphism search is confronted with brute_force_aut,
which filters all n! permutations, on every family small enough for that.
Frozen orders: |Aut(R_n)| = n phi(n) and the 12-point trivial quandle at
12 factorial.
"""

import math

import numpy as np
import pytest

import quandles.groups as G
import quandles.quandle as Q
import quandles.perms as perms
import quandles.symmetry as sym
import quandles.theorems as T
from quandles import cli
from quandles.perms import Permutation, brute_force_closure

DIHEDRAL_ORDERS = {3: (6, 6), 5: (20, 10), 7: (42, 14), 9: (54, 18), 11: (110, 22)}


def _samples_up_to_6():
    z5 = G.make_cyclic(5)
    return [
        Q.dihedral(3),
        Q.dihedral(4),
        Q.dihedral(5),
        Q.dihedral(6),
        Q.trivial_quandle(1),
        Q.trivial_quandle(5),
        Q.conj_quandle(G.make_symmetric(3), 1),
        Q.alexander(z5, G.scalar_map(z5, 2)),
        Q.takasaki(G.make_abelian([2, 2])),
    ]


def test_backtracking_matches_brute_force():
    for x in _samples_up_to_6():
        fast = sym.automorphism_group_backtrack(x)
        slow = sym.brute_force_aut(x)
        assert fast.order() == len(slow)
        assert {p.images for p in fast.elements()} == {p.images for p in slow}


def test_brute_force_oracles_filter_at_most_8_factorial_bijections():
    # 8! bijections: every one of a quandle of order 8, or those fixing 0 of
    # a group of order 9; one point more is refused before any is tried
    r8 = Q.dihedral(8)
    want = {p.images for p in sym.automorphism_group_backtrack(r8).elements()}
    assert {p.images for p in sym.brute_force_aut(r8)} == want and len(want) == 32
    assert len(G.brute_force_group_automorphisms(G.make_cyclic(9))) == 6
    with pytest.raises(ValueError, match="filter 362,880 bijections, above the cap 40,320"):
        sym.brute_force_aut(Q.dihedral(9))
    with pytest.raises(ValueError, match="filter 362,880 bijections, above the cap 40,320"):
        G.brute_force_group_automorphisms(G.make_cyclic(10))


def test_dihedral_symmetry_orders():
    for n, (aut, inn) in DIHEDRAL_ORDERS.items():
        x = Q.dihedral(n)
        assert sym.automorphism_group_backtrack(x).order() == aut
        assert sym.inner_group(x).order() == inn


def test_even_dihedral_inner_order():
    # for even n the doubled subgroup has index 2, so Inn collapses to order n
    assert sym.inner_group(Q.dihedral(4)).order() == 4
    assert sym.inner_group(Q.dihedral(6)).order() == 6


def test_trivial_quandle_aut_is_everything():
    x = Q.trivial_quandle(12)
    assert sym.automorphism_group_backtrack(x).order() == math.factorial(12)
    assert sym.inner_group(x).order() == 1


def test_aut_order_bound_respected(monkeypatch, tmp_path, capsys):
    # the search is bounded by its forced checks, not by the order of the table
    assert sym.automorphism_group_backtrack(Q.trivial_quandle(90)).order() == math.factorial(90)
    monkeypatch.setattr(perms, "_SEARCH_BUDGET", 100)
    with pytest.raises(ValueError, match="gave up after 100 forced checks"):
        sym.automorphism_group_backtrack(Q.trivial_quandle(6))   # needs 186
    path = tmp_path / "t6.qnd"
    Q.save_quandle(Q.trivial_quandle(6), path)
    assert cli.main(["analyze", str(path)]) == 2
    assert "gave up after 100 forced checks" in capsys.readouterr().err


def test_inner_generators_are_columns():
    x = Q.dihedral(5)
    inn = sym.inner_group(x)
    assert [p.images for p in inn.generators] == [x.column(g) for g in x.generators().tolist()]
    assert all(inn.contains(x.column(c)) for c in range(5))


def test_inner_chain_from_generator_columns_equals_the_chain_from_every_column(bench_inputs):
    # each non-generator column lies in the group of the generator columns
    # before it, so it sifts to the identity where Schreier-Sims over all n
    # columns met it: the two chains agree level by level, in insertion order
    tables = [x for n in range(1, 6) for x in Q.enumerate_quandle_tables(n)]
    tables += [Q.Quandle(t) for _, _, t in bench_inputs.stream_rounds(1401, 1)[0]]
    tables += [Q.takasaki(G.make_abelian([3, 3, 3])), Q.dihedral(343),
               Q.conj_quandle(G.make_symmetric(4), 1)]
    for x in tables:
        n = x.order
        inn = sym.inner_group(x)
        assert [p.images for p in inn.generators] == [x.column(g) for g in x.generators().tolist()]
        levels, sgens = inn._ensure_chain()
        want_levels, want_sgens = perms.PermGroup([x.column(c) for c in range(n)], degree=n)._ensure_chain()
        assert [list(tr.items()) for tr in levels] == [list(tr.items()) for tr in want_levels]
        assert sgens == want_sgens
    assert len(tables) == 447 + 70 + 3


def test_inner_is_normal_in_aut():
    for x in (Q.dihedral(6), Q.conj_quandle(G.make_symmetric(3), 1)):
        inn = sym.inner_group(x)
        aut = sym.automorphism_group_backtrack(x)
        for f in aut.generators:
            finv = f.inverse()
            for s in inn.generators:
                conj = finv * s * f
                assert inn.contains(conj)


def test_every_inner_map_is_an_automorphism():
    for x in _samples_up_to_6():
        aut = sym.automorphism_group_backtrack(x)
        for c in range(x.order):
            assert aut.contains(x.column(c))


def test_connectivity():
    assert sym.is_connected(Q.dihedral(3))
    assert sym.is_connected(Q.dihedral(9))
    assert not sym.is_connected(Q.dihedral(4))
    assert not sym.is_connected(Q.trivial_quandle(3))
    assert sym.is_connected(Q.trivial_quandle(1))
    g9 = G.make_abelian([3, 3])
    assert sym.is_connected(Q.alexander(g9, G.scalar_map(g9, 2)))


def test_connectivity_matches_closure_oracle_on_every_small_table():
    # one Inn orbit iff the brute-force closure of the columns moves 0 everywhere
    tables = 0
    for n in range(1, 6):
        for x in Q.enumerate_quandle_tables(n):
            tables += 1
            reach = {g[0] for g in brute_force_closure([x.column(b) for b in range(n)], n)}
            assert sym.is_connected(x) == (len(reach) == n)
    assert tables == 447


def test_batched_connectivity_matches_closure_oracle_on_every_small_alexander_quandle():
    # one breadth-first search over the (k, n, n) tables of Alex(G, phi) for all
    # of Aut(G) at once, against the closure of the columns of gen_alexander(G, phi)
    maps = 0
    for g in G.catalog_groups(12):
        n = g.order
        tables = Q._alexander_tables(g, G.automorphism_array(g))
        batched = sym._connected_tables(tables)
        for phi, table, connected in zip(G.automorphism_group(g), tables, batched):
            x = Q.gen_alexander(g, phi)
            assert np.array_equal(x.table, table), (g.name, phi)
            reach = {p[0] for p in brute_force_closure([x.column(b) for b in range(n)], n)}
            assert connected == (len(reach) == n), (g.name, phi)
            maps += 1
    assert maps == sum(len(G.automorphism_group(g)) for g in G.catalog_groups(12))


def test_two_point_homogeneity():
    assert sym.is_two_point_homogeneous(Q.dihedral(3))
    assert not sym.is_two_point_homogeneous(Q.dihedral(5))   # Inn order 10 < 20
    with pytest.raises(ValueError):
        sym.is_two_point_homogeneous(Q.trivial_quandle(1))


def _scalar_alexander_up_to_49():
    """Alex((Z/p)^d, u) for every odd prime p, p^d <= 49 and unit u != 1."""
    for p in (p for p in range(3, 50) if all(p % k for k in range(2, p))):
        for d in (1, 2, 3):
            if p ** d <= 49:
                group = G.make_abelian([p] * d)
                for u in range(2, p):
                    yield Q.alexander(group, G.scalar_map(group, u))


def test_double_transitivity_two_routes_agree():
    negatives = [Q.dihedral(9), Q.dihedral(15), Q.conj_quandle(G.make_symmetric(4), 1)]
    scalar = list(_scalar_alexander_up_to_49())
    assert len(scalar) == 308
    for x in (Q.dihedral(3), Q.dihedral(5), Q.trivial_quandle(2), Q.trivial_quandle(4),
              *negatives, *scalar):
        via_stab = sym.aut_is_doubly_transitive(x)
        via_bfs = perms.brute_force_k_transitive(sym.automorphism_group_backtrack(x).generators, x.order, 2)
        assert via_stab == via_bfs
    assert sym.aut_is_doubly_transitive(Q.dihedral(5))
    assert not sym.aut_is_doubly_transitive(Q.dihedral(9))   # 54 < 72
    assert not any(sym.aut_is_doubly_transitive(x) for x in negatives)
    assert all(sym.aut_is_doubly_transitive(x) for x in scalar)


def _unit_order(u, p):
    k, v = 1, u % p
    while v != 1:
        k, v = k + 1, v * u % p
    return k


@pytest.mark.parametrize("p, d, u", [(3, 5, 2), (5, 3, 2)])
def test_scalar_quandles_past_order_81(p, d, u):
    # |Aut| = p^d |GL(d, p)| and |Inn| = p^d ord(u), with Aut doubly transitive;
    # T(G) is Alex(G, -1)
    group = G.make_abelian([p] * d)
    x = Q.takasaki(group) if u == p - 1 else Q.alexander(group, G.scalar_map(group, u))
    info = sym.analyze_quandle(x)
    q = p ** d
    assert info.order == q
    assert info.aut_order == q * math.prod(q - p ** i for i in range(d))
    assert info.inn_order == q * _unit_order(u, p)
    assert info.aut_doubly_transitive is True


def test_isomorphism_found_and_verified():
    x = Q.dihedral(5)
    relabel = Permutation([2, 4, 1, 0, 3])
    img = relabel.images
    moved = [[0] * 5 for _ in range(5)]
    for a in range(5):
        for b in range(5):
            moved[img[a]][img[b]] = img[x.op(a, b)]
    y = Q.validate_axioms(moved)
    iso = sym.quandle_isomorphic(x, y)
    assert iso is not None
    for a in range(5):
        for b in range(5):
            assert iso(x.op(a, b)) == y.op(iso(a), iso(b))


def test_isomorphism_rejects():
    assert sym.quandle_isomorphic(Q.dihedral(4), Q.trivial_quandle(4)) is None
    assert sym.quandle_isomorphic(Q.dihedral(3), Q.dihedral(5)) is None
    z5 = G.make_cyclic(5)
    a = Q.alexander(z5, G.scalar_map(z5, 2))
    b = Q.alexander(z5, G.scalar_map(z5, 3))
    # distinct scalars give distinct classes: order 5 has three connected quandles
    assert sym.quandle_isomorphic(a, b) is None
    assert sym.quandle_isomorphic(a, a) is not None


def test_each_table_finds_its_generators_once(monkeypatch):
    # the constructor's check finds a table's generating set; the searches and
    # the preservation check read it back instead of finding it again
    find, calls = perms._generators, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return find(*args, **kwargs)

    patched = [mod for mod in (perms, G, Q, sym, T, cli) if getattr(mod, "_generators", None) is find]
    for mod in patched:
        monkeypatch.setattr(mod, "_generators", counted)
    assert patched
    z7 = G.make_cyclic(7)
    maps = G.automorphism_array(z7)
    calls.clear()
    x = Q.takasaki(z7)
    assert sym.automorphism_group_backtrack(x).order() == 42
    assert sym.quandle_isomorphic(x, x).is_identity()
    rep = T.TheoremReport("generators")
    T._check_preserved(rep, x, z7, range(7), maps, "T(Z7)")
    assert rep.passed and calls == [7]
    calls.clear()
    g = G.make_dihedral_group(6)
    assert len(G.automorphism_array(g)) == 12       # n phi(n) for D_n, n = 6
    assert calls == [12]


def test_embedding_report_odd():
    x = Q.dihedral(9)
    rep = sym.embed_in_conj_inn(x)
    assert rep.is_homomorphism
    assert rep.is_injective
    assert rep.is_embedding
    assert rep.inn_order == 18


def test_embedding_report_even_collision():
    rep = sym.embed_in_conj_inn(Q.dihedral(4))
    assert rep.is_homomorphism        # conjugation identity is axiom 3
    assert not rep.is_injective
    assert rep.injectivity_witness == (0, 2)
    assert not rep.is_embedding


def test_embedding_homomorphism_holds_beyond_involutory_quandles():
    # S_{a*b} = S_b^-1 ; S_a ; S_b is axiom 3, so it holds in every quandle
    z5, z7 = G.make_cyclic(5), G.make_cyclic(7)
    small = [x for n in range(1, 6) for x in Q.enumerate_quandle_tables(n) if not Q.is_involutory(x)]
    assert small
    for x in (Q.alexander(z5, G.scalar_map(z5, 2)), Q.alexander(z7, G.scalar_map(z7, 3)),
              Q.conj_quandle(G.make_symmetric(3), 1), *small):
        assert not Q.is_involutory(x)
        rep = sym.embed_in_conj_inn(x)
        assert rep.is_homomorphism, rep.homomorphism_witness


class _ColumnTable:
    """A table whose columns are permutations, read the way embed_in_conj_inn
    reads a quandle but never checked against the axioms."""

    def __init__(self, table):
        self.table, self.order, self._cache = table, len(table), {}

    def column(self, b):
        return tuple(self.table[:, b].tolist())

    def generators(self):
        return np.arange(self.order)


def _embedding_witnesses_by_loop(t):
    """Reference: the first (a, b) with S_{a*b} != S_b^-1 ; S_a ; S_b and the
    first (earlier, a) with S_a equal to an earlier column, or None."""
    n = len(t)
    cols = [tuple(t[:, x].tolist()) for x in range(n)]
    inv_cols = [tuple(np.argsort(c).tolist()) for c in cols]
    hom = next(((a, b) for a in range(n) for b in range(n)
                if cols[t[a][b]] != tuple(cols[b][cols[a][inv_cols[b][y]]] for y in range(n))), None)
    inj = next(((cols.index(cols[a]), a) for a in range(n) if cols.index(cols[a]) < a), None)
    return hom, inj


def test_embedding_witnesses_match_the_loop_off_the_axioms():
    rng = np.random.default_rng(7)
    found = [0, 0]
    for n in range(1, 8):
        for _ in range(40):
            t = np.array([rng.permutation(n) for _ in range(n)]).T      # columns are permutations
            if rng.random() < 0.5:
                t[:, rng.integers(n)] = t[:, rng.integers(n)]           # a column repeated
            rep = sym.embed_in_conj_inn(_ColumnTable(t))
            hom, inj = _embedding_witnesses_by_loop(t)
            assert (rep.homomorphism_witness, rep.injectivity_witness) == (hom, inj)
            found = [found[0] + (hom is not None), found[1] + (inj is not None)]
    assert min(found) > 50


def test_analysis_fields():
    info = sym.analyze_quandle(Q.dihedral(7))
    assert (info.order, info.inn_order, info.aut_order) == (7, 14, 42)
    assert info.connected and info.involutory and not info.commutative
    assert info.aut_doubly_transitive and not info.two_point_homogeneous
    d = info.to_dict()
    assert d["automorphism_group_order"] == 42


def test_analysis_order_one():
    info = sym.analyze_quandle(Q.trivial_quandle(1))
    assert info.two_point_homogeneous is None
    assert info.aut_doubly_transitive is None
    assert info.connected


def test_analysis_reads_connectivity_off_the_inner_chain():
    # level 0 of Inn's chain is full exactly when the breadth-first test finds one orbit
    pool = [x for n in range(1, 6) for x in Q.enumerate_quandle_tables(n)]
    pool += [Q.dihedral(n) for n in (6, 7, 8, 9)] + [Q.conj_quandle(G.make_symmetric(4))]
    pool += [Q.trivial_quandle(n) for n in (1, 2, 5)]
    verdicts = [sym.analyze_quandle(x).connected for x in pool]
    assert verdicts == [sym.is_connected(x) for x in pool]
    assert 0 < sum(verdicts) < len(pool)


def test_colours_are_isomorphism_invariant():
    # the colour of a is the colour of its image
    rng = np.random.default_rng(6)
    for x in (Q.dihedral(6), Q.conj_quandle(G.make_dihedral_group(8)), Q.conj_quandle(G.make_symmetric(4))):
        img = rng.permutation(x.order)
        moved = np.empty_like(x.table)
        moved[img[:, None], img[None, :]] = img[x.table]
        y = Q.validate_axioms(moved)
        assert np.array_equal(perms._colours(x.table), perms._colours(y.table)[img])


def test_enumerated_isomorphism_classes_order_up_to_4():
    # 1, 1, 3, 7 pairwise non-isomorphic classes
    for n, want in ((1, 1), (2, 1), (3, 3), (4, 7)):
        reps = []
        for x in Q.enumerate_quandle_tables(n):
            if not any(sym.quandle_isomorphic(x, y) is not None for y in reps):
                reps.append(x)
        assert len(reps) == want
