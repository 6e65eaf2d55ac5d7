"""Acceptance gate: the eight contract criteria, one test each.

Every test prints a single PASS line with its runtime and asserts the
stated budget.  Run with -v to get one line per criterion from pytest
itself, or -s to see the PASS lines of this module.
"""

import random
import time

import quandles.groups as G
import quandles.quandle as Q
import quandles.symmetry as sym
from quandles import theorems as T

DIHEDRAL_EXPECTED = {3: (6, 6), 5: (20, 10), 7: (42, 14), 9: (54, 18), 11: (110, 22)}
FNT_CASES = ((3, 1, 2), (5, 1, 2), (5, 1, 3), (7, 1, 3), (3, 2, 2))


def _done(name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded the {budget}s budget"
    print(f"PASS {name} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_dihedral_orders():
    t0 = time.perf_counter()
    for n, (aut, inn) in DIHEDRAL_EXPECTED.items():
        x = Q.dihedral(n)
        got = (sym.automorphism_group_backtrack(x).order(), sym.inner_group(x).order())
        assert got == (aut, inn), f"R{n}: {got} != {(aut, inn)}"
    _done("criterion 1: dihedral aut/inn orders", t0, 10)


def test_criterion_2_takasaki_structure():
    t0 = time.perf_counter()
    groups = [g for g in G.catalog_groups(27) if g.is_abelian() and g.order % 2 == 1]
    orders = sorted(g.order for g in groups)
    assert orders == [1, 3, 5, 7, 9, 9, 11, 13, 15, 17, 19, 21, 23, 25, 25, 27, 27, 27]
    for g in groups:
        auts = G.automorphism_group(g)
        if g.order <= 9:
            # literal all-bijections oracle where feasible
            brute = G.brute_force_group_automorphisms(g)
            assert {p.images for p in auts} == {p.images for p in brute}, g.name
        x = Q.takasaki(g)
        aut_q = sym.automorphism_group_backtrack(x)
        assert aut_q.order() == g.order * len(auts), g.name
        rep = T.check_thm_takasaki_aut(g)   # adds the factorization clause
        assert rep.passed, rep.failures[:3]
    _done("criterion 2: Takasaki Aut = translations x| Aut(G), every odd abelian <= 27", t0, 120)


def test_criterion_3_bae_choe_equivalence():
    t0 = time.perf_counter()
    rep = T.suite_bae_choe(16)
    assert rep.passed, rep.failures[:3]
    total = rep.instances_tested
    assert total == sum(
        len(G.automorphism_group(g))
        for g in G.catalog_groups(16) if g.is_abelian()
    )
    _done(f"criterion 3: connected == fpf == twisted-bijective on {total} maps", t0, 60)


def test_criterion_4_connected_implies_abelian():
    t0 = time.perf_counter()
    assert not all(g.is_abelian() for g in G.catalog_groups(16)), \
        "catalog must offer non-abelian groups up to order 16"
    rep = T.suite_connected_abelian(16)
    assert rep.passed, rep.failures[:3]
    checked = rep.instances_tested
    assert checked > 0
    _done(f"criterion 4: no connected quandle from {checked} involutory central maps", t0, 60)


def test_criterion_5_double_transitivity():
    t0 = time.perf_counter()
    for p, n, u in FNT_CASES:
        rep = T.check_thm_fnt(p, n, u)
        assert rep.passed, rep.failures[:3]
    g9 = G.make_abelian([3, 3])
    brute = G.brute_force_group_automorphisms(g9)
    assert len(brute) == 48
    x = Q.alexander(g9, G.scalar_map(g9, 2))
    aut = sym.automorphism_group_backtrack(x)
    assert aut.order() == 432 == 9 * len(brute)
    assert aut.is_k_transitive(2)
    assert not sym.is_two_point_homogeneous(x)
    _done("criterion 5: doubly transitive scalar quandles, |Aut| = 432 = 9*48", t0, 120)


def _catalog_quandles_up_to_6():
    tables = {}

    def add(x):
        tables.setdefault(tuple(map(tuple, x.table.tolist())), x)

    for n in range(1, 7):
        add(Q.dihedral(n))
        add(Q.trivial_quandle(n))
    for g in G.catalog_groups(6):
        add(Q.conj_quandle(g, 1))
        for phi in G.automorphism_group(g):
            add(Q.gen_alexander(g, phi))
        if g.is_abelian():
            add(Q.takasaki(g))
    return list(tables.values())


def test_criterion_6_aut_oracle_equivalence():
    t0 = time.perf_counter()
    quandles = _catalog_quandles_up_to_6()
    assert len(quandles) >= 20   # distinct tables after heavy constructor overlap
    for x in quandles:
        fast = sym.automorphism_group_backtrack(x)
        slow = sym.brute_force_aut(x)
        assert fast.order() == len(slow)
        assert {p.images for p in fast.elements()} == {p.images for p in slow}
    pool = []
    for n in range(1, 6):
        pool.extend(Q.enumerate_quandle_tables(n))
    sample = random.Random(20260817).sample(pool, 100)
    for x in sample:
        fast = sym.automorphism_group_backtrack(x)
        slow = sym.brute_force_aut(x)
        assert fast.order() == len(slow)
        assert {p.images for p in fast.elements()} == {p.images for p in slow}
    _done(f"criterion 6: backtracking == brute force on {len(quandles)}+100 quandles", t0, 120)


def test_criterion_7_embedding():
    t0 = time.perf_counter()
    odd = [g for g in G.catalog_groups(15) if g.is_abelian() and g.order % 2 == 1]
    assert sorted(g.order for g in odd) == [1, 3, 5, 7, 9, 9, 11, 13, 15]
    for g in odd:
        rep = sym.embed_in_conj_inn(Q.takasaki(g))
        assert rep.is_homomorphism and rep.is_injective, g.name
    bad = sym.embed_in_conj_inn(Q.dihedral(4))
    assert bad.is_homomorphism and not bad.is_injective
    assert bad.injectivity_witness == (0, 2)
    assert Q.dihedral(4).column(0) == Q.dihedral(4).column(2)
    _done("criterion 7: S-map embeds odd Takasaki quandles; Z4 collides at S_0 = S_2", t0, 30)


def test_criterion_8_known_values():
    t0 = time.perf_counter()
    s3 = G.make_symmetric(3)
    assert sym.automorphism_group_backtrack(Q.conj_quandle(s3, 1)).order() == 6
    q8 = G.make_quaternion8()
    central = [phi for phi in G.automorphism_group(q8) if G.is_central_automorphism(phi)]
    assert len(central) == 4
    assert sym.inner_group(Q.dihedral(3)).is_k_transitive(3)
    rep = T.check_mccarron_bound(1, 6)
    assert rep.passed, rep.failures[:3]
    assert rep.annotations["classes[6]"] == 73
    _done("criterion 8: known orders and the 3-transitivity census to order 6", t0, 600)
