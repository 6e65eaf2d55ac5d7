"""The verification checks themselves: contracts, preconditions, plumbing.

Each check runs here on a couple of instances; the exhaustive sweeps live
in the acceptance tests.  Known counts appearing below: |Autcent(Q8)| = 4,
|Aut(Conj(S3))| = 6, |Aut(Alex((Z/3)^2, 2))| = 432, and the isomorphism
class counts 1, 1, 3, 7 for quandle orders 1..4.
"""

import ast
import gc
import hashlib
import inspect
import itertools
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import quandles.groups as G
import quandles.quandle as Q
import quandles.symmetry as sym
from quandles import theorems as T
from quandles.perms import PermGroup, Permutation


def test_report_plumbing():
    rep = T.TheoremReport("demo")
    assert rep.passed
    rep.fail("broken at x=1")
    assert not rep.passed
    d = rep.to_dict()
    assert d["theorem"] == "demo" and d["failures"] == ["broken at x=1"]
    merged = T.TheoremReport.merge("demo", [rep, T.TheoremReport("demo", instances_tested=3)])
    assert merged.instances_tested == 3
    assert not merged.passed


def test_alexander_embedding_check():
    q8 = G.make_quaternion8()
    for phi in G.automorphism_group(q8)[:4]:
        rep = T.check_prop_embedding_zg_caut(q8, phi)
        assert rep.passed
        assert rep.instances_tested >= 2
    z7 = G.make_cyclic(7)
    assert T.check_prop_embedding_zg_caut(z7, G.scalar_map(z7, 3)).passed


def test_semidirect_embedding_reports_a_non_automorphism():
    z5 = G.make_cyclic(5)
    bad = (0, 2, 1, 3, 4)        # an image row, bijective but not additive, so no GroupMap
    maps = [tuple(range(5)), bad]
    rep = T.TheoremReport("demo")
    rows = np.array(maps)
    m = T._check_semidirect_embedding(rep, z5, Q.takasaki(z5), G.center(z5), rows, "Z5")
    assert m == 10
    preserve = [f for f in rep.failures if "not a quandle automorphism" in f]
    product = [f for f in rep.failures if "product law" in f]
    assert preserve == ["Z5: map (0, 2, 1, 3, 4) is not a quandle automorphism"]
    assert not any("not injective" in f for f in rep.failures)

    # reference: the product law at every x and every generator g, in that
    # order, with (a, f) acting as b -> f(b) + a; the generators are (0, f)
    # for the map bad and (z, id) for the center's generator 1
    elems = [(a, f) for a in range(5) for f in maps]
    gens = [(0, bad), (1, maps[0])]
    expected = []
    for a1, f1 in elems:
        for a2, f2 in gens:
            lhs = [(f1[f2[b]] + a1 + f1[a2]) % 5 for b in range(5)]
            rhs = [(f1[(f2[b] + a2) % 5] + a1) % 5 for b in range(5)]
            if lhs != rhs:
                expected.append(f"Z5: product law fails at ({a1}, {f1}) ({a2}, {f2})")
    assert len(expected) > 3
    assert product == expected[:3]


def test_semidirect_embedding_reports_a_collision():
    z5 = G.make_cyclic(5)
    ident = np.arange(5)
    rep = T.TheoremReport("demo")
    T._check_semidirect_embedding(rep, z5, Q.takasaki(z5), G.center(z5), np.array([ident, ident]), "Z5")
    assert rep.failures
    assert all("not injective" in f for f in rep.failures)
    assert rep.failures[0] == (
        "Z5: not injective, (0, (0, 1, 2, 3, 4)) collides with (0, (0, 1, 2, 3, 4))"
    )


def _product_law_holds(group, center, maps):
    """Oracle over all m^2 pairs: x y lies in the list and E(x y) = E(x) E(y),
    with (a1, f1)(a2, f2) = (a1 f1(a2), f1 f2) and E(a, f) = (b -> f(b) a)."""
    t, n = group.table.tolist(), group.order
    elems = [(a, tuple(f)) for a in center for f in maps.tolist()]
    assert len(elems) <= 2000
    listed = set(elems)
    emb = {(a, f): [t[f[b]][a] for b in range(n)] for a, f in elems}
    for a1, f1 in elems:
        for a2, f2 in elems:
            prod = (t[a1][f1[a2]], tuple(f1[v] for v in f2))
            if prod not in listed or emb[prod] != [emb[a1, f1][v] for v in emb[a2, f2]]:
                return False
    return True


def _semidirect_cases():
    """(group, center, maps) with m <= 400: the embedding suites' instances
    of order <= 8, each also broken three ways (a map with two images
    swapped, a missing map, the identity map missing), and non-central
    cyclic subgroups in place of the center, with and without 0."""
    cases = []
    for g in G.catalog_groups(8):
        auts = G.automorphism_array(g)
        for maps in [auts] + [G._centralizer_rows(g, phi) for phi in auts[:12]]:
            cases.append((g, G.center(g), maps))
            if len(maps) > 1:
                swapped = maps.copy()
                swapped[-1, [1, -1]] = swapped[-1, [-1, 1]]
                ident = (maps == np.arange(g.order)).all(axis=1).argmax()
                cases += [(g, G.center(g), swapped), (g, G.center(g), np.delete(maps, 1, axis=0)),
                          (g, G.center(g), np.delete(maps, ident, axis=0))]
        if not g.is_abelian():
            a = next(x for x in range(g.order) if x not in G.center(g))
            cyclic = sorted({g.power(a, k) for k in range(g.order)})
            cases += [(g, cyclic, auts), (g, cyclic[1:], auts)]
    return [(g, center, maps) for g, center, maps in cases if len(center) * len(maps) <= 400]


def test_semidirect_generator_check_fails_exactly_when_all_pairs_do():
    outcomes = []
    for g, center, maps in _semidirect_cases():
        rep = T.TheoremReport("demo")
        T._check_semidirect_embedding(rep, g, Q.conj_quandle(g), center, maps, g.name)
        failed = any("product law" in f or "not in the list" in f for f in rep.failures)
        holds = _product_law_holds(g, center, maps)
        assert failed != holds, (g.name, center, maps.tolist())
        outcomes.append(holds)
    assert outcomes.count(True) > 50 and outcomes.count(False) > 20


def test_factorization_reports_a_missing_map():
    z7 = G.make_cyclic(7)
    x = Q.takasaki(z7)
    maps = np.array([h.images for h in G.automorphism_group(z7)])
    rep = T.TheoremReport("demo")
    assert T._check_split(rep, z7, x, maps, 14, "Z7") == 42
    assert rep.passed
    removed = tuple(maps[3].tolist())
    T._check_split(rep, z7, x, np.delete(maps, 3, axis=0), 14, "Z7")
    assert rep.failures[0] == "Z7: Aut_0 (6 elements) != the 5 maps"
    assert rep.failures[2:] == ["Z7: |Aut| = 42 != 7 * 5"]
    witness = ast.literal_eval(re.search(r"automorphism (\(.*\)) does not factor", rep.failures[1]).group(1))
    assert tuple((v - witness[0]) % 7 for v in witness) == removed


def test_factorization_names_the_dropped_map_of_t27():
    # T((Z/3)^3) has 303,264 automorphisms; the stabilizer's 11,232 rows
    # are all the check reads, so the witness is the dropped map itself
    g = G.make_abelian([3, 3, 3])
    x = Q.takasaki(g)
    maps = G.automorphism_array(g)
    removed = tuple(maps[5000].tolist())
    rep = T.TheoremReport("demo")
    assert T._check_split(rep, g, x, np.delete(maps, 5000, axis=0), 54, "T27") == 303_264
    assert rep.failures == [
        "T27: Aut_0 (11232 elements) != the 11231 maps",
        f"T27: automorphism {removed} does not factor",
        "T27: |Aut| = 303264 != 27 * 11231",
    ]


@pytest.mark.parametrize("suite, bound", [(T.suite_takasaki, 27), (T.suite_central, 16),
                                          (T.suite_commutativity, 16), (T.suite_bae_choe, 16)],
                         ids=["takasaki-aut", "central-lemma", "commutativity", "bae-choe"])
def test_phi_sweeps_peak_below_8_mb_at_default_bounds(suite, bound):
    # the second run, once the catalog's Aut(G) arrays are cached: the
    # sweep's own temporaries, which the byte budget of each chunk bounds
    assert suite(bound).passed
    tracemalloc.start()
    try:
        assert suite(bound).passed
        assert tracemalloc.get_traced_memory()[1] < 8 << 20
    finally:
        tracemalloc.stop()


def test_takasaki_check():
    assert T.check_thm_takasaki_aut(G.make_cyclic(9)).passed
    rep = T.check_thm_takasaki_aut(G.make_abelian([3, 3]))
    assert rep.passed
    assert rep.annotations["aut_order[Z3xZ3]"] == 432
    with pytest.raises(ValueError):
        T.check_thm_takasaki_aut(G.make_cyclic(4))
    with pytest.raises(ValueError):
        T.check_thm_takasaki_aut(G.make_symmetric(3))


def test_dihedral_check():
    rep = T.check_corollary_dihedral(11)
    assert rep.passed
    assert rep.annotations["aut_order[R11]"] == 110
    assert T.check_corollary_dihedral(1).passed
    with pytest.raises(ValueError):
        T.check_corollary_dihedral(6)


def test_conj_embedding_check():
    rep = T.check_prop_conj_embedding(G.make_symmetric(3))
    assert rep.passed
    assert rep.annotations["aut_conj[S3]"] == 6
    assert rep.annotations["embedding_onto[S3]"] is True
    rep = T.check_prop_conj_embedding(G.make_quaternion8())
    assert rep.passed
    assert rep.annotations["embedding_onto[Q8]"] is False
    # 8 * 168 elements: every one of the 1344^2 pairs is checked
    rep = T.check_prop_conj_embedding(G.make_abelian([2, 2, 2]))
    assert rep.passed
    assert rep.instances_tested == 1344


def test_commutativity_check():
    rep = T.suite_commutativity(9)
    assert rep.passed
    assert rep.instances_tested == sum(
        len(G.automorphism_group(g)) for g in G.catalog_groups(9)
    )
    assert T._commutativity_one(G.make_symmetric(3)).passed


def test_central_lemma_check():
    rep = T.suite_central(8)
    assert rep.passed
    assert rep.annotations["autcent[Q8]"] == 4
    assert T._central_one(G.make_abelian([2, 4])).passed


def test_connected_abelian_check():
    rep = T.suite_connected_abelian(8)
    assert rep.passed
    one = T._connected_abelian_one(G.make_quaternion8())
    assert one.instances_tested == 4   # the central automorphisms are involutory here
    assert rep.instances_tested >= one.instances_tested
    with pytest.raises(ValueError):
        T._connected_abelian_one(G.make_cyclic(5))


def test_bae_choe_check():
    rep = T.suite_bae_choe(8)
    assert rep.passed
    assert rep.instances_tested == sum(
        len(G.automorphism_group(g))
        for g in G.catalog_groups(8) if g.is_abelian()
    )
    assert T._bae_choe_one(G.make_abelian([2, 4])).passed
    with pytest.raises(ValueError):
        T._bae_choe_one(G.make_symmetric(3))


def test_fpf_structure_check():
    z5 = G.make_cyclic(5)
    assert T.check_thm_fpf_structure(z5, G.scalar_map(z5, 2)).passed
    g9 = G.make_abelian([3, 3])
    assert T.check_thm_fpf_structure(g9, G.scalar_map(g9, 2)).passed
    with pytest.raises(ValueError):
        T.check_thm_fpf_structure(z5, G.identity_map(z5))


def test_takasaki_is_fpf_structure_at_negation():
    # T(G) = Alex(G, -id): the fpf check at -id passes with the takasaki count
    for g in T._odd_abelian(27):
        fpf = T.check_thm_fpf_structure(g, G.negation_map(g))
        assert fpf.passed, g.name
        assert fpf.instances_tested == T.check_thm_takasaki_aut(g).instances_tested, g.name


def test_split_check_names_each_planted_defect():
    z7 = G.make_cyclic(7)
    phi = G.scalar_map(z7, 3)
    x = Q.alexander(z7, phi)
    cent = np.array([f.images for f in G.centralizer_in_aut(z7, phi)], dtype=np.int64)

    def failures(maps, inn_order=42):
        rep = T.TheoremReport("demo")
        assert T._check_split(rep, z7, x, maps, inn_order, "Z7") == 42
        return rep.failures

    assert failures(cent) == []
    dropped = failures(np.delete(cent, 3, axis=0))
    assert "Z7: Aut_0 (6 elements) != the 5 maps" in dropped
    assert "Z7: |Aut| = 42 != 7 * 5" in dropped
    planted = cent.copy()
    planted[3] = (0, 2, 1, 3, 4, 5, 6)                  # bijective, not additive
    assert "Z7: map (0, 2, 1, 3, 4, 5, 6) is not a quandle automorphism" in failures(planted)
    assert failures(cent, inn_order=41) == ["Z7: |Inn| = 42 != 41"]


def _split(group, x, maps, inn_order):
    rep = T.TheoremReport("demo")
    return T._check_split(rep, group, x, maps, inn_order, group.name), rep.failures


def _split_instances(max_order):
    """(group, quandle, C, |Inn|) for every Takasaki quandle and every
    Alex(G, phi) with phi fixed-point free, G an abelian catalog group of
    order <= max_order; Aut(G) and C(phi) by brute force."""
    out = []
    for g in (g for g in G.catalog_groups(max_order) if g.is_abelian()):
        n, auts = g.order, [f.images for f in G.brute_force_group_automorphisms(g)]
        for phi in auts:
            if all(phi[a] != a for a in range(1, n)):
                cent = [h for h in auts if all(h[phi[b]] == phi[h[b]] for b in range(n))]
                out.append((g, Q.alexander(g, G.GroupMap(g, g, phi)), cent, n * Permutation(phi).order()))
        if n % 2:
            out.append((g, Q.takasaki(g), auts, 1 if n == 1 else 2 * n))
    return out


def test_split_check_agrees_with_brute_force_aut():
    # brute_force_aut filters every bijection, without the table search or
    # its chain: Aut(x) must be {b -> h(b) a : a in G, h in C}, the check
    # must pass, and it must name the map dropped from C
    instances = _split_instances(7)
    for g, x, cent, inn_order in instances:
        want = {tuple(g.mul(h[b], a) for b in range(g.order)) for a in range(g.order) for h in cent}
        assert {p.images for p in sym.brute_force_aut(x)} == want, (g.name, x.provenance)
        maps = np.array(sorted(cent))
        assert _split(g, x, maps, inn_order) == (len(want), []), (g.name, x.provenance)
        dropped = tuple(maps[-1].tolist())       # on Z1 the identity, leaving no map
        failures = _split(g, x, maps[:-1], inn_order)[1]
        assert f"{g.name}: automorphism {dropped} does not factor" in failures, (g.name, x.provenance)
    assert len(instances) == 16


def test_split_check_names_its_witnesses_with_no_maps():
    g = G.make_cyclic(3)
    assert _split(g, Q.takasaki(g), np.zeros((0, 3), dtype=np.int64), 6) == (6, [
        "Z3: Aut_0 (2 elements) != the 0 maps",
        "Z3: automorphism (0, 1, 2) does not factor",
        "Z3: |Aut| = 6 != 3 * 0",
    ])


def test_factorization_from_the_chain_fails_each_planted_defect(monkeypatch):
    # T(Z9): Aut_0 = the 6 units; t_3 and the units make a subgroup of Aut
    # of order 18 that misses the translation by 1.  The swap s = (3 6)
    # commutes with every unit, so s Aut s has order 54 and stabilizer Aut_0,
    # but it misses t_1: only the translation clause catches it
    g = G.make_cyclic(9)
    x = Q.takasaki(g)
    maps = G.automorphism_array(g)
    aut = sym.automorphism_group_backtrack(x)
    stab = aut.stabilizer()
    partial = PermGroup([*stab.generators, Permutation(g.table[:, 3].tolist())], degree=9)
    s = [0, 1, 2, 6, 4, 5, 3, 7, 8]
    swapped = PermGroup([Permutation([s[p(s[v])] for v in range(9)]) for p in aut.generators], degree=9)
    assert swapped.order() == 54 and not swapped.contains(g.table[:, 1].tolist())
    not_a_map = np.array([[0, 2, 1, 3, 4, 5, 6, 7, 8]])             # bijective, not additive
    with_extra = np.concatenate([maps, not_a_map])
    planted = {
        "dropped map": (aut, np.delete(maps, 2, axis=0), "does not factor"),
        "extra row": (aut, with_extra[np.lexsort(with_extra.T[::-1])], "is not a quandle automorphism"),
        "stabilizer as Aut": (stab, maps, "|Aut| = 6 != 9 * 6"),
        "some translations": (partial, maps, "|Aut| = 18 != 9 * 6"),
        "conjugated by a swap": (swapped, maps, "Aut does not hold the translation t_1"),
    }
    for name, (fake, rows, expected) in planted.items():
        with monkeypatch.context() as m:
            m.setattr(T.sym, "automorphism_group_backtrack", lambda q: fake)
            failures = _split(g, x, rows, 18)[1]
        assert any(expected in f for f in failures), (name, failures)
    assert failures == ["Z9: Aut does not hold the translation t_1"]


def test_factorization_needs_the_translation_by_every_generator(monkeypatch):
    # on Z5 x Z5 (element 5a + b), s(a, b) = (a, b + [a = 1]) commutes with
    # the translation by 1 = (0, 1) but not with the one by 5 = (1, 0).  The
    # translations conjugated by s make a group of order 25 that holds t_1,
    # and whose stabilizer of 0 is trivial, but some of whose elements do not
    # factor.  With the identity as the only map, every other clause holds
    g = G.make_abelian([5, 5])
    assert g.generators().tolist() == [1, 5]
    s = [5 * a + (b + (a == 1)) % 5 for a in range(5) for b in range(5)]
    inv = np.argsort(s)
    conj = PermGroup([Permutation([s[t[inv[v]]] for v in range(25)]) for t in g.table[:, [1, 5]].T], degree=25)
    assert conj.contains(g.table[:, 1].tolist()) and not conj.contains(g.table[:, 5].tolist())
    monkeypatch.setattr(T.sym, "automorphism_group_backtrack", lambda q: conj)
    assert _split(g, Q.takasaki(g), np.arange(25)[None], 50) == (25, ["Z5xZ5: Aut does not hold the translation t_5"])


def test_a_passing_split_check_lists_no_more_than_the_maps(monkeypatch):
    # T((Z/3)^3): |Aut| = 27 * 11,232 = 303,264, but the check builds one
    # element array, the 11,232 maps of the stabilizer, once
    g = G.make_abelian([3, 3, 3])
    maps = G.automorphism_array(g)
    real, shapes = PermGroup.element_array, []

    def recorded(self):
        out = real(self)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(PermGroup, "element_array", recorded)
    rep = T.check_thm_takasaki_aut(g)
    assert rep.passed and rep.annotations["aut_order[Z3xZ3xZ3]"] == 303_264
    assert shapes == [(len(maps), 27)] == [(11_232, 27)]


def _plant(monkeypatch, group, bad_rows):
    """Make automorphism_array and the class list (``groups._aut_classes``)
    hand out the group's rows with rows 1, 2, ... replaced by bad_rows."""
    def planted(rows):
        out = rows.copy()
        out[1:1 + len(bad_rows)] = bad_rows
        return out

    real_rows, real_classes = G.automorphism_array, G._aut_classes
    rows, (reps, sizes, cents) = planted(real_rows(group)), real_classes(group)
    monkeypatch.setattr(G, "automorphism_array", lambda g: rows if g is group else real_rows(g))
    monkeypatch.setattr(G, "_aut_classes", lambda g: (planted(reps), sizes, cents) if g is group else real_classes(g))


@pytest.mark.parametrize("suite, instances", [
    (T.suite_alexander_embedding, 15_649), (T.suite_fpf_structure, 6_647), (T.suite_bae_choe, 20_786),
    (T.suite_commutativity, 21_218), (T.suite_connected_abelian, 61),
], ids=["alexander-embedding", "fpf-structure", "bae-choe", "commutativity", "connected-abelian"])
def test_class_sweep_agrees_with_the_sweep_over_every_phi(monkeypatch, suite, instances):
    # with each automorphism a class of its own, a suite checks every phi,
    # as it did before it swept class representatives; each centralizer is
    # scanned only when a suite reads it
    def singletons(g):
        rows = G.automorphism_array(g)
        return rows, np.ones(len(rows), dtype=np.int64), (G._centralizer_rows(g, phi) for phi in rows)

    by_class = suite()
    monkeypatch.setattr(G, "_aut_classes", singletons)
    every_phi = suite()
    assert (by_class.passed, by_class.instances_tested) == (True, instances)
    assert (every_phi.passed, every_phi.instances_tested) == (True, instances)
    swept = [sum(v for k, v in rep.annotations.items() if k.startswith("phi_classes["))
             for rep in (by_class, every_phi)]
    assert 0 < swept[0] < swept[1]


@pytest.mark.parametrize("sweep, row, expected", [
    (T._commutativity_one, (0, 1, 2, 0, 0), [
        "Z5, phi=0,1,2,0,0: commutative but phi(a*a) != a",
        "Z5, phi=0,1,2,0,0: commutative=True but 2phi=id is False",
    ]),
    (T._central_one, (0, 2, 1, 3, 4), ["Z5, phi=0,2,1,3,4: twisted map is not a homomorphism"]),
    (T._bae_choe_one, (0, 2, 3, 4, 1), [
        "Z5, phi=0,2,3,4,1: connected=True, fixed-point-free=True, twisted-bijective=False",
    ]),
])
def test_each_sweep_names_a_planted_row(monkeypatch, sweep, row, expected):
    z5 = G.make_cyclic(5)
    assert sweep(z5).passed
    _plant(monkeypatch, z5, [row])
    assert sweep(z5).failures == expected


def test_connected_abelian_names_a_planted_row(monkeypatch):
    # A row whose twisted map lies in the center gives a*b = a z with z central,
    # so no row alone can make Alex(G, phi) connected; the plant also puts the
    # transposition 1 into the center of S3, and then a planted row can.
    s3 = G.make_symmetric(3)
    assert T._connected_abelian_one(s3).passed
    _plant(monkeypatch, s3, [(0, 1, 4, 5, 2, 3)])
    monkeypatch.setattr(G, "center", lambda g: [0, 1])
    rep = T._connected_abelian_one(s3)
    assert rep.failures == ["S3, phi=0,1,4,5,2,3: connected despite central involutory phi"]


def test_a_sweep_names_only_the_first_three_failing_rows(monkeypatch):
    z7 = G.make_cyclic(7)
    shifts = [tuple([0] + [1 + (a + k) % 6 for a in range(6)]) for k in range(1, 5)]   # fpf, not twisted-bijective
    _plant(monkeypatch, z7, shifts)
    failures = T._bae_choe_one(z7).failures
    assert len(failures) == 3
    for row, failure in zip(shifts, failures):
        assert failure.startswith(f"Z7, phi={','.join(map(str, row))}: ")
        assert "fixed-point-free=True, twisted-bijective=False" in failure


def test_transitive_aut_check():
    rep = T.suite_aut_transitive(9)
    assert rep.passed
    assert rep.instances_tested == len(G.catalog_groups(9)) - 1   # trivial group skipped
    assert T.suite_aut_transitive().instances_tested == 34
    assert T._aut_transitive_one(G.make_abelian([2, 2])).passed
    assert T._aut_transitive_one(G.make_quaternion8()).passed
    with pytest.raises(ValueError):
        T._aut_transitive_one(G.make_cyclic(1))


def test_doubly_transitive_check():
    rep = T.check_thm_fnt(3, 2, 2)
    assert rep.passed
    assert rep.annotations["aut_order[p=3, n=2, u=2]"] == 432
    with pytest.raises(ValueError):
        T.check_thm_fnt(4, 1, 3)    # not prime
    with pytest.raises(ValueError):
        T.check_thm_fnt(5, 1, 1)    # scalar 1 fixes everything
    with pytest.raises(ValueError):
        T.check_thm_fnt(5, 0, 2)


def test_mccarron_check():
    rep = T.check_mccarron_bound(1, 4)
    assert rep.passed
    assert rep.annotations["classes[3]"] == 3
    assert rep.annotations["classes[4]"] == 7
    assert [rep.annotations[f"completions[{n}]"] for n in range(1, 5)] == [1, 1, 4, 12]
    with pytest.raises(ValueError):
        T.check_mccarron_bound(1, 8)


def test_census_checks_each_class_against_the_axioms(monkeypatch):
    # one column swap in R_4: column 0 stays a permutation, axiom 3 breaks
    bad = Q.dihedral(4).table.astype(np.int8)
    bad[[1, 2], 0] = bad[[2, 1], 0]
    tables_from = Q._tables_from

    def planted(s0, candidates, centralizer=()):
        if len(s0) == 4:
            yield _column_ids(bad, candidates), 1
        yield from tables_from(s0, candidates, centralizer)

    monkeypatch.setattr(Q, "_tables_from", planted)
    assert T.check_mccarron_bound(1, 3).passed
    with pytest.raises(Q.QuandleAxiomError) as exc:
        T.check_mccarron_bound(1, 4)
    assert exc.value.axiom == 3


def _column_ids(table, columns):
    """The id of each column of table: its index in the list of permutations."""
    return [columns.rows.index(tuple(col)) for col in table.T.tolist()]


def _relabeled_ids(cols, columns):
    """The (n!, n) uint16 column ids of every relabeling of the table with
    column ids cols: row p holds those of p.T, (p.T)[p(a), p(b)] = p(a*b),
    whose column at y has id conj[p n! + cols[p^-1(y)]], the rule that the
    census's search and dedup apply to the relabelings they need."""
    k = len(columns.rows)
    conj = np.asarray(columns.conj).reshape(k, k)
    return conj[np.arange(k)[:, None], np.asarray(cols)[columns.inverse]]


def _relabeled_tables(table, columns):
    """Every relabeling of table, as bytes of its int8 rows, through the ids."""
    ids = _relabeled_ids(_column_ids(table, columns), columns)
    return [columns.perms[row].T.tobytes() for row in ids]


def test_relabelings_move_every_entry_of_every_class_table_to_order_5():
    for n in range(1, 6):
        columns = Q._column_candidates(n)
        for x in Q._quandle_classes(n)[0]:
            t = x.table.tolist()
            moved = _relabeled_ids(_column_ids(x.table, columns), columns)
            assert moved.shape == (len(columns.rows), n) and moved.dtype == np.uint16
            for p, row in zip(columns.rows, moved.tolist()):
                want = [[0] * n for _ in range(n)]
                for a in range(n):
                    for b in range(n):
                        want[p[a]][p[b]] = p[t[a][b]]    # moved[p(a), p(b)] = p(a*b)
                # column y of the moved table is the permutation with id row[y]
                assert [[columns.rows[i][a] for i in row] for a in range(n)] == want


@pytest.mark.parametrize("n", range(1, 7))
def test_census_classes_match_the_full_enumeration(n):
    full = [x.table.astype(np.int8).tobytes() for x in Q.enumerate_quandle_tables(n)]
    classes, labeled, relabeled, completions = Q._quandle_classes(n)
    assert completions == [1, 1, 4, 12, 46, 187][n - 1]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    columns = Q._column_candidates(n)
    orbits = {t for x in classes for t in _relabeled_tables(x.table, columns)}
    assert orbits == set(full)
    assert labeled == relabeled == len(full)
    assert all(sym.quandle_isomorphic(x, y) is None
               for i, x in enumerate(classes) for y in classes[:i])
    firsts = Q._first_columns(n)
    types = [Permutation(s0).cycle_type() for s0 in firsts]
    assert len(types) == len(set(types)) == [1, 1, 2, 3, 5, 7][n - 1]
    assert all(s0[0] == 0 for s0 in firsts)
    # the class equation of S_{n-1}: s0's conjugacy class has (n-1)!/|C(s0)| members
    whole, cents = math.factorial(n - 1), [len(Q._centralizer(s0, perms)) for s0 in firsts]
    assert all(whole % c == 0 for c in cents) and sum(whole // c for c in cents) == whole


@pytest.mark.parametrize("n", range(1, 7))
def test_census_relabeled_count_is_the_union_of_the_relabeling_orbits(n):
    columns = Q._column_candidates(n)
    classes, labeled, relabeled, _ = Q._quandle_classes(n)
    key = np.dtype((np.void, 2 * n))
    union = set()
    for x in classes:
        union.update(_relabeled_ids(_column_ids(x.table, columns), columns).view(key).ravel().tolist())
    assert relabeled == len(union) == labeled


# the completions of orders 1..6 that have a column of the cycle type of an earlier S_0
SKIPPED = [0, 0, 1, 5, 21, 99]


@pytest.mark.parametrize("n", range(1, 7))
def test_census_passes_over_only_completions_of_classes_found_from_an_earlier_first_column(n):
    # a completion with a column of the cycle type of an earlier S_0 is never
    # looked up; each is isomorphic to a class whose first table has that S_0
    columns = Q._column_candidates(n)
    classes = Q._quandle_classes(n)[0]
    firsts = Q._first_columns(n)
    rank = {Permutation(s0).cycle_type(): i for i, s0 in enumerate(firsts)}
    found_from = [rank[Permutation(x.column(0)).cycle_type()] for x in classes]
    assert found_from == sorted(found_from)
    skipped = 0
    for i, s0 in enumerate(firsts):
        earlier = [x for x, r in zip(classes, found_from) if r < i]
        ids = Q._centralizer(s0, columns.perms)
        for cols, _ in Q._tables_from(s0, columns, ids[1:].tolist()):
            if min(rank[Permutation(columns.rows[c]).cycle_type()] for c in cols) < i:
                t = Q.Quandle(columns.perms[cols].T)
                assert any(sym.quandle_isomorphic(t, x) is not None for x in earlier), cols
                skipped += 1
    assert skipped == SKIPPED[n - 1]


def test_census_frees_each_search_table_on_return(monkeypatch):
    # each search's conjugation table (51 MB at order 7) goes when the search
    # returns or is dropped, not at the next full collection
    tables = []
    build = Q._column_candidates

    def recorded(n):
        columns = build(n)
        tables.append(weakref.ref(columns.conj.obj))
        return columns

    monkeypatch.setattr(Q, "_column_candidates", recorded)
    gc.disable()
    tracemalloc.start()
    try:
        assert len(Q._quandle_classes(6)[0]) == 73
        assert len(tables) == 1 and tables[0]() is None
        assert tracemalloc.get_traced_memory()[0] < 1 << 19     # the order-6 table is 1 MB
        # a search closed after its first completion, or dropped unclosed, frees it too
        s0 = Q._first_columns(6)[0]
        for drop in (lambda found: found.close(), lambda found: None):
            columns = build(6)
            table = weakref.ref(columns.conj.obj)
            found = Q._tables_from(s0, columns, Q._centralizer(s0, columns.perms)[1:].tolist())
            next(found)
            drop(found)
            del found, columns
            assert table() is None
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("n", range(2, 8))
def test_census_never_searches_from_the_identity(n, monkeypatch):
    # the identity S_0's tables are counted from the classes; its search, with
    # all (n-1)! permutations fixing 0 as its centralizer, is never started
    starts = []
    tables_from = Q._tables_from

    def spied(s0, columns, centralizer=()):
        starts.append(s0)
        return tables_from(s0, columns, centralizer)

    monkeypatch.setattr(Q, "_tables_from", spied)
    Q._quandle_classes(n)
    assert tuple(range(n)) not in starts and starts == Q._first_columns(n)[:-1]


def test_no_computation_leaves_cyclic_garbage():
    # Schreier-Sims chains, the table search and the column search are freed
    # by reference counting alone, so with the collector off nothing is left
    # for it: a nested function calling itself would hold its frame's tables
    # in a cycle until a full collection
    gc.collect()
    gc.disable()
    try:
        assert sym.inner_group(Q.dihedral(343)).order() == 2 * 343
        sym.analyze_quandle(Q.dihedral(27))
        sym.analyze_quandle(Q.conj_quandle(G.make_symmetric(4)))
        assert T.check_mccarron_bound(1, 5).passed
        columns = Q._column_candidates(5)
        s0 = Q._first_columns(5)[0]
        found = Q._tables_from(s0, columns, Q._centralizer(s0, columns.perms)[1:].tolist())
        next(found)
        found.close()
        assert gc.collect() == 0
    finally:
        gc.enable()


# sha256 of the order-7 census's class tables, int8, concatenated in order
CENSUS_CLASSES_DIGEST_7 = "a4b3308258e847d39915ce1d65b530c3d3911f5eeb97bec7f0eb9ce85ef7cc93"


def test_census_at_order_7_is_pinned():
    classes, labeled, relabeled, completions = Q._quandle_classes(7)
    # 298 classes (OEIS A181771), 152,900 labeled tables counted both ways, 950 completions
    assert (len(classes), labeled, relabeled, completions) == (298, 152900, 152900, 950)
    h = hashlib.sha256()
    for x in classes:
        h.update(x.table.astype(np.int8).tobytes())
    assert h.hexdigest() == CENSUS_CLASSES_DIGEST_7


@pytest.mark.parametrize("n", range(1, 7))
def test_census_completes_one_table_per_centralizer_orbit(n):
    # the unpruned search from each S_0, deduplicated by plain relabeling loops
    def relabel(t, p):
        inv = sorted(range(n), key=p.__getitem__)
        return tuple(tuple(p[t[inv[x]][inv[y]]] for y in range(n)) for x in range(n))

    perms = list(itertools.permutations(range(n)))
    columns = Q._column_candidates(n)
    orbits, seen, firsts = 0, set(), []
    for s0 in Q._first_columns(n):
        centralizer = [p for p in perms if p[0] == 0 and all(p[s0[y]] == s0[p[y]] for y in range(n))]
        in_orbits = set()
        for cols, _ in Q._tables_from(s0, columns):
            table = columns.perms[cols].T
            t = tuple(map(tuple, table.tolist()))
            if t not in in_orbits:
                orbits += 1
                in_orbits.update(relabel(t, p) for p in centralizer)
            if t not in seen:
                firsts.append(table.tobytes())
                seen.update(relabel(t, p) for p in perms)
    classes, _, _, completions = Q._quandle_classes(n)
    assert completions == orbits
    assert [x.table.astype(np.int8).tobytes() for x in classes] == firsts


@pytest.mark.parametrize("n", range(1, 7))
def test_census_search_counts_each_completions_stabilizer_by_the_definition(n):
    columns = Q._column_candidates(n)
    for s0 in Q._first_columns(n):
        ids = Q._centralizer(s0, columns.perms)
        for cols, fixed in Q._tables_from(s0, columns, ids[1:].tolist()):
            table = columns.perms[cols].T
            # p keeps the table exactly when p(a*b) = p(a)*p(b) for every a and b: with
            # every point as a generator the mask checks just that, the definition of an
            # automorphism, so no closure argument (nor a checked Quandle) is needed
            mask = G._homomorphism_mask(table, table, np.arange(n), columns.perms[ids])
            assert fixed == np.count_nonzero(mask), (s0, table.tolist())


def test_census_fails_when_the_two_labeled_counts_differ(monkeypatch):
    tables_from = Q._tables_from

    def misreported(s0, candidates, centralizer=()):
        found = tables_from(s0, candidates, centralizer)
        if s0 == Q._first_columns(4)[0]:    # the first order-4 completion: |Stab_C(T)| one too large
            cols, fixed = next(found)
            yield cols, fixed + 1
        yield from found

    monkeypatch.setattr(Q, "_tables_from", misreported)
    rep = T.check_mccarron_bound(1, 4)
    labeled = rep.annotations["labeled[4]"]
    assert labeled < 36 and rep.annotations["relabeled[4]"] == 36
    assert rep.failures == [f"order 4: the relabeling orbits hold 36 tables, "
                            f"orbit-stabilizer counts {labeled}"]


def test_conj_inn_embedding_check():
    assert T.check_prop_embed_conj_inn(G.make_cyclic(9)).passed
    assert T._negation_failure_witness().passed
    with pytest.raises(ValueError):
        T.check_prop_embed_conj_inn(G.make_cyclic(4))


def test_run_suite_selection():
    reports = T.run_suite(["dihedral-corollary"], ns=(3, 5))
    assert len(reports) == 1
    assert reports[0].passed
    assert reports[0].instances_tested == 12
    with pytest.raises(ValueError):
        T.run_suite(["no-such-theorem"])
    reports = T.run_suite(["dihedral-corollary", "doubly-transitive", "aut-transitive"],
                          max_order=4, ns=(3,))
    assert [r.instances_tested for r in reports] == [5, 5, len(G.catalog_groups(4)) - 1]
    assert all(r.elapsed > 0 for r in reports)


def test_run_suite_finds_each_catalog_aut_once(monkeypatch):
    # four suites sweep the catalog to order 16; Aut(G) is searched once per group
    G._catalog_abelian.cache_clear()
    G._catalog_nonabelian.cache_clear()
    search, searched = G.table_automorphism_group, []
    monkeypatch.setattr(G, "table_automorphism_group", lambda g: searched.append(g) or search(g))
    reports = T.run_suite(["commutativity", "central-lemma", "bae-choe", "aut-transitive"])
    assert all(rep.passed for rep in reports)
    catalog = G.catalog_groups(16)
    assert len(searched) == len(catalog) == len({id(g) for g in searched})
    assert {id(g) for g in searched} == {id(g) for g in catalog}


def test_aut_transitive_reads_the_orbit_of_1_without_listing_aut():
    # listing the 9,999,360 maps of Aut((Z/2)^5) passes the element cap, but
    # the orbit of 1 under the search's generators needs no listing
    rep = T.suite_aut_transitive(32)
    assert (rep.passed, rep.instances_tested) == (True, 65)
    z2_5 = next(g for g in G.catalog_groups(32) if g.name == "Z2xZ2xZ2xZ2xZ2")
    assert "aut_array" not in z2_5._cache and G._aut_search(z2_5).order() == 9_999_360
    with pytest.raises(ValueError, match="exceed the element cap"):
        G.automorphism_array(z2_5)
    # the ceiling: every catalog group to order 63 passes, and at 64 the
    # table search gives up on Aut(Z4 x (Z/2)^4)
    rep = T.suite_aut_transitive(63)
    assert (rep.passed, rep.instances_tested) == (True, 116)


# sha256 of the default report with elapsed_seconds dropped: every suite's
# instance count and every annotation (phi_classes, aut_order, autcent,
# embedding_onto, ...) sit in it, so a change to any of them shows here
DEFAULT_REPORT_SHA256 = "17d9878167efdc495f21e80b8ac0766c82c04cc809d78b618af23545f50d6538"


def test_the_default_report_is_pinned():
    reports = [{k: v for k, v in r.to_dict().items() if k != "elapsed_seconds"} for r in T.run_suite()]
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256


def test_suite_registry_is_complete():
    assert set(T.THEOREM_SUITES) == {
        "conj-inn-embedding", "alexander-embedding", "takasaki-aut",
        "dihedral-corollary", "conj-embedding", "commutativity",
        "central-lemma", "connected-abelian", "bae-choe", "fpf-structure",
        "aut-transitive", "doubly-transitive", "mccarron",
    }
    # perfbench's trace wraps each suite as a public function of the module
    # and counts instances only for names starting with suite_
    for entry in T.THEOREM_SUITES.values():
        assert isinstance(entry, tuple) and len(entry) == 2
        fn, desc = entry
        assert desc and fn.__name__.startswith("suite_")
        assert getattr(T, fn.__name__) is fn
        assert fn.__module__ == "quandles.theorems"
    assert len({fn for fn, _ in T.THEOREM_SUITES.values()}) == len(T.THEOREM_SUITES)


def test_every_suite_that_takes_a_bound_has_a_ceiling():
    # run_suite refuses a bound above the ceiling before any suite runs, so a
    # suite without one would run whatever bound it is given
    for tid, (fn, _) in T.THEOREM_SUITES.items():
        takes = inspect.signature(fn).parameters.keys() & {"max_order", "ns"}
        assert (T._CEILINGS[tid] is not None) == bool(takes), tid
