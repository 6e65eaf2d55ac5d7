"""Machine checks for the structure theory of quandles built from groups.

Each check verifies one statement about these families on one concrete
instance: it recomputes both sides of the claim (group-side Aut(G) vs
quandle-side Aut(X), direct tuple BFS vs stabilizer criteria) and returns a
TheoremReport listing every failing instance with a witness.

Aut(G) and Aut(X) come from one backtracking table search, so agreement
between the two sides does not check that search; its independent gates are
the brute-force oracles (``groups.brute_force_group_automorphisms``,
``symmetry.brute_force_aut``) and the closed-form orders in the tests.

The two statements Aut(Alex(G, phi)) = G x| C(phi), for fixed-point-free
phi and for the Takasaki quandle T(G) = Alex(G, -id), share one body,
``_check_split``.  It decides the factorization from the stabilizer chain
of Aut(X) and never lists Aut(X): Aut(X) must hold the translation by each
generator of G, and its stabilizer of 0 must be the expected maps.

Every sweep over phi in Aut(G) except central-lemma's (its injectivity
clause is about the whole set) checks one phi per conjugacy class of Aut(G)
(``groups._aut_classes``), counted once per member: psi in Aut(G) is an
isomorphism Alex(G, phi) -> Alex(G, psi phi psi^-1), and C(psi phi psi^-1)
= psi C(phi) psi^-1, so each of their clauses holds on a whole class or
nowhere in it.  Each class comes with C(phi), which the suites read.

The mccarron census reads its classes and counts from
``quandle._quandle_classes``, next to the column search it runs; this
module keeps only the census's clauses on 3-transitivity.

Each statement has one suite, declared once: a public ``suite_*`` function
under ``@_suite(tid, description, ceiling)``.  Its keyword parameter
(``max_order``, ``ns``, or none) names the bound it takes and its default;
its body builds the statement's instance family from that bound and lists
the per-instance reports, which the decorator merges into one report named
tid.  An empty failure list on an exhaustive family is the verification.
The decorator enters each suite in ``THEOREM_SUITES``, theorem id to
(suite, one-line description) in declaration order, and its ceiling, the
largest bound the suite accepts, in ``_CEILINGS``; every suite that takes a
bound has a measured one.  ``run_suite`` refuses a bound above a selected
suite's ceiling before any suite runs, passes each selected suite only the
bounds it takes and times the call.  The command line and the acceptance
tests run through it.
"""

import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from . import groups as G
from . import quandle as Q
from . import symmetry as sym
from .perms import PermGroup, Permutation, _generators, _orbit, automorphism_group_backtrack
from .perms import brute_force_k_transitive


@dataclass
class TheoremReport:
    """Outcome of one verification run.  ``elapsed`` is the suite's wall
    time in seconds, set by ``run_suite``; it stays 0 when a check or a suite
    is called directly."""

    theorem_id: str
    instances_tested: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    annotations: dict = field(default_factory=dict)

    @property
    def passed(self):
        return not self.failures

    def fail(self, message):
        self.failures.append(message)

    def to_dict(self):
        return {
            "theorem": self.theorem_id,
            "instances_tested": self.instances_tested,
            "passed": self.passed,
            "failures": list(self.failures),
            "elapsed_seconds": round(self.elapsed, 3),
            "annotations": self.annotations,
        }

    @classmethod
    def merge(cls, theorem_id, reports):
        out = cls(theorem_id)
        for rep in reports:
            out.instances_tested += rep.instances_tested
            out.failures.extend(rep.failures)
            out.annotations.update(rep.annotations)
        return out


def _check_preserved(rep, x, group, translations, maps, tag):
    """Fail for each right translation b -> b*a (a in translations) and each
    image row of maps that is not an automorphism of the quandle x."""
    perms = np.concatenate([G._smallest(group.table, group.order)[:, translations].T, maps])
    ok = G._homomorphism_mask(x.table, x.table, x.generators(), perms)
    for i in np.nonzero(~ok)[0]:
        if i < len(translations):
            rep.fail(f"{tag}: translation t_{translations[i]} is not a quandle automorphism")
        else:
            images = tuple(int(v) for v in maps[i - len(translations)])
            rep.fail(f"{tag}: map {images} is not a quandle automorphism")


def _check_semidirect_embedding(rep, group, x, center, maps, tag):
    """Check that (a, f) -> (b -> f(b) a) embeds center x| maps into the
    automorphisms of the quandle x, where center lists the elements of the
    group's center and maps are image rows of group automorphisms, the
    identity among them.

    Clauses: every central translation and every map preserves the quandle;
    the m = |center| |maps| images are distinct; and the embedding E obeys
    the product law E(x g) = E(x) E(g), with x g in the list, for every x
    and every g in a generating set: the pairs (z, id) for generators z of
    the center and (0, f) for generators f of maps (``perms._generators``, the
    identity (0, id) left out).  The product is
    (a1, f1)(a2, f2) = (a1 f1(a2), f1 f2).  Induction on the length of a
    word in the generators then gives the law on all m^2 pairs, and closes
    the list under the product.  A list without the identity is not closed,
    so it fails before the product law is checked.  Failures name their
    pairs as (a, images of f), the first three per clause.  Returns m.
    """
    n, center = group.order, np.asarray(center)
    tbl, maps = G._smallest(group.table, n), G._smallest(maps, n)
    _check_preserved(rep, x, group, center, maps, tag)
    k = len(maps)
    emb = tbl.T[center][:, maps].reshape(-1, n)                  # pair i is (center[i // k], maps[i % k])
    m = len(emb)                                                 # emb[i, b] = f(b) a

    def name(i):
        return f"({int(center[i // k])}, {tuple(maps[i % k].tolist())})"

    earlier = G._row_lookup(emb)(emb)
    for i in np.nonzero(earlier != np.arange(m))[0][:3]:
        rep.fail(f"{tag}: not injective, {name(i)} collides with {name(earlier[i])}")

    where = np.full(n, -1)
    where[center] = np.arange(len(center))                       # position in center, -1 outside
    find = G._row_lookup(maps)
    zero, ident = where[0], find(np.arange(n)[None])[0]
    if zero < 0 or ident < 0:
        rep.fail(f"{tag}: the identity (0, {tuple(range(n))}) is not in the list")
        return m
    zgens = _generators(len(center), lambda g: where[tbl[center, center[g]]].tolist(), identity=zero)
    fgens = _generators(k, lambda g: find(maps[:, maps[g]]).tolist(), identity=ident)
    gens = np.sort(np.concatenate([zgens * k + ident, zero * k + fgens]))
    a2, f2, emb2 = center[gens // k], maps[gens % k], emb[gens]
    outside, bad = [], []
    # per pair: f1 f2, both sides of the law and their mask, (len(gens), n) each
    for s in G._row_chunks(m, max(len(gens), 1) * n * (3 * tbl.itemsize + 1)):
        i = np.arange(s.start, s.stop)
        a1, f1 = center[i // k], maps[i % k]
        prod_a = tbl[a1[:, None], f1[:, a2]]                     # a1 f1(a2)
        prod_f = f1[:, f2]                                       # f1 f2
        lhs = tbl[prod_f, prod_a[:, :, None]]                    # E(x g) = f1 f2 (b) a1 f1(a2)
        rhs = emb[s][:, emb2]                                    # E(x) E(g): E(g) first
        rows, cols = np.nonzero((where[prod_a] < 0) | (find(prod_f) < 0))
        outside.extend(zip(rows[:3] + s.start, gens[cols[:3]]))
        rows, cols = np.nonzero((lhs != rhs).any(axis=2))
        bad.extend(zip(rows[:3] + s.start, gens[cols[:3]]))
    for i, j in outside[:3]:
        rep.fail(f"{tag}: the product of {name(i)} and {name(j)} is not in the list")
    for i, j in bad[:3]:
        rep.fail(f"{tag}: product law fails at {name(i)} {name(j)}")
    return m


def _check_split(rep, group, x, maps, inn_order, tag):
    """Check Aut(x) = G x| maps for a quandle x on the elements of the group,
    with maps the image rows of group automorphisms.

    Clauses: every right translation and every map preserves x; Aut holds
    the right translation b -> b*g by each generator g of the group, and so
    every translation; the stabilizer Aut_0 is exactly the set of maps, the
    first of its elements that is not a map named; |Aut| = |G| |maps|; and
    |Inn(x)| = inn_order.  Returns |Aut|.

    The second and third clauses give the factorization without listing
    Aut: for f in Aut, f followed by the translation by f(0)^-1 lies in Aut
    and fixes 0, so it is one of maps.
    """
    n = group.order
    aut = sym.automorphism_group_backtrack(x)
    _check_preserved(rep, x, group, range(n), maps, tag)
    for g in group.generators().tolist():
        if not aut.contains(group.table[:, g].tolist()):
            rep.fail(f"{tag}: Aut does not hold the translation t_{g}")
    stab = aut.stabilizer().element_array()
    outside = stab[G._row_lookup(maps)(stab) < 0]
    if len(outside) or len(stab) != len(maps):
        rep.fail(f"{tag}: Aut_0 ({len(stab)} elements) != the {len(maps)} maps")
    if len(outside):
        rep.fail(f"{tag}: automorphism {tuple(outside[0].tolist())} does not factor")
    m = aut.order()
    if m != n * len(maps):
        rep.fail(f"{tag}: |Aut| = {m} != {n} * {len(maps)}")
    inn = sym.inner_group(x).order()
    if inn != inn_order:
        rep.fail(f"{tag}: |Inn| = {inn} != {inn_order}")
    return m


def _phi_name(images):
    return "phi=" + ",".join(map(str, images))


# -- embedding of Z(G) x| C_Aut(phi) into Aut of the generalized Alexander quandle


def check_prop_embedding_zg_caut(group, phi):
    """Verify that (a, f) -> t_a ; f embeds Z(G) x| C_Aut(G)(phi) into
    Aut(Alex(G, phi)).

    Clauses: every central translation and every centralizer element
    preserves the quandle; the map is injective; and it is a homomorphism
    from the semidirect product (a1,f1)(a2,f2) = (a1 f1(a2), f1 f2), checked
    at every element and every generator (``_check_semidirect_embedding``).
    """
    if not phi.is_automorphism:
        raise ValueError("phi must be an automorphism")
    return _embedding_one(group, np.array(phi.images), G._centralizer_rows(group, phi.images))


def _embedding_one(group, images, cent):
    rep = TheoremReport("alexander-embedding")
    x = Q._alexander_quandle(group, images, "gen_alexander")
    tag = f"{group.name}, {_phi_name(images)}"
    rep.instances_tested = _check_semidirect_embedding(rep, group, x, G.center(group), cent, tag)
    return rep


# -- Takasaki quandles: Aut = G x| Aut(G), Inn = 2G x| Z2 ---------------------


def check_thm_takasaki_aut(group):
    """On an abelian group of odd order: every automorphism of the Takasaki
    quandle splits uniquely as a translation followed by a group
    automorphism, |Aut| = |G| |Aut(G)|, and |Inn| = 2 |2G| (for |G| > 1).

    T(G) = Alex(G, -id) and C(-id) = Aut(G), so this is
    ``check_thm_fpf_structure`` at phi = -id: both run ``_check_split``.
    The group-side automorphism list and the quandle-side automorphism
    group come from the same table search run on different tables; this
    check confronts them.
    """
    rep = TheoremReport("takasaki-aut")
    if not group.is_abelian():
        raise ValueError(f"{group.name} is not abelian")
    if group.order % 2 == 0:
        raise ValueError(f"{group.name} has even order")
    inn_order = 1 if group.order == 1 else 2 * len(G.doubling_image(group))
    m = _check_split(rep, group, Q.takasaki(group), G.automorphism_array(group), inn_order, group.name)
    rep.instances_tested = m + 2
    rep.annotations[f"aut_order[{group.name}]"] = m
    return rep


def check_corollary_dihedral(n):
    """Odd dihedral quandle: |Aut(R_n)| = n phi(n), |Inn(R_n)| = 2n (n > 1),
    and Inn is generated by the maps y -> 2a - y, each matching S_a."""
    rep = TheoremReport("dihedral-corollary")
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    x = Q.dihedral(n)
    aut = sym.automorphism_group_backtrack(x)
    if aut.order() != n * G.euler_phi(n):
        rep.fail(f"R{n}: |Aut| = {aut.order()} != {n} * {G.euler_phi(n)}")
    inn = sym.inner_group(x)
    expected = 1 if n == 1 else 2 * n
    if inn.order() != expected:
        rep.fail(f"R{n}: |Inn| = {inn.order()} != {expected}")
    reflect = [(-y) % n for y in range(n)]
    gens = []
    for a in range(n):
        timage = [(2 * a + v) % n for v in reflect]      # reflect, then shift by 2a
        gens.append(Permutation(timage))
        if tuple(timage) != x.column(a):
            rep.fail(f"R{n}: S_{a} != translation-by-2{a} after reflection")
    if PermGroup(gens, degree=n).order() != inn.order():
        rep.fail(f"R{n}: translation-reflection maps do not generate Inn")
    rep.instances_tested = n + 2
    rep.annotations[f"aut_order[R{n}]"] = aut.order()
    return rep


def check_prop_conj_embedding(group):
    """Conjugation quandle: (a, f) -> t_a ; f embeds Z(G) x| Aut(G) into
    Aut(Conj(G)), the product law checked at every element and every
    generator of the semidirect product (``_check_semidirect_embedding``);
    |Inn(Conj(G))| = |G : Z(G)|.  Whether the embedding is onto is reported
    as an annotation, not asserted.
    """
    rep = TheoremReport("conj-embedding")
    x = Q.conj_quandle(group, 1)
    n = group.order
    zc = G.center(group)
    auts_g = G.automorphism_array(group)
    tag = group.name
    rep.instances_tested = _check_semidirect_embedding(rep, group, x, zc, auts_g, tag)

    inn = sym.inner_group(x)
    if inn.order() != n // len(zc):
        rep.fail(f"{tag}: |Inn(Conj(G))| = {inn.order()} != |G|/|Z(G)| = {n // len(zc)}")
    aut = sym.automorphism_group_backtrack(x)
    rep.annotations[f"aut_conj[{tag}]"] = aut.order()
    rep.annotations[f"embedding_onto[{tag}]"] = aut.order() == rep.instances_tested
    return rep


# -- commutativity and central automorphisms ----------------------------------


def _per_class(rep, group, sizes, counts=1):
    """rep, counting each swept class of Aut(G), of the given sizes, once per
    member, counts instances a member (a number or one per class)."""
    rep.instances_tested = int((sizes * counts).sum())
    rep.annotations[f"phi_classes[{group.name}]"] = len(sizes)
    return rep


def _each_class(tid, group, check, keep=None):
    """check(group, phi, C(phi)) on one phi per conjugacy class of Aut(G),
    over the classes whose phi the mask keep(phis) selects (every class when
    keep is None), merged into one report named tid; each class is counted
    once per member."""
    phis, sizes, cents = G._aut_classes(group)
    chosen = np.ones(len(phis), dtype=bool) if keep is None else keep(phis)
    each = [check(group, phi, cent) for phi, cent, ok in zip(phis, cents, chosen) if ok]
    rep = TheoremReport.merge(tid, each)
    return _per_class(rep, group, sizes[chosen], [r.instances_tested for r in each])


def _alexander_mask(group, phis, test):
    """Mask over image rows phi: test on (k, n, n) blocks of Alex(G, phi) tables, k per _row_chunks slice."""
    n, out = group.order, np.empty(len(phis), dtype=bool)
    phis = G._smallest(phis, n)
    # per table: the gathered phi(a b^-1), the table, and the test's mask
    for s in G._row_chunks(len(phis), n * n * (2 * phis.itemsize + 1)):
        out[s] = test(Q._alexander_tables(group, phis[s]))
    return out


def _commutativity_one(group):
    """The commutativity clauses on a single group."""
    rep = TheoremReport("commutativity")
    phis, sizes, _ = G._aut_classes(group)
    tbl = group.table
    rng = np.arange(group.order)
    comm = _alexander_mask(group, phis, lambda x: (x == x.transpose(0, 2, 1)).all(axis=(1, 2)))
    squares_back = (phis[:, tbl[rng, rng]] == rng).all(axis=1)
    tag = group.name
    for i in np.flatnonzero(comm & ~squares_back)[:3]:
        rep.fail(f"{tag}, {_phi_name(phis[i])}: commutative but phi(a*a) != a")
    if group.is_abelian():
        two_phi_id = (tbl[phis, phis] == rng).all(axis=1)
        for i in np.flatnonzero(comm != two_phi_id)[:3]:
            rep.fail(f"{tag}, {_phi_name(phis[i])}: commutative={comm[i]} but 2phi=id is {two_phi_id[i]}")
    else:
        for i in np.flatnonzero(comm & squares_back)[:3]:
            rep.fail(f"{tag}, {_phi_name(phis[i])}: non-abelian group yet commutative quandle")
    return _per_class(rep, group, sizes)


def _central_one(group):
    """The central-automorphism clauses on a single group."""
    rep = TheoremReport("central-lemma")
    phis = G.automorphism_array(group)
    tw = G._twisted_rows(group, phis)
    keep = G._central(group, tw)
    central, tw = phis[keep], tw[keep]
    tag = group.name
    hom = G._homomorphism_mask(group.table, group.table, group.generators(), tw)
    for i in np.flatnonzero(~hom)[:3]:
        rep.fail(f"{tag}, {_phi_name(central[i])}: twisted map is not a homomorphism")
    earlier = G._row_lookup(tw)(tw)
    for i in np.flatnonzero(earlier != np.arange(len(tw)))[:3]:
        rep.fail(f"{tag}: twisted maps collide for {_phi_name(central[i])} and {_phi_name(central[earlier[i]])}")
    if not group.is_abelian():
        for i in np.flatnonzero(G._fixed_point_free(central))[:3]:
            rep.fail(f"{tag}, {_phi_name(central[i])}: fixed-point-free central map on a non-abelian group")
    elif len(central) != len(phis):
        rep.fail(f"{tag}: abelian group but Autcent has {len(central)} of {len(phis)} maps")
    rep.instances_tested = len(central)
    rep.annotations[f"autcent[{tag}]"] = len(central)
    return rep


def _connected_abelian_one(group):
    """The connectivity obstruction on a single non-abelian group."""
    rep = TheoremReport("connected-abelian")
    if group.is_abelian():
        raise ValueError(f"{group.name} is abelian; the claim concerns non-abelian groups")
    phis, sizes, _ = G._aut_classes(group)
    involutory = (np.take_along_axis(phis, phis, axis=1) == np.arange(group.order)).all(axis=1)
    chosen = G._central(group, G._twisted_rows(group, phis)) & involutory
    phis, sizes = phis[chosen], sizes[chosen]
    for i in np.flatnonzero(_alexander_mask(group, phis, sym._connected_tables))[:3]:
        rep.fail(f"{group.name}, {_phi_name(phis[i])}: connected despite central involutory phi")
    return _per_class(rep, group, sizes)


def _bae_choe_one(group):
    """The three-way equivalence on a single abelian group."""
    rep = TheoremReport("bae-choe")
    if not group.is_abelian():
        raise ValueError(f"{group.name} is not abelian")
    phis, sizes, _ = G._aut_classes(group)
    connected = _alexander_mask(group, phis, sym._connected_tables)
    fpf = G._fixed_point_free(phis)
    bij = (np.sort(G._twisted_rows(group, phis), axis=1) == np.arange(group.order)).all(axis=1)
    for i in np.flatnonzero((connected != fpf) | (fpf != bij))[:3]:
        rep.fail(
            f"{group.name}, {_phi_name(phis[i])}: connected={connected[i]}, "
            f"fixed-point-free={fpf[i]}, twisted-bijective={bij[i]}"
        )
    return _per_class(rep, group, sizes)


# -- fixed-point-free structure and transitivity -------------------------------


def check_thm_fpf_structure(group, phi):
    """Fixed-point-free phi on an abelian group: the stabilizer of 0 in
    Aut(Alex(G, phi)) is exactly the centralizer of phi in Aut(G), every
    automorphism is a translation composed with a centralizer element,
    |Aut| = |G| |C|, and |Inn| = |G| ord(phi).  The clauses are
    ``_check_split``'s, shared with ``check_thm_takasaki_aut``."""
    if not group.is_abelian():
        raise ValueError(f"{group.name} is not abelian")
    if not G.is_fixed_point_free(phi):
        raise ValueError("phi must be fixed-point free")
    return _fpf_structure_one(group, np.array(phi.images), G._centralizer_rows(group, phi.images))


def _fpf_structure_one(group, images, cent):
    rep = TheoremReport("fpf-structure")
    x = Q._alexander_quandle(group, images, "alexander")
    tag = f"{group.name}, {_phi_name(images)}"
    m = _check_split(rep, group, x, cent, group.order * Permutation(images).order(), tag)
    rep.instances_tested = m + 2
    return rep


def _aut_transitive_one(group):
    """The transitivity test on a single nontrivial group."""
    rep = TheoremReport("aut-transitive")
    if group.order == 1:
        raise ValueError("transitivity on non-identity elements needs a nontrivial group")
    gens = [g.images for g in automorphism_group_backtrack(group).generators]
    transitive = len(_orbit(gens, 1, tuple(range(group.order)))) == group.order - 1
    elem = G.is_elementary_abelian(group)
    if transitive != elem:
        rep.fail(
            f"{group.name}: Aut transitive on non-identity = {transitive}, "
            f"elementary abelian = {elem}"
        )
    rep.instances_tested = 1
    return rep


def check_thm_fnt(p, n, u):
    """Alex((Z/p)^n, scalar u) with u a unit other than 1: Aut is doubly
    transitive (checked twice: stabilizer criterion and direct pair BFS);
    for n >= 2 the inner group is not transitive on pairs."""
    rep = TheoremReport("doubly-transitive")
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if u % p in (0, 1):
        raise ValueError(f"u must be a unit distinct from 1 mod {p}, got {u}")
    group = G.make_abelian([p] * n)
    phi = G.scalar_map(group, u)
    x = Q.alexander(group, phi)
    tag = f"p={p}, n={n}, u={u}"
    aut = sym.automorphism_group_backtrack(x)
    via_stabilizer = sym.aut_is_doubly_transitive(x)
    via_bfs = brute_force_k_transitive(aut.generators, aut.degree, 2)
    if via_stabilizer != via_bfs:
        rep.fail(f"{tag}: stabilizer criterion {via_stabilizer} != pair BFS {via_bfs}")
    if not via_stabilizer:
        rep.fail(f"{tag}: Aut not doubly transitive")
    if n >= 2 and sym.is_two_point_homogeneous(x):
        rep.fail(f"{tag}: inner group transitive on pairs despite n >= 2")
    rep.instances_tested = 1
    rep.annotations[f"aut_order[{tag}]"] = aut.order()
    return rep


# -- the census bound on higher transitivity -----------------------------------


# the census runs to order 6 unless asked for more, and takes at most the
# column search's bound, 7 (about 0.3 s and 81.5 MB peak RSS)
_CENSUS_DEFAULT_ORDER = 6


def check_mccarron_bound(min_order=1, max_order=_CENSUS_DEFAULT_ORDER):
    """Census over all quandles of each order: no quandle with 4 or more
    elements is 3-transitive, and at order 3 the dihedral quandle R_3 is the
    unique 3-transitive one.

    The classes, both counts of the labeled tables and the search's
    completions come from ``quandle._quandle_classes``, which owns the
    column search and explains the counts.  ``labeled[n]`` counts the
    labeled tables by orbit-stabilizer over the completions,
    ``relabeled[n]`` as the size of the union of the classes' relabeling
    orbits, n!/|Aut(T)| summed over the classes; the report fails where the
    two differ.
    ``completions[n]`` counts the tables the column search completes from
    every first column S_0, one per orbit under the centralizer of S_0; the
    identity S_0's share is counted from the classes, not searched.
    """
    rep = TheoremReport("mccarron")
    if not 1 <= min_order <= max_order <= Q._COLUMN_SEARCH_BOUND:
        raise ValueError(f"census bound must sit inside 1..{Q._COLUMN_SEARCH_BOUND}")
    for order in range(min_order, max_order + 1):
        classes, labeled, relabeled, completions = Q._quandle_classes(order)
        rep.annotations[f"classes[{order}]"] = len(classes)
        rep.annotations[f"labeled[{order}]"] = labeled
        rep.annotations[f"relabeled[{order}]"] = relabeled
        rep.annotations[f"completions[{order}]"] = completions
        rep.instances_tested += len(classes)
        if relabeled != labeled:
            rep.fail(f"order {order}: the relabeling orbits hold {relabeled} tables, "
                     f"orbit-stabilizer counts {labeled}")
        if order < 3:
            continue
        three_transitive = [x for x in classes if sym.inner_group(x).is_k_transitive(3)]
        if order == 3:
            if len(three_transitive) != 1:
                rep.fail(f"order 3: expected exactly one 3-transitive quandle, found {len(three_transitive)}")
            elif sym.quandle_isomorphic(three_transitive[0], Q.dihedral(3)) is None:
                rep.fail("order 3: the 3-transitive quandle is not R_3")
        elif three_transitive:
            rep.fail(f"order {order}: found {len(three_transitive)} 3-transitive quandles")
    return rep


# -- embedding a quandle into the conjugation quandle of its inner group --------


def check_prop_embed_conj_inn(group):
    """For the negation automorphism on an abelian group of odd order,
    a -> S_a is an injective homomorphism into Conj(Inn); the homomorphism
    identity is S_{a*b} = S_b^-1 ; S_a ; S_b."""
    rep = TheoremReport("conj-inn-embedding")
    if not group.is_abelian():
        raise ValueError(f"{group.name} is not abelian")
    if group.order % 2 == 0:
        raise ValueError(f"{group.name} has even order; negation has a fixed point")
    x = Q.takasaki(group)
    report = sym.embed_in_conj_inn(x)
    if not report.is_homomorphism:
        rep.fail(f"{group.name}: S map is not a homomorphism at {report.homomorphism_witness}")
    if not report.is_injective:
        rep.fail(f"{group.name}: S map is not injective at {report.injectivity_witness}")
    rep.instances_tested = 1
    return rep


def _negation_failure_witness():
    """The even-order counterexample: on Z/4 with negation the S map is a
    homomorphism but S_0 = S_2, so injectivity fails."""
    rep = TheoremReport("conj-inn-embedding")
    x = Q.dihedral(4)
    report = sym.embed_in_conj_inn(x)
    if not report.is_homomorphism:
        rep.fail("Z4: homomorphism clause unexpectedly fails")
    if report.is_injective:
        rep.fail("Z4: injectivity unexpectedly holds for an even order")
    if report.injectivity_witness != (0, 2):
        rep.fail(f"Z4: expected collision (0, 2), found {report.injectivity_witness}")
    rep.instances_tested = 1
    return rep


# -- suites ---------------------------------------------------------------------


THEOREM_SUITES = {}
_CEILINGS = {}


def _suite(tid, description, ceiling=None):
    """Declare the decorated body as theorem tid's suite.

    The body's keyword parameter, if it has one, names the bound the suite
    takes and its default; the body lists reports, and the suite merges them
    into one named tid.  ``THEOREM_SUITES[tid]`` becomes (suite, description),
    in declaration order, and ``_CEILINGS[tid]`` the largest bound
    ``run_suite`` lets through (the largest order, for ns), None only for a
    suite that takes no bound.
    """
    def register(body):
        @functools.wraps(body)
        def suite(*args, **kwargs):
            return TheoremReport.merge(tid, body(*args, **kwargs))

        THEOREM_SUITES[tid] = (suite, description)
        _CEILINGS[tid] = ceiling
        return suite

    return register


def _odd_abelian(max_order):
    return [g for g in G.catalog_groups(max_order) if g.is_abelian() and g.order % 2]


# At 127 about 1.5 s and 51 MB peak RSS; at 255 it takes 14 s and 155 MB.
@_suite("conj-inn-embedding", "a -> S_a embeds odd Takasaki quandles into Conj(Inn); fails injectivity on Z4",
        ceiling=127)
def suite_conj_inn_embedding(max_order=15):
    reports = [check_prop_embed_conj_inn(g) for g in _odd_abelian(max_order)]
    reports.append(_negation_failure_witness())
    return reports


# At 16 both embedding suites are dominated by the 322,560 pairs of
# Z(G) x| Aut(G) for (Z/2)^4, C(id) = Aut(G) (see README).
@_suite("alexander-embedding", "Z(G) x| C_Aut(phi) embeds into Aut(Alex(G, phi))", ceiling=16)
def suite_alexander_embedding(max_order=12):
    """Sweeps the catalog groups up to max_order, one phi per conjugacy
    class of Aut(G), each class counted once per member."""
    return [_each_class("alexander-embedding", g, _embedding_one) for g in G.catalog_groups(max_order)]


# From 81 on, listing Aut((Z/3)^4), 24,261,120 maps of 81 points, passes the element cap.
@_suite("takasaki-aut", "odd abelian G: Aut(T(G)) = translations x| Aut(G), |Inn| = 2|2G|", ceiling=80)
def suite_takasaki(max_order=27):
    return [check_thm_takasaki_aut(g) for g in _odd_abelian(max_order)]


# R_n is built as a table, so an order above the table bound would fail
# mid-run; the ceiling refuses it before any suite runs.
@_suite("dihedral-corollary", "odd n: |Aut(R_n)| = n phi(n) and |Inn(R_n)| = 2n", ceiling=G._TABLE_ORDER_BOUND)
def suite_dihedral(ns=(3, 5, 7, 9, 11)):
    return [check_corollary_dihedral(n) for n in ns]


@_suite("conj-embedding", "Z(G) x| Aut(G) embeds into Aut(Conj(G)); |Inn(Conj(G))| = |G:Z(G)|", ceiling=16)
def suite_conj_embedding(max_order=12):
    """Z(G) x| Aut(G) into Aut(Conj(G)) for every catalog group up to
    max_order, and for S3 and S4 whatever the bound: the one suite that
    checks a group above its max_order."""
    groups = G.catalog_groups(max_order)
    names = {g.name for g in groups}
    groups += [x for x in (G.make_symmetric(3), G.make_symmetric(4)) if x.name not in names]
    return [check_prop_conj_embedding(g) for g in groups]


# From 32 on, listing Aut((Z/2)^5), 9,999,360 maps of 32 points, passes the element
# cap; connected-abelian, whose non-abelian catalog stops at 24, stops with the rest.
@_suite("commutativity", "commutative Alex(G, phi) forces phi(a^2) = a; abelian case: 2 phi = id", ceiling=31)
def suite_commutativity(max_order=16):
    """A commutative Alex(G, phi) forces phi(a*a) = a; over an abelian group
    commutativity is exactly 2 phi = id; over a non-abelian group
    phi(a*a) = a never yields a commutative quandle.  Sweeps every catalog
    group up to max_order, one automorphism per conjugacy class of Aut(G),
    each class counted once per member."""
    return [_commutativity_one(g) for g in G.catalog_groups(max_order)]


@_suite("central-lemma", "central phi: twisted map is a homomorphism into Z(G), injectively in phi", ceiling=31)
def suite_central(max_order=16):
    """Central automorphisms: a -> a^-1 phi(a) is a homomorphism into the
    center, phi -> twisted(phi) is injective on Autcent(G), and a
    fixed-point-free central automorphism forces G abelian.  Sweeps every
    catalog group up to max_order and every automorphism of it, not one per
    conjugacy class: the injectivity of phi -> twisted(phi) is a statement
    about the whole set.  |Autcent| per group sits in the annotations."""
    return [_central_one(g) for g in G.catalog_groups(max_order)]


@_suite("connected-abelian", "involutory central phi on non-abelian G never gives a connected quandle",
        ceiling=31)
def suite_connected_abelian(max_order=16):
    """For an involutory central automorphism of a non-abelian group, the
    generalized Alexander quandle is never connected.  Sweeps the
    non-abelian catalog groups up to max_order, one automorphism per
    conjugacy class of Aut(G), each class counted once per member."""
    groups = [g for g in G.catalog_groups(max_order) if not g.is_abelian()]
    return [_connected_abelian_one(g) for g in groups]


@_suite("bae-choe", "abelian G: connected == fixed-point-free == twisted map bijective", ceiling=31)
def suite_bae_choe(max_order=16):
    """On an abelian group the following agree for every automorphism phi:
    Alex(G, phi) connected, phi fixed-point free, and a -> phi(a) - a
    bijective.  Sweeps the abelian catalog groups up to max_order, one
    phi per conjugacy class of Aut(G), each class counted once per member."""
    groups = [g for g in G.catalog_groups(max_order) if g.is_abelian()]
    return [_bae_choe_one(g) for g in groups]


@_suite("fpf-structure", "fixed-point-free phi: Aut_0 = C(phi), Aut = G x| C(phi), |Inn| = |G| ord(phi)",
        ceiling=31)
def suite_fpf_structure(max_order=12):
    """Sweeps the abelian catalog groups up to max_order, one fixed-point-free
    phi per conjugacy class of Aut(G), each class counted once per member."""
    groups = [g for g in G.catalog_groups(max_order) if g.is_abelian()]
    return [_each_class("fpf-structure", g, _fpf_structure_one, G._fixed_point_free) for g in groups]


@_suite("aut-transitive", "Aut(G) transitive on non-identity elements iff G elementary abelian", ceiling=63)
def suite_aut_transitive(max_order=16):
    """Aut(G) is transitive on the non-identity elements exactly when G is
    elementary abelian.  Sweeps the nontrivial catalog groups up to
    max_order."""
    groups = [g for g in G.catalog_groups(max_order) if g.order > 1]
    return [_aut_transitive_one(g) for g in groups]


_DOUBLY_TRANSITIVE_CASES = ((3, 1, 2), (5, 1, 2), (5, 1, 3), (7, 1, 3), (3, 2, 2))    # (p, n, u): Alex((Z/p)^n, u)


@_suite("doubly-transitive",
        "scalar quandles over (Z/p)^n have doubly transitive Aut; Inn not pair-transitive for n >= 2")
def suite_doubly_transitive():
    return [check_thm_fnt(p, n, u) for p, n, u in _DOUBLY_TRANSITIVE_CASES]


@_suite("mccarron", "census to order 6: R_3 is the only 3-transitive quandle on 3+ points",
        ceiling=Q._COLUMN_SEARCH_BOUND)
def suite_mccarron(max_order=_CENSUS_DEFAULT_ORDER):
    return [check_mccarron_bound(1, max_order)]


def run_suite(theorem_ids=None, max_order=None, ns=None):
    """Run the named suites (all when None), each timed into ``elapsed``.

    A given bound (max_order, ns) goes to each selected suite that names it
    as a keyword parameter.  ValueError, before any suite runs: an unknown
    id, max_order < 1, an empty ns or one with an even or non-positive n,
    a bound no selected suite takes, or one above a suite's ceiling (for
    ns, its largest order).  It reads an entry of ``THEOREM_SUITES`` only
    for its callable, which a tracer may replace by a wrapper, and each
    ceiling by theorem id.
    """
    if theorem_ids is None:
        theorem_ids = list(THEOREM_SUITES)
    for tid in theorem_ids:
        if tid not in THEOREM_SUITES:
            raise ValueError(f"unknown theorem id: {tid!r}")
    if max_order is not None and max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    if ns is not None and not ns:
        raise ValueError("ns must list at least one dihedral order")
    for n in ns or ():
        if n < 1 or n % 2 == 0:
            raise ValueError(f"a dihedral order in ns must be odd and positive, got {n}")
    bounds = {name: val for name, val in (("max_order", max_order), ("ns", ns)) if val is not None}
    largest = {"max_order": max_order, "ns": max(ns) if ns else None}
    suites = [THEOREM_SUITES[tid][0] for tid in theorem_ids]
    takes = [inspect.signature(fn).parameters for fn in suites]
    for name in bounds:
        if not any(name in params for params in takes):
            raise ValueError(f"{name} is taken by none of: {', '.join(theorem_ids)}")
    for tid, params in zip(theorem_ids, takes):
        top = _CEILINGS[tid]
        for name in bounds.keys() & params.keys():
            if largest[name] > top:
                raise ValueError(f"{tid} refuses {name} above {top}, got {largest[name]}")
    reports = []
    for fn, params in zip(suites, takes):
        t0 = time.perf_counter()
        rep = fn(**{name: val for name, val in bounds.items() if name in params})
        rep.elapsed = time.perf_counter() - t0
        reports.append(rep)
    return reports
