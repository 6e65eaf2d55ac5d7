"""Finite groups: constructors, validation, automorphisms, twisted maps.

Automorphism counts are frozen from the all-bijections brute-force oracle
(run in-line here for every catalog group of order <= 8) and from unit
counts for cyclic groups.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles.groups as G
import quandles.quandle as Q

# order of the automorphism group, brute-forced over all bijections fixing 0
AUT_ORDERS = {
    "Z5": 4,        # units mod 5
    "Z9": 6,
    "Z2xZ2": 6,     # GL(2,2)
    "Z3xZ3": 48,    # GL(2,3)
    "S3": 6,
    "Q8": 24,
    "D4": 8,
    "Z2xZ2xZ2": 168,  # GL(3,2)
    "S4": 24,
}


def test_cyclic_tables():
    assert G.make_cyclic(1).table.tolist() == [[0]]
    assert G.make_cyclic(3).table[1][2] == 0
    z4 = G.make_cyclic(4)
    assert z4.table[2][2] == 0
    assert z4.table[1][1] == 2


def test_abelian_single_factor_matches_cyclic():
    a = G.make_abelian([6])
    b = G.make_cyclic(6)
    assert a.table.tolist() == b.table.tolist()


def test_abelian_constructions():
    v4 = G.make_abelian([2, 2])
    assert all(v4.table[a][a] == 0 for a in range(4))
    g9 = G.make_abelian([3, 3])
    assert all(G.element_order(g9, a) == 3 for a in range(1, 9))
    factors, coords = G.make_abelian([2, 3]).abelian_coordinates
    assert factors == (2, 3)
    assert coords[5] == (1, 2)   # mixed radix
    with pytest.raises(ValueError):
        G.make_abelian([])


def test_symmetric_group():
    s3 = G.make_symmetric(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    with pytest.raises(ValueError):
        G.make_symmetric(7)


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_tables_match_the_composition_loop(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(pb[x] for x in pa)] for pb in perms] for pa in perms]
    g = G.make_symmetric(n)
    assert g.table.tolist() == table
    assert g.labels == ["".join(map(str, p)) for p in perms]


def test_groups_and_quandles_share_one_table_intake():
    for kind, build in (("group", G.FiniteGroup), ("quandle", Q.Quandle)):
        for bad in ([], [[0, 1]], [[[0]]]):
            with pytest.raises(ValueError, match=f"^{kind} table must be square and nonempty"):
                build(bad)
        with pytest.raises(ValueError, match="^table entries must lie in 0..n-1$"):
            build([[0, 2], [1, 0]])
    assert not hasattr(G.FiniteGroup, "validate")


def test_named_groups_validate():
    for g in (G.make_dihedral_group(4), G.make_quaternion8(), G.make_dicyclic(4),
              G.direct_product(G.make_quaternion8(), G.make_cyclic(2))):
        assert G.FiniteGroup(g.table).generators().tolist() == g.generators().tolist()
    assert G.make_dicyclic(4).order == 16
    assert G.make_dihedral_group(5).order == 10


def _inverting_extension_loop(m, shift):
    """The table of <a, b | a^m, b^2 = a^shift, b a b^-1 = a^-1> pair by pair,
    a^i b^j indexed i + m*j: the constructor's former loop, as a reference."""
    table = np.empty((2 * m, 2 * m), dtype=np.int64)
    for i1, j1 in itertools.product(range(m), range(2)):
        for i2, j2 in itertools.product(range(m), range(2)):
            i = (i1 - i2 + shift * j2) % m if j1 else (i1 + i2) % m
            table[i1 + m * j1, i2 + m * j2] = i + m * ((j1 + j2) % 2)
    return table


def test_dihedral_and_dicyclic_tables_match_the_pairwise_formula():
    built = [(G.make_quaternion8(), 4, 2)]
    built += [(G.make_dihedral_group(m), m, 0) for m in range(1, 17)]
    built += [(G.make_dicyclic(k), 2 * k, k) for k in range(1, 9)]
    for g, m, shift in built:
        want = _inverting_extension_loop(m, shift)
        assert g.table.dtype == want.dtype and g.table.tobytes() == want.tobytes(), g.name


def test_quaternion_structure():
    q8 = G.make_quaternion8()
    assert q8.order == 8
    assert len(G.center(q8)) == 2
    assert sum(1 for a in range(8) if G.element_order(q8, a) == 2) == 1


def test_direct_product():
    g = G.direct_product(G.make_cyclic(3), G.make_symmetric(3))
    assert g.order == 18
    assert not g.is_abelian()


def test_validation_rejects_broken_tables():
    bad = G.make_cyclic(4).table.copy()
    bad[1][2], bad[1][3] = bad[1][3], bad[1][2]
    with pytest.raises(ValueError):
        G.FiniteGroup(bad)
    bad = G.make_cyclic(3).table.copy()
    bad[0] = [1, 2, 0]
    with pytest.raises(ValueError):
        G.FiniteGroup(bad)


# the smallest loop that is not a group: a Latin square with identity 0
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(1, 5)), st.integers(1, 3))
def test_associativity_witness_matches_all_triples(rest, m):
    # relabel the loop by a permutation fixing 0, then multiply it by Z/m
    p = np.array((0,) + tuple(rest))
    loop = np.empty((5, 5), dtype=np.int64)
    loop[p[:, None], p[None, :]] = p[np.array(LOOP5)]
    zm = G.make_cyclic(m).table
    t = (loop[:, None, :, None] * m + zm[None, :, None, :]).reshape(5 * m, 5 * m)
    witness = tuple(int(v) for v in np.argwhere(t[t] != t[:, t])[0])    # (ab)c vs a(bc)
    with pytest.raises(ValueError) as exc:
        G.FiniteGroup(t)
    assert str(exc.value) == f"associativity fails at {witness}"


def test_associativity_witness_past_the_first_row_chunk(monkeypatch):
    # Z/35 x LOOP5 with the loop coordinate slow: element l*35 + g.  Light's
    # test fails only where the loop does, so rows 0..34 (loop element 0)
    # are associative, and the first failing row, 35, lies past the first
    # chunks of the scan, which start at one row and double up to the cap of
    # _CHUNK_BYTES // (3 * 175^2) rows (5 at 512 KiB): two uint8 sides and
    # their mask
    m = 35
    zm = G.make_cyclic(m).table
    t = (np.array(LOOP5)[:, None, :, None] * m + zm[None, :, None, :]).reshape(5 * m, 5 * m)
    t16 = t.astype(np.int16)
    witness = tuple(int(v) for v in np.argwhere(t16[t16] != t16[:, t16])[0])    # (ab)c vs a(bc)
    assert witness[0] == m
    with pytest.raises(ValueError) as exc:
        G.FiniteGroup(t)
    assert str(exc.value) == f"associativity fails at {witness}"

    small = G._smallest(t, len(t))

    def scan():
        sizes = []

        def sides(rows):
            sizes.append(len(rows))
            return small[rows], rows[:, small]

        return G._first_witness(small, sides), sizes

    cap, schedule = max(1, G._CHUNK_BYTES // (3 * small.size)), [1]
    while sum(schedule) <= witness[0]:
        schedule.append(min(2 * schedule[-1], cap))
    assert len(schedule) > 3                             # the witness lies past the first three chunks
    assert scan() == (witness, schedule)
    monkeypatch.setattr(G, "_CHUNK_BYTES", 4 * 3 * len(t) ** 2)
    assert scan() == (witness, [1, 2] + [4] * 9)


def _sort_based_group_error(t):
    """The ValueError text a group check built on sorted copies of t gives,
    over every triple; None for a group table with identity 0."""
    n = len(t)
    rng = np.arange(n)
    if not np.array_equal(t[0], rng) or not np.array_equal(t[:, 0], rng):
        return "element 0 is not a two-sided identity"
    if not (np.sort(t, axis=1) == rng).all() or not (np.sort(t, axis=0) == rng[:, None]).all():
        return "table rows/columns are not permutations (not a Latin square)"
    bad = np.argwhere(t[t] != t[:, t])                  # (ab)c vs a(bc)
    return f"associativity fails at {tuple(int(v) for v in bad[0])}" if len(bad) else None


def _intercalate_swap(t, rng):
    """t with the values of one 2 x 2 Latin subsquare off row and column 0
    swapped, which keeps the identity and the Latin property and mostly
    breaks associativity; None if a few random row pairs hold none."""
    n = len(t)
    for _ in range(8):
        a, c = rng.choice(np.arange(1, n), 2, replace=False)
        where = np.argsort(t[c])                        # where[v]: the column of v in row c
        d = where[t[a]]                                 # t[a, b] = t[c, d[b]]
        b = np.nonzero((t[a, d] == t[c]) & (d != np.arange(n)) & (d > 0))[0]
        b = b[b > 0]
        if len(b):
            b = b[0]
            out = t.copy()
            out[[a, a, c, c], [b, d[b], b, d[b]]] = t[[a, a, c, c], [d[b], b, d[b], b]]
            return out
    return None


def test_group_check_errors_match_a_sort_based_reference():
    # relabeled catalog groups, each broken at random in one of five ways or
    # left whole: every ValueError text, witness included, is the reference's
    rng = np.random.default_rng(34)
    groups = [g for g in G.catalog_groups(16) if g.order > 2]
    seen = {}
    for _ in range(400):
        g = groups[rng.integers(len(groups))]
        n = g.order
        p = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        t = np.empty((n, n), dtype=np.int64)
        t[p[:, None], p[None, :]] = p[g.table]
        kind = rng.integers(6)
        if kind == 0:                                   # two rows swapped: Latin, no identity
            rows = rng.choice(n, 2, replace=False)
            t[rows] = t[rows[::-1]]
        elif kind == 1:                                 # one entry off row and column 0 changed
            a, b = rng.integers(1, n, size=2)
            t[a, b] = (t[a, b] + rng.integers(1, n)) % n
        elif kind == 2:                                 # random entries inside a kept identity border
            t[1:, 1:] = rng.integers(0, n, size=(n - 1, n - 1))
        elif kind == 3:
            t = _intercalate_swap(t, rng)
            if t is None:
                continue
        elif kind == 4:                                 # Latin rows inside the border, columns
            for a in range(1, n):                       # not, or the transpose of that
                t[a, 1:] = rng.permutation(np.delete(np.arange(n), a))
            t = t.T.copy() if rng.integers(2) else t
        want = _sort_based_group_error(t)
        try:
            G.FiniteGroup(t)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, t.tolist()
        key = want.split(" ")[0] if want else None
        seen[key] = seen.get(key, 0) + 1
    assert seen.keys() == {"element", "table", "associativity", None} and min(seen.values()) >= 30, seen


def test_dihedral_group_of_order_1024_builds_in_20_mb():
    # the 8 MB int64 table is built once and handed over, not copied, and
    # validation adds only uint16 work arrays and one n x n bool mask: about
    # 16 MB, where copying the table would take 23 MB and sorting it 33 MB
    tracemalloc.start()
    try:
        G.make_dihedral_group(512)
        assert tracemalloc.get_traced_memory()[1] <= 20 << 20
    finally:
        tracemalloc.stop()


def _closure(rows, gens):
    """Every product of two members, repeated until nothing new appears."""
    out = set(int(g) for g in gens)
    while True:
        more = out | {rows[x][y] for x in out for y in out}
        if more == out:
            return out
        out = more


def _generator_tables():
    """Every catalog group of order <= 16 with its identity 0, and small
    members of each family of quandles the analyze benchmark loads."""
    groups = G.catalog_groups(16)
    z7, z9, f9, f25 = (G.group_by_name(x) for x in ("z7", "z9", "3x3", "5x5"))
    quandles = [Q.dihedral(n) for n in (3, 5, 8, 12)] + [
        Q.takasaki(f9), Q.takasaki(G.make_abelian([3, 3, 3])),
        Q.alexander(f9, G.scalar_map(f9, 2)), Q.alexander(f25, G.scalar_map(f25, 3)),
        Q.alexander(z7, G.scalar_map(z7, 3)), Q.alexander(z9, G.scalar_map(z9, 5)),
        Q.trivial_quandle(1), Q.trivial_quandle(6),
    ] + [Q.conj_quandle(g) for g in G.catalog_groups(16) if not g.is_abelian()]
    return [(g.name, g.table, 0) for g in groups] + [(repr(x), x.table, None) for x in quandles]


@pytest.mark.parametrize("name, table, identity", _generator_tables(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_generators_close_the_table_and_each_is_new(name, table, identity):
    gens = G._generators(len(table), lambda g: table[:, g].tolist(), identity=identity)
    rows = table.tolist()
    start = set() if identity is None else {identity}
    assert identity not in gens.tolist()
    assert list(gens) == sorted(set(gens.tolist()))
    assert _closure(rows, gens) | start == set(range(len(rows)))
    for i, g in enumerate(gens):
        assert g not in _closure(rows, gens[:i]) | start
    if identity is not None:
        # the identity would have been the first generator, and nothing else changes
        assert G._generators(len(table), lambda g: table[:, g].tolist()).tolist() == [identity] + gens.tolist()


def test_group_generators_come_from_validation():
    g = G.make_symmetric(4)
    assert g.generators() is g.generators()
    assert np.array_equal(g.generators(), G._generators(g.order, lambda h: g.table[:, h].tolist(), identity=0))
    assert G.make_cyclic(12).generators().tolist() == [1]
    assert G.make_cyclic(1).generators().tolist() == []
    G.GroupMap(G.make_cyclic(1), G.make_cyclic(3), (0,))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["z6", "s3", "d4", "q8", "2x4", "2x2x2"]), st.integers(0, 10 ** 6),
       st.integers(0, 7), st.integers(0, 7))
def test_homomorphism_check_matches_all_pairs(name, pick, i, j):
    # an automorphism with two images swapped, so usually no homomorphism
    g = G.group_by_name(name)
    auts = G.automorphism_array(g)
    images = auts[pick % len(auts)].tolist()
    i, j = i % g.order, j % g.order
    images[i], images[j] = images[j], images[i]
    t = g.table.tolist()
    bad = [(a, b) for a in range(g.order) for b in range(g.order) if images[t[a][b]] != t[images[a]][images[b]]]
    if images[0] != 0:
        with pytest.raises(ValueError, match="identity to identity"):
            G.map_from_images(g, images)
    elif bad:
        a, b = bad[0]
        with pytest.raises(ValueError) as exc:
            G.map_from_images(g, images)
        assert str(exc.value) == f"not a homomorphism: f({a}*{b}) != f({a})*f({b})"
    else:
        assert G.map_from_images(g, images).is_automorphism


def _homomorphic_at_all_pairs(src, tgt, maps):
    """Reference for the mask: f(a*b) = f(a)*f(b) at every pair (a, b) of
    src, the product on the right taken in tgt."""
    s, t, n = src.tolist(), tgt.tolist(), len(src)
    return [all(f[s[a][b]] == t[f[a]][f[b]] for a in range(n) for b in range(n)) for f in maps.tolist()]


def _partial_homomorphisms(g, rng):
    """Maps of the group g that pass the first j generators and so usually
    fail the next one, for each j below the number k of generators: the
    identity on the subgroup H of the first j, and x h -> c h on every other
    coset x H, its least element x and c random."""
    gens, t, n = g.generators(), g.table, g.order
    out = []
    for j in range(1, len(gens)):
        sub = np.array(sorted(_closure(t.tolist(), gens[:j]) | {0}))
        f = np.full(n, -1)
        for x in range(n):
            if f[x] == -1:
                f[t[x, sub]] = t[0 if x == 0 else rng.integers(n), sub]
        out.append(f)
    return out


def _every_map(m, n):
    """All n^m image rows of a map from m points to n points."""
    return np.array(list(itertools.product(range(n), repeat=m)))


# (domain, codomain, number of homomorphisms): x -> kx between cyclic groups,
# 1 -> the identity or a 3-cycle for Z3 -> S3, the trivial map and the sign
# for S3 -> Z2
GROUP_MAP_COUNTS = [("z6", "z3", 3), ("z3", "s3", 3), ("z4", "z2", 2), ("s3", "z2", 2), ("z2", "z4", 2)]


def _group_map_cases():
    """(src, tgt, generators of src, every image row) for GROUP_MAP_COUNTS."""
    out = []
    for a, b, _ in GROUP_MAP_COUNTS:
        g, h = G.group_by_name(a), G.group_by_name(b)
        out.append((g.table, h.table, g.generators(), _every_map(g.order, h.order)))
    return out


def _mask_cases():
    """(src, tgt, generators of src, image rows): every labeled quandle of
    order <= 4 with every map of its points, every catalog group of order <=
    12 with its automorphisms, power maps, partial homomorphisms, constant
    maps and random maps, so bijections and non-bijections both pass and
    fail; and maps between tables of different orders, as ``GroupMap``
    checks them: every map between labeled quandles of two different orders
    <= 4, and every map between the groups of GROUP_MAP_COUNTS."""
    cases = []
    quandles = {n: list(Q.enumerate_quandle_tables(n)) for n in range(1, 5)}
    for n in range(1, 5):
        every = _every_map(n, n)
        cases += [(x.table, x.table, x.generators(), every) for x in quandles[n]]
    rng = np.random.default_rng(18)
    for g in G.catalog_groups(12):
        n = g.order
        maps = [G.automorphism_array(g), [[g.power(x, k) for x in range(n)] for k in range(4)],
                _partial_homomorphisms(g, rng), np.tile(np.arange(n)[:, None], n), rng.integers(n, size=(40, n))]
        cases.append((g.table, g.table, g.generators(), np.vstack([np.reshape(m, (-1, n)) for m in maps if len(m)])))
    for m, n in itertools.permutations(range(1, 5), 2):
        cases += [(x.table, y.table, x.generators(), _every_map(m, n)) for x in quandles[m] for y in quandles[n]]
    return cases + _group_map_cases()


def _check_mask_cases(cases):
    """Each case's mask against the all-pairs reference; the outcomes."""
    outcomes = []
    for src, tgt, gens, maps in cases:
        mask = G._homomorphism_mask(src, tgt, gens, maps)
        assert mask.tolist() == _homomorphic_at_all_pairs(src, tgt, maps), (src.tolist(), tgt.tolist())
        outcomes.append(mask)
    return outcomes


def test_homomorphism_mask_matches_all_pairs():
    outcomes = np.concatenate(_check_mask_cases(_mask_cases()))
    assert np.count_nonzero(outcomes) > 1000 and np.count_nonzero(~outcomes) > 5000


def test_homomorphism_mask_between_groups_of_different_orders():
    counts = [int(np.count_nonzero(mask)) for mask in _check_mask_cases(_group_map_cases())]
    assert counts == [count for _, _, count in GROUP_MAP_COUNTS]


def test_homomorphism_mask_matches_all_pairs_in_small_chunks(monkeypatch):
    # a 600-byte budget cuts the same maps into 12,263 chunks of 1 to 30
    # rows, 727 of them of one row: a row of uint8 images from a table of
    # order 12 with k generators takes 12 (9 + 11 k) bytes
    cases, sizes, chunks = _mask_cases(), [], G._row_chunks

    def spy(rows, row_bytes):
        for s in chunks(rows, row_bytes):
            sizes.append(s.stop - s.start)
            yield s

    monkeypatch.setattr(G, "_CHUNK_BYTES", 600)
    monkeypatch.setattr(G, "_row_chunks", spy)
    _check_mask_cases(cases)
    assert len(sizes) > 10000 and sizes.count(1) > 500 and max(sizes) > 1


def test_homomorphism_mask_holds_one_chunk_of_temporaries():
    # Aut((Z/2)^4)'s 20,160 twisted rows, 16 points and 4 generators: the
    # chunks are sized for the 8-byte index at each (row, g, x), so the
    # traced peak stays within 1.25 _CHUNK_BYTES (0.86 here); chunks that
    # counted 3 bytes an entry, as for a fancy gather, reach 3.76x
    g = G.make_abelian([2, 2, 2, 2])
    tw = G._twisted_rows(g, G.automorphism_array(g))
    tracemalloc.start()
    try:
        ok = G._homomorphism_mask(g.table, g.table, g.generators(), tw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tw) == 20160 and ok.all()
    assert peak <= 1.25 * G._CHUNK_BYTES, peak


def _ordered_factor_lists(bound):
    """Every list of factors >= 2 with product <= bound, in every order."""
    out, todo = [], [[]]
    while todo:
        head = todo.pop()
        for f in range(2, bound // max(1, int(np.prod(head))) + 1):
            out.append(head + [f])
            todo.append(head + [f])
    return out


def test_abelian_tables_match_the_coordinate_loop():
    lists = _ordered_factor_lists(64) + [[1], [1, 4], [3, 1, 2]]
    for factors in lists:
        coords = list(itertools.product(*[range(f) for f in factors]))
        index = {c: i for i, c in enumerate(coords)}
        table = [[index[tuple((x + y) % f for x, y, f in zip(ca, cb, factors))] for cb in coords]
                 for ca in coords]
        labels = [",".join(map(str, c)) if len(factors) > 1 else str(c[0]) for c in coords]
        g = G.make_abelian(factors)
        assert g.table.tolist() == table, factors
        assert g.labels == labels
        assert g.abelian_coordinates == (tuple(factors), tuple(coords))


def test_inverses_and_power():
    g = G.make_cyclic(12)
    assert g.inv(5) == 7
    assert g.power(5, 0) == 0
    assert g.power(5, 7) == 35 % 12
    assert g.power(5, -1) == 7
    q8 = G.make_quaternion8()
    for a in range(8):
        assert q8.mul(a, q8.inv(a)) == 0


def test_center():
    assert G.center(G.make_symmetric(3)) == [0]
    assert len(G.center(G.make_quaternion8())) == 2
    assert G.center(G.make_abelian([5])) == list(range(5))


def test_automorphism_counts():
    for name, want in AUT_ORDERS.items():
        g = G.group_by_name(name.lower())
        assert len(G.automorphism_group(g)) == want, name


def test_automorphism_search_matches_brute_force():
    for g in G.catalog_groups(8):
        fast = {phi.images for phi in G.automorphism_group(g)}
        slow = {phi.images for phi in G.brute_force_group_automorphisms(g)}
        assert fast == slow, g.name


def test_automorphism_search_refuses_hopeless_groups():
    # |Aut((Z/2)^5)| = 9,999,360 maps of 32 points: refused before any is listed
    with pytest.raises(ValueError, match="exceed the element cap"):
        G.automorphism_group(G.make_abelian([2] * 5))


def test_automorphisms_form_a_group():
    g = G.make_quaternion8()
    auts = {phi.images for phi in G.automorphism_group(g)}
    for a in list(auts)[:6]:
        pa = G.map_from_images(g, a)
        assert pa.inverse().images in auts
        for b in list(auts)[:6]:
            pb = G.map_from_images(g, b)
            assert pa.then(pb).images in auts


def test_map_composition_order():
    g = G.make_cyclic(5)
    double = G.scalar_map(g, 2)
    triple = G.scalar_map(g, 3)
    # then: left map applied first
    assert double.then(triple)(1) == 6 % 5


def test_fixed_point_free():
    z5 = G.make_cyclic(5)
    assert G.is_fixed_point_free(G.negation_map(z5))
    z4 = G.make_cyclic(4)
    assert not G.is_fixed_point_free(G.negation_map(z4))   # fixes 2
    assert not G.is_fixed_point_free(G.identity_map(z4))
    with pytest.raises(ValueError):
        G.is_fixed_point_free(G.GroupMap(z4, z4, (0, 0, 0, 0)))


def test_central_automorphisms():
    q8 = G.make_quaternion8()
    central = [phi for phi in G.automorphism_group(q8) if G.is_central_automorphism(phi)]
    assert len(central) == 4
    z9 = G.make_cyclic(9)
    assert all(G.is_central_automorphism(phi) for phi in G.automorphism_group(z9))


def test_centralizer():
    z5 = G.make_cyclic(5)
    cent = G.centralizer_in_aut(z5, G.scalar_map(z5, 2))
    assert len(cent) == 4   # Aut(Z5) is abelian
    q8 = G.make_quaternion8()
    phi = G.automorphism_group(q8)[5]
    cent = G.centralizer_in_aut(q8, phi)
    assert phi.images in {f.images for f in cent}
    assert G.identity_map(q8).images in {f.images for f in cent}
    assert 24 % len(cent) == 0


def test_aut_gathers_match_per_element_definitions():
    for g in G.catalog_groups(12):
        auts = G.automorphism_group(g)
        rows = G.automorphism_array(g)
        assert [phi.images for phi in auts] == [tuple(r) for r in rows.tolist()]
        twisted_rows = G._twisted_rows(g, rows)
        central, fpf = G._central(g, twisted_rows), G._fixed_point_free(rows)
        zc = set(G.center(g))
        for i, phi in enumerate(auts):
            twisted = tuple(g.mul(g.inv(a), phi(a)) for a in g.elements())
            assert tuple(twisted_rows[i].tolist()) == twisted, (g.name, phi)
            assert central[i] == G.is_central_automorphism(phi) == all(v in zc for v in twisted)
            assert fpf[i] == G.is_fixed_point_free(phi) == all(phi(a) != a for a in range(1, g.order))
            pim = phi.images
            commuting = [
                f for f in auts if tuple(pim[x] for x in f.images) == tuple(f.images[x] for x in pim)
            ]
            assert G.centralizer_in_aut(g, phi) == commuting, (g.name, phi)


def _int64_kernels(group, rows, maps):
    """The Alexander tables and twisted rows of the image rows and the
    homomorphism mask of the maps, by their definitions in int64."""
    tbl, inv, n = group.table.astype(np.int64), group.inverse_array(), group.order
    rows, maps, gens = rows.astype(np.int64), maps.astype(np.int64), np.asarray(group.generators())
    tables = tbl[rows[:, tbl[:, inv]], np.arange(n)]                  # phi(a b^-1) b
    mask = (maps[:, tbl[:, gens]] == tbl[maps[:, :, None], maps[:, None, gens]]).all(axis=(1, 2))
    return tables, tbl[inv, rows], mask


def _small_dtype_cases():
    """Z/255, Z/256 and Z/257, where uint8 turns into uint16, with phi = -1 and
    phi = 3 (and x -> x^2 among the maps, which is no homomorphism), and every
    catalog group of order <= 8 with every phi (and the twisted maps among the
    maps, which are homomorphisms exactly for central phi)."""
    for n in (255, 256, 257):
        x = np.arange(n)
        rows = np.array([-x % n, 3 * x % n])
        yield G.make_cyclic(n), rows, np.vstack([rows, x * x % n])
    for g in G.catalog_groups(8):
        rows = G.automorphism_array(g)
        yield g, rows, np.vstack([rows, G._twisted_rows(g, rows)])


def test_small_dtype_kernels_equal_their_int64_definitions():
    masks = []
    for g, rows, maps in _small_dtype_cases():
        small = np.min_scalar_type(g.order - 1)
        got = (Q._alexander_tables(g, rows), G._twisted_rows(g, rows),
               G._homomorphism_mask(g.table, g.table, g.generators(), maps))
        for kernel, want in zip(got, _int64_kernels(g, rows, maps)):
            assert np.array_equal(kernel, want), g.name
        assert got[0].dtype == got[1].dtype == small, g.name
        masks += got[2].tolist()
    assert masks.count(True) > 100 and masks.count(False) > 10


def test_automorphism_array_is_one_cached_read_only_sorted_array():
    g = G.make_abelian([2, 4])
    rows = G.automorphism_array(g)
    assert G.automorphism_array(g) is rows and not rows.flags.writeable
    assert len(rows) == 8 and rows.tolist() == sorted(rows.tolist())
    # no bound on the order: Aut(Z/65) is its 48 units, found at once
    assert len(G.automorphism_array(G.make_cyclic(65))) == 48


def test_aut_classes_match_brute_force_conjugation():
    # the classes {psi phi psi^-1 : psi} from the all-bijections oracle, with
    # no table search, gather or row lookup
    for g in G.catalog_groups(8):
        auts = [f.images for f in G.brute_force_group_automorphisms(g)]
        inverse = {psi: tuple(np.argsort(psi).tolist()) for psi in auts}
        classes = {frozenset(tuple(psi[phi[x]] for x in inverse[psi]) for psi in auts) for phi in auts}
        want = sorted((min(c), len(c)) for c in classes)
        reps, sizes, _ = G._aut_classes(g)
        assert [(tuple(r), s) for r, s in zip(reps.tolist(), sizes.tolist())] == want, g.name


@pytest.mark.parametrize("make, count", [
    (lambda: G.make_abelian([2, 2]), 3),            # GL(2,2) = S3
    (lambda: G.make_abelian([2, 2, 2]), 6),         # GL(3,2)
    (lambda: G.make_abelian([2, 2, 2, 2]), 14),     # GL(4,2): prod (1 - x^k) / (1 - 2 x^k)
    (lambda: G.make_abelian([3, 3]), 8),            # GL(2,3)
    (G.make_quaternion8, 5),                        # Aut(Q8) = S4
], ids=["GL(2,2)", "GL(3,2)", "GL(4,2)", "GL(2,3)", "Aut(Q8)"])
def test_aut_class_counts_match_closed_forms(make, count):
    assert len(G._aut_classes(make())[0]) == count


def test_aut_classes_obey_the_class_equation_to_order_16():
    # sizes sum to |Aut(G)|, each is |Aut(G)| / |C(rep)| with C counted
    # directly, each cached centralizer is the scan _centralizer_rows, the
    # reps are distinct automorphisms in increasing order, and the identity
    # is a class of its own
    for g in G.catalog_groups(16):
        rows = G.automorphism_array(g).astype(np.int64)
        reps, sizes, cents = G._aut_classes(g)
        assert G._aut_classes(g)[0] is reps and not reps.flags.writeable and not sizes.flags.writeable
        assert sizes.sum() == len(rows) and len(cents) == len(reps), g.name
        for rep, size, cent in zip(reps.astype(np.int64), sizes, cents):
            commuting = np.count_nonzero((rows[:, rep] == rep[rows]).all(axis=1))
            assert size * commuting == len(rows), g.name
            assert np.array_equal(cent, G._centralizer_rows(g, rep)) and not cent.flags.writeable, g.name
        keys = [tuple(r) for r in reps.tolist()]
        assert keys == sorted(set(keys)) and set(keys) <= {tuple(r) for r in rows.tolist()}, g.name
        assert keys[0] == tuple(range(g.order)) and sizes[0] == 1, g.name


def test_aut_classes_refuse_a_row_that_is_not_an_automorphism(monkeypatch):
    # a transposition planted among the rows of Aut(Z5): its conjugates leave
    # the array, so conjugation does not give the classes
    z5 = G.make_cyclic(5)
    rows = G.automorphism_array(z5).copy()
    rows[1] = (0, 2, 1, 3, 4)
    monkeypatch.setattr(G, "automorphism_array", lambda g: rows)
    with pytest.raises(RuntimeError, match=r"conjugation on Aut\(Z5\) does not give its classes"):
        G._aut_classes(z5)


def test_row_lookup_on_empty_rows_finds_nothing():
    find = G._row_lookup(np.zeros((0, 3), dtype=np.uint8))
    assert find(np.array([[0, 1, 2], [0, 2, 1]])).tolist() == [-1, -1]
    find = G._row_lookup(np.array([[0, 2, 1], [0, 1, 2]], dtype=np.uint8))
    assert find(np.array([[0, 1, 2], [1, 0, 2], [0, 2, 1]])).tolist() == [1, -1, 0]


def test_twisted_map():
    # the twisted map a -> -a + phi(a), one row per image row phi
    z5 = G.make_cyclic(5)
    tw = G._twisted_rows(z5, np.array([G.negation_map(z5).images, G.identity_map(z5).images]))
    assert tw.tolist() == [[(-2 * a) % 5 for a in range(5)], [0] * 5]
    z4 = G.make_cyclic(4)
    tw = G._twisted_rows(z4, np.array([G.negation_map(z4).images]))[0].tolist()
    assert tw == [0, 2, 0, 2]                            # a homomorphism, not bijective
    assert G.map_from_images(z4, tw).images == tuple(tw)


def test_scalar_and_matrix_maps():
    g9 = G.make_abelian([3, 3])
    assert G.scalar_map(g9, 2).images == G.matrix_map(g9, [[2, 0], [0, 2]]).images
    with pytest.raises(ValueError):
        G.matrix_map(g9, [[1, 0], [2, 0]])   # determinant 0
    with pytest.raises(ValueError):
        G.scalar_map(G.make_cyclic(4), 2)    # not a unit
    with pytest.raises(ValueError):
        G.scalar_map(G.make_symmetric(3), 2)


def test_doubling_image():
    assert G.doubling_image(G.make_cyclic(9)) == list(range(9))
    assert G.doubling_image(G.make_cyclic(4)) == [0, 2]
    assert G.doubling_image(G.make_abelian([2, 2])) == [0]


def test_elementary_abelian():
    assert G.is_elementary_abelian(G.make_abelian([3, 3]))
    assert G.is_elementary_abelian(G.make_cyclic(5))
    assert not G.is_elementary_abelian(G.make_cyclic(9))
    assert not G.is_elementary_abelian(G.make_symmetric(3))


def test_catalog():
    cat = G.catalog_groups(16)
    names = [g.name for g in cat]
    assert len(names) == len(set(names))
    assert all(g.order <= 16 for g in cat)
    # one entry per abelian isomorphism class: 1,1,1,2,1,1,1,3,2,1,1,2,1,1,1,5
    abelian = [g for g in cat if g.is_abelian()]
    assert len(abelian) == 25
    assert any(not g.is_abelian() for g in cat)


def test_catalog_groups_are_shared():
    # each group is built once per process; every call returns a new list
    small, large = G.catalog_groups(12), G.catalog_groups(16)
    by_name = {g.name: g for g in large}
    assert [g.name for g in small] == [g.name for g in large if g.order <= 12]
    assert all(by_name[g.name] is g for g in small)
    assert G.catalog_groups(12) is not small
    assert [g.name for g in G.catalog_groups(24) if not g.is_abelian()][-1] == "S4"


def test_group_by_name():
    assert G.group_by_name("z6").order == 6
    assert G.group_by_name("s3").order == 6
    assert G.group_by_name("q8").order == 8
    assert G.group_by_name("z3xz5").order == 15
    with pytest.raises(ValueError):
        G.group_by_name("nope")


def test_group_file_round_trip(tmp_path):
    g = G.make_quaternion8()
    path = tmp_path / "q8.grp"
    G.save_group(g, path)
    h = G.load_group(path)
    assert h.table.tolist() == g.table.tolist()
    path.write_text("2\n0 1\n1 1\n")
    with pytest.raises(ValueError):
        G.load_group(path)


def _file_quandles():
    z5, z7, f9, q8 = (G.group_by_name(x) for x in ("z5", "z7", "3x3", "q8"))
    return [
        Q.trivial_quandle(1), Q.trivial_quandle(3), Q.trivial_quandle(6), Q.dihedral(3), Q.dihedral(5),
        Q.dihedral(6), Q.dihedral(7), Q.conj_quandle(q8, 1), Q.conj_quandle(G.make_symmetric(3)),
        Q.takasaki(z5), Q.alexander(z5, G.scalar_map(z5, 2)), Q.alexander(z7, G.scalar_map(z7, 3)),
        Q.alexander(f9, G.scalar_map(f9, 2)), Q.gen_alexander(q8, G.automorphism_group(q8)[5]),
        Q.gen_alexander(f9, G.matrix_map(f9, [[0, 1], [1, 1]])),
    ]


def _joined_text(table):
    """The table text joined whole in memory: the reference for the writer."""
    lines = [str(len(table))] + [" ".join(map(str, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def test_table_files_round_trip(tmp_path):
    # every catalog group of order <= 16 and every constructor the file tests use
    path = tmp_path / "t.txt"
    for g in G.catalog_groups(16):
        G.save_group(g, path)
        assert path.read_text() == _joined_text(g.table)
        h = G.load_group(path)
        assert h.table.dtype == np.int64 and np.array_equal(h.table, g.table), g.name
    for x in _file_quandles():
        Q.save_quandle(x, path)
        assert path.read_text() == Q.quandle_to_text(x)
        assert np.array_equal(Q.load_quandle(path).table, x.table), repr(x)


@pytest.mark.parametrize("n", [1, 3, 1024])
def test_the_table_writer_matches_the_joined_text(tmp_path, n):
    x, g = Q.dihedral(n), G.make_cyclic(n)
    assert Q.quandle_to_text(x) == _joined_text(x.table)
    Q.save_quandle(x, tmp_path / "q.qnd")
    G.save_group(g, tmp_path / "g.txt")
    assert (tmp_path / "q.qnd").read_bytes() == _joined_text(x.table).encode()
    assert (tmp_path / "g.txt").read_bytes() == _joined_text(g.table).encode()


def test_saving_a_table_holds_one_row_of_text(tmp_path):
    # the text of R_1023 is about 4 MB, and joining it from table.tolist() peaked at 36 MB
    x = Q.dihedral(1023)
    tracemalloc.start()
    try:
        Q.save_quandle(x, tmp_path / "r1023.qnd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# each body is malformed in one way; mended, it is the table of Z/2
MALFORMED = {
    "word": "2\n0 x\n1 0\n",
    "float": "2\n0 1.0\n1 0\n",
    "exponent": "2\n0 1e0\n1 0\n",
    "hash token": "2\n0 #\n1 0\n",
    "trailing comment": "2\n0 1 # comment\n1 0\n",
    "comment line": "2\n# comment\n0 1\n1 0\n",
    "negative": "2\n0 -1\n1 0\n",
    "extra row": "2\n0 1\n1 0\n0 1\n",
    "missing row": "2\n0 1\n",
    "one long row": "2\n0 1 1 0\n",
    "ragged": "2\n0 1\n1\n",
    "ragged long": "2\n0 1\n1 0 0\n",
    "empty body": "2\n",
    "blank body": "2\n\n\n",
    "empty file": "",
    "order with the body": "2 0 1\n1 0\n",
    "order zero": "0\n",
    "negative order": "-2\n0 1\n1 0\n",
}


@pytest.mark.parametrize("body", MALFORMED.values(), ids=MALFORMED.keys())
def test_table_files_refuse_malformed_bodies(tmp_path, body):
    # refused by the parser or the table intake, before any axiom is checked
    path = tmp_path / "bad.txt"
    path.write_text(body)
    for load in (G.load_group, Q.load_quandle):
        with pytest.raises(ValueError) as exc:
            load(path)
        assert not isinstance(exc.value, Q.QuandleAxiomError)
    path.write_text("2\n0 1\n1 0\n")
    assert G.load_group(path).order == 2


@pytest.mark.parametrize("body, where", [
    ("3\n0 x 2\n1 1 1\n2 2 2\n", "line 2: 'x' is not an integer"),
    ("3\n0 1 2\n\n1 1 1\n2 2\n", "line 5: expected 3 entries, found 2"),
    ("three\n", "line 1: the order 'three' is not an integer"),
])
def test_table_file_errors_name_the_file_and_line(tmp_path, body, where):
    # lines count from the first line of the file, the order's, blank lines included
    path = tmp_path / "t.qnd"
    path.write_text(body)
    for load in (G.load_group, Q.load_quandle):
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: {where}"


def test_table_files_refuse_a_huge_order_before_reading_the_body(tmp_path):
    path = tmp_path / "huge.txt"
    row = " ".join(["0"] * 1000) + "\n"
    for order in (100000, G._TABLE_ORDER_BOUND + 1):
        path.write_text(f"{order}\n" + row * 1000)    # about 2 MB of body
        tracemalloc.start()
        try:
            for load in (G.load_group, Q.load_quandle):
                with pytest.raises(ValueError, match=f"order {order} is not in 1..{G._TABLE_ORDER_BOUND}"):
                    load(path)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda: G.make_dihedral_group(513),
    lambda: G.make_dihedral_group(4096),
    lambda: G.make_dicyclic(257),
    lambda: G.make_symmetric(7),
    lambda: G.direct_product(G.make_cyclic(33), G.make_cyclic(32)),
    lambda: G.catalog_groups(1025),
], ids=["dihedral-513", "dihedral-4096", "dicyclic-257", "symmetric-7", "product-1056", "catalog-1025"])
def test_constructors_refuse_an_order_past_the_table_bound_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds bound 1024"):
            build()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_intake_copies_every_table_that_may_still_change(tmp_path, monkeypatch):
    t, arr = Q.dihedral(5).table.copy(), G.make_cyclic(5).table.copy()      # writable int64
    x, g = Q.Quandle(t), G.FiniteGroup(arr)
    t[1, 0], arr[1, 1] = 3, 4                           # the callers' arrays change afterwards
    assert x.table.tolist() == Q.dihedral(5).table.tolist()
    assert g.table.tolist() == G.make_cyclic(5).table.tolist()
    base = Q.dihedral(5).table.copy()
    view = base.view()
    view.setflags(write=False)                          # read-only, but base may still change
    y = Q.Quandle(view)
    assert y.table is not view and not np.shares_memory(y.table, base)
    base[1, 0] = 3
    assert y.table.tolist() == Q.dihedral(5).table.tolist()
    # a loaded table is read-only and owns its data, so it is held as read
    read = []
    original = G._read_table

    def recording(path, kind):
        read.append(original(path, kind))
        return read[-1]

    monkeypatch.setattr(Q, "_read_table", recording)
    monkeypatch.setattr(G, "_read_table", recording)
    Q.save_quandle(x, tmp_path / "r5.qnd")
    G.save_group(g, tmp_path / "z5.grp")
    assert Q.load_quandle(tmp_path / "r5.qnd").table is read[0]
    assert G.load_group(tmp_path / "z5.grp").table is read[1]
    assert not read[0].flags.writeable and not read[1].flags.writeable


def test_euler_phi():
    assert [G.euler_phi(n) for n in (1, 2, 9, 10, 11)] == [1, 1, 6, 4, 10]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
def test_abelian_factors_always_give_groups(factors):
    g = G.make_abelian(factors)
    assert g.is_abelian()
    # negation is fixed-point free exactly on odd orders
    odd = g.order % 2 == 1
    if g.order > 1:
        assert G.is_fixed_point_free(G.negation_map(g)) == odd


def test_row_lookup_gives_the_first_index_of_each_row():
    rows = np.array([[2, 0], [1, 1], [2, 0], [0, 5], [1, 1], [2, 0], [0, 4]], dtype=np.int8)
    back, one, empty = rows[::-1], np.array([[3, 1, 2]]), np.empty((0, 3), dtype=np.int64)
    assert G._row_lookup(rows)(rows).tolist() == [0, 1, 0, 3, 1, 0, 6]
    assert G._row_lookup(back)(back).tolist() == [0, 1, 2, 3, 1, 2, 1]
    assert G._row_lookup(one)(one).tolist() == [0]
    assert G._row_lookup(empty)(empty).tolist() == []


def _first_indices(rows, query):
    """The row index by a dict: the first index in rows of each row of
    query, -1 where absent."""
    first = {}
    for i, row in enumerate(rows.tolist()):
        first.setdefault(tuple(row), i)
    flat = np.asarray(query).reshape(-1, rows.shape[1]).tolist()
    return np.array([first.get(tuple(row), -1) for row in flat]).reshape(np.shape(query)[:-1])


def test_row_lookup_matches_a_dict_in_small_chunks(monkeypatch):
    # 40-byte chunks cut every query into slices of one or two rows
    monkeypatch.setattr(G, "_CHUNK_BYTES", 40)
    rng = np.random.default_rng(39)
    for dtype, high in ((np.uint8, 256), (np.uint16, 65536)):
        for n in (1, 3, 4):
            pool = rng.integers(0, high, size=(12, n))
            rows = pool[rng.integers(0, 12, size=300)].astype(dtype)           # many repeats
            query = np.concatenate([rows, pool, rng.integers(0, high, size=(12, n))])[rng.permutation(324)]
            find = G._row_lookup(rows)
            for q in (rows, query, query.reshape(4, 81, n), query[:6].reshape(2, 3, 1, n), query[:0]):
                got = find(q)
                assert got.shape == q.shape[:-1] and np.array_equal(got, _first_indices(rows, q))
            assert (find(query) >= 0).sum() > 100 and (find(query) < 0).sum() > 0
            empty = G._row_lookup(rows[:0])
            assert np.array_equal(empty(query.reshape(4, 81, n)), np.full((4, 81), -1))


def test_row_lookup_holds_its_argsort_and_one_chunk():
    # the self-lookup of the 16 * 20,160 embedding rows of (Z/2)^4 at
    # phi = id, as _check_semidirect_embedding builds them: the argsort and
    # the output take 8 bytes a row each, and the queries run in chunks
    # (traced 5.4 MB against a bound of 5.8 MB); a sorted copy of the
    # 16-byte keys alone would take 5.2 MB more
    g = G.make_abelian([2, 2, 2, 2])
    tbl, maps = G._smallest(g.table, 16), G._smallest(G.automorphism_array(g), 16)
    emb = tbl.T[:, maps].reshape(-1, 16)
    tracemalloc.start()
    try:
        earlier = G._row_lookup(emb)(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(emb) == 322560 and np.array_equal(earlier, np.arange(len(emb)))
    assert peak <= 2 * 8 * len(emb) + 1.25 * G._CHUNK_BYTES, peak
