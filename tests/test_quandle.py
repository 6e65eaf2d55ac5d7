"""Quandle constructors, the axiom validator, files, and the enumerator.

Frozen values: small-order table entries recomputed by hand from the
defining formulas, and the labeled enumeration counts 1, 1, 5, 36, 404 for
orders 1..5 (cross-checked below by validating every emitted table).
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles.groups as G
import quandles.quandle as Q
import quandles.theorems as T
from quandles.perms import Permutation, _generators
from quandles.quandle import QuandleAxiomError

# passes idempotence and column bijectivity but breaks self-distributivity
NOT_SELF_DISTRIBUTIVE = [[0, 2, 1], [1, 1, 0], [2, 0, 2]]

LABELED_COUNTS = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404}

# sha256 of the int8 bytes of the tables enumerate_quandle_tables(n) yields, in yield order
ENUMERATION_DIGESTS = {
    1: "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    2: "4afc7d98518180331a55e2f7b2d03f93c15d1c24afc976cdfb5737e02a190203",
    3: "fc38e73a11ef0c3ae1546d92d4b8ea0f9ab4d71828a81edac2b7cb4f53dbe27c",
    4: "c55ab7916ec584f227f06a9d7fcd6bc965493bea715877a159a58145b529097b",
    5: "0aacc1b7e00bce5e7cdd5e212684e04ec7dd560668fdbefcbd36a9a1a4716b58",
}

# the same digest over the 2,790 tables the census's order-6 search completes
# from the columns S_0 of quandle._first_columns(6) without centralizer
# pruning, in yield order
CENSUS_SEARCH_DIGEST_6 = "0d678274b5662b31bc6ab05a37ff384417eefad4c069c241e0083f384205cdca"


def test_axiom_idempotence_witness():
    with pytest.raises(QuandleAxiomError) as exc:
        Q.validate_axioms([[1, 0], [0, 1]])
    assert exc.value.axiom == 1
    assert exc.value.witness == (0,)


def test_axiom_column_witness():
    with pytest.raises(QuandleAxiomError) as exc:
        Q.validate_axioms([[0, 0, 0], [0, 1, 1], [2, 2, 2]])
    assert exc.value.axiom == 2


def _first_repeat(t):
    # the lexicographically first (row, column) whose value is already in its column above it
    for b in range(len(t)):
        seen = set()
        for a in range(len(t)):
            if t[a][b] in seen:
                return a, b
            seen.add(t[a][b])


def test_axiom_column_witness_is_the_first_repeat():
    rng = np.random.default_rng(16)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        t = rng.integers(0, n, size=(n, n))
        t[np.arange(n), np.arange(n)] = np.arange(n)
        witness = _first_repeat(t.tolist())
        if witness is None:
            continue
        with pytest.raises(QuandleAxiomError) as exc:
            Q.validate_axioms(t)
        a, b = witness
        assert (exc.value.axiom, exc.value.witness) == (2, witness)
        assert str(exc.value) == f"column {b} repeats value {t[a, b]} at row {a}"


def test_axiom_column_witness_at_order_1024():
    # the trivial quandle of order 1024 with one repeated value in its last column
    t = np.tile(np.arange(1024)[:, None], (1, 1024))
    t[1000, 1023] = 999
    with pytest.raises(QuandleAxiomError) as exc:
        Q.validate_axioms(t)
    assert (exc.value.axiom, exc.value.witness) == (2, (1000, 1023))
    assert str(exc.value) == "column 1023 repeats value 999 at row 1000"


def test_axiom_distributivity_witness():
    with pytest.raises(QuandleAxiomError) as exc:
        Q.validate_axioms(NOT_SELF_DISTRIBUTIVE)
    assert exc.value.axiom == 3
    a, b, c = exc.value.witness
    t = NOT_SELF_DISTRIBUTIVE
    assert t[t[a][b]][c] != t[t[a][c]][t[b][c]]


def test_axiom_distributivity_witness_past_the_first_row_chunk():
    # trivial quandle of order 125 whose columns 0 and 1 swap (100 101) and
    # (101 102): only rows 100..102 break axiom 3, all past the first chunk of
    # rows, and the first failing triple is (100*0)*1 = 102 != 101 = (100*1)*(0*1)
    t = np.tile(np.arange(125)[:, None], (1, 125))
    t[[100, 101], 0] = [101, 100]
    t[[101, 102], 1] = [102, 101]
    with pytest.raises(QuandleAxiomError) as exc:
        Q.validate_axioms(t)
    assert exc.value.axiom == 3
    assert exc.value.witness == (100, 0, 1)
    left = t[t]
    right = t[t[:, None, :], t[None, :, :]]
    assert tuple(np.argwhere(left != right)[0]) == (100, 0, 1)


def test_axiom_3_on_repeated_columns_keeps_the_generators_and_the_witness():
    # a trivial quandle of order 40 whose columns 20..22 are all (0 1) is still
    # a quandle: its generators are the greedy ones, though the check reads
    # only the two distinct columns among them.  Making column 25 (1 2) as
    # well breaks axiom 3, at the first failing triple over all of them
    t = np.tile(np.arange(40)[:, None], (1, 40))
    t[[0, 1], 20:23] = [[1], [0]]
    assert np.array_equal(Q.Quandle(t).generators(), _generators(40, lambda c: t[:, c].tolist()))
    assert np.array_equal(Q.trivial_quandle(40).generators(), np.arange(40))
    t[[1, 2], 25] = [2, 1]
    bad = np.argwhere(t[t] != t[t[:, None, :], t[None, :, :]])
    with pytest.raises(QuandleAxiomError) as exc:
        Q.validate_axioms(t)
    assert exc.value.axiom == 3
    assert exc.value.witness == tuple(int(v) for v in bad[0])


def test_planted_order_289_file_fails_in_a_few_megabytes(tmp_path):
    # Alex((Z/17)^2, 3) with two off-diagonal entries of column 42 swapped:
    # its first axiom-3 witness lies in row 0, and the scan for it starts
    # with that one row instead of a full chunk of 12 rows (about 16 MB)
    f = G.make_abelian([17, 17])
    t = Q.alexander(f, G.scalar_map(f, 3)).table.copy()
    t[[5, 200], 42] = t[[200, 5], 42]
    path = tmp_path / "a289bad.qnd"
    with open(path, "w") as fh:
        G._write_table(fh, t)
    for a in range(len(t)):
        bad = np.argwhere(t[t[a]] != t[t[a][None, :], t])    # (a*b)*c vs (a*c)*(b*c)
        if len(bad):
            witness = (a,) + tuple(int(v) for v in bad[0])
            break
    tracemalloc.start()
    try:
        with pytest.raises(QuandleAxiomError) as exc:
            Q.load_quandle(path)
        assert tracemalloc.get_traced_memory()[1] < 8 << 20
    finally:
        tracemalloc.stop()
    assert exc.value.axiom == 3 and exc.value.witness == witness
    assert witness[0] == 0


@pytest.mark.parametrize("n", [343, 1023])
def test_loading_a_table_peaks_near_its_int64_bytes(tmp_path, n):
    # the parsed int64 table is held once, not copied, and the axiom checks
    # add only work arrays in the smallest dtype and one n x n bool mask
    path = tmp_path / f"r{n}.qnd"
    Q.save_quandle(Q.dihedral(n), path)
    tracemalloc.start()
    try:
        Q.load_quandle(path)
        assert tracemalloc.get_traced_memory()[1] <= 2.6 * 8 * n * n
    finally:
        tracemalloc.stop()


def test_trivial_quandle():
    x = Q.trivial_quandle(3)
    assert x.table.tolist() == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
    with pytest.raises(ValueError):
        Q.trivial_quandle(0)


def test_dihedral_tables():
    assert Q.dihedral(1).table.tolist() == [[0]]
    assert Q.dihedral(3).op(1, 0) == 2      # 2*0 - 1 mod 3
    assert Q.dihedral(4).op(0, 1) == 2
    assert Q.dihedral(5).column(0) == (0, 4, 3, 2, 1)


def test_takasaki_equals_dihedral_on_cyclic():
    for n in (2, 3, 6, 7):
        a = Q.takasaki(G.make_cyclic(n))
        assert a.table.tolist() == Q.dihedral(n).table.tolist()


def test_takasaki_rejects_nonabelian():
    with pytest.raises(ValueError):
        Q.takasaki(G.make_symmetric(3))


def test_alexander_formula():
    z5 = G.make_cyclic(5)
    x = Q.alexander(z5, G.scalar_map(z5, 2))
    assert x.op(0, 1) == 4    # 2*0 + 1 - 2*1 mod 5
    assert x.op(3, 3) == 3


def test_alexander_requires_automorphism():
    z6 = G.make_cyclic(6)
    endo = G.GroupMap(z6, z6, tuple((2 * a) % 6 for a in range(6)))
    with pytest.raises(ValueError):
        Q.alexander(z6, endo)


def test_gen_alexander_matches_alexander_on_abelian():
    for factors in ([5], [3, 3], [2, 4]):
        g = G.make_abelian(factors)
        for phi in G.automorphism_group(g):
            a = Q.alexander(g, phi)
            b = Q.gen_alexander(g, phi)
            assert a.table.tolist() == b.table.tolist()


def test_gen_alexander_on_nonabelian_is_a_quandle():
    q8 = G.make_quaternion8()
    for phi in G.automorphism_group(q8)[:8]:
        x = Q.gen_alexander(q8, phi)
        Q.validate_axioms(x.table)


def test_conj_quandle():
    s3 = G.make_symmetric(3)
    x = Q.conj_quandle(s3, 1)
    for a in range(6):
        for b in range(6):
            assert x.op(a, b) == s3.mul(s3.mul(s3.inv(b), a), b)
    # conjugation in an abelian group does nothing
    z4 = G.make_cyclic(4)
    assert Q.conj_quandle(z4, 1).table.tolist() == Q.trivial_quandle(4).table.tolist()
    y = Q.conj_quandle(s3, 2)
    Q.validate_axioms(y.table)
    assert y.table.tolist() != x.table.tolist()


def test_predicates():
    assert Q.is_commutative(Q.dihedral(3))
    assert not Q.is_commutative(Q.dihedral(5))
    z5 = G.make_cyclic(5)
    assert Q.is_commutative(Q.alexander(z5, G.scalar_map(z5, 3)))   # 2*3 = 1 mod 5
    assert Q.is_involutory(Q.dihedral(9))
    assert not Q.is_involutory(Q.alexander(z5, G.scalar_map(z5, 2)))


def test_inner_translation():
    assert Q.inner_translation(Q.dihedral(3), 0).images == (0, 2, 1)
    triv = Q.trivial_quandle(4)
    assert all(Q.inner_translation(triv, x).is_identity() for x in range(4))


def test_rows_match_table():
    for x in (Q.dihedral(5), Q.conj_quandle(G.make_symmetric(3))):
        assert x.op(1, 2) == x.table[1, 2]


def test_op_bounds():
    x = Q.dihedral(3)
    with pytest.raises(IndexError):
        x.op(0, 3)


def test_provenance():
    x = Q.dihedral(6)
    assert "dihedral" in x.provenance.describe()
    z5 = G.make_cyclic(5)
    y = Q.alexander(z5, G.scalar_map(z5, 2))
    assert "Z5" in y.provenance.describe()


def test_enumerator_counts_and_soundness():
    for n, want in LABELED_COUNTS.items():
        tables = list(Q.enumerate_quandle_tables(n))
        assert len(tables) == want
        seen = set()
        for x in tables:
            Q.validate_axioms(x.table)
            seen.add(tuple(map(tuple, x.table.tolist())))
        assert len(seen) == want   # no duplicates


def test_enumerator_yields_pinned_tables_in_a_pinned_order():
    for n, digest in ENUMERATION_DIGESTS.items():
        h = hashlib.sha256()
        for x in Q.enumerate_quandle_tables(n):
            assert isinstance(x, Q.Quandle) and x.provenance.kind == "enumerated"
            h.update(x.table.astype(np.int8).tobytes())
        assert h.hexdigest() == digest


def test_census_search_yields_pinned_tables_in_a_pinned_order():
    columns = Q._column_candidates(6)
    h = hashlib.sha256()
    count = 0
    for s0 in Q._first_columns(6):
        for cols, _ in Q._tables_from(s0, columns):
            h.update(columns.perms[cols].T.tobytes())
            count += 1
    assert (count, h.hexdigest()) == (2790, CENSUS_SEARCH_DIGEST_6)


def _assert_conjugation_rows(columns, rows, sample):
    ids = {r: i for i, r in enumerate(rows)}
    conj = columns.conj
    assert len(conj) == len(rows) ** 2
    n = len(rows[0])
    for c in sample:
        sc = rows[c]
        sc_inv = Permutation(sc).inverse().images
        # conj[c, b] is S_c S_b S_c^-1: apply S_c^-1, then S_b, then S_c
        want = [ids[tuple(sc[sb[sc_inv[y]]] for y in range(n))] for sb in rows]
        assert conj[c * len(rows):(c + 1) * len(rows)].tolist() == want, c


@pytest.mark.parametrize("n", range(1, 7))
def test_column_ids_and_conjugation_table_match_tuple_composition(n):
    columns = Q._column_candidates(n)
    rows = list(itertools.permutations(range(n)))
    assert columns.rows == rows and columns.perms.tolist() == [list(r) for r in rows]
    assert columns.fixing == [[i for i, r in enumerate(rows) if r[x] == x] for x in range(n)]
    _assert_conjugation_rows(columns, rows, range(len(rows)))


# sha256 of the order-7 conjugation table's bytes, as the row-by-row build gave them
CONJ_DIGEST_7 = "6becc1659259831f0ddf9e29aef52ccb9cc6946aa0898bfa1e5dee258176956f"


def test_order_7_conjugation_table_matches_tuple_composition_on_a_sample_and_its_pinned_digest():
    columns = Q._column_candidates(7)
    rows = list(itertools.permutations(range(7)))
    assert columns.rows == rows
    # the identity, the adjacent transpositions the build starts from, the
    # longest permutation, and a deterministic spread of the rest
    sample = sorted({0, len(rows) - 1, *range(1, len(rows), 97),
                     *(rows.index(tuple(j + 1 if y == j else j if y == j + 1 else y for y in range(7)))
                       for j in range(6))})
    _assert_conjugation_rows(columns, rows, sample)
    assert hashlib.sha256(columns.conj).hexdigest() == CONJ_DIGEST_7


def test_column_search_refuses_order_8_before_it_allocates():
    # at order 8 the conjugation table alone would take about 3.25 GB
    tracemalloc.start()
    try:
        for build in (lambda: next(Q.enumerate_quandle_tables(8)), lambda: Q._column_candidates(8),
                      lambda: Q._quandle_classes(8), lambda: T.check_mccarron_bound(1, 8)):
            with pytest.raises(ValueError):
                build()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    with pytest.raises(ValueError, match="must be positive"):
        next(Q.enumerate_quandle_tables(0))


def test_each_constructor_checks_its_quandle_once(monkeypatch, tmp_path):
    calls = []
    check = Q._check_axioms
    monkeypatch.setattr(Q, "_check_axioms", lambda arr: calls.append(len(arr)) or check(arr))
    z5, q8 = G.make_cyclic(5), G.make_quaternion8()
    phi, psi = G.scalar_map(z5, 2), G.automorphism_group(q8)[5]
    r3 = Q.dihedral(3).table
    path = tmp_path / "r3.qnd"
    path.write_text(Q.quandle_to_text(Q.dihedral(3)))
    builds = [
        lambda: Q.trivial_quandle(3), lambda: Q.conj_quandle(q8, 1), lambda: Q.takasaki(z5),
        lambda: Q.alexander(z5, phi), lambda: Q.gen_alexander(q8, psi), lambda: Q.dihedral(6),
        lambda: Q.validate_axioms(r3), lambda: Q.Quandle(r3), lambda: Q.load_quandle(path),
        lambda: next(Q.enumerate_quandle_tables(4)),
    ]
    for build in builds:
        calls.clear()
        x = build()
        assert calls == [x.order]


def test_enumerator_finds_the_known_families():
    tables = {tuple(map(tuple, x.table.tolist())) for x in Q.enumerate_quandle_tables(3)}
    assert tuple(map(tuple, Q.dihedral(3).table.tolist())) in tables
    assert tuple(map(tuple, Q.trivial_quandle(3).table.tolist())) in tables


def test_file_round_trip(tmp_path):
    x = Q.dihedral(7)
    path = tmp_path / "r7.qnd"
    Q.save_quandle(x, path)
    y = Q.load_quandle(path)
    assert y.table.tolist() == x.table.tolist()
    assert path.read_text() == Q.quandle_to_text(x)


def test_load_rejects_invalid(tmp_path):
    path = tmp_path / "bad.qnd"
    path.write_text("2\n0 1\n")
    with pytest.raises(ValueError):
        Q.load_quandle(path)
    path.write_text("3\n" + "\n".join(" ".join(map(str, r)) for r in NOT_SELF_DISTRIBUTIVE) + "\n")
    with pytest.raises(QuandleAxiomError):
        Q.load_quandle(path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=2), st.integers(1, 59))
def test_alexander_construction_always_yields_quandles(factors, u):
    g = G.make_abelian(factors)
    try:
        phi = G.scalar_map(g, u)
    except ValueError:
        return   # u shares a factor with the order
    x = Q.alexander(g, phi)
    Q.validate_axioms(x.table)
    # involutory exactly when the scalar squares to 1 modulo every factor
    assert Q.is_involutory(x) == all(u * u % f == 1 % f for f in factors)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30))
def test_dihedral_always_yields_involutory_quandles(n):
    x = Q.dihedral(n)
    Q.validate_axioms(x.table)
    assert Q.is_involutory(x)


def _planting_families():
    f9, f25, z7 = (G.group_by_name(x) for x in ("3x3", "5x5", "z7"))
    return [
        lambda: Q.alexander(f9, G.scalar_map(f9, 2)),
        lambda: Q.alexander(f25, G.scalar_map(f25, 3)),
        lambda: Q.alexander(z7, G.scalar_map(z7, 3)),
        lambda: Q.dihedral(9),
        lambda: Q.conj_quandle(G.make_symmetric(3)),
        lambda: Q.conj_quandle(G.make_quaternion8()),
        lambda: Q.conj_quandle(G.make_symmetric(4)),
    ]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_planting_families()), st.randoms(use_true_random=False))
def test_axiom_3_witness_matches_all_triples(family, rnd):
    # a relabeled affine or conjugation quandle with two off-diagonal entries
    # of one column swapped: axioms 1 and 2 still hold
    t = family().table
    n = len(t)
    p = np.array(rnd.sample(range(n), n))
    moved = np.empty_like(t)
    moved[p[:, None], p[None, :]] = p[t]
    b = rnd.randrange(n)
    a1, a2 = rnd.sample([a for a in range(n) if a != b], 2)
    moved[[a1, a2], b] = moved[[a2, a1], b]
    bad = np.argwhere(moved[moved] != moved[moved[:, None, :], moved[None, :, :]])
    if not len(bad):
        Q.validate_axioms(moved)
        return
    with pytest.raises(QuandleAxiomError) as exc:
        Q.validate_axioms(moved)
    assert exc.value.axiom == 3
    assert exc.value.witness == tuple(int(v) for v in bad[0])
