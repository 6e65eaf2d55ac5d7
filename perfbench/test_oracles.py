"""Tests of the benchmark's own inputs and oracles.

    PYTHONPATH=src python3 -m pytest -q perfbench

The closed forms are checked against the package's brute-force oracle at
tiny orders; the pinned |Aut Conj(G)| values against an automorphism counter
written here, which shares no code with the package.
"""

import os
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import oracles  # noqa: E402


def is_quandle(t):
    n = t.shape[0]
    r = np.arange(n)
    return (np.array_equal(t[r, r], r) and (np.sort(t, axis=0) == r[:, None]).all()
            and np.array_equal(t[t], t[t[:, None, :], t[None, :, :]]))


def inner_order(t):
    """|Inn| by closing the columns under composition."""
    gens = [tuple(int(x) for x in t[:, b]) for b in range(t.shape[0])]
    ident = tuple(range(t.shape[0]))
    seen, frontier = {ident}, [ident]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = tuple(s[x] for x in g)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return len(seen)


def connected(t):
    orbit, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for c in t[a].tolist():
            if c not in orbit:
                orbit.add(c)
                frontier.append(c)
    return len(orbit) == t.shape[0]


def count_automorphisms(t):
    """Number of bijections f with f(a*b) = f(a)*f(b), by search with closure."""
    t = t.tolist()
    n = len(t)

    def close(img, a, b):
        img, pending = dict(img), [(a, b)]
        while pending:
            a, b = pending.pop()
            if a in img:
                if img[a] != b:
                    return None
                continue
            if b in img.values():
                return None
            img[a] = b
            for x in list(img):
                pending.append((t[a][x], t[b][img[x]]))
                pending.append((t[x][a], t[img[x]][b]))
        return img

    def count(img):
        free = next((a for a in range(n) if a not in img), None)
        if free is None:
            return 1
        used = set(img.values())
        total = 0
        for b in range(n):
            nxt = None if b in used else close(img, free, b)
            if nxt is not None:
                total += count(nxt)
        return total

    return count({})


TINY = ([("affine", dict(family="affine", p=m, k=1, u=u)) for m in (3, 5, 7)
         for u in range(2, m) if (u - 1) % m]
        + [("trivial", dict(family="trivial", n=n)) for n in range(1, 6)]
        + [("conj", dict(family="conj", group="S3"))])


def _table(params):
    if params["family"] == "affine":
        return inputs.affine_table(params["p"], params["k"], params["u"])
    if params["family"] == "trivial":
        return inputs.trivial_table(params["n"])
    return inputs.conj_table(params["group"])


@pytest.mark.parametrize("family,params", TINY)
def test_closed_forms_match_brute_force(family, params):
    from quandles import Quandle, brute_force_aut

    t = _table(params)
    n, inn, aut, conn = oracles.expected_analysis(params)
    assert t.shape == (n, n) and is_quandle(t)
    assert len(brute_force_aut(Quandle(t))) == aut
    assert inner_order(t) == inn
    assert connected(t) == conn


@pytest.mark.parametrize("group", inputs.CONJ_GROUPS)
def test_conj_values_match_independent_counter(group):
    t = inputs.conj_table(group)
    n, inn, aut, conn = oracles.expected_analysis(dict(family="conj", group=group))
    assert t.shape == (n, n) and is_quandle(t)
    assert inner_order(t) == inn
    assert count_automorphisms(t) == aut
    assert not connected(t)


@pytest.mark.parametrize("p,k,u", [(9, 1, 2), (3, 2, 2), (5, 2, 3), (3, 3, -1)])
def test_affine_closed_forms_above_brute_force_range(p, k, u):
    t = inputs.affine_table(p, k, u)
    n, inn, aut, conn = oracles.expected_analysis(dict(family="affine", p=p, k=k, u=u))
    assert is_quandle(t) and connected(t) and inner_order(t) == inn
    if n <= 9:
        assert count_automorphisms(t) == aut


def test_group_helpers():
    assert [oracles.gl_order(2, 2), oracles.gl_order(3, 2), oracles.gl_order(5, 1)] == [6, 48, 4]
    assert [oracles.mult_order(2, 7), oracles.mult_order(-1 % 9, 9), oracles.euler_phi(45)] == [3, 2, 24]


def test_relabel_and_planted_defect():
    rng = random.Random(0)
    good = inputs.relabel(inputs.affine_table(5, 2, 2), rng)
    assert is_quandle(good)
    bad, (a, b, c) = inputs._plant(good, rng)
    r = np.arange(bad.shape[0])
    assert np.array_equal(bad[r, r], r) and (np.sort(bad, axis=0) == r[:, None]).all()
    assert bad[bad[a, b], c] != bad[bad[a, c], bad[b, c]]


def _stream_fp(seed):
    return inputs.fingerprint((name, inputs.to_text(t)) for name, _, t in inputs.stream_rounds(seed, 1)[0])


def test_seed_fixes_the_inputs():
    assert _stream_fp(1) == _stream_fp(1)
    assert _stream_fp(1) != _stream_fp(2)
    sets = [[(name, t.tobytes()) for name, _, t in inputs.large_set(s)[:4]] for s in (1, 1, 2)]
    assert sets[0] == sets[1] != sets[2]


def test_every_stream_shape_is_a_quandle_of_the_expected_order():
    for name, params, t in inputs.stream_round(random.Random(3)):
        assert t.shape[0] == oracles.expected_analysis(params)[0], name
        assert 3 <= t.shape[0] <= 63 and is_quandle(t), name


def test_suite_pins_cover_every_suite():
    from quandles.theorems import THEOREM_SUITES

    assert [tid for tid, _, _ in oracles.SUITES] == list(THEOREM_SUITES)
    assert sum(n for _, _, n in oracles.SUITES) == 409469
