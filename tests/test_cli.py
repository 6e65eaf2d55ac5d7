"""Command-line round trips, output stability, and exit codes."""

import functools
import hashlib
import json
import subprocess
import sys

import pytest

import quandles.quandle as Q
from quandles import cli, theorems
from quandles.theorems import TheoremReport


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_make_round_trip(tmp_path, capsys):
    path = tmp_path / "r5.qnd"
    code, out, err = run(["make", "dihedral", "5", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert Q.load_quandle(path).table.tolist() == Q.dihedral(5).table.tolist()


def test_make_to_stdout(capsys):
    code, out, _ = run(["make", "dihedral", "3"], capsys)
    assert code == 0
    assert out == "3\n0 2 1\n2 1 0\n1 0 2\n"


def test_make_alexander(tmp_path, capsys):
    path = tmp_path / "a9.qnd"
    code, _, _ = run(["make", "alexander", "--factors", "3,3", "--scalar", "2",
                      "--out", str(path)], capsys)
    assert code == 0
    assert Q.load_quandle(path).order == 9


def test_make_conj(capsys):
    code, out, _ = run(["make", "conj", "--group", "s3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "6"


def test_make_galexander_matrix(tmp_path, capsys):
    path = tmp_path / "m.qnd"
    code, _, _ = run(["make", "galexander", "--factors", "3,3",
                      "--matrix", "0,1,1,1", "--out", str(path)], capsys)
    assert code == 0
    assert Q.load_quandle(path).order == 9


@pytest.mark.parametrize("argv", [
    ["make", "dihedral", "20000"],
    ["make", "takasaki", "--factors", "30000"],
    ["make", "trivial", "200000"],
    ["make", "conj", "--group", "z40000"],
])
def test_make_refuses_a_huge_order_before_building_it(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "exceeds bound 1024" in err


def test_make_refuses_an_order_too_long_to_print(capsys):
    # 10^5000 has more digits than Python converts to a string (4,300), so the
    # refusal counts them instead; 2^64 and 10^20 are counted too
    code, out, err = run(["make", "takasaki", "--factors", ",".join(["10"] * 5000)], capsys)
    assert code == 2 and out == ""
    assert "order of 5,001 digits exceeds bound 1024" in err
    for factors, digits in (([2] * 64, 20), ([10] * 20, 21), ([9] * 30, 29)):
        code, _, err = run(["make", "takasaki", "--factors", ",".join(map(str, factors))], capsys)
        assert code == 2 and f"order of {digits} digits exceeds bound 1024" in err, factors
    code, _, err = run(["make", "takasaki", "--factors", ",".join(["2"] * 63)], capsys)
    assert code == 2 and f"order {2 ** 63} exceeds bound 1024" in err


def test_make_rejects_non_unit_scalar(capsys):
    code, _, err = run(["make", "alexander", "--factors", "4", "--scalar", "2"], capsys)
    assert code == 2
    assert "error" in err


def test_make_requires_exactly_one_phi_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["make", "alexander", "--factors", "5", "--scalar", "2", "--images", "0,1,2,3,4"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_analyze_text_is_stable(tmp_path, capsys):
    path = tmp_path / "r3.qnd"
    Q.save_quandle(Q.dihedral(3), path)
    code, first, _ = run(["analyze", str(path)], capsys)
    assert code == 0
    assert first == (
        "order: 3\n"
        "inner order: 6\n"
        "automorphism order: 6\n"
        "connected: yes\n"
        "two-point homogeneous: yes\n"
        "automorphisms doubly transitive: yes\n"
        "commutative: yes\n"
        "involutory: yes\n"
    )
    code, second, _ = run(["analyze", str(path)], capsys)
    assert second == first


def test_analyze_json(tmp_path, capsys):
    path = tmp_path / "r4.qnd"
    Q.save_quandle(Q.dihedral(4), path)
    code, out, _ = run(["analyze", str(path), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["order"] == 4
    assert doc["connected"] is False


def test_analyze_generators(tmp_path, capsys):
    path = tmp_path / "r3.qnd"
    Q.save_quandle(Q.dihedral(3), path)
    code, out, _ = run(["analyze", str(path), "--generators"], capsys)
    assert code == 0
    assert "inner generators:" in out
    assert "(1 2)" in out


# sha256 of the analyze --generators --json documents, provenance left out,
# of round 0 of the benchmark's analyze-stream seed 1401 (70 relabeled tables
# of order 3 to 63), as computed before colours and generator-column
# propagation entered the table search; the search's generators, and so every
# figure derived from them, must not move
STREAM_ROUND_DIGEST = "333a3ea36b891aa2f361bd21b061a1b5a6205aba5e658cf60faefc8d8b728b8d"


def test_analyze_generators_are_pinned_on_a_stream_round(tmp_path, capsys, bench_inputs):
    path = tmp_path / "t.qnd"
    h = hashlib.sha256()
    for name, _, table in bench_inputs.stream_rounds(1401, 1)[0]:
        path.write_text(bench_inputs.to_text(table))
        code, out, _ = run(["analyze", str(path), "--generators", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        del doc["provenance"]
        h.update(name.encode() + json.dumps(doc, sort_keys=True).encode())
    assert h.hexdigest() == STREAM_ROUND_DIGEST


def test_analyze_order_one_prints_na(tmp_path, capsys):
    path = tmp_path / "one.qnd"
    Q.save_quandle(Q.trivial_quandle(1), path)
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == 0
    assert "two-point homogeneous: n/a" in out


def test_analyze_invalid_table(tmp_path, capsys):
    path = tmp_path / "bad.qnd"
    path.write_text("2\n1 0\n0 1\n")
    code, _, err = run(["analyze", str(path)], capsys)
    assert code == 2
    assert "not a quandle" in err


def test_analyze_refuses_a_huge_order(tmp_path, capsys):
    path = tmp_path / "huge.qnd"
    path.write_text("100000\n")
    code, _, err = run(["analyze", str(path)], capsys)
    assert code == 2
    assert "order 100000 is not in 1..1024" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(["analyze", "does-not-exist.qnd"], capsys)
    assert code == 2
    assert "error" in err


def test_verify_single(capsys):
    code, out, _ = run(["verify", "dihedral-corollary", "--n", "3,5"], capsys)
    assert code == 0
    assert "pass" in out
    assert "all passed" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(["verify", "nope"], capsys)
    assert code == 2
    assert "unknown theorem id" in err


@pytest.mark.parametrize("argv", [
    ["bae-choe", "--max-order", "0"],
    ["bae-choe", "--max-order", "-3"],
    ["dihedral-corollary", "--n", ","],
    ["conj-inn-embedding", "--max-order", "0"],   # would pass on the Z4 witness alone
])
def test_verify_refuses_an_empty_family(argv, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert code == 2
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("argv, bound", [
    (["takasaki-aut", "--n", "3"], "ns"),
    (["doubly-transitive", "--max-order", "3"], "max_order"),
])
def test_verify_refuses_a_bound_the_suite_does_not_take(argv, bound, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert code == 2
    assert f"{bound} is taken by none" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["mccarron", "--max-order", "8"],
    ["all", "--max-order", "8"],
])
def test_verify_refuses_a_census_past_its_ceiling(argv, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert code == 2
    assert err.startswith("error:") and out == ""


@pytest.fixture
def no_suite_runs(monkeypatch):
    """Replace every suite by one that fails the test when it is called."""
    def never(fn):
        @functools.wraps(fn)
        def suite(**bounds):
            raise AssertionError(f"{fn.__name__} ran before the bound was refused")
        return suite

    for tid, (fn, desc) in list(theorems.THEOREM_SUITES.items()):
        monkeypatch.setitem(theorems.THEOREM_SUITES, tid, (never(fn), desc))


def test_verify_all_refuses_a_census_past_its_ceiling_before_any_suite_runs(no_suite_runs, capsys):
    code, out, err = run(["verify", "all", "--max-order", "8"], capsys)
    assert code == 2
    assert err == "error: mccarron refuses max_order above 7, got 8\n" and out == ""


@pytest.mark.parametrize("tid", ["alexander-embedding", "conj-embedding"])
def test_verify_refuses_an_embedding_past_its_ceiling_before_it_runs(tid, no_suite_runs, capsys):
    # both pass at order 16 in a few seconds and are refused from 17
    code, out, err = run(["verify", tid, "--max-order", "17"], capsys)
    assert code == 2
    assert err == f"error: {tid} refuses max_order above 16, got 17\n" and out == ""


def test_verify_refuses_aut_transitive_past_its_ceiling_before_it_runs(no_suite_runs, capsys):
    code, out, err = run(["verify", "aut-transitive", "--max-order", "64"], capsys)
    assert code == 2
    assert err == "error: aut-transitive refuses max_order above 63, got 64\n" and out == ""


@pytest.mark.parametrize("tid, ceiling", [
    ("conj-inn-embedding", 127),
    ("takasaki-aut", 80),
    ("commutativity", 31),
    ("central-lemma", 31),
    ("connected-abelian", 31),
    ("bae-choe", 31),
    ("fpf-structure", 31),
])
def test_verify_refuses_a_sweep_past_its_measured_ceiling_before_it_runs(tid, ceiling, no_suite_runs, capsys):
    code, out, err = run(["verify", tid, "--max-order", str(ceiling + 1)], capsys)
    assert code == 2
    assert err == f"error: {tid} refuses max_order above {ceiling}, got {ceiling + 1}\n" and out == ""


@pytest.mark.parametrize("n", ["4", "-3", "0"])
def test_verify_all_refuses_a_bad_dihedral_order_before_any_suite_runs(n, no_suite_runs, capsys):
    code, out, err = run(["verify", "all", "--n", f"3,{n}"], capsys)
    assert code == 2
    assert err == f"error: a dihedral order in ns must be odd and positive, got {n}\n" and out == ""


def test_verify_all_refuses_a_dihedral_order_past_the_table_bound_before_any_suite_runs(no_suite_runs, capsys):
    code, out, err = run(["verify", "all", "--n", "3,1025"], capsys)
    assert code == 2
    assert err == "error: dihedral-corollary refuses ns above 1024, got 1025\n" and out == ""


def test_verify_all_gives_each_bound_to_the_suites_that_take_it(capsys):
    code, out, _ = run(["verify", "all", "--max-order", "3", "--n", "3", "--json"], capsys)
    assert code == 0
    reports = {r["theorem"]: r for r in json.loads(out)["reports"]}
    assert len(reports) == 13
    assert reports["dihedral-corollary"]["instances_tested"] == 5     # R_3 only
    assert reports["doubly-transitive"]["instances_tested"] == 5      # its fixed cases
    # 1 + 2 + 6 from the catalog to order 3, and 6 + 24 from S3 and S4, which
    # conj-embedding checks whatever the bound
    assert reports["conj-embedding"]["instances_tested"] == 39
    assert "classes[3]" in reports["mccarron"]["annotations"]
    assert "classes[4]" not in reports["mccarron"]["annotations"]


def test_verify_json_and_out(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(["verify", "mccarron", "--max-order", "4", "--json",
                        "--out", str(report)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["passed"] is True
    assert json.loads(report.read_text()) == doc
    assert doc["reports"][0]["annotations"]["classes[4]"] == 7


def test_verify_failure_exit_code(monkeypatch, capsys):
    broken = TheoremReport("demo")
    broken.fail("witness here")
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [broken])
    code, out, _ = run(["verify", "all"], capsys)
    assert code == 1
    assert "FAIL demo: witness here" in out


def test_list_subcommand(capsys):
    # the registry's ids, order and descriptions, one line per suite
    code, out, _ = run(["list"], capsys)
    assert code == 0
    assert out == (
        "conj-inn-embedding   a -> S_a embeds odd Takasaki quandles into Conj(Inn); fails injectivity on Z4\n"
        "alexander-embedding  Z(G) x| C_Aut(phi) embeds into Aut(Alex(G, phi))\n"
        "takasaki-aut         odd abelian G: Aut(T(G)) = translations x| Aut(G), |Inn| = 2|2G|\n"
        "dihedral-corollary   odd n: |Aut(R_n)| = n phi(n) and |Inn(R_n)| = 2n\n"
        "conj-embedding       Z(G) x| Aut(G) embeds into Aut(Conj(G)); |Inn(Conj(G))| = |G:Z(G)|\n"
        "commutativity        commutative Alex(G, phi) forces phi(a^2) = a; abelian case: 2 phi = id\n"
        "central-lemma        central phi: twisted map is a homomorphism into Z(G), injectively in phi\n"
        "connected-abelian    involutory central phi on non-abelian G never gives a connected quandle\n"
        "bae-choe             abelian G: connected == fixed-point-free == twisted map bijective\n"
        "fpf-structure        fixed-point-free phi: Aut_0 = C(phi), Aut = G x| C(phi), |Inn| = |G| ord(phi)\n"
        "aut-transitive       Aut(G) transitive on non-identity elements iff G elementary abelian\n"
        "doubly-transitive    scalar quandles over (Z/p)^n have doubly transitive Aut; "
        "Inn not pair-transitive for n >= 2\n"
        "mccarron             census to order 6: R_3 is the only 3-transitive quandle on 3+ points\n"
    )


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quandles.cli", "make", "dihedral", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("3\n")


def _calls_in_one_process(tmp_path, capsys, fresh):
    """(exit code, stdout, stderr, files written) of a run of calls through
    cli.main, with report timings dropped; with fresh, the parser is built
    again before each call."""
    calls = [
        ["verify", "dihedral-corollary", "--n", "3,5", "--json", "--out", str(tmp_path / "report.json")],
        ["verify", "dihedral-corollary", "--json"],
        ["make", "dihedral", "5", "--out", str(tmp_path / "r5.qnd")],
        ["make", "dihedral", "5"],
        ["make", "alexander", "--factors", "3,3"],                     # no phi flag: refused
        ["make", "alexander", "--factors", "3,3", "--scalar", "2"],
    ]

    def untimed(text):
        if not text.startswith("{"):
            return text
        doc = json.loads(text)
        for rep in doc["reports"]:
            rep.pop("elapsed_seconds")
        return doc

    out = []
    for argv in calls:
        if fresh:
            cli.build_parser.cache_clear()
        for path in tmp_path.iterdir():
            path.unlink()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        text, err = capsys.readouterr()
        files = {path.name: untimed(path.read_text()) for path in tmp_path.iterdir()}
        out.append((code, untimed(text), err, files))
    return out


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # the parser is built once per process; no option of one call leaks into
    # the next: --out into a verify or make without it, --n into a verify at
    # the default orders, a refused call into the good one after it
    reused = _calls_in_one_process(tmp_path, capsys, fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert reused == _calls_in_one_process(tmp_path, capsys, fresh=True)
    assert [code for code, *_ in reused] == [0, 0, 0, 0, 2, 0]
    assert [sorted(files) for *_, files in reused] == [["report.json"], [], ["r5.qnd"], [], [], []]
    assert reused[0][3]["report.json"] == reused[0][1] != reused[1][1]
    assert "one of the arguments" in reused[4][2]
