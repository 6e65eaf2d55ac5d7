"""The four workloads: their inputs, one pass of measured calls, and checks.

A workload is a list of passes; a pass is a list of items, and an item is a
``(label, call, check)`` triple.  ``call()`` does the measured work and
``check(result)`` returns None when the result matches the oracle, or a
message.  Calls look the package functions up on their modules at call time,
so the tracer's wrappers (``spans.py``) see them.

Why these four:

- verify-sweep: the 13 theorem suites through the command line, the
  package's headline end-to-end run; theorems, groups.automorphism_group on
  fresh catalog groups, and quandle construction dominate it.
- analyze-stream: load and analyze tables of orders 3 to 63; perms chain
  building (order, stabilizer) and the symmetry backtracker dominate it, and
  it never calls groups.automorphism_group.
- census: the order-1..6 census, thousands of tiny isomorphism tests through
  the same backtracker that analyze-stream uses for a few large searches.
- load-large: parse and validate tables of order 125 to 343, half of them
  with a planted distributivity defect; the only workload where validation,
  parsing and memory dominate.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import inputs
import oracles

STREAM_ROUNDS = 4


@dataclass
class Workload:
    passes: list
    divisible: bool           # items are independent: a run may stop between them
    fingerprint: str = None


def _write(workdir, name, table):
    text = inputs.to_text(table)
    path = os.path.join(workdir, name + ".qnd")
    with open(path, "w") as fh:
        fh.write(text)
    return path, text


def analyze_stream(seed, workdir):
    from quandles import quandle, symmetry

    passes, files = [], []
    for r, items in enumerate(inputs.stream_rounds(seed, STREAM_ROUNDS)):
        work = []
        for i, (name, params, table) in enumerate(items):
            path, text = _write(workdir, f"r{r}-{i:03d}-{name}", table)
            files.append((name, text))
            expected = oracles.expected_analysis(params)

            def call(path=path):
                return symmetry.analyze_quandle(quandle.load_quandle(path))

            def check(res, expected=expected):
                got = (res.order, res.inn_order, res.aut_order, res.connected)
                return None if got == expected else f"(order, |Inn|, |Aut|, connected) = {got}, expected {expected}"

            work.append((name, call, check))
        passes.append(work)
    return Workload(passes, divisible=True, fingerprint=inputs.fingerprint(files))


def load_large(seed, workdir):
    from quandles import quandle

    work, files = [], []
    for i, (name, params, table) in enumerate(inputs.large_set(seed)):
        path, text = _write(workdir, f"{i:02d}-{name}", table)
        files.append((name, text))

        def call(path=path):
            try:
                return quandle.load_quandle(path)
            except quandle.QuandleAxiomError as exc:
                return exc.axiom

        def check(res, table=table, axiom=params["axiom"]):
            if axiom is None:
                if isinstance(res, int):
                    return f"valid table rejected with axiom {res}"
                return None if np.array_equal(res.table, table) else "loaded table differs from the file"
            return None if res == axiom else f"expected rejection with axiom {axiom}, got {res!r}"

        work.append((name, call, check))
    return Workload([work], divisible=True, fingerprint=inputs.fingerprint(files))


def census(seed, workdir):
    from quandles import theorems

    def call():
        return theorems.check_mccarron_bound(1, 6)

    def check(rep):
        got = {n: (rep.annotations[f"classes[{n}]"], rep.annotations[f"labeled[{n}]"])
               for n in oracles.CENSUS_CLASSES}
        want = {n: (oracles.CENSUS_CLASSES[n], oracles.CENSUS_LABELED[n]) for n in oracles.CENSUS_CLASSES}
        if got != want:
            return f"(classes, labeled) by order = {got}, expected {want}"
        return None if rep.passed else f"census failed: {rep.failures[:3]}"

    return Workload([[("mccarron-1..6", call, check)]], divisible=False)


def verify_sweep(seed, workdir):
    from quandles import cli

    work = []
    for tid, bound, instances in oracles.SUITES:
        def call(argv=["verify", tid, *bound, "--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:           # the parser refused the arguments
                    code = exc.code
            return code, out.getvalue()

        def check(res, instances=instances):
            code, text = res
            if code != 0:                           # 1: a clause failed, 2: bad input
                return f"exit {code}: {text.strip()[-300:]}"
            got = json.loads(text)["reports"][0]["instances_tested"]
            return None if got == instances else f"{got} instances, expected {instances}"

        work.append((tid, call, check))
    return Workload([work], divisible=False)


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "analyze-stream": analyze_stream,
    "census": census,
    "load-large": load_large,
}
