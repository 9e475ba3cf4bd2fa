"""Write perfbench/expected.json: the answers the benchmark checks against.

Run once from the repository root on the code the answers should come
from, then commit the file:

    python3 perfbench/make_expected.py

It records finabel's table output, every answer a query-session stream can
ask for (hom counts and the refusal probes are checked by formula
instead), the verify suites' check counts and the subgroup sweep's
per-type pair multisets.  Before writing, every stored answer that has an
independent closed form in ``formulas`` is checked against it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import formulas  # noqa: E402
import workloads  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")


def query_universe() -> list[str]:
    keys = []
    for T in formulas.types_up_to(workloads.QUERY_MAX_ORDER):
        keys += [f"{kind}|{T}" for kind, _ in workloads.QUERY_MIX if kind not in ("sub", "hom")]
        keys += [
            f"sub|{B}|{T}"
            for d in formulas.divisors(formulas.order_of(T))
            for B in formulas.types_of_order(d)
        ]
    return keys


def generate() -> dict:
    from finabel import cli, counting, errors, functions, grouptype, lattice, oracle, symgen

    fin = SimpleNamespace(
        cli=cli, counting=counting, errors=errors, functions=functions,
        grouptype=grouptype, lattice=lattice, oracle=oracle, symgen=symgen,
    )
    table = workloads.run("table-sweep", None, fin)
    assert table["rc"] == 0, table["rc"]
    parse = grouptype.parse_group_spec
    ops = [(k, k.split("|")[0], [parse(a) for a in k.split("|")[1:]]) for k in query_universe()]
    answers = {k: workloads.answer_string(v) for k, v, _ in workloads._run_queries(ops, fin)}
    types = [parse(T) for T in formulas.types_up_to(workloads.SWEEP_MAX_ORDER)]
    oracles = workloads.serialize("oracle-verify", workloads.run("oracle-verify", types, fin))
    assert all(bad == 0 for _, _, _, bad, _ in oracles["sweep"]), "subgroup type routes disagree"
    verify = {}
    for label, rc, text, _ in oracles["suites"]:
        assert rc == 0 and text.endswith("checks, OK\n"), (label, rc, text)
        verify[label] = int(text.split()[1])
    return {
        "table-sweep": {
            "argv": workloads.TABLE_ARGV,
            "sha256": hashlib.sha256(table["stdout"].encode()).hexdigest(),
            "lines": table["stdout"].splitlines(),
        },
        "query-session": {"max_order": workloads.QUERY_MAX_ORDER, "answers": answers},
        "oracle-verify": {
            "verify": verify,
            "sweep": {T: [count, digest] for T, count, digest, _, _ in oracles["sweep"]},
        },
    }


def main() -> int:
    expected = generate()
    problems = workloads.consistency_problems(expected)
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}: {len(expected['query-session']['answers'])} query answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
