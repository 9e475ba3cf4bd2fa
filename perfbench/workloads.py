"""The three workloads: their inputs, how a worker runs them, and how the
parent checks what the worker returns.

Input generation and checking use only the standard library and
``formulas``; ``run`` is called in a fresh worker process after finabel is
imported, with finabel's modules passed in.

Every workload is a sequence of timed operations.  Their latencies give the
``query_*`` metrics: a query in query-session, one table row (the five
function values of one type) in table-sweep, and one verify suite or one
swept type in oracle-verify.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from collections import Counter
from time import perf_counter

import formulas

NAMES = ("table-sweep", "query-session", "oracle-verify")

# table-sweep: breadth; every row is a new type.
TABLE_FUNCTIONS = ("mu", "phi", "nsub", "nt:2", "gentuples:2")
TABLE_MAX_ORDER = 120
TABLE_ARGV = ["table", ",".join(TABLE_FUNCTIONS), str(TABLE_MAX_ORDER), "csv"]

# query-session: one library session, closed loop, one client.
QUERY_MAX_ORDER = 100
QUERY_COUNT = 2000
ZIPF_EXPONENT = 1.0
QUERY_MIX = (  # kind, weight in percent
    ("f:nsub", 9), ("f:phi", 9), ("f:nt:2", 9), ("f:nt:3", 9), ("f:gentuples:2", 9),
    ("inv", 10), ("aut", 15), ("sub", 15), ("profile", 7), ("hom", 8),
)
# Each type is also asked once with a kind that builds its full subgroup
# lattice, so every seed does the same cold work and seeds differ only in
# the order of queries and in which answers are read back from caches.
COVER_KINDS = ("f:nt:2", "f:nt:3", "aut")
# Elementary groups above the default lattice bound of 512.
PROBE_GROUPS = ((2, 10), (3, 6), (5, 4), (7, 4))
PROBE_KINDS = ("aut", "f:nsub", "profile", "sub", "f:mu")

# oracle-verify: the element-level layer.
VERIFY_RUNS = (("homs", 24), ("gensubsets", 15), ("freefuncs", 6), ("isometries", 7), ("symgen", 6))
SWEEP_MAX_ORDER = 64


# ---------------------------------------------------------------------------
# inputs


def probe_keys() -> list[str]:
    keys = []
    for p, n in PROBE_GROUPS:
        T = formulas.elementary_string(p, n)
        for kind in PROBE_KINDS:
            keys.append(f"sub|{p},{p}|{T}" if kind == "sub" else f"{kind}|{T}")
    return keys


def query_keys(seed: int) -> list[str]:
    """The seeded query stream: cover queries, Zipf-drawn queries and the
    refusal probes, shuffled together."""
    rng = random.Random(seed)
    universe = formulas.types_up_to(QUERY_MAX_ORDER)
    ranked = universe[:]
    rng.shuffle(ranked)
    weights = [1 / (r + 1) ** ZIPF_EXPONENT for r in range(len(ranked))]
    divisor_types = {
        T: [B for d in formulas.divisors(formulas.order_of(T)) for B in formulas.types_of_order(d)]
        for T in universe
    }
    kinds = [k for k, _ in QUERY_MIX]
    kind_weights = [w for _, w in QUERY_MIX]

    keys = [f"{rng.choice(COVER_KINDS)}|{T}" for T in universe]
    for _ in range(QUERY_COUNT - len(universe)):
        kind = rng.choices(kinds, kind_weights)[0]
        T = rng.choices(ranked, weights)[0]
        if kind == "sub":
            keys.append(f"sub|{rng.choice(divisor_types[T])}|{T}")
        elif kind == "hom":
            keys.append(f"hom|{T}|{rng.choices(ranked, weights)[0]}")
        else:
            keys.append(f"{kind}|{T}")
    rng.shuffle(keys)
    for key in probe_keys():
        keys.insert(rng.randrange(len(keys) + 1), key)
    return keys


def sweep_types(seed: int) -> list[str]:
    types = formulas.types_up_to(SWEEP_MAX_ORDER)
    random.Random(seed).shuffle(types)
    return types


def verify_check_counts() -> dict[str, int]:
    """Check counts of the verify suites, derived without finabel."""
    counts = {}
    for suite, bound in VERIFY_RUNS:
        types = formulas.types_up_to(bound)
        orders = [formulas.order_of(T) for T in types]
        if suite == "homs":
            n = len(types) ** 2
        elif suite == "gensubsets":
            n = len(types)
        elif suite == "freefuncs":
            n = sum(1 for t in range(2, 11) for g in orders if t**g <= 10**7)
        elif suite == "isometries":
            n = sum(int(formulas.formula_value(f"f:nsub|{T}")) for T in types)
        else:  # symgen: every set of at most two transpositions up to order 5, else 40 sets
            pairs = [g * (g - 1) // 2 for g in orders if g >= 3]
            n = sum(1 + p + p * (p - 1) // 2 if p <= 10 else 40 for p in pairs)
        counts[f"{suite} {bound}"] = n
    return counts


# ---------------------------------------------------------------------------
# running (inside a worker process)


class _TimedFunction:
    """Stands in for an abelian function inside ``finabel table`` and
    records how long each evaluation took."""

    __slots__ = ("fn", "name", "times")

    def __init__(self, fn, times: list[float]):
        self.fn = fn
        self.name = fn.name
        self.times = times

    def __call__(self, G):
        start = perf_counter()
        value = self.fn(G)
        self.times.append(perf_counter() - start)
        return value


def _cli_call(cli, argv: list[str]) -> tuple[int | str, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception as exc:  # a crash counts as a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def prepare(name: str, seed: int, fin) -> object:
    """Inputs as finabel objects, built before the timer starts."""
    if name == "query-session":
        parse = fin.grouptype.parse_group_spec
        ops = []
        for key in query_keys(seed):
            kind, *args = key.split("|")
            ops.append((key, kind, [parse(a) for a in args]))
        return ops
    if name == "oracle-verify":
        return [fin.grouptype.parse_group_spec(T) for T in sweep_types(seed)]
    return None


def run(name: str, inputs, fin) -> dict:
    """Run one workload; the caller times this call."""
    if name == "table-sweep":
        times: list[float] = []
        resolve = fin.cli.builtin_function
        fin.cli.builtin_function = lambda fname: _TimedFunction(resolve(fname), times)
        try:
            rc, out = _cli_call(fin.cli, TABLE_ARGV)
        finally:
            fin.cli.builtin_function = resolve
        return {"rc": rc, "stdout": out, "times": times}
    if name == "query-session":
        return {"answers": _run_queries(inputs, fin)}
    if name == "oracle-verify":
        return _run_oracles(inputs, fin)
    raise ValueError(f"unknown workload {name!r}")


def _run_queries(ops, fin) -> list:
    functions, counting = fin.functions, fin.counting
    mobius = functions.inverse(functions.one)
    calls = {
        "inv": mobius,
        "aut": counting.aut_count,
        "sub": counting.sub_count,
        "profile": counting.subgroup_order_profile,
        "hom": counting.hom_count,
    }
    answers = []
    for key, kind, args in ops:
        start = perf_counter()
        try:
            if kind.startswith("f:"):
                value = functions.builtin_function(kind[2:])(*args)
            else:
                value = calls[kind](*args)
        except Exception as exc:  # refusals and crashes are both recorded
            value = exc
        elapsed = perf_counter() - start
        answers.append((key, value, elapsed))
    return answers


def _run_oracles(types, fin) -> dict:
    cli, lattice = fin.cli, fin.lattice
    suites = []
    for suite, bound in VERIFY_RUNS:
        start = perf_counter()
        rc, out = _cli_call(cli, ["verify", suite, str(bound)])
        suites.append((f"{suite} {bound}", rc, out, perf_counter() - start))
    sweep = []
    for T in types:
        start = perf_counter()
        G = lattice.ConcreteGroup.from_type(T)
        pairs: Counter = Counter()
        disagreements = 0
        for H in lattice.all_subgroups(G):
            ht = lattice.subgroup_type(H)
            if ht != lattice.subgroup_type_via_snf(H):
                disagreements += 1
            pairs[(ht, lattice.quotient_type(G, H))] += 1
        sweep.append((T, pairs, disagreements, perf_counter() - start))
    return {"suites": suites, "sweep": sweep}


# ---------------------------------------------------------------------------
# serializing (worker) and checking (parent)


def answer_string(value) -> str:
    """Answers in the form expected.json stores them."""
    if isinstance(value, BaseException):
        return f"!{type(value).__name__}"
    if isinstance(value, dict):
        return " ".join(f"{d}:{c}" for d, c in sorted(value.items()))
    return str(value)


def pairs_digest(pairs: Counter) -> str:
    text = ";".join(sorted(f"{h}/{q}:{c}" for (h, q), c in pairs.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def serialize(name: str, raw: dict) -> dict:
    if name == "query-session":
        return {"answers": [[k, answer_string(v), t] for k, v, t in raw["answers"]]}
    if name == "oracle-verify":
        return {
            "suites": [list(s) for s in raw["suites"]],
            "sweep": [
                [str(T), sum(pairs.values()), pairs_digest(pairs), bad, t]
                for T, pairs, bad, t in raw["sweep"]
            ],
        }
    n = len(TABLE_FUNCTIONS)
    times = raw["times"]
    rows = [sum(times[i : i + n]) for i in range(0, len(times), n)]
    return {"rc": raw["rc"], "stdout": raw["stdout"], "row_times": rows}


class Outcome:
    """Per-rep tally of one workload's operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.latencies: list[float] = []  # seconds, completed operations only
        self.problems: list[str] = []

    def record(self, ok: bool, latency: float | None, problem: str = "") -> None:
        self.attempted += 1
        if ok:
            if latency is not None:
                self.latencies.append(latency)
        else:
            self.failed += 1
            self.problems.append(problem)


def check(name: str, result: dict, expected: dict) -> Outcome:
    out = Outcome()
    if name == "table-sweep":
        want = expected["table-sweep"]
        lines = result["stdout"].splitlines()
        got_rows = _table_rows(lines)
        want_rows = _table_rows(want["lines"])
        times = result["row_times"]
        for i, T in enumerate(want_rows):
            ok = result["rc"] == 0 and got_rows.get(T) == want_rows[T]
            out.record(ok, times[i] if i < len(times) else None, f"table row {T} (exit {result['rc']!r})")
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        if digest != want["sha256"] and not out.failed:
            out.failed += 1
            out.problems.append("table output differs byte-wise from the seed output")
    elif name == "query-session":
        answers = expected["query-session"]["answers"]
        probes = set(probe_keys())
        for key, got, latency in result["answers"]:
            want = answers.get(key) or formulas.formula_value(key)
            if key in probes and got == "!BoundExceededError":
                out.attempted += 1
                out.refused += 1
                continue
            out.record(got == want, latency, f"{key}: got {got}, want {want}")
    elif name == "oracle-verify":
        want = expected["oracle-verify"]
        for label, rc, text, latency in result["suites"]:
            checks = want["verify"][label]
            ok = rc == 0 and text.strip() == f"{label.split()[0]}: {checks} checks, OK"
            out.record(ok, latency, f"verify {label}: exit {rc!r}, {text.strip()!r}")
        for T, count, digest, bad, latency in result["sweep"]:
            ok = bad == 0 and [count, digest] == want["sweep"].get(T)
            out.record(ok, latency, f"sweep {T}: {count} subgroups, {bad} route disagreements")
    return out


def _table_rows(lines: list[str]) -> dict[str, list[str]]:
    rows: dict[str, list[str]] = {}
    for group, function, value in csv.reader(lines[1:]):
        rows.setdefault(group, []).append(f"{function}={value}")
    return rows


def table_keys(lines: list[str]) -> dict[str, str]:
    """Table values as query keys, for the formula check."""
    rows = _table_rows(lines)
    return {
        f"f:{entry.partition('=')[0]}|{T}": entry.partition("=")[2]
        for T, entries in rows.items()
        for entry in entries
    }


def formula_mismatches(answers: dict[str, str]) -> list[str]:
    bad = []
    for key, value in answers.items():
        want = formulas.formula_value(key)
        if want is not None and want != value:
            bad.append(f"{key}: stored {value}, formula {want}")
    return bad


def consistency_problems(expected: dict) -> list[str]:
    """Every check the benchmark can make on its stored answers without
    running finabel."""
    problems = formula_mismatches(expected["query-session"]["answers"])
    problems += formula_mismatches(table_keys(expected["table-sweep"]["lines"]))
    text = "\n".join(expected["table-sweep"]["lines"]) + "\n"
    if hashlib.sha256(text.encode()).hexdigest() != expected["table-sweep"]["sha256"]:
        problems.append("table-sweep lines do not match their sha256")
    if expected["oracle-verify"]["verify"] != verify_check_counts():
        problems.append("verify check counts differ from the counts derived by formula")
    for T, (count, _) in expected["oracle-verify"]["sweep"].items():
        want = formulas.formula_value(f"f:nsub|{T}")
        if want is not None and int(want) != count:
            problems.append(f"sweep {T}: {count} subgroups, formula {want}")
    return problems
