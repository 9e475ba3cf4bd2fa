import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from math import prod

import pytest

from finabel.cli import main
from finabel.counting import gaussian_subspace_count

# the first 14 primes: 2^14 subgroup types, all elementary
PRIMORIAL_14 = prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
# the Moebius function on the divisors of 30
MOBIUS_30 = {1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 10: 1, 15: 1, 30: -1}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "finabel", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def test_eval_examples(capsys):
    assert main(["eval", "mu", "2,2"]) == 0
    assert capsys.readouterr().out == "2,2  mu  2\n"
    assert main(["eval", "nsub", "2,2"]) == 0
    assert capsys.readouterr().out == "2,2  nsub  5\n"
    assert main(["eval", "delta", "1"]) == 0
    assert capsys.readouterr().out == "1  delta  1\n"


def test_eval_formats(capsys):
    assert main(["--format", "csv", "eval", "phi", "2,4"]) == 0
    assert capsys.readouterr().out == 'group,function,value\n"2,4",phi,0\n'
    assert main(["--format", "json-lines", "eval", "card", "6"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"group": "6", "function": "card", "value": "6"}


def test_eval_error_codes(capsys):
    assert main(["eval", "nope", "2,2"]) == 2
    assert main(["eval", "mu", "2,x"]) == 2
    assert main(["eval", "mu", "0"]) == 2
    assert main(["eval", "nt:2", str(PRIMORIAL_14)]) == 3
    capsys.readouterr()
    assert main(["eval", "nsub", "1024"]) == 0
    assert capsys.readouterr().out == "1024  nsub  11\n"


def test_usage_exit_code_from_argparse():
    assert run_cli().returncode == 2
    assert run_cli("eval").returncode == 2
    assert run_cli("table", "mu", "not-a-number").returncode == 2


def test_table_row_counts(capsys):
    assert main(["table", "mu,phi", "8", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "group,function,value"
    assert len(lines) == 1 + 11 * 2  # 11 types of order <= 8, two functions
    assert main(["table", "card", "1", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["1,card,1"]


def test_table_divisibility(capsys):
    assert main(["table", "nt:2", "12", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    from finabel.grouptype import parse_group_spec

    for line in lines:
        group, _, value = line.rsplit(",", 2)
        order = parse_group_spec(group.strip('"')).order
        assert int(value) % order == 0


def test_table_jobs_and_json(capsys):
    # table runs serially: a thread pool gains nothing under the GIL
    assert run_cli("--jobs", "3", "table", "mu", "4").returncode == 2
    assert main(["table", "mu,nsub", "10", "json-lines"]) == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()]
    assert all(set(r) == {"group", "function", "value"} for r in records)
    # value strings round-trip to exact rationals
    for r in records:
        Fraction(r["value"])


def test_internal_check_failure_exit_code(capsys, monkeypatch):
    from finabel import counting

    def broken(B):
        raise AssertionError("count is not an integer")

    monkeypatch.setattr(counting, "aut_count", broken)
    assert main(["aut", "2"]) == 5
    err = capsys.readouterr().err
    assert err == "error: internal check failed: count is not an integer\n"


def test_counting_commands(capsys):
    assert main(["hom", "2,4", "2"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(["mono", "2", "2,2"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(["epi", "2,2", "2"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(["aut", "2,2"]) == 0
    assert capsys.readouterr().out == "6\n"
    assert main(["subcount", "2", "2,2"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_profile_command(capsys):
    assert main(["profile", "4"]) == 0
    assert capsys.readouterr().out == (
        "element-orders 1:1 2:1 4:2\nsubgroup-orders 1:1 2:1 4:1\n"
    )
    assert main(["profile", "4", "--kind", "elements"]) == 0
    assert capsys.readouterr().out == "element-orders 1:1 2:1 4:2\n"


def test_conjecture_command(capsys):
    assert main(["conjecture", "16"]) == 0
    assert capsys.readouterr().out == "no counterexamples up to order 16\n"


def test_bounds_below_one_are_usage_errors(capsys):
    assert main(["table", "mu", "0"]) == 2
    assert main(["verify", "mu", "0"]) == 2
    assert main(["conjecture", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: max order must be >= 1\n"
        "error: bound must be >= 1\n"
        "error: max order must be >= 1\n"
    )


def test_symgen_command(capsys):
    assert main(["symgen", "4", "0>2"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert main(["symgen", "4", "1>2"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["symgen", "2,2", "0,0>1,0;0,0>0,1"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["symgen", "2,2", "0,0>1,0"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_symgen_of_a_large_group_is_fast(capsys):
    # one 1x2 Smith form; listing the 200000 elements took 3.6 s
    from finabel.lattice import _arith

    built = _arith.cache_info().misses
    start = time.perf_counter()
    assert main(["symgen", "200000", "0>1"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert time.perf_counter() - start < 1.0
    assert _arith.cache_info().misses == built  # no index table was built


def test_commands_without_oracles_do_not_load_numpy():
    # only finabel.oracle needs numpy; the package and these commands do not,
    # and no value type pulls in dataclasses and the modules it imports
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import finabel
        from finabel.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["eval", "phi", "12"], ["table", "mu,phi,nsub", "30"],
                         ["symgen", "6", "0>1"]):
                assert main(argv) == 0, argv
        print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
        print(sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(sys.modules)))
        """
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_package_import_loads_neither_typing_nor_dataclasses():
    # -S skips site-packages, whose start-up .pth files may import typing
    # first; numpy is not importable there, so only the package is imported
    script = "import sys, finabel; print(sorted({'typing', 'dataclasses'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_symgen_errors(capsys):
    assert main(["symgen", "4", "0-2"]) == 2
    assert main(["symgen", "4", "0>9"]) == 2
    assert main(["symgen", "4", "1>1"]) == 2
    assert main(["symgen", "2", "0>1"]) == 3  # order-2 groups unsupported
    capsys.readouterr()


def test_verify_command(capsys):
    assert main(["verify", "homs", "6"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert main(["verify", "isometries", "5"]) == 0
    assert main(["verify", "mu", "20"]) == 0
    capsys.readouterr()


def test_verify_homs_builds_each_element_table_once(capsys):
    # the suite holds B fixed in its inner loop and needs no table for A,
    # so each of the 37 types of order <= 24 has its tables built once
    from finabel.lattice import _arith

    _arith.cache_clear()
    assert main(["verify", "homs", "24"]) == 0
    assert capsys.readouterr().out == "homs: 1369 checks, OK\n"
    assert _arith.cache_info().misses <= 37


def test_verify_pairs_compares_the_two_routes(capsys, monkeypatch):
    from finabel import verify

    assert main(["verify", "pairs", "32"]) == 0
    assert capsys.readouterr().out == "pairs: 55 checks, OK\n"
    real = verify._lattice_pairs
    monkeypatch.setattr(
        verify, "_lattice_pairs", lambda m: {} if m == (2, 4) else real(m)
    )
    assert main(["verify", "pairs", "8"]) == 4
    captured = capsys.readouterr()
    assert "pairs(2,4): Hall route" in captured.err
    assert captured.out == "pairs: 11 checks, 1 MISMATCHES\n"


def test_order_512_elementary_group(capsys):
    # its 8,283,458 subgroups are counted from Birkhoff's count per
    # subgroup type, not enumerated
    G = ",".join(["2"] * 9)
    gauss = [gaussian_subspace_count(2, 9, d) for d in range(10)]
    assert main(["eval", "nsub", G]) == 0
    assert capsys.readouterr().out == f"{G}  nsub  {sum(gauss)}\n"
    assert main(["aut", G]) == 0
    assert capsys.readouterr().out == f"{prod(2**9 - 2**i for i in range(9))}\n"
    assert main(["subcount", "2,2", G]) == 0
    assert capsys.readouterr().out == f"{gauss[2]}\n"
    assert main(["profile", G, "--kind", "subgroups"]) == 0
    assert capsys.readouterr().out == (
        "subgroup-orders " + " ".join(f"{2**d}:{c}" for d, c in enumerate(gauss)) + "\n"
    )


def test_order_1024_elementary_group(capsys):
    # counting is closed-form, and so is nsub: one * one sums Birkhoff's
    # count over the 11 subgroup types, with no Hall table of size 10
    G = ",".join(["2"] * 10)
    gauss = [gaussian_subspace_count(2, 10, d) for d in range(11)]
    assert main(["aut", G]) == 0
    assert capsys.readouterr().out == f"{prod(2**10 - 2**i for i in range(10))}\n"
    assert main(["profile", G]) == 0
    assert capsys.readouterr().out == (
        "element-orders 1:1 2:1023\n"
        "subgroup-orders " + " ".join(f"{2**d}:{c}" for d, c in enumerate(gauss)) + "\n"
    )
    assert main(["subcount", "2,2", G]) == 0
    assert capsys.readouterr().out == "174251\n"
    assert main(["eval", "nsub", G]) == 0
    assert sum(gauss) == 229755605
    assert capsys.readouterr().out == f"{G}  nsub  {sum(gauss)}\n"


def test_profile_refuses_a_square_type(capsys):
    # (10)^10 at p = 2 has 184,756 sub-partitions; the element orders alone are cheap
    G = ",".join(["1024"] * 10)
    assert main(["profile", G]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "184756 sub-partitions, above the bound 10000" in captured.err
    assert main(["profile", G, "--kind", "elements"]) == 0
    assert capsys.readouterr().out.startswith("element-orders 1:1 2:1023 4:1047552 ")


def test_verify_reports_mismatches(capsys, monkeypatch):
    from finabel import verify

    def fabricated(bound):
        yield from (None, "fabricated", None)

    monkeypatch.setitem(verify.SUITES, "homs", fabricated)
    assert main(["verify", "homs", "6"]) == 4
    captured = capsys.readouterr()
    assert "fabricated" in captured.err
    assert "MISMATCH" in captured.out


def test_work_bounds_replace_the_order_flag(capsys):
    # the order bound is gone: work bounds are fixed, so the flag is a usage error
    assert run_cli("--max-lattice-order", "700", "eval", "mu", "2").returncode == 2
    # cheap work of high order is answered ...
    want = sum(m * 2 ** (600 // d) for d, m in MOBIUS_30.items())
    assert main(["eval", "nt:2", "600"]) == 0
    assert capsys.readouterr().out == f"600  nt:2  {want}\n"
    assert main(["eval", "phi", "997"]) == 0
    assert capsys.readouterr().out == "997  phi  996\n"
    gauss = sum(gaussian_subspace_count(3, 6, d) for d in range(7))
    assert gauss == 56632
    assert main(["eval", "nsub", "3,3,3,3,3,3"]) == 0
    assert capsys.readouterr().out == f"3,3,3,3,3,3  nsub  {gauss}\n"
    # ... and a large sum is refused by its number of terms
    assert main(["eval", "nt:2", str(PRIMORIAL_14)]) == 3
    assert capsys.readouterr().err == (
        f"error: nt:2({PRIMORIAL_14}) sums 16384 subgroup-type terms, "
        "above the bound MAX_PAIRS = 10000\n"
    )


def test_huge_values_are_refused():
    # 3^(10^9) and 3^(10^8): refused from a bound on their bit length,
    # before any power is taken
    for args, err in (
        (("gentuples:1000000000", "3"), "cardpow:1000000000(3) may have 2000000001 bits"),
        (("nt:3", "100000000"), "tpow:3(100000000) may have 200000001 bits"),
    ):
        proc = run_cli("eval", *args, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"error: {err}, above the bound 1048576\n"


def test_values_past_the_int_digit_limit_are_printed(capsys):
    # nt:2 on Z_15000 has 4,516 digits, past Python's default limit of 4,300
    # on int-to-str conversion; main lifts that limit for its own call only
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    assert main(["eval", "nt:2", "15000"]) == 0
    printed = capsys.readouterr().out
    if get_limit:
        assert get_limit() == limit
        sys.set_int_max_str_digits(0)
    try:
        want = sum(m * 2 ** (15000 // d) for d, m in MOBIUS_30.items())
        assert printed == f"15000  nt:2  {want}\n"
    finally:
        if get_limit:
            sys.set_int_max_str_digits(limit)


def test_factorization_is_bounded():
    # 2^89 - 1 is prime: trial division to its square root would take days;
    # the refusal comes after trial division to the bound, about 0.4 s
    proc = run_cli("eval", "phi", "618970019642690137449562111", timeout=30)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: factorizing 618970019642690137449562111: trial division up to the"
        " square root 24879108095803 of the cofactor 618970019642690137449562111,"
        " above the bound 10000000\n"
    )


def test_a_large_prime_is_factorized_once(capsys, monkeypatch):
    # 100000000000031 is prime and its square root is MAX_TRIAL_DIVISOR:
    # a factorization takes about 0.4 s; canonicalize does it, and the type
    # it builds carries its partitions to every later split
    from finabel import grouptype

    calls = []
    factorize = grouptype.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(grouptype, "factorize", counted)
    p = 100000000000031
    assert main(["eval", "phi", str(p)]) == 0
    assert capsys.readouterr().out == f"{p}  phi  {p - 1}\n"
    assert calls.count(p) == 1


def test_table_bytes_deterministic():
    a = run_cli("table", "mu,phi,nsub", "16", "csv")
    b = run_cli("table", "mu,phi,nsub", "16", "csv")
    assert a.returncode == b.returncode == 0
    assert a.stdout.encode() == b.stdout.encode()
