import argparse
import hashlib
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from synhash import bounds, verify
from synhash.cli import BOUNDS, VERIFY_CHECKS, _order, _sanitize, build_parser, main, parse_source
from synhash.caps import DEFAULT_CAPS
from synhash.codes import CodeEnsembleSpec, sample_uniform_code
from synhash.distributions import DensePmf, ProductBernoulli
from synhash.field import FieldSpec
from synhash.rm_lab import RmExperimentSpec, rm_convergence_run
from synhash.suite import expected_failure, run_acceptance

F2 = FieldSpec(2)


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_bound_main_guarantee_json(capsys):
    rc, out, _ = run(["bound", "main-guarantee", "--m", "2", "--Hp", "9",
                      "--p", "2", "--q", "2"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["results"][0]["value"] == 0.03125
    assert data["config"]["command"] == "bound"


def test_bound_corollary_csv_two_rows(capsys):
    rc, out, _ = run(["--format", "csv", "bound", "corollary", "--eps", "0.5",
                      "--p", "2", "--q", "2"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# config:")
    assert lines[1] == "name,params,lhs,rhs,slack,passed,trials,seed"
    assert len(lines) == 4
    assert lines[2].startswith("corollary-divergence,")
    assert lines[3].startswith("corollary-distance,")


def test_bound_order_keyword_inf(capsys):
    rc, out, _ = run(["bound", "two-point-renyi", "--delta", "0.25", "--p", "inf"],
                     capsys)
    assert rc == 0
    value = json.loads(out)["results"][0]["value"]
    assert value == pytest.approx(0.4150374992788438)


def test_value_error_exits_one(capsys):
    rc, _, err = run(["bound", "phi", "--p", "0.5", "--eps", "1"], capsys)
    assert rc == 1
    assert "error" in err


def test_unwritable_output_is_an_error(tmp_path, capsys):
    # an --output path that cannot be opened is a usage error, not a traceback
    path = tmp_path / "missing" / "x.json"
    rc, out, err = run(["--output", str(path), "bound", "phi", "--p", "2", "--eps", "0.1"],
                       capsys)
    assert rc == 1 and out == ""
    assert err.startswith("synhash: error: ") and "No such file" in err
    assert not path.exists()


_Q_BOUNDS = [name for name, (flags, _) in BOUNDS.items() if "--q" in flags]


# a valid value of each required bound flag, by flag, else by type
_VALID = {"--delta": "0.25", "--p": "2"}


def _bound_argv(name, **given):
    """bound <name> with the given flag values and a small valid value for
    every other required flag."""
    argv = ["bound", name]
    for flag, keywords in BOUNDS[name][0].items():
        if flag[2:] in given:
            argv += [flag, given[flag[2:]]]
        elif keywords.get("required"):
            argv += [flag, _VALID.get(flag, "2" if keywords["type"] is int else "0.5")]
    return argv


@pytest.mark.parametrize("name", _Q_BOUNDS)
def test_bounds_need_a_field_size_of_at_least_two(name, capsys):
    # q = 1 used to divide by log 1 = 0, or print a value and exit 0
    for q in ("1", "0", "-3"):
        rc, out, err = run(_bound_argv(name, q=q), capsys)
        assert rc == 1 and out == ""
        assert err.startswith(f"synhash: error: field size q must be an integer >= 2, got {q}")
    # the closed forms do not need a prime q
    rc, _, err = run(_bound_argv(name, q="4"), capsys)
    assert rc == 0, err


_FLOAT_FLAGS = [(name, flag) for name, (flags, _) in BOUNDS.items()
                for flag, keywords in flags.items() if keywords.get("type") in (float, _order)]


@pytest.mark.parametrize("name, flag", _FLOAT_FLAGS,
                         ids=[f"{name}-{flag[2:]}" for name, flag in _FLOAT_FLAGS])
def test_bounds_refuse_numbers_that_are_not_finite(name, flag, capsys):
    # a NaN used to pass guards written as eps <= 0 and print nan, and an
    # infinite entropy to end in an OverflowError traceback from math.floor
    assert run(_bound_argv(name), capsys)[0] == 0
    for value in ("nan", "inf"):
        rc, out, err = run(_bound_argv(name, **{flag[2:]: value}), capsys)
        if value == "inf" and BOUNDS[name][0][flag]["type"] is _order:
            assert rc == 0, err  # an infinite order is the min-entropy
            continue
        assert rc == 1 and out == ""
        assert err.startswith("synhash: error: ") and err.count("\n") == 1


_Q_CHECKS = [name for name, (flags, _) in VERIFY_CHECKS.items() if "--q" in flags]


@pytest.mark.parametrize("name", _Q_CHECKS)
def test_verify_checks_need_a_prime_field_before_any_cap(name, capsys):
    # p-balanced and balanced-inequality at q = 1 and clarkson at q = 0 used to
    # end in a ZeroDivisionError traceback, and clarkson ran at q = 4
    flags = {"--n": "2", "--k": "1", "--p": "2", "--d": "1", "--tuple": "1,2"}
    argv = [part for flag, keywords in VERIFY_CHECKS[name][0].items()
            if keywords.get("required") for part in (flag, flags[flag])]
    for q in ("1", "0", "4"):
        rc, out, err = run(["--dense-cap", "0", "--tuple-cap", "0", "--code-cap", "0",
                            "verify", name, "--q", q, *argv], capsys)
        assert (rc, out, err) == (
            1, "", f"synhash: error: field modulus must be a prime integer, got {q}\n")


def test_cap_refusal_exits_two(capsys):
    rc, _, err = run(["--dense-cap", "1000", "smooth", "--n", "12", "--k", "10",
                      "--source", "bernoulli:0.2", "--trials", "5"], capsys)
    assert rc == 2
    assert "refused" in err


@pytest.mark.parametrize("argv", [
    # the random source used to be drawn whole and never admitted, so this
    # ran to the end with 4096 dense entries under a cap of 16
    "smooth --n 12 --k 10 --source random --trials 5",
    # and here 2^22 values were drawn before the check refused them
    "verify projection-identity --n 22 --k 20",
])
def test_random_source_is_admitted_before_it_is_drawn(argv, monkeypatch, capsys):
    monkeypatch.setattr(verify, "_random_pmf", None)  # a draw would raise TypeError
    rc, out, err = run(["--dense-cap", "16", *argv.split()], capsys)
    assert rc == 2 and out == ""
    assert "refused: dense pmf: estimated cost" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["smooth", "--n", "4"])  # missing required flags
    assert exc.value.code == 1
    capsys.readouterr()


def test_negative_control_counts_as_ok(capsys):
    rc, out, _ = run(["verify", "negative-control-overdraw", "--trials", "40"],
                     capsys)
    assert rc == 0
    row = json.loads(out)["results"][0]
    assert row["expected_failure"] is True
    assert row["passed"] is False


def test_collision_needs_order_two(capsys):
    rc, _, err = run(["smooth", "--n", "8", "--k", "6", "--p", "3", "--collision",
                      "--source", "bernoulli:0.2", "--trials", "5"], capsys)
    assert rc == 1
    assert "collision" in err


def test_smooth_and_bucket_pass(capsys):
    rc, out, _ = run(["smooth", "--n", "10", "--k", "8", "--source",
                      "bernoulli:0.2", "--trials", "50"], capsys)
    assert rc == 0
    row = json.loads(out)["results"][0]
    assert row["passed"] is True and row["trials"] == 50
    rc, out, _ = run(["bucket", "--n", "10", "--eps", "0.25", "--source",
                      "flat:8", "--trials", "30"], capsys)
    assert rc == 0
    assert json.loads(out)["results"][0]["parameters"]["m"] == 5


def test_verify_tuple_probability(capsys):
    rc, out, _ = run(["verify", "tuple-probability", "--n", "3", "--k", "1",
                      "--tuple", "3,3"], capsys)
    assert rc == 0
    row = json.loads(out)["results"][0]
    assert row["parameters"]["ensemble_probability"] == "1/7"


def test_suite_quick_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert main(["--output", str(a), "suite", "--quick"]) == 0
    assert main(["--output", str(b), "suite", "--quick"]) == 0
    main(["--seed", "7", "--output", str(c), "suite", "--quick"])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_rm_csv_stable_output(capsys):
    argv = ["--format", "csv", "--stable-output", "rm", "--m-range", "3:5"]
    rc, first, _ = run(argv, capsys)
    assert rc == 0
    lines = first.strip().split("\n")
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("m,n,k,rate,")
    assert len(lines) == 5
    assert all(line.endswith(",0.0") for line in lines[2:])
    rc, second, _ = run(argv, capsys)
    assert first == second


def test_rm_json_m_range(capsys):
    rc, out, _ = run(["rm", "--m-range", "5,3"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["config"]["m_range"] == [5, 3]
    assert [row["m"] for row in data["results"]] == [3, 5]


def test_file_source_roundtrip(tmp_path, capsys):
    path = tmp_path / "source.qpmf"
    raw = np.arange(1.0, 17.0)
    DensePmf(F2, 4, raw / raw.sum()).write_qpmf(path)
    rc, out, _ = run(["smooth", "--n", "4", "--k", "2", "--source",
                      f"file:{path}", "--trials", "20"], capsys)
    assert rc == 0
    assert json.loads(out)["results"][0]["parameters"]["n"] == 4
    # dimension mismatch is a usage problem, not a crash
    rc, _, err = run(["smooth", "--n", "5", "--k", "2", "--source",
                      f"file:{path}", "--trials", "5"], capsys)
    assert rc == 1
    assert "expected" in err


def test_source_grammar(capsys):
    caps = DEFAULT_CAPS
    assert isinstance(parse_source("uniform", F2, 3, 0, caps), DensePmf)
    assert isinstance(parse_source("bernoulli:0.3", F2, 3, 0, caps),
                      ProductBernoulli)
    flat = parse_source("flat:2", F2, 3, 0, caps)
    assert np.count_nonzero(flat.probs) == 4
    point = parse_source("point", F2, 3, 0, caps)
    assert point.probs[0] == 1.0
    with pytest.raises(ValueError, match="q = 2"):
        parse_source("bernoulli:0.3", FieldSpec(3), 2, 0, caps)
    with pytest.raises(ValueError, match="unknown source"):
        parse_source("gaussian", F2, 3, 0, caps)
    rc, _, err = run(["verify", "projection-identity", "--n", "4", "--k", "2",
                      "--q", "3", "--source", "bernoulli:0.2"], capsys)
    assert rc == 1


def test_projection_identity_reports_the_first_order_when_every_order_passes(capsys):
    # at equality the per-order errors are rounding noise, so they pick no order
    rc, out, _ = run(["verify", "projection-identity", "--n", "4", "--k", "2"], capsys)
    assert rc == 0
    result = json.loads(out)["results"][0]
    assert result["passed"]
    assert result["parameters"]["worst_order"] == "2.0"


def test_parser_rejects_flags_after_subcommand_values():
    parser = build_parser()
    args = parser.parse_args(["--seed", "5", "--format", "csv", "suite", "--quick"])
    assert args.seed == 5 and args.command == "suite" and args.quick


def test_empty_monte_carlo_run_is_an_error(capsys):
    rc, _, err = run(["verify", "negative-control-overdraw", "--trials", "0"], capsys)
    assert rc == 1
    assert "trial" in err
    rc, out, err = run(["smooth", "--n", "6", "--k", "4", "--source",
                        "bernoulli:0.2", "--trials", "-3"], capsys)
    assert rc == 1
    assert "trial" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["smooth", "--n", "8", "--k", "6", "--source", "bernoulli:0.2", "--trials", "1"],
    ["bucket", "--n", "10", "--eps", "0.25", "--source", "flat:8", "--trials", "1"],
    ["verify", "proximity", "--n", "3", "--count", "0"],
    ["verify", "clarkson", "--n", "3", "--count", "0"],
])
def test_runs_without_an_error_bar_are_usage_errors(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 1
    assert out == "" and ("trials" in err or "count" in err)


@pytest.mark.parametrize("flag, argv", [
    ("--dense-cap", ["smooth", "--n", "6", "--k", "4", "--source", "bernoulli:0.2",
                     "--trials", "5"]),
    ("--tuple-cap", ["verify", "balanced-identity", "--n", "3", "--k", "1", "--p", "2"]),
    ("--code-cap", ["verify", "tuple-probability", "--n", "3", "--k", "1",
                    "--tuple", "3,5"]),
])
def test_zero_cap_refuses_and_negative_cap_is_a_usage_error(flag, argv, capsys):
    rc, _, err = run([flag, "0", *argv], capsys)
    assert rc == 2
    assert "refused" in err
    with pytest.raises(SystemExit) as exc:
        main([flag, "-5", *argv])
    assert exc.value.code == 1
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "verify p-balanced --n 3 --k 5 --p 2",
    "verify balanced-identity --n 3 --k 5 --p 2",
    "verify exact-smoothing --n 3 --k 5 --p 2",
    "verify tuple-probability --n 3 --k 5 --tuple 1,2",
    "verify norm-bound --n -1 --p 2 --d 1",
    "verify p-balanced --n 3 --k 1 --p 0",
    "verify rank-stratified --n 3 --p 2 --d 5",
])
def test_impossible_dimensions_are_usage_errors(argv, capsys):
    # these used to pass over an empty ensemble, die in a traceback or print
    # a numpy broadcast error
    rc, out, err = run(argv.split(), capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("synhash: error: need ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    ("--code-cap 1 verify p-balanced --n 3 --k 1 --p 0",
     "need n >= 0 and p >= 1, got n=3, p=0"),
    ("--code-cap 1 verify balanced-identity --n 3 --k 1 --p 0",
     "need n >= 0 and p >= 1, got n=3, p=0"),
    ("--code-cap 1 verify exact-smoothing --n 8 --k 4 --p 1 --source uniform",
     "integer order p >= 2 required, got 1"),
    ("--dense-cap 10 smooth --n 10 --k 8 --p 0 --source bernoulli:0.2 --trials 50",
     "order must be positive, got 0.0"),
    # the random source used to be admitted first
    ("--dense-cap 1 smooth --n 4 --k 9 --source random --trials 5",
     "need 0 <= k <= n, got k=9, n=4"),
    # the source used to be built and refused by --dense-cap first
    ("--dense-cap 1 verify exact-smoothing --n 8 --k 4 --p 1 --source uniform",
     "integer order p >= 2 required, got 1"),
    ("--dense-cap 1 verify exact-smoothing --n 8 --k 9 --p 2 --source uniform",
     "need 0 <= k <= n, got k=9, n=8"),
    ("--dense-cap 1 verify rank-stratified --n 3 --p 2 --d 5 --source uniform",
     "need 0 <= d <= min(n, p), got d=5"),
    ("--dense-cap 1 verify rank-stratified --n 3 --p 0 --d 0 --source uniform",
     "need n >= 0 and p >= 1, got n=3, p=0"),
])
def test_usage_errors_come_before_refusals(argv, message, capsys):
    # these were refused by the cap (exit 2); without a cap the exact-smoothing
    # case convolved every [8, 4]_2 code before its order error
    rc, out, err = run(argv.split(), capsys)
    assert (rc, out, err) == (1, "", f"synhash: error: {message}\n")


@pytest.mark.parametrize("argv", [
    "verify clarkson --n 4 --orders 2,inf",
    "verify clarkson --n 4 --orders inf",
    "verify proximity --n 4 --orders 2,inf",
    "verify proximity --n 4 --orders 1,2",
])
def test_conversion_checks_refuse_orders_outside_the_finite_range(argv, capsys):
    # clarkson used to pass --orders 2,inf without checking inf, and to fail
    # --orders inf with nan sides
    rc, out, err = run(argv.split(), capsys)
    assert rc == 1 and out == ""
    assert err.startswith("synhash: error: orders must be finite and exceed 1, got ")


def test_tuple_probability_enumerates_no_iid_parity_checks(capsys):
    # the iid probability is z^m / q^{mn} off the tuple's rank, so no cap on the
    # 3^15 iid parity checks applies (it used to refuse with exit 2)
    rc, out, err = run(["verify", "tuple-probability", "--n", "5", "--k", "2", "--q", "3",
                        "--tuple", "1,2,7"], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["results"][0]["parameters"]["iid_equality"] is True


def test_tuple_index_past_the_index_arithmetic_is_a_usage_error(capsys):
    # 2^70 - 1 is a valid index of F_2^70, but past int64: this used to end in
    # an OverflowError traceback when the tuple was stored as an int64 array
    argv = ("--dense-cap 1000000000000000000000000000 verify tuple-probability "
            "--n 70 --k 70 --tuple 1180591620717411303423,2").split()
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (1, "")
    assert err == "synhash: error: q**n = 2**70 does not fit the index arithmetic\n"


@pytest.mark.parametrize("argv", [
    "--dense-cap 16 verify clarkson --n 10 --count 3",
    "verify clarkson --n 40 --count 1",
])
def test_clarkson_obeys_the_dense_cap(argv, capsys):
    # the first ran to the end past the cap, the second ended in a numpy
    # _ArrayMemoryError traceback
    rc, out, err = run(argv.split(), capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("synhash: refused: dense pmf: ") and err.count("\n") == 1


def test_a_refused_cost_too_long_to_print_is_named_by_its_magnitude(capsys):
    # (2^100000)^2 * 100000 has 60212 digits, past Python's limit on the
    # digits an int prints: this used to be a usage error (exit 1)
    rc, out, err = run("verify norm-bound --n 100000 --p 2 --d 1".split(), capsys)
    assert (rc, out) == (2, "")
    assert err == ("synhash: refused: tuple rank stratification: estimated cost "
                   "at least 2^200016 exceeds cap 100000000\n")


def test_rm_reports_a_row_refused_before_its_code_is_built(monkeypatch, capsys):
    # np.arange(2^30) in the Reed-Muller generator used to end in a traceback
    monkeypatch.setattr("synhash.rm_lab.rm_parity_check", _fail)
    rc, out, err = run(["rm", "--m-range", "30"], capsys)
    assert (rc, err) == (0, "")
    row = json.loads(out)["results"][0]
    assert (row["m"], row["n"], row["divergence"]) == (30, 1 << 30, "nan")


def _fail(*args, **kwargs):
    raise AssertionError("the refused work was started")


@pytest.mark.parametrize("check", ["balanced-identity", "p-balanced", "exact-smoothing"])
def test_code_cap_bounds_the_enumerated_ensemble(check, capsys):
    # [3, 1]_2 has 7 codes: a cap of 6 refuses them, a cap of 7 admits them
    argv = ["verify", check, "--n", "3", "--k", "1", "--p", "2"]
    rc, out, err = run(["--code-cap", "6", *argv], capsys)
    assert rc == 2 and out == ""
    assert err == "synhash: refused: code enumeration: estimated cost 7 exceeds cap 6\n"
    assert run(["--code-cap", "7", *argv], capsys)[0] == 0


# sha1 of the --format csv stdout, recorded before tuple ranks and containment
# were read from index tables (the exact-smoothing rows: before the codes of
# an ensemble were convolved as one stack; the tuple-probability rows: while
# the iid parity checks were still counted over all q^{(n-k)n} matrices)
@pytest.mark.parametrize("argv, digest", [
    ("verify p-balanced --n 4 --k 2 --p 3", "58dd4d871c8f6f17df9c3572fbd044f283fdd7a2"),
    ("verify p-balanced --n 5 --k 2 --p 3", "17ef38272a16157f1d07fc63777c5de295ff371b"),
    ("verify balanced-identity --n 3 --k 1 --q 3 --p 2",
     "b5826a6c03464c82b2b60c7f02b04d925efeb488"),
    ("verify balanced-inequality --n 4 --k 2 --p 3", "bcda09d7b258cad73d5a7de145809f7e883250e7"),
    ("verify norm-bound --n 3 --p 3 --d 2", "fb3baad2983cebde66a087ec14459489ca429bc7"),
    ("verify rank-stratified --n 2 --q 3 --p 3 --d 2",
     "7d72062f03a47ad518e1742d8f3ea711ae567dbe"),
    ("verify exact-smoothing --n 4 --k 2 --p 3", "fa6bd95242a25c30d257e64963accbae1c8d57ba"),
    ("verify exact-smoothing --n 3 --k 1 --q 3 --p 2",
     "0111b631f8ad6085f1a940dcb5b17ac061b3ac72"),
    ("--code-cap 14348907 verify tuple-probability --n 5 --k 2 --q 3 --tuple 1,2,7",
     "e374f5a33bb918962d06f7019216a6b0b274a7b8"),
    ("verify tuple-probability --n 4 --k 1 --tuple 0,0", "ad5d97beb140754b233366eec0fb68520db1eb68"),
])
def test_exact_checks_are_pinned(argv, digest, capsys):
    rc, out, _ = run(["--format", "csv", *argv.split()], capsys)
    assert rc == 0
    assert hashlib.sha1(out.encode()).hexdigest() == digest


# sha1 of the --stable-output --format csv stdout, recorded before the
# proximity and Clarkson checks scored their draws as one table, before the
# Reed-Muller divergences of c09 were taken for all orders at once, before
# the tuple ranks of c03 were read from one zero count (the rm rows: before
# orders were plain floats and the rm CSV cells came from the row's fields)
@pytest.mark.parametrize("argv, digest", [
    ("suite", "3d7c407ae57b9e9a25fd37d46e948ce439de5dc8"),
    ("suite --quick", "99bbc787034044b294792d89bdc14be232408fb6"),
    ("--seed 7 suite", "3b7cd4615cab8cab8c611a73a7cf7b3c3e2ded83"),
    ("--seed 7 suite --quick", "077bb5ca0b3d9097874e638858c715d01a68733c"),
    ("verify proximity --n 5 --count 200", "594394214695cc8b31e92b023aa50186919286ef"),
    ("verify clarkson --n 5 --count 200", "db461440accb602c5e66bf6ffa617a00848aa3e1"),
    ("--seed 7 verify proximity --n 5 --count 200", "eb22bbe8c75dff1eb744cb80c80eb28bbcced277"),
    ("--seed 7 verify clarkson --n 5 --count 200", "5c18df63c755b7de76a98139f87230a847641af6"),
    ("rm --m-range 4:12", "0ad60c6111576f36e1d6b4e8c03e5a888fbbdc60"),
    ("rm --m-range 2:6 --method dense --p inf", "3841889fba86695525037907ae53ba327af855f0"),
])
def test_suite_and_draw_checks_are_pinned(argv, digest, capsys):
    rc, out, _ = run(["--stable-output", "--format", "csv", *argv.split()], capsys)
    assert rc == 0
    assert hashlib.sha1(out.encode()).hexdigest() == digest


SEED = 5

# the argv path of a command -> (its flags at a small size, the direct library call)
CLI_CASES = {
    ("verify", "p-balanced"): (
        "--n 3 --k 1 --p 2", lambda: verify.check_p_balanced(3, 1, 2, 2)),
    ("verify", "balanced-identity"): (
        "--n 3 --k 1 --p 2", lambda: verify.check_balanced_identity(3, 1, 2, 2, f_seed=SEED)),
    ("verify", "balanced-inequality"): (
        "--n 3 --k 1 --q 3 --p 2",
        lambda: verify.check_balanced_inequality(3, 1, 3, 2, f_seed=SEED)),
    ("verify", "tuple-probability"): (
        "--n 3 --k 1 --tuple 3,5", lambda: verify.check_tuple_probability(3, 1, 2, [3, 5])),
    ("verify", "norm-bound"): (
        "--n 3 --p 2 --d 1", lambda: verify.check_norm_bound_lemma(3, 2, 2, 1, f_seed=SEED)),
    ("verify", "rearrangement"): (
        "--n 3 --p 3 --d 2", lambda: verify.check_rearrangement_lemma(3, 2, 3, 2, seed=SEED)),
    ("verify", "projection-identity"): (
        "--n 4 --k 2 --orders 1.5,inf",
        lambda: verify.check_projection_identity(
            sample_uniform_code(CodeEnsembleSpec(F2, 4, 2, SEED), 0),
            parse_source("random", F2, 4, SEED, DEFAULT_CAPS), [1.5, math.inf])),
    ("verify", "rank-stratified"): (
        "--n 3 --p 2 --d 2 --source bernoulli:0.2",
        lambda: verify.check_rank_stratified(ProductBernoulli(0.2, 3).to_dense(), 2, 2)),
    ("verify", "exact-smoothing"): (
        "--n 4 --k 2 --p 3 --source flat:2",
        lambda: verify.exact_expected_smoothness(4, 2, 2, 3, DensePmf.flat(F2, 4, 4))),
    ("verify", "proximity"): (
        "--n 3 --q 3 --count 5",
        lambda: verify.check_proximity_conversions(3, 3, 5, [1.5, 2.0, 3.0], seed=SEED)),
    ("verify", "clarkson"): (
        "--n 3 --count 5 --orders 1.5,4",
        lambda: verify.check_clarkson(2, 3, 5, [1.5, 4.0], seed=SEED)),
    ("verify", "negative-control-unbalanced"): (
        "", verify.negative_control_unbalanced),
    ("verify", "negative-control-overdraw"): (
        "--trials 30", lambda: verify.negative_control_overdraw(30, seed=SEED)),
    ("bound", "phi"): ("--p 1.5 --eps 0.5", lambda: bounds.phi(1.5, 0.5)),
    ("bound", "smoothing-rhs"): (
        "--n 8 --k 4 --q 2 --p 2 --Hp 6.5", lambda: bounds.smoothing_bound_rhs(8, 4, 2, 2, 6.5)),
    ("bound", "nonlinear-rhs"): (
        "--n 8 --k 4 --q 2 --p 3 --Hp 6.5", lambda: bounds.nonlinear_bound_rhs(8, 4, 2, 3, 6.5)),
    ("bound", "main-guarantee"): (
        "--m 2 --Hp 9 --p 2 --q 3 --eps 0.1", lambda: bounds.main_guarantee(2, 9.0, 2, 3, 0.1)),
    ("bound", "max-output"): (
        "--Hp 20 --p 2 --q 2 --eps 0.01", lambda: bounds.max_output_length(20.0, 2, 2, 0.01)),
    ("bound", "generic-loss"): (
        "--eps 0.01 --p 2 --q 3", lambda: bounds.generic_loss(0.01, 2, 3)),
    ("bound", "corollary"): (
        "--eps 0.5 --p 3 --q 2", lambda: bounds.corollary_bounds(0.5, 3, 2)),
    ("bound", "collision"): (
        "--m 4 --H2 9.5 --q 2", lambda: bounds.collision_bound(4, 9.5, 2)),
    ("bound", "collision-loss"): (
        "--eps 0.1 --q 3", lambda: bounds.collision_loss(0.1, 3)),
    ("bound", "collision-max-output"): (
        "--H2 12 --eps 0.1 --q 2", lambda: bounds.collision_max_output(12.0, 0.1, 2)),
    ("bound", "linf-bucket"): (
        "--n 14 --eps 0.25 --q 2", lambda: bounds.linf_bucket_bound(14, 0.25, 2)),
    ("bound", "two-point-renyi"): (
        "--delta 0.25 --p 3", lambda: bounds.two_point_renyi(0.25, 3.0)),
    ("bound", "rm-threshold"): (
        "--delta 0.25 --p inf --target extraction-rate",
        lambda: bounds.rm_threshold(0.25, math.inf, "extraction-rate")),
    ("smooth",): (
        "--n 6 --k 4 --q 3 --p 3 --source random --trials 20",
        lambda: verify.mc_expected_smoothness(
            CodeEnsembleSpec(FieldSpec(3), 6, 4, SEED),
            parse_source("random", FieldSpec(3), 6, SEED, DEFAULT_CAPS), 3, 20)),
    ("bucket",): (
        "--n 10 --eps 0.25 --source flat:8 --trials 20",
        lambda: verify.mc_bucket_linf(DensePmf.flat(F2, 10, 1 << 8), 0.25, 20, seed=SEED)),
    ("rm",): (
        "--m-range 3,5 --r-rule m-3 --delta 0.1 --p inf --method dense",
        lambda: rm_convergence_run(RmExperimentSpec((3, 5), "m-3", 0.1, math.inf, "dense"),
                                   DEFAULT_CAPS)),
    ("suite",): ("--quick", lambda: run_acceptance(seed=SEED, quick=True)),
}


def _subcommands(parser=None, path=()):
    """The argv path of every command the parser runs, through its groups."""
    parser = parser or build_parser()
    sub = next((action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)), None)
    if sub is None:
        return [path]
    return [leaf for name, child in sub.choices.items()
            for leaf in _subcommands(child, (*path, name))]


def _as_json(obj):
    return json.loads(json.dumps(_sanitize(obj)))


def test_cli_cases_cover_every_table_entry():
    assert set(CLI_CASES) == set(_subcommands())


def _check_rows(results):
    return [{**r.to_json_dict(), "expected_failure": expected_failure(r.name)} for r in results]


@pytest.mark.parametrize("path", _subcommands(), ids="-".join)
def test_every_table_subcommand_runs(path, capsys):
    flags, direct = CLI_CASES[path]
    rc, out, _ = run(["--seed", str(SEED), *path, *flags.split()], capsys)
    assert rc == 0
    rows = json.loads(out)["results"]
    expected = direct()
    if path[0] == "verify":
        assert rows == _as_json(_check_rows([expected]))
    elif path[0] in ("smooth", "bucket") or path[-1] == "main-guarantee":
        assert rows == _as_json([expected.to_json_dict()])
    elif path == ("rm",):
        # every field but the timing
        assert [{**row, "seconds": 0.0} for row in rows] == _as_json(
            [asdict(replace(row, seconds=0.0)) for row in expected])
    elif path == ("suite",):
        assert rows == _as_json([{**row, "ok": row["passed"] != row["expected_failure"]}
                                 for row in _check_rows(expected)])
    else:
        values = expected if path[-1] == "corollary" else (expected,)
        assert [row["value"] for row in rows] == _as_json(list(values))
