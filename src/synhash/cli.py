"""Command line front end.

Exit codes: 0 when every requested check holds (negative controls count as ok
when they fail, since failing is their job), 1 on a failed check or usage
error, 2 when a computation was refused because it exceeds the resource caps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, is_dataclass, replace

import numpy as np

from . import bounds
from .caps import DEFAULT_CAPS, Caps, CapExceeded
from .codes import DEFAULT_SEED, CodeEnsembleSpec, _code_dimensions, sample_uniform_code
from .distributions import DensePmf, ProductBernoulli, Source
from .field import FieldSpec
from .rm_lab import RmExperimentSpec, rm_convergence_run, rows_to_csv
from .suite import expected_failure, run_acceptance
from . import verify

__all__ = ["main", "app", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; code 2 is reserved for cap refusals
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _order(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    return float(text)


def _list_of(parse, what: str):
    """The argparse type of a comma-separated list of parse(part), blank parts skipped."""
    def parse_list(text: str) -> list:
        try:
            return [parse(part) for part in text.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what} list {text!r}") from exc
    return parse_list


def _m_values(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(","))


def parse_source(text: str, field: FieldSpec, n: int, seed: int,
                 caps: Caps) -> Source:
    """uniform | point | random | bernoulli:<delta> | flat:<dims> | file:<path>"""
    if text == "uniform":
        return DensePmf.uniform(field, n, caps)
    if text == "point":
        return DensePmf.point_mass(field, n, caps=caps)
    if text == "random":
        DensePmf._check_size(field.q, n, caps)  # before q^n values are drawn
        return verify._random_pmf(field, n, (seed, 41, field.q, n))
    if text.startswith("bernoulli:"):
        if field.q != 2:
            raise ValueError("bernoulli sources need q = 2")
        return ProductBernoulli(float(text.partition(":")[2]), n)
    if text.startswith("flat:"):
        dims = int(text.partition(":")[2])
        if not 0 <= dims <= n:
            raise ValueError(f"flat source needs 0 <= dims <= {n}")
        return DensePmf.flat(field, n, field.q ** dims, caps)
    if text.startswith("file:"):
        P = DensePmf.read_qpmf(text.partition(":")[2])
        if P.field != field or P.n != n:
            raise ValueError(
                f"file holds a pmf on F_{P.field.q}^{P.n}, expected F_{field.q}^{n}")
        return P
    raise ValueError(f"unknown source {text!r}")


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _dense_source(a, caps: Caps) -> DensePmf:
    return parse_source(a.source, FieldSpec(a.q), a.n, a.seed, caps).to_dense(caps)


# the usage errors that need no source come before the source is built and
# admitted against --dense-cap, a refusal (exit 2)
def _rank_stratified(a, caps: Caps) -> verify.CheckResult:
    verify._stratum(a.n, a.p, a.d)
    return verify.check_rank_stratified(_dense_source(a, caps), a.p, a.d, caps=caps)


def _exact_smoothing(a, caps: Caps) -> verify.CheckResult:
    bounds._integer_order(a.p)
    _code_dimensions(a.n, a.k)
    return verify.exact_expected_smoothness(a.n, a.k, a.q, a.p, _dense_source(a, caps),
                                            caps=caps)


def _projection_identity(a, caps: Caps) -> verify.CheckResult:
    code = sample_uniform_code(CodeEnsembleSpec(FieldSpec(a.q), a.n, a.k, a.seed), 0)
    return verify.check_projection_identity(code, _dense_source(a, caps), a.orders,
                                            caps=caps)


# flag -> add_argument keywords, shared by the command tables below
_INT = {"type": int, "required": True}
_FLOAT = {"type": float, "required": True}
_ORDER = {"type": _order, "required": True}
_Q = {"type": int, "default": 2}
_SOURCE = {"default": "random"}
_ORDERS = _list_of(_order, "order")
_NKQP = {"--n": _INT, "--k": _INT, "--q": _Q, "--p": _INT}
_NQPD = {"--n": _INT, "--q": _Q, "--p": _INT, "--d": _INT}
_NQ_COUNT = {"--n": _INT, "--q": _Q, "--count": {"type": int, "default": 100},
             "--orders": {"type": _ORDERS, "default": [1.5, 2.0, 3.0]}}

# verify check -> (its flags, run(args, caps) -> CheckResult)
VERIFY_CHECKS = {
    "p-balanced": (_NKQP, lambda a, caps: verify.check_p_balanced(
        a.n, a.k, a.q, a.p, caps=caps)),
    "balanced-identity": (_NKQP, lambda a, caps: verify.check_balanced_identity(
        a.n, a.k, a.q, a.p, f_seed=a.seed, caps=caps)),
    "balanced-inequality": (_NKQP, lambda a, caps: verify.check_balanced_inequality(
        a.n, a.k, a.q, a.p, f_seed=a.seed, caps=caps)),
    "tuple-probability": (
        {"--n": _INT, "--k": _INT, "--q": _Q,
         "--tuple": {"type": _list_of(int, "index"), "required": True,
                     "help": "comma-separated vector indices, e.g. 3,7"}},
        lambda a, caps: verify.check_tuple_probability(a.n, a.k, a.q, a.tuple, caps=caps)),
    "norm-bound": (_NQPD, lambda a, caps: verify.check_norm_bound_lemma(
        a.n, a.q, a.p, a.d, f_seed=a.seed, caps=caps)),
    "rearrangement": (_NQPD, lambda a, caps: verify.check_rearrangement_lemma(
        a.n, a.q, a.p, a.d, seed=a.seed, caps=caps)),
    "projection-identity": (
        {"--n": _INT, "--k": _INT, "--q": _Q,
         "--orders": {"type": _ORDERS, "default": [2.0, 3.0, math.inf]},
         "--source": _SOURCE},
        _projection_identity),
    "rank-stratified": ({**_NQPD, "--source": _SOURCE}, _rank_stratified),
    "exact-smoothing": ({**_NKQP, "--source": _SOURCE}, _exact_smoothing),
    "proximity": (_NQ_COUNT, lambda a, caps: verify.check_proximity_conversions(
        a.q, a.n, a.count, a.orders, seed=a.seed, caps=caps)),
    "clarkson": (_NQ_COUNT, lambda a, caps: verify.check_clarkson(
        a.q, a.n, a.count, a.orders, seed=a.seed)),
    "negative-control-unbalanced": (
        {}, lambda a, caps: verify.negative_control_unbalanced(caps=caps)),
    "negative-control-overdraw": (
        {"--trials": {"type": int, "default": 300}},
        lambda a, caps: verify.negative_control_overdraw(a.trials, seed=a.seed,
                                                         caps=caps)),
}

# bound -> (flags, function); the function takes the flag values in flag order,
# and the same values are echoed as the row's inputs
BOUNDS = {
    "phi": ({"--p": _FLOAT, "--eps": _FLOAT}, bounds.phi),
    "smoothing-rhs": ({"--n": _INT, "--k": _INT, "--q": _INT, "--p": _INT, "--Hp": _FLOAT},
                      bounds.smoothing_bound_rhs),
    "nonlinear-rhs": ({"--n": _INT, "--k": _INT, "--q": _INT, "--p": _INT, "--Hp": _FLOAT},
                      bounds.nonlinear_bound_rhs),
    "main-guarantee": ({"--m": _INT, "--Hp": _FLOAT, "--p": _INT, "--q": _INT,
                        "--eps": {"type": float, "default": None}},
                       bounds.main_guarantee),
    "max-output": ({"--Hp": _FLOAT, "--p": _INT, "--q": _INT, "--eps": _FLOAT},
                   bounds.max_output_length),
    "generic-loss": ({"--eps": _FLOAT, "--p": _INT, "--q": _INT}, bounds.generic_loss),
    "corollary": ({"--eps": _FLOAT, "--p": _INT, "--q": _INT}, bounds.corollary_bounds),
    "collision": ({"--m": _INT, "--H2": _FLOAT, "--q": _INT}, bounds.collision_bound),
    "collision-loss": ({"--eps": _FLOAT, "--q": _INT}, bounds.collision_loss),
    "collision-max-output": ({"--H2": _FLOAT, "--eps": _FLOAT, "--q": _INT},
                             bounds.collision_max_output),
    "linf-bucket": ({"--n": _INT, "--eps": _FLOAT, "--q": _INT}, bounds.linf_bucket_bound),
    "two-point-renyi": ({"--delta": _FLOAT, "--p": _ORDER}, bounds.two_point_renyi),
    "rm-threshold": ({"--delta": _FLOAT, "--p": _ORDER,
                      "--target": {"choices": ("smoothing-rate", "extraction-rate"),
                                   "default": "smoothing-rate"}},
                     bounds.rm_threshold),
}


def _verify(a, caps: Caps) -> tuple[list[dict], bool]:
    row, ok = _check_row(VERIFY_CHECKS[a.check][1](a, caps))
    return [row], ok


def _bound(a, caps: Caps) -> tuple[list[dict], bool]:
    flags, fn = BOUNDS[a.name]
    inputs = {flag[2:]: getattr(a, flag[2:]) for flag in flags}
    value = fn(*inputs.values())
    if a.name == "main-guarantee":
        return [value.to_json_dict()], True
    named = (zip(("corollary-divergence", "corollary-distance"), value)
             if a.name == "corollary" else [(a.name, value)])
    return [{"name": name, "inputs": inputs, "value": v} for name, v in named], True


def _smooth(a, caps: Caps) -> tuple[list[dict], bool]:
    # a dimension error is a usage error, before the source is admitted against --dense-cap
    spec = CodeEnsembleSpec(FieldSpec(a.q), a.n, a.k, a.seed)
    source = parse_source(a.source, spec.field, a.n, a.seed, caps)
    res = verify.mc_expected_smoothness(spec, source, a.p, a.trials, collision=a.collision,
                                        caps=caps)
    return [res.to_json_dict()], res.passed


def _bucket(a, caps: Caps) -> tuple[list[dict], bool]:
    source = parse_source(a.source, FieldSpec(a.q), a.n, a.seed, caps)
    res = verify.mc_bucket_linf(source, a.eps, a.trials, seed=a.seed, caps=caps)
    return [res.to_json_dict()], res.passed


def _rm(a, caps: Caps) -> tuple[list, bool]:
    rows = rm_convergence_run(RmExperimentSpec(a.m_range, a.r_rule, a.delta, a.p, a.method),
                              caps)
    if a.stable_output:
        rows = [replace(r, seconds=0.0) for r in rows]
    return rows, True


def _suite(a, caps: Caps) -> tuple[list[dict], bool]:
    checked = map(_check_row, run_acceptance(seed=a.seed, caps=caps, quick=a.quick))
    rows = [{**row, "ok": ok} for row, ok in checked]
    return rows, all(row["ok"] for row in rows)


# command -> (its flags, run(args, caps) -> (rows, ok), help); a group's flags
# are (dest, table), one subcommand per entry of the table
COMMANDS = {
    "verify": (("check", VERIFY_CHECKS), _verify, "run one verification check"),
    "bound": (("name", BOUNDS), _bound, "evaluate a closed-form bound"),
    "smooth": ({"--n": _INT, "--k": _INT, "--q": _Q, "--p": {"type": int, "default": 2},
                "--source": {"required": True}, "--trials": {"type": int, "default": 1000},
                "--collision": {"action": "store_true",
                                "help": "test the sharper squared-norm bound (p = 2)"}},
               _smooth, "Monte Carlo syndrome smoothness"),
    "bucket": ({"--n": _INT, "--q": _Q, "--eps": _FLOAT, "--source": {"required": True},
                "--trials": {"type": int, "default": 1000}},
               _bucket, "Monte Carlo max bucket load"),
    "rm": ({"--m-range": {"type": _m_values, "required": True,
                          "help": "4:10 or a comma list like 4,6,8"},
            "--r-rule": {"default": "m-2"}, "--delta": {"type": float, "default": 0.25},
            "--p": {"type": _order, "default": 2.0},
            "--method": {"choices": ("dense", "dual-character"), "default": "dual-character"}},
           _rm, "Reed-Muller syndrome convergence sweep"),
    "suite": ({"--quick": {"action": "store_true"}}, _suite,
              "run the whole acceptance battery"),
}


def _add_table(sub, table: dict) -> None:
    """One subparser per table entry, with the entry's help if it has one.  A
    group entry, whose flags are (dest, table), gets subcommands of its own;
    any other entry takes its flags."""
    for name, (flags, *rest) in table.items():
        # a check or bound has no help: help=None would still list it in the group's help
        parser = sub.add_parser(name, **({"help": rest[1]} if len(rest) > 1 else {}))
        if isinstance(flags, tuple):
            dest, group = flags
            _add_table(parser.add_subparsers(dest=dest, required=True, parser_class=_Parser),
                       group)
        else:
            for flag, keywords in flags.items():
                parser.add_argument(flag, **keywords)


def build_parser() -> _Parser:
    main = _Parser(prog="synhash",
                   description="Syndrome hashing as a randomness extractor: "
                               "measures, bounds, and verification.")
    main.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help="master seed for all sampling (default 0x%X)" % DEFAULT_SEED)
    main.add_argument("--format", choices=("json", "csv"), default="json")
    main.add_argument("--output", default=None, help="write here instead of stdout")
    main.add_argument("--stable-output", action="store_true",
                      help="zero timing fields so reruns are byte-identical")
    main.add_argument("--dense-cap", type=_nonneg_int, default=None,
                      help="max dense pmf entries (default %d)" % DEFAULT_CAPS.dense_pmf_entries)
    main.add_argument("--tuple-cap", type=_nonneg_int, default=None)
    main.add_argument("--code-cap", type=_nonneg_int, default=None)
    _add_table(main.add_subparsers(dest="command", required=True, parser_class=_Parser),
               COMMANDS)
    return main


def _caps_from(args) -> Caps:
    given = {"dense_pmf_entries": args.dense_cap, "tuple_products": args.tuple_cap,
             "code_enumeration": args.code_cap}
    return replace(DEFAULT_CAPS, **{k: v for k, v in given.items() if v is not None})


def _sanitize(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, np.floating):
        return _sanitize(float(obj))
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if is_dataclass(obj):
        return _sanitize(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _check_row(res: verify.CheckResult) -> tuple[dict, bool]:
    """The output row of a check, and whether it counts as ok: negative
    controls are ok when they fail."""
    row = res.to_json_dict()
    row["expected_failure"] = expected_failure(res.name)
    return row, res.passed == (not row["expected_failure"])


def _format(command: str, rows: list, config: dict, fmt: str) -> str:
    """The config and rows as JSON, or as CSV under a config comment line: the
    rm sweep's own columns, else one line per check or bound."""
    if fmt == "json":
        return json.dumps(_sanitize({"config": config, "results": rows}),
                          indent=2, sort_keys=True) + "\n"
    lines = ["# config: " + json.dumps(_sanitize(config), sort_keys=True)]
    if command == "rm":
        return lines[0] + "\n" + rows_to_csv(rows)
    lines.append("name,params,lhs,rhs,slack,passed,trials,seed")
    for row in rows:
        params = json.dumps(_sanitize(row.get("parameters", row.get("inputs", {}))),
                            sort_keys=True, separators=(",", ":"))
        def cell(key):
            v = row.get(key)
            if v is None:
                return ""
            if isinstance(v, bool):
                return str(v).lower()
            return repr(v) if isinstance(v, float) else str(v)
        lines.append(",".join([
            row["name"], '"' + params.replace('"', '""') + '"',
            cell("lhs") or cell("value"), cell("rhs"), cell("slack"),
            cell("passed"), cell("trials"), cell("seed")]))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "output"}
    try:
        rows, ok = COMMANDS[args.command][1](args, _caps_from(args))
        text = _format(args.command, rows, config, args.format)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except CapExceeded as exc:
        print(f"synhash: refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"synhash: error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
