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
from dataclasses import asdict, replace

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


def _index_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}") from exc


def _order_list(text: str) -> list[float]:
    try:
        return [_order(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}") from exc


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
        DensePmf._check_size(field, n, caps)  # before q^n values are drawn
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
_NKQP = {"--n": _INT, "--k": _INT, "--q": _Q, "--p": _INT}
_NQPD = {"--n": _INT, "--q": _Q, "--p": _INT, "--d": _INT}
_NQ_COUNT = {"--n": _INT, "--q": _Q, "--count": {"type": int, "default": 100},
             "--orders": {"type": _order_list, "default": [1.5, 2.0, 3.0]}}

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
         "--tuple": {"type": _index_list, "required": True,
                     "help": "comma-separated vector indices, e.g. 3,7"}},
        lambda a, caps: verify.check_tuple_probability(a.n, a.k, a.q, a.tuple, caps=caps)),
    "norm-bound": (_NQPD, lambda a, caps: verify.check_norm_bound_lemma(
        a.n, a.q, a.p, a.d, f_seed=a.seed, caps=caps)),
    "rearrangement": (_NQPD, lambda a, caps: verify.check_rearrangement_lemma(
        a.n, a.q, a.p, a.d, seed=a.seed, caps=caps)),
    "projection-identity": (
        {"--n": _INT, "--k": _INT, "--q": _Q,
         "--orders": {"type": _order_list, "default": [2.0, 3.0, math.inf]},
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


def _add_table(sub, table: dict) -> None:
    """One subparser per table entry, taking the entry's flags."""
    for name, (flags, _) in table.items():
        parser = sub.add_parser(name)
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
    sub = main.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ver = sub.add_parser("verify", help="run one verification check")
    _add_table(ver.add_subparsers(dest="check", required=True, parser_class=_Parser),
               VERIFY_CHECKS)
    bnd = sub.add_parser("bound", help="evaluate a closed-form bound")
    _add_table(bnd.add_subparsers(dest="name", required=True, parser_class=_Parser),
               BOUNDS)

    sm = sub.add_parser("smooth", help="Monte Carlo syndrome smoothness")
    sm.add_argument("--n", type=int, required=True)
    sm.add_argument("--k", type=int, required=True)
    sm.add_argument("--q", type=int, default=2)
    sm.add_argument("--p", type=int, default=2)
    sm.add_argument("--source", required=True)
    sm.add_argument("--trials", type=int, default=1000)
    sm.add_argument("--collision", action="store_true",
                    help="test the sharper squared-norm bound (p = 2)")

    bk = sub.add_parser("bucket", help="Monte Carlo max bucket load")
    bk.add_argument("--n", type=int, required=True)
    bk.add_argument("--q", type=int, default=2)
    bk.add_argument("--eps", type=float, required=True)
    bk.add_argument("--source", required=True)
    bk.add_argument("--trials", type=int, default=1000)

    rm = sub.add_parser("rm", help="Reed-Muller syndrome convergence sweep")
    rm.add_argument("--m-range", type=_m_values, required=True,
                    help="4:10 or a comma list like 4,6,8")
    rm.add_argument("--r-rule", default="m-2")
    rm.add_argument("--delta", type=float, default=0.25)
    rm.add_argument("--p", type=_order, default=2.0)
    rm.add_argument("--method", choices=("dense", "dual-character"),
                    default="dual-character")

    st = sub.add_parser("suite", help="run the whole acceptance battery")
    st.add_argument("--quick", action="store_true")
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
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _value_result(name: str, value, inputs: dict) -> dict:
    return {"name": name, "inputs": inputs, "value": value}


def _check_row(res: verify.CheckResult) -> tuple[dict, bool]:
    """The output row of a check, and whether it counts as ok: negative
    controls are ok when they fail."""
    row = res.to_json_dict()
    row["expected_failure"] = expected_failure(res.name)
    return row, res.passed == (not row["expected_failure"])


def _run_bound(args) -> list[dict]:
    flags, fn = BOUNDS[args.name]
    inputs = {flag[2:]: getattr(args, flag[2:]) for flag in flags}
    value = fn(*inputs.values())
    if args.name == "main-guarantee":
        return [value.to_json_dict()]
    if args.name == "corollary":
        return [_value_result("corollary-divergence", value[0], inputs),
                _value_result("corollary-distance", value[1], inputs)]
    return [_value_result(args.name, value, inputs)]


def _format_checks(rows: list[dict], config: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_sanitize({"config": config, "results": rows}),
                          indent=2, sort_keys=True) + "\n"
    lines = ["# config: " + json.dumps(_sanitize(config), sort_keys=True)]
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
    parser = build_parser()
    args = parser.parse_args(argv)
    caps = _caps_from(args)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "output"}
    if isinstance(config.get("m_range"), tuple):
        config["m_range"] = list(config["m_range"])
    try:
        ok = True
        if args.command == "verify":
            row, ok = _check_row(VERIFY_CHECKS[args.check][1](args, caps))
            text = _format_checks([row], config, args.format)
        elif args.command == "bound":
            rows = _run_bound(args)
            text = _format_checks(rows, config, args.format)
        elif args.command == "smooth":
            field = FieldSpec(args.q)
            source = parse_source(args.source, field, args.n, args.seed, caps)
            spec = CodeEnsembleSpec(field, args.n, args.k, args.seed)
            res = verify.mc_expected_smoothness(spec, source, args.p, args.trials,
                                                collision=args.collision, caps=caps)
            ok = res.passed
            text = _format_checks([res.to_json_dict()], config, args.format)
        elif args.command == "bucket":
            field = FieldSpec(args.q)
            source = parse_source(args.source, field, args.n, args.seed, caps)
            res = verify.mc_bucket_linf(source, args.eps, args.trials,
                                        seed=args.seed, caps=caps)
            ok = res.passed
            text = _format_checks([res.to_json_dict()], config, args.format)
        elif args.command == "rm":
            spec = RmExperimentSpec(m_values=args.m_range, r_rule=args.r_rule,
                                    delta=args.delta, p=args.p, method=args.method)
            rows = rm_convergence_run(spec, caps)
            if args.stable_output:
                rows = [replace(r, seconds=0.0) for r in rows]
            if args.format == "csv":
                text = "# config: " + json.dumps(_sanitize(config), sort_keys=True) \
                    + "\n" + rows_to_csv(rows)
            else:
                text = json.dumps(_sanitize({"config": config,
                                             "results": [asdict(r) for r in rows]}),
                                  indent=2, sort_keys=True) + "\n"
        elif args.command == "suite":
            results = run_acceptance(seed=args.seed, caps=caps, quick=args.quick)
            rows = []
            for res in results:
                row, row_ok = _check_row(res)
                row["ok"] = row_ok
                ok = ok and row_ok
                rows.append(row)
            text = _format_checks(rows, config, args.format)
        else:  # pragma: no cover
            raise ValueError(f"unknown command {args.command!r}")
    except CapExceeded as exc:
        print(f"synhash: refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"synhash: error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
