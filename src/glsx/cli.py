"""Command-line front end.

Every subcommand writes a report file embedding the fully resolved
configuration (grids, seeds, tolerances), so a run is reproducible from its
report alone.  Exit codes: 0 when every asserted inequality passed, 1 on an
inequality violation (the violating witness is serialized in the report),
2 on malformed input.  Reports contain no timestamps and serialize with
sorted keys: the same configuration and seed produce byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from .fenchel import tail_bound_check
from .genfun import ExponentInterval, generating_function_from_spec
from .gls import default_grid, exponent_grid, fundamental_function, gls_norm
from .magic import (check_super_exact, entries_from_spec, make_doubly_even,
                    make_siamese, make_uniform_magic, square_from_spec,
                    square_to_spec, validate_magic)
from .measure import INFINITY, load_grid_function
from .mri import mri_norm_from_spec, supp_ordering, verify_theorem2
from .opnorm import (OperatorBoundCertificate, check_sigma_condition,
                     minimal_constant, op_norm_lower, op_norm_oracle,
                     operator_from_spec, verify_theorem1)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2

#: options several commands share: each command declares those it reads, every
#: command takes --output and --format, and a config records all but --output
_SHARED = {
    "seed": dict(type=int, default=0),
    "grid_points": dict(type=int, default=256),
    "samples": dict(type=int, default=1000),
    "tolerance": dict(type=float, default=None,
                      help="relative tolerance override for asserted inequalities"),
    "output": dict(default=None, help="report file path"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def _parse_exponent(token: str) -> float:
    token = token.strip().lower()
    if token in ("inf", "infinity", "oo"):
        return INFINITY
    if token == "e":
        return math.e
    return float(token)


def _parse_pair(text: str, option: str) -> tuple:
    """Two exponents ``a:b``; a malformed pair is an error naming ``option``."""
    try:
        a, b = text.split(":")
        return (_parse_exponent(a), _parse_exponent(b))
    except ValueError:
        raise ValueError(f"{option} takes exponents as a:b, got {text!r}") from None


def _parse_interval(text: str, option: str) -> ExponentInterval:
    """An exponent interval ``a:b`` with ``1 <= a < b``; else an error naming ``option``."""
    try:
        return ExponentInterval(*_parse_pair(text, option))
    except ValueError as exc:
        raise ValueError(f"{option} {text!r}: {exc}") from None


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        d = asdict(obj)
        d.pop("psi", None)  # function objects are echoed via their specs
        d.pop("grid", None)
        return _jsonable(d)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return None
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _load_json(path: str) -> dict:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _report(args, report: dict, table, line: str | None = None, ok: bool = True) -> int:
    """Write ``report`` to its file, print one line and return the exit code.

    JSON holds the whole report.  CSV holds ``table``, the report's rows or
    its single result row, with the scalar fields only: lists such as
    witnesses, violations and grids appear only in the JSON.  Without
    ``line`` the result row is printed as JSON; with it, ``line`` and the
    file name.  ``ok`` is false on an inequality violation.
    """
    out = args.output or f"glsx-{args.command}.{args.format}"
    if args.format == "json":
        payload = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    else:
        rows = [{k: v for k, v in _jsonable(row).items() if not isinstance(v, (list, dict))}
                for row in ([table] if isinstance(table, dict) else table)]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    print(json.dumps(_jsonable(table), sort_keys=True) if line is None else f"{line} -> {out}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _config_dict(args, **extra) -> dict:
    shared = {k: getattr(args, k) for k in _SHARED if k != "output" and hasattr(args, k)}
    return {"subcommand": args.command, **shared, **extra}


def _cmd_gls_norm(args) -> int:
    f = load_grid_function(args.function)
    psi = generating_function_from_spec(_load_json(args.psi))
    grid = default_grid(psi, n_points=args.grid_points)
    res = gls_norm(f, psi, grid)
    result = {"norm": res.value, "argmax_p": res.argmax_p,
              "endpoint_flag": res.endpoint_flag}
    report = {"config": _config_dict(args, function=args.function, psi=psi.to_spec(),
                                     grid=[float(p) for p in grid.points]),
              "result": result}
    return _report(args, report, result)


def _cmd_fundamental(args) -> int:
    psi = generating_function_from_spec(_load_json(args.psi))
    grid = default_grid(psi, n_points=args.grid_points)
    res = fundamental_function(psi, args.delta, grid)
    result = {"value": res.value, "argmax_p": res.argmax_p,
              "endpoint_flag": res.endpoint_flag, "delta": args.delta}
    report = {"config": _config_dict(args, psi=psi.to_spec(), delta=args.delta),
              "result": result}
    return _report(args, report, result)


def _cmd_fenchel_tail(args) -> int:
    f = load_grid_function(args.function)
    psi = generating_function_from_spec(_load_json(args.psi))
    grid = default_grid(psi, n_points=args.grid_points)
    tol = args.tolerance if args.tolerance is not None else 1e-9
    if args.normalize:
        nrm = gls_norm(f, psi, grid).value
        if nrm <= 0.0:
            raise ValueError("cannot normalize the zero function")
        f = f.scaled(1.0 / nrm)
    ts = [_parse_exponent(tok) for tok in args.t.split(",")]
    rep = tail_bound_check(f, psi, ts, grid, tol=tol)
    rows = [{"t": r.t, "tail": r.tail, "bound": r.bound, "ok": r.ok} for r in rep.rows]
    report = {"config": _config_dict(args, function=args.function, psi=psi.to_spec(),
                                     t=ts, normalize=args.normalize),
              "norm": rep.norm, "rows": rows, "all_ok": rep.all_ok}
    return _report(args, report, rows, ok=rep.all_ok,
                   line=f"tail bound check: {'ok' if rep.all_ok else 'VIOLATED'}")


def _cmd_opnorm(args) -> int:
    A = operator_from_spec(_load_json(args.matrix))
    q = _parse_exponent(args.q)
    p = _parse_exponent(args.p)
    if args.oracle:
        value = op_norm_oracle(A, q, p, resolution=args.resolution)
        result = {"value": value, "method": "oracle", "q": q, "p": p}
    else:
        res = op_norm_lower(A, q, p, restarts=args.restarts, seed=args.seed)
        result = {"value": res.value, "method": "closed-form" if res.exact else "ascent",
                  "q": q, "p": p,
                  "witness": [float(x) for x in res.witness.values]}
    report = {"config": _config_dict(args, matrix=args.matrix, oracle=args.oracle,
                                     restarts=args.restarts, resolution=args.resolution),
              "result": result}
    return _report(args, report, result)


def _cmd_minimal_constant(args) -> int:
    A = operator_from_spec(_load_json(args.matrix))
    P = _parse_interval(args.p_interval, "--p-interval")
    Q = _parse_interval(args.q_interval, "--q-interval")
    p_pts = exponent_grid(P.a, P.b, args.grid_points)
    q_pts = exponent_grid(Q.a, Q.b, args.grid_points)
    res = minimal_constant(A, args.sigma, p_pts, q_pts,
                           samples=args.samples, seed=args.seed)
    result = {"cbar": res.value, "argmax_p": res.argmax_p, "argmax_q": res.argmax_q}
    report = {"config": _config_dict(args, matrix=args.matrix, sigma=args.sigma,
                                     p_points=[float(x) for x in p_pts],
                                     q_points=[float(x) for x in q_pts]),
              "result": result}
    return _report(args, report, result)


def _run_verify(args, A, p_interval, q_interval, p_pts, q_pts, verify,
                label: str, **inputs) -> int:
    """Shared body of the verify commands: the minimal constant, the
    certificate check, then ``verify(cert, cbar, tol)``; one report with the
    full configuration for either outcome."""
    cbar = minimal_constant(A, args.sigma, p_pts, q_pts, samples=args.restarts,
                            seed=args.seed).value
    C = args.c if args.c is not None else cbar * (1.0 + 1e-9)
    cert = OperatorBoundCertificate(args.sigma, C, p_interval, q_interval)
    sig = check_sigma_condition(A, cert, p_pts, q_pts,
                                samples=min(args.samples, 200), seed=args.seed)
    config = _config_dict(args, matrix=args.matrix, sigma=args.sigma, c=args.c,
                          restarts=args.restarts,
                          p_points=[float(x) for x in p_pts],
                          q_points=[float(x) for x in q_pts], **inputs)
    report = {"config": config, "sigma_condition": _jsonable(sig)}
    if not sig.holds:
        return _report(args, report, report["sigma_condition"], ok=False,
                       line=f"certificate check failed (worst ratio {sig.worst_ratio})")
    tol = args.tolerance if args.tolerance is not None else 1e-8
    rep = verify(cert, cbar, tol)
    report["result"] = _jsonable(rep)
    return _report(args, report, report["result"], ok=rep.passed,
                   line=f"{label}: {'ok' if rep.passed else 'VIOLATED'} (max lhs/rhs "
                        f"{rep.max_lhs_rhs_ratio:.6g}, cbar {rep.cbar:.6g})")


def _cmd_verify_theorem1(args) -> int:
    A = operator_from_spec(_load_json(args.matrix))
    psi = generating_function_from_spec(_load_json(args.psi))
    nu = generating_function_from_spec(_load_json(args.nu))
    p_pts = exponent_grid(psi.domain.a, psi.domain.b, args.grid_points)
    q_pts = exponent_grid(nu.domain.a, nu.domain.b, args.grid_points)

    def verify(cert, cbar, tol):
        return verify_theorem1(A, cert, psi, nu, samples=args.samples, seed=args.seed,
                               p_points=p_pts, q_points=q_pts, cbar=cbar, tol=tol)

    return _run_verify(args, A, psi.domain, nu.domain, p_pts, q_pts, verify,
                       "extrapolation inequality", psi=psi.to_spec(), nu=nu.to_spec())


def _cmd_verify_theorem2(args) -> int:
    A = operator_from_spec(_load_json(args.matrix))
    w_spec = _load_json(args.w_norm)
    r_spec = _load_json(args.r_norm)
    W = mri_norm_from_spec(w_spec, grid_points=args.grid_points)
    R = mri_norm_from_spec(r_spec, grid_points=args.grid_points)
    if not supp_ordering(W, R):
        print("warning: moment supports are not ordered (min of W's interval "
              "is below max of R's)", file=sys.stderr)

    def verify(cert, cbar, tol):
        return verify_theorem2(A, cert, W, R, samples=args.samples, seed=args.seed,
                               cbar=cbar, tol=tol)

    # the constant must be computed on the same exponent grids the norms use
    return _run_verify(args, A, W.interval, R.interval, W.grid.points_array,
                       R.grid.points_array, verify, "moment-norm inequality",
                       w_norm=w_spec, r_norm=r_spec)


def _build_square(args):
    if args.matrix:
        given = [f"--{name}" for name in ("order", "kind", "alpha")
                 if getattr(args, name) not in (None, "auto")]
        if given:
            raise ValueError(f"--matrix gives the square; it cannot be combined "
                             f"with {', '.join(given)}")
        return square_from_spec(_load_json(args.matrix))
    n = args.order
    if n is None:
        raise ValueError("either --order or a square JSON file is required")
    if args.kind == "uniform" or (args.kind == "auto" and args.alpha is not None):
        if args.alpha is None:
            raise ValueError("--alpha is required for uniform squares")
        return make_uniform_magic(n, args.alpha)
    if args.kind == "siamese" or (args.kind == "auto" and n % 2 == 1):
        return make_siamese(n)
    if args.kind == "doubly-even" or (args.kind == "auto" and n % 4 == 0):
        return make_doubly_even(n)
    raise ValueError(
        f"no constructor for order {n}: singly even orders are not generated "
        "(supply entries as JSON, or use --kind uniform with --alpha)"
    )


def _cmd_magic(args) -> int:
    if args.validate:
        rep = validate_magic(entries_from_spec(_load_json(args.validate)))
        rows = [{"line": line.label, "sum": line.total, "deviation": line.deviation}
                for line in rep.lines]
        report = {"config": _config_dict(args, validate=args.validate),
                  "ok": rep.ok, "alpha": rep.alpha, "nonnegative": rep.nonnegative,
                  "rows": rows}
        return _report(args, report, rows, ok=rep.ok, line=f"validation "
                       f"{'passed' if rep.ok else 'FAILED'} (alpha {rep.alpha})")
    if args.pairs:
        return _cmd_check_super_exact(args)
    square = _build_square(args)
    out = args.output or f"glsx-magic-{square.n}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(square_to_spec(square), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote order-{square.n} square (alpha {square.alpha}) -> {out}")
    return EXIT_OK


def _cmd_check_super_exact(args) -> int:
    """The convention table of ``check-super-exact`` and ``magic --check-norms``."""
    square = _build_square(args)
    option = "--check-norms" if args.command == "magic" else "--pairs"
    pairs = [_parse_pair(chunk, option) for chunk in args.pairs.split(",")]
    conventions = (("counting", "normalized") if args.convention == "both"
                   else (args.convention,))
    rep = check_super_exact(square, pairs, conventions=conventions,
                            resolution=args.resolution)
    rows = [{"q": r.q, "p": r.p, "convention": r.convention, "ordering": r.ordering,
             "oracle": r.oracle, "formula": r.formula, "rel_gap": r.rel_gap,
             "match": r.match} for r in rep.rows]
    report = {"config": _config_dict(args, matrix=args.matrix, order=args.order,
                                     kind=args.kind, alpha=args.alpha, pairs=pairs,
                                     conventions=conventions, resolution=args.resolution),
              "alpha": rep.alpha, "n": rep.n, "rows": rows,
              "matching_rows": [i for i, r in enumerate(rep.rows) if r.match]}
    return _report(args, report, rows, line=f"{len(rep.matches())} of {len(rep.rows)} "
                   "convention/ordering rows match the closed form")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glsx",
        description="Norms on discrete measure spaces, generating-function "
                    "norms, tail bounds, and operator-norm verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *shared: str) -> None:
        for dest in (*shared, "output", "format"):
            p.add_argument("--" + dest.replace("_", "-"), **_SHARED[dest])

    p = sub.add_parser("gls-norm", help="grand norm of a function")
    p.add_argument("--function", required=True)
    p.add_argument("--psi", required=True)
    common(p, "grid_points")
    p.set_defaults(fn=_cmd_gls_norm)

    p = sub.add_parser("fundamental", help="fundamental function value")
    p.add_argument("--psi", required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p, "grid_points")
    p.set_defaults(fn=_cmd_fundamental)

    p = sub.add_parser("fenchel-tail", help="tail bounds from the conjugate")
    p.add_argument("--function", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--t", required=True, help="comma list of thresholds >= e")
    p.add_argument("--normalize", action="store_true",
                   help="scale the function to unit grand norm first")
    common(p, "grid_points", "tolerance")
    p.set_defaults(fn=_cmd_fenchel_tail, format="csv")

    p = sub.add_parser("opnorm", help="q->p operator norm")
    p.add_argument("--matrix", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--resolution", type=int, default=720)
    common(p, "seed")
    p.set_defaults(fn=_cmd_opnorm)

    p = sub.add_parser("minimal-constant", help="grid minimal certificate constant")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--p-interval", required=True, help="a:b")
    p.add_argument("--q-interval", required=True, help="c:d")
    common(p, "seed", "grid_points", "samples")
    p.set_defaults(fn=_cmd_minimal_constant, grid_points=17, samples=32)

    p = sub.add_parser("verify-theorem1", help="grand-norm extrapolation inequality")
    p.add_argument("--matrix", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--c", type=float, default=None, help="certificate constant")
    p.add_argument("--restarts", type=int, default=32)
    common(p, "seed", "grid_points", "samples", "tolerance")
    p.set_defaults(fn=_cmd_verify_theorem1, grid_points=17)

    p = sub.add_parser("verify-theorem2", help="moment-norm extrapolation inequality")
    p.add_argument("--matrix", required=True)
    p.add_argument("--w-norm", required=True)
    p.add_argument("--r-norm", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--restarts", type=int, default=32)
    common(p, "seed", "grid_points", "samples", "tolerance")
    p.set_defaults(fn=_cmd_verify_theorem2, grid_points=17)

    def square(p: argparse.ArgumentParser) -> None:
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--kind", choices=("auto", "siamese", "doubly-even", "uniform"),
                       default="auto")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--resolution", type=int, default=240)

    p = sub.add_parser("magic", help="build, validate, or norm-check magic squares")
    p.add_argument("--validate", default=None, help="square JSON to validate")
    p.add_argument("--check-norms", dest="pairs", default=None,
                   help="pairs like 1:2,2:4,1:inf")
    p.add_argument("--convention", choices=("counting", "normalized", "both"),
                   default="both")
    square(p)
    common(p)
    p.set_defaults(fn=_cmd_magic, format="csv", matrix=None)

    p = sub.add_parser("check-super-exact", help="closed-form convention table")
    p.add_argument("--matrix", default=None, help="square JSON instead of --order")
    p.add_argument("--pairs", required=True, help="pairs like 1:inf,2:4")
    square(p)
    common(p)
    p.set_defaults(fn=_cmd_check_super_exact, format="csv", convention="both")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's exit: 2 on a usage error, 0 on --help
        return exc.code
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError:
        # the input's size asked for it (an oracle grid holds
        # resolution**(n-1) directions): bad input, not a violation
        print("error: out of memory; lower --resolution or the input size",
              file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
