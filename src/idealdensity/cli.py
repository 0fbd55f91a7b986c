"""Command-line front end.

Subcommands: field-info, count, mertens, density, experiment.  All
outputs are reproducible: CSV files carry a header row, ratios are
printed with 12 significant digits, counts as exact integers, and the
summary JSON embeds the run configuration.  Results are independent of
--threads (computations are deterministic single-pass)."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import experiments
from .density import a_limit, density_profile, finite_ie_density
from .errors import (
    BoundsExceedX,
    BoundTooSmall,
    IdealDensityError,
    SNotGreaterThanOne,
    TooLarge,
)
from .families import ExplicitFamily, parse_family
from .fields import (
    analytic_residue_imag_quadratic,
    class_number_imag_quadratic,
    parse_field,
    sample_grid,
)
from .ideals import count_ideals  # noqa: F401  (bench/ binds cli.count_ideals)
from .ideals import ideal_count, ideal_counts
from .zeta import euler_products_at, mertens_target

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERDICT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(lo: int):
    """argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(path, header, rows) -> None:
    """A CSV table: the header row, then every row through ``_fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, doc: dict) -> None:
    """A JSON document with sorted keys; non-JSON values go through ``_fmt``."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


def _run_config(args, command: str) -> dict:
    # --threads is an execution knob only: it is deliberately left out so
    # outputs are byte-identical across thread counts.
    config = {"command": command, "field": args.field, "seed": args.seed}
    for key in ("max_norm", "samples", "cutoff", "l", "aset", "out"):
        if hasattr(args, key):
            value = getattr(args, key)
            config[key] = str(value) if isinstance(value, Path) else value
    return config


def _sample_points(X: int, n: int) -> list[int]:
    return list(range(1, X + 1)) if X <= n else sample_grid(1, X, n).tolist()


def cmd_field_info(args) -> int:
    K = parse_field(args.field)
    units = K.unit_count if K.unit_count is not None else "infinite"
    lines = [f"field: {K.label()}", f"degree: {K.degree}",
             f"discriminant: {K.discriminant}", f"unit_count: {units}"]
    if K.is_imaginary_quadratic:
        # Counted before the first line is printed: a refusal prints none.
        h = class_number_imag_quadratic(K.discriminant)
        alpha = analytic_residue_imag_quadratic(K)
        lines += [f"class_number: {h}", f"analytic_residue: {_fmt(alpha)}"]
    print("\n".join(lines))
    return EXIT_OK


def cmd_count(args) -> int:
    K = parse_field(args.field)
    xs = _sample_points(args.max_norm, args.samples)
    Hs = ideal_counts(K, xs)
    write_csv(args.out, ("x", "H", "H_over_x"),
              [(x, H, H / x) for x, H in zip(xs, Hs)])
    # The last sample point is the bound itself.
    _write_summary(args, "count", {"H": Hs[-1],
                                   "c_hat": Hs[-1] / args.max_norm})
    return EXIT_OK


def cmd_mertens(args) -> int:
    K = parse_field(args.field)
    if K.is_imaginary_quadratic:
        alpha = analytic_residue_imag_quadratic(K)
    else:
        x = min(args.cutoff, 10**6)
        alpha = ideal_count(K, x) / x
    target = mertens_target(alpha)
    cutoffs = [c for c in _sample_points(args.cutoff, args.samples) if c >= 10]
    rows = [(c, pi.value, pi.value / math.log(c), target)
            for c, pi in zip(cutoffs, euler_products_at(K, cutoffs))]
    write_csv(args.out, ("cutoff", "euler_product", "ratio", "target"), rows)
    # The last sample point is the cutoff itself.
    _write_summary(args, "mertens", {"ratio": rows[-1][2], "target": target})
    return EXIT_OK


def cmd_density(args) -> int:
    K = parse_field(args.field)
    with open(args.aset) as fh:
        family = parse_family(json.load(fh), K)
    report = density_profile(family, X=args.max_norm, n_samples=args.samples)
    summary: dict = {"natural_ratio": float(report.natural_ratios[-1]),
                     "log_ratio": report.log_ratios[-1]}
    if isinstance(family, ExplicitFamily):
        density = finite_ie_density(family)
        summary["A"] = float(density)
        summary["A_exact"] = str(density)
    else:
        seq = a_limit(family, r_max=args.r_max)
        summary["A_r"] = [float(v) for v in seq]
        # No member of norm <= truncation: M_A is empty.
        summary["A"] = float(seq[-1]) if seq else 0.0
    write_csv(args.out, *report.table())
    _write_summary(args, "density", summary)
    return EXIT_OK


def cmd_experiment(args) -> int:
    K = parse_field(args.field)
    if args.name == "primepower-free":
        result = experiments.primepower_free_experiment(
            K, l=args.l, X=args.max_norm, n_samples=args.samples)
    elif args.name == "main-theorem":
        if args.aset is None:
            raise UsageError("main-theorem needs --aset")
        with open(args.aset) as fh:
            family = parse_family(json.load(fh), K)
        result = experiments.main_theorem_experiment(
            family, X=args.max_norm, k_max=args.k_max, r_max=args.r_max,
            n_samples=args.samples)
    elif args.name == "besicovitch":
        result = experiments.besicovitch_experiment(
            K, T0=args.t0, growth=args.growth, depth=args.depth,
            X=args.max_norm, n_samples=args.samples)
    else:
        raise UsageError(f"unknown experiment {args.name!r}")
    write_csv(args.out, result.columns, result.rows)
    write_json(_summary_path(args.out), result.summary_document(
        _run_config(args, f"experiment {args.name}")))
    return EXIT_OK if result.verdict else EXIT_VERDICT


def _summary_path(out) -> Path:
    out = Path(out)
    return out.with_suffix(".summary.json")


def _write_summary(args, command: str, summary: dict) -> None:
    write_json(_summary_path(args.out),
               {"config": _run_config(args, command), "summary": summary})


def build_parser() -> _Parser:
    parser = _Parser(prog="idealdensity",
                     description="Densities of sets of integral ideals in "
                                 "number fields of degree <= 2.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True, min_samples=1):
        p.add_argument("--field", default="Q",
                       help='field label: "Q" or "Q(sqrt m)"')
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for interface compatibility; results "
                            "are independent of it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=_int_at_least(min_samples), default=30)
        if out_required:
            p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("field-info", help="degree, discriminant, residue")
    common(p, out_required=False)
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("count", help="ideal counts H(x) up to a bound")
    common(p)
    p.add_argument("--max-norm", type=_int_at_least(1), required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("mertens", help="partial Euler products vs C log x")
    common(p)
    p.add_argument("--cutoff", type=_int_at_least(10), required=True)
    p.set_defaults(func=cmd_mertens)

    p = sub.add_parser("density", help="density profile of an ideal family")
    common(p, min_samples=2)
    p.add_argument("--aset", required=True, type=Path,
                   help="JSON family specification file")
    p.add_argument("--max-norm", type=_int_at_least(100), required=True)
    p.add_argument("--r-max", type=_int_at_least(1), default=8)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("experiment", help="run a canned scenario")
    p.add_argument("name", help="primepower-free | main-theorem | besicovitch")
    common(p, min_samples=2)
    p.add_argument("--max-norm", type=_int_at_least(100), default=10**6)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--aset", type=Path)
    p.add_argument("--k-max", type=_int_at_least(1), default=8)
    p.add_argument("--r-max", type=_int_at_least(1), default=8)
    p.add_argument("--t0", type=int, default=10)
    p.add_argument("--growth", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, MemoryError, BoundTooSmall,
            BoundsExceedX, TooLarge, SNotGreaterThanOne) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IdealDensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
