"""Command-line front end.

Subcommands: enumerate, symmetrize, wasserstein, verify, render.  Every
path is a thin wrapper over the library; outputs are byte-deterministic.
Exit codes: 0 success, 2 bad input or size guard, 3 verification failure.
`main` builds its parser once per process and reuses it: parsing leaves
an argparse parser unchanged.  Every call is a new process, so importing
this module loads only `argparse` and `json` beside the package: no
`dataclasses`, `inspect` or `typing`, and no `fractions` (with `decimal`
and `numbers`), which loads on the first Fraction built.  No sweep
builds a Fraction.
"""

import argparse
import contextlib
import functools
import json
import math
import sys

from .errors import EnumerationTooLargeError, PartitionOTError
from .partitions import (
    Permutation,
    all_permutations,
    count_partitions,
    enumerate_partitions,
    from_json,
    involutions,
    is_self_symmetric,
    symmetrize,
    to_json,
)
from .render import FORMATS, render
from .theorems import _check_sweep, _sweep, format_summary
from .transport import (
    BRUTE_FORCE_MAX,
    COST_KINDS,
    EUCLIDEAN,
    SQUARED_EUCLIDEAN,
    check_certificate,
    distance_of_total,
    plan_to_json,
    solve_bruteforce,
    solve_transport,
    wasserstein,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write primary output to this path")
    costed = argparse.ArgumentParser(add_help=False)
    costed.add_argument(
        "--cost", choices=COST_KINDS, default=SQUARED_EUCLIDEAN,
        help="transport cost kind (default: sq)",
    )

    parser = argparse.ArgumentParser(
        prog="partition-ot",
        description="Exact optimal transport between integer-partition diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", parents=[common], help="list or count partitions"
    )
    p_enum.add_argument("--m", type=int, required=True, help="partition dimension")
    p_enum.add_argument("--n", type=int, required=True, help="partition total")
    p_enum.add_argument("--count", action="store_true", help="print only the count")
    p_enum.add_argument(
        "--max-cells", type=int, default=None, help="override the enumeration guard"
    )

    p_sym = sub.add_parser(
        "symmetrize", parents=[common], help="apply a coordinate permutation"
    )
    p_sym.add_argument("input", help="partition JSON file, or '-' for stdin")
    p_sym.add_argument(
        "--sigma", required=True, help='one-line permutation, e.g. "2 1"'
    )
    p_sym.add_argument(
        "--check-self", action="store_true",
        help="print whether the partition is fixed instead of the image",
    )

    p_w = sub.add_parser(
        "wasserstein", parents=[common, costed], help="exact transport distance"
    )
    p_w.add_argument("a", help="partition JSON file")
    p_w.add_argument("b", help="partition JSON file")
    p_w.add_argument("--plan", action="store_true", help="also emit the optimal plan JSON")
    p_w.add_argument(
        "--certify", action="store_true",
        help="cross-check the solver against the exhaustive oracle, or above "
        f"n={BRUTE_FORCE_MAX} check the LP dual certificate",
    )

    p_v = sub.add_parser(
        "verify", parents=[common, costed], help="exhaustive verification sweeps"
    )
    p_v.add_argument(
        "--theorem", choices=("main", "cor"), required=True,
        help="main: candidate-matching optimality; cor: zero-distance criterion",
    )
    p_v.add_argument("--m", type=int, help="partition dimension")
    p_v.add_argument("--n-max", type=int, help="largest partition total to sweep")
    p_v.add_argument(
        "--sigma", action="append", default=None,
        help='one-line permutation or a named set: identity, involutions, all '
        "(repeatable; default: all)",
    )
    p_v.add_argument(
        "--max-cells", type=int, default=None, help="override the enumeration guard"
    )

    p_r = sub.add_parser("render", parents=[common], help="draw a diagram")
    p_r.add_argument("input", help="partition JSON file, or '-' for stdin")
    p_r.add_argument("--format", choices=FORMATS, default="ascii")
    p_r.add_argument(
        "--sigma", default=None,
        help="one-line permutation; highlights shared vs moved cells",
    )
    return parser


@functools.cache
def _parser():
    """The parser `main` uses, built on its first call, not at import."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {
        "enumerate": cmd_enumerate,
        "symmetrize": cmd_symmetrize,
        "wasserstein": cmd_wasserstein,
        "verify": cmd_verify,
        "render": cmd_render,
    }[args.command]
    try:
        return handler(args)
    except EnumerationTooLargeError as exc:
        print(f"error: {exc} (see --max-cells)", file=sys.stderr)
        return EXIT_INPUT
    except (PartitionOTError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run():
    raise SystemExit(main())


def cmd_enumerate(args):
    if args.count:
        text = f"{count_partitions(args.m, args.n, max_cells=args.max_cells)}\n"
    else:
        parts = enumerate_partitions(args.m, args.n, max_cells=args.max_cells)
        text = "".join(_compact(to_json(p)) + "\n" for p in parts)
    _emit(text, args.out)
    return EXIT_OK


def cmd_symmetrize(args):
    p = _read_partition(args.input)
    sigma = Permutation.from_one_line(args.sigma)
    doc = is_self_symmetric(p, sigma) if args.check_self else to_json(symmetrize(p, sigma))
    _emit(_compact(doc) + "\n", args.out)
    return EXIT_OK


def cmd_wasserstein(args):
    a = _read_partition(args.a)
    b = _read_partition(args.b)
    if args.plan and args.cost == EUCLIDEAN:
        raise ValueError("--plan needs an exact cost kind (sq or l1)")
    if args.plan or args.certify:
        c, res = solve_transport(a, b, args.cost)  # its dual certifies res.total
        value = distance_of_total(res.total, a.n, args.cost)
    else:  # the value alone needs no matching
        value = wasserstein(a, b, args.cost)
    if args.cost == EUCLIDEAN:
        lines = [f"{value:.12g}"]
    else:  # a Fraction
        lines = [f"{value.numerator}/{value.denominator} ({float(value):.12g})"]
    if args.certify:
        if a.n <= BRUTE_FORCE_MAX:
            oracle = solve_bruteforce(c).total
            # "euclid" totals are float sums taken in different orders
            close = not c.is_exact and math.isclose(oracle, res.total)
            if oracle != res.total and not close:
                print(
                    "certify: solver disagrees with the exhaustive oracle",
                    file=sys.stderr,
                )
                return EXIT_VERIFY
            lines.append("certified: exhaustive oracle agrees")
        elif check_certificate(c, res):
            lines.append("certified: LP dual (u, v) proves the matching optimal")
        else:
            print("certify: the LP dual certificate does not hold", file=sys.stderr)
            return EXIT_VERIFY
    if args.plan:
        lines.append(_compact(plan_to_json(res.matching, value)))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args):
    if args.m is None or args.n_max is None:
        raise ValueError("verify needs --m and --n-max")
    # no sigmas yet: refuse what is refused before the named sets list S_{m+1}
    _check_sweep(args.theorem, args.m, args.n_max, (), args.cost, args.max_cells)
    sigmas = _sigma_set(args.sigma or ["all"], args.m + 1)
    # every refusal before the output opens: a refused sweep writes nothing
    _check_sweep(args.theorem, args.m, args.n_max, sigmas, args.cost, args.max_cells)
    with _output(args.out) as fh:  # each line goes out as the sweep makes it
        report = _sweep(args.theorem, args.m, args.n_max, sigmas, args.cost,
                        args.max_cells, fh.write)
    if args.out is not None:
        sys.stdout.write(format_summary(report))
    return EXIT_OK if report.violations == 0 else EXIT_VERIFY


def cmd_render(args):
    p = _read_partition(args.input)
    sigma = Permutation.from_one_line(args.sigma) if args.sigma else None
    _emit(render(p, args.format, sigma), args.out)
    return EXIT_OK


def _sigma_set(names, size):
    sigmas = []
    for name in names:
        if name == "all":
            sigmas += all_permutations(size)
        elif name == "involutions":
            sigmas += involutions(size)
        elif name == "identity":
            sigmas.append(Permutation.identity(size))
        else:
            sigmas.append(Permutation.from_one_line(name))
    return list(dict.fromkeys(sigmas))  # each sigma once, where first named


def _read_partition(path):
    try:
        if path == "-":  # strict UTF-8, as files are opened, whatever the locale
            doc = json.loads(sys.stdin.buffer.read().decode("utf-8"))
        else:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        return from_json(doc)
    except RecursionError:
        raise ValueError(f"{path}: partition JSON is nested too deeply") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # name the input
        raise ValueError(f"{path}: {exc}") from None


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def _emit(text, out):
    with _output(out) as fh:
        fh.write(text)


def _output(out):
    if out is None:
        return contextlib.nullcontext(sys.stdout)  # as it is now: callers redirect it
    return open(out, "w", encoding="utf-8", newline="")


if __name__ == "__main__":
    run()
