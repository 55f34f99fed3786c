"""Command-line interface over the whole library.

One subcommand per operation group: matrix construction, the total
nonnegativity scan, face-vector transforms, the M-sequence test, and the
lattice-path certificates. All output is deterministic. Exit codes are
part of the contract:

    0  success (including a computed "false"/"fail" verdict)
    1  domain error (bad values, unreadable file, budget exceeded)
    2  usage error (bad flags)
    3  a negative minor was found by the tnn scan
    4  internal cross-check failure (two independent routes disagreed)
"""

import argparse
import sys
from typing import Optional, Sequence

# matrix, tnn and lgv --verify run these, so no op of theirs pays to import
# them; each other subcommand imports its own module when it runs, and json
# loads where a JSON text is written or read
from .errors import CrossCheckError
from .tnn import check_scan, determinant, is_totally_nonnegative
from .transfer import parse_matrix_csv, parse_matrix_json, path_matrix, path_weight_closed_form, transfer_matrix

__all__ = ["main", "run"]


class UsageError(Exception):
    """Flag combinations argparse alone cannot reject."""


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _render_entries(entries) -> str:
    cells = [[str(x) for x in row] for row in entries]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)


def _index_set(indices) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


def cmd_matrix(args) -> int:
    if args.augmented and args.d is None:
        raise UsageError("--augmented only applies to --d")
    if args.d is not None:
        if args.augmented:
            obj = path_matrix(args.d + 1)
            label = f"# path matrix n={args.d + 1} (augmented form for d={args.d})"
        else:
            obj = transfer_matrix(args.d)
            label = None
    else:
        obj = path_matrix(args.n)
        label = None
    if args.format == "csv":
        sys.stdout.write(obj.to_csv())
    elif args.format == "json":
        print(obj.to_json())
    else:
        if label is not None:
            print(label)
        print(_render_entries(obj.entries))
    return 0


def _emit(args, obj, text: str) -> None:
    """Print `obj` as sorted-key JSON for --format json, else `text`."""
    if args.format == "json":
        import json

        text = json.dumps(obj, sort_keys=True)
    print(text)


def _load_matrix_file(path: str, digits: int):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sys.set_int_max_str_digits(digits)
    try:
        return parse_matrix_json(text) if path.endswith(".json") else parse_matrix_csv(text)
    finally:
        sys.set_int_max_str_digits(0)


def cmd_tnn(args) -> int:
    n = args.n if args.d is None else args.d + 1  # M_d is W_(d+1) without its first column
    if args.file is None and n >= 2:  # refuse from the shape before building; n < 2 fails there
        check_scan((n + 1) // 2, n - (args.d is not None), args.max_order, args.jobs)
    if args.d is not None:
        mat = transfer_matrix(args.d)
    elif args.n is not None:
        mat = path_matrix(args.n)
    else:
        mat = _load_matrix_file(args.file, args.digits)
    report = is_totally_nonnegative(mat, max_order=args.max_order, jobs=args.jobs)
    lines = [
        f"is_tnn: {'true' if report.is_tnn else 'false'}",
        f"minors_checked: {report.minors_checked}",
        f"min_minor: {report.min_minor}",
    ]
    if report.witness is not None:
        w = report.witness
        lines.append(f"witness: rows={_index_set(w.rows)} cols={_index_set(w.cols)} value={w.value}")
    _emit(args, report.to_json_obj(), "\n".join(lines))
    return 0 if report.is_tnn else 3


def cmd_f2g(args) -> int:
    from .polyvec import FVector, f_to_g

    g = f_to_g(FVector(args.d, args.f)).values
    _emit(args, {"d": args.d, "g": list(g)}, ",".join(map(str, g)))
    return 0


def cmd_g2f(args) -> int:
    from .polyvec import GVector, g_to_f

    f = g_to_f(GVector(args.d, args.g)).counts
    _emit(args, {"d": args.d, "f": list(f)}, ",".join(map(str, f)))
    return 0


def cmd_euler(args) -> int:
    from .polyvec import FVector, euler_check

    ok = euler_check(FVector(args.d, args.f))
    _emit(args, {"d": args.d, "euler": ok}, "true" if ok else "false")
    return 0


def cmd_feasible(args) -> int:
    from .polyvec import FVector, is_polytopal

    verdict = is_polytopal(FVector(args.d, args.f))
    text = "pass" if verdict.passed else f"fail, condition={verdict.failed_condition}"
    _emit(args, verdict.to_json_obj(), text)
    return 0


def cmd_msequence(args) -> int:
    from .macaulay import is_m_sequence, oracle_is_m_sequence

    verdict = is_m_sequence(args.seq)
    if args.oracle:
        agreed = oracle_is_m_sequence(args.seq, max(1, args.seq[1] if len(args.seq) > 1 else 1))
        if agreed != verdict.ok:
            raise CrossCheckError(
                f"is_m_sequence says {verdict.ok} but the multicomplex oracle "
                f"says {agreed} for {','.join(map(str, args.seq))}"
            )
    if verdict.ok:
        text = "true"
    elif verdict.boundary_value is None:
        text = f"false, k={verdict.k}"
    else:
        text = f"false, k={verdict.k}, boundary={verdict.boundary_value}, bound={verdict.bound}"
    obj = {"is_m_sequence": verdict.ok, "witness_k": verdict.k, "boundary_value": verdict.boundary_value}
    _emit(args, obj, text)
    return 0


def cmd_lgv(args) -> int:
    from .lgv import export_dot, graph_json_obj, lattice_graph, minor_via_lgv

    graph = lattice_graph(args.n)
    if args.verify and (args.rows is None or args.cols is None):
        raise UsageError("--verify requires --rows and --cols")
    if not args.verify and (args.rows is not None or args.cols is not None):
        raise UsageError("--rows and --cols require --verify")
    if args.format != "text" and (args.verify or args.dot is not None):
        route = "--verify" if args.verify else "--dot"
        raise UsageError(f"--format {args.format} does not apply to {route}")
    if args.dot is not None:
        text = export_dot(graph)  # before the file is opened, so a refusal writes none
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0
    if args.verify:
        total = minor_via_lgv(graph, args.rows, args.cols)
        det = determinant([[path_weight_closed_form(args.n, i, j) for j in args.cols] for i in args.rows])
        if total != det:
            raise CrossCheckError(
                f"minor mismatch on n={args.n}, rows={list(args.rows)}, "
                f"cols={list(args.cols)}: det={det}, lgv={total}"
            )
        print(f"det={det}, lgv={total}, equal")
        return 0
    if args.format == "json":
        import json

        print(json.dumps(graph_json_obj(graph), sort_keys=True))
    elif args.format == "dot":
        sys.stdout.write(export_dot(graph))
    else:
        print(
            f"n={graph.n}: {len(graph.vertices)} vertices, {len(graph.arcs)} arcs, "
            f"{len(graph.sources)} sources, {len(graph.sinks)} sinks"
        )
    return 0


def _add_format(parser, choices=("text", "csv", "json")) -> None:
    parser.add_argument("--format", choices=choices, default="text")


def _add_matrix(p) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--d", type=int, help="dimension of the transfer matrix")
    grp.add_argument("--n", type=int, help="order of the path matrix")
    p.add_argument(
        "--augmented",
        action="store_true",
        help="with --d, print the path matrix of order d+1 instead",
    )
    _add_format(p)
    p.set_defaults(func=cmd_matrix)


def _add_tnn(p) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--d", type=int, help="scan the transfer matrix of dimension d")
    grp.add_argument("--n", type=int, help="scan the path matrix of order n")
    grp.add_argument("--file", help="scan a matrix from a CSV or JSON file")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    _add_format(p, choices=("text", "json"))
    p.set_defaults(func=cmd_tnn)


def _vector_command(vector, formats, func):
    def add(p) -> None:
        p.add_argument(vector, type=_int_list, required=True)
        p.add_argument("--d", type=int, required=True)
        _add_format(p, formats)
        p.set_defaults(func=func)

    return add


def _add_msequence(p) -> None:
    p.add_argument("--seq", type=_int_list, required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against exhaustive multicomplex search",
    )
    _add_format(p, choices=("text", "json"))
    p.set_defaults(func=cmd_msequence)


def _add_lgv(p) -> None:
    p.add_argument("--n", type=int, required=True)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--verify", action="store_true")
    p.add_argument("--rows", type=_int_list, default=None)
    p.add_argument("--cols", type=_int_list, default=None)
    grp.add_argument("--dot", default=None, metavar="FILE")
    _add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(func=cmd_lgv)


# subcommand -> (help summary, a function that adds its arguments and its func)
_COMMANDS = {
    "matrix": ("print a transfer or path matrix", _add_matrix),
    "tnn": ("scan every minor for a negative value", _add_tnn),
    "f2g": ("face counts to the g-vector", _vector_command("--f", ("text", "csv", "json"), cmd_f2g)),
    "g2f": ("g-vector to face counts", _vector_command("--g", ("text", "csv", "json"), cmd_g2f)),
    "euler": ("test the alternating face-count sum", _vector_command("--f", ("text", "json"), cmd_euler)),
    "feasible": ("test whether f is a polytope f-vector", _vector_command("--f", ("text", "json"), cmd_feasible)),
    "msequence": ("test a sequence for the M-property", _add_msequence),
    "lgv": ("lattice graphs and disjoint-path certificates", _add_lgv),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytnn",
        description="Exact transfer matrices, face-vector transforms, and "
        "total-nonnegativity certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The subcommand's parser alone, with the prog `add_parser` gives it."""
    parser = argparse.ArgumentParser(prog=f"polytnn {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    # A call that names a subcommand needs only that subcommand's parser:
    # its usage, help and error text are the same as under the full parser.
    # Everything else (no command, -h, an unknown command, a leading --, or
    # arguments the subcommand leaves over) goes to the full parser, which
    # reports it with the top-level usage.
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    # input (argv, and tnn --file in _load_matrix_file) is parsed under the caller's cap on
    # int-to-str digits, which bounds its parse time; every number written prints in full
    args.digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(args.digits)


def run() -> None:
    raise SystemExit(main())
