"""Command line interface.

Exit codes: 0 on success or a completed report, 1 on a validation failure
(non-exact input to a constructive command, a failed verification, an
infeasible generation request), 2 on refused input: a malformed file or
argument, a degree above the cap, or an output file that cannot be
written. A refusal prints one line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import NoReturn

from .chain import ChainBuildError, ChainError, ContinuousChain, build_chain, emit_dot, validate_chain
from .delta import NumericalData, check_steps
from .generate import GenerationError, random_exact_lls
from .linalg import format_rational
from .oracle import MAX_SAMPLES, compare_chain, sample_orbit_check
from .series import LimitLinearSeries, check_compatible, check_exact, numerical_data, reduce_minimal
from .serialize import SchemaError, SubspaceTask, dumps_instance, load_instance
from .torus import Direction, limit, orbit_degree

# gen and verify refuse degrees above this cap. gen's work is polynomial in d
# (it counts the profiles and builds one series); verify --oracle tabulates
# the nonzero Pluecker minors, which grow combinatorially at middle rank.
MAX_DEGREE = 8


def _emit(*outputs: tuple[str, str | None]) -> int:
    """Write each (text, file) pair, to standard output where the file is None.

    Returns 0, or 2 after a one-line error when two outputs resolve to the
    same file or a file cannot be written. The first refusal comes before
    any file is opened. Every file is then opened for appending, which
    leaves it as it was, so one that cannot be opened stops the command
    before any file is written; the files this call created are removed on
    any error.
    """
    files = [(text, path) for text, path in outputs if path]
    if len(files) > 1:
        named: dict[str, str] = {}
        for _, path in files:
            real = os.path.realpath(path)
            if real in named:
                print(f"error: {named[real]} and {path} name the same file", file=sys.stderr)
                return 2
            named[real] = path
    created = []
    try:
        for _, path in files:
            # os.path.exists raises and catches inside; os.access raises nothing
            existed = os.access(path, os.F_OK)
            open(path, "a").close()
            if not existed:
                created.append(path)
        for text, path in files:
            with open(path, "w") as handle:
                handle.write(text)
    except OSError as exc:
        for new in created:
            os.remove(new)
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    for text, path in outputs:
        if not path:
            sys.stdout.write(text)
    return 0


def _pair_str(pair: tuple[Fraction, Fraction]) -> str:
    return f"({format_rational(pair[0])}, {format_rational(pair[1])})"


_VERIFIABLE = (LimitLinearSeries, ContinuousChain)

# how a file is refused that holds none of the kinds a command accepts
_REFUSAL = {
    LimitLinearSeries: "does not hold a level-delta series",
    SubspaceTask: "does not hold a subspace task",
    _VERIFIABLE: "holds neither a series nor a chain",
}


def _load(path: str, kinds: type | tuple[type, ...]):
    obj = load_instance(path)
    if not isinstance(obj, kinds):
        raise SchemaError(f"{path} {_REFUSAL[kinds]}")
    return obj


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load(args.file, LimitLinearSeries)
    compat = check_compatible(g)
    print(f"compatible: {str(compat.passed).lower()}")
    for failure in compat.failures:
        print(f"  incompatible pair {_pair_str((failure.left, failure.right))}: {failure.message}")
    exact = check_exact(g)
    if exact.passed:
        print("exact: true")
    else:
        pair = exact.first_failing_pair()
        print(f"exact: false, failing pair {_pair_str(pair)}")
        for failure in exact.failures:
            print(f"  {_pair_str((failure.left, failure.right))} [{failure.side}]: {failure.message}")
    return 0


def _numerical_json(data: NumericalData) -> str:
    import json

    return json.dumps(
        {
            "indices": [format_rational(i) for i in data.indices],
            "down_kernel": list(data.down_kernels),
            "up_kernel": list(data.up_kernels),
            "mobile": list(data.mobile),
            "total_mobile": data.total_mobile(),
            "exact": data.is_exact(),
            "minimal": data.is_minimal(),
        },
        indent=2,
    )


def _cmd_numerical_data(args: argparse.Namespace) -> int:
    g = _load(args.file, LimitLinearSeries)
    print(_numerical_json(numerical_data(g)))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load(args.file, LimitLinearSeries)
    try:
        reduced = reduce_minimal(g)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _emit((dumps_instance(reduced), args.output))


def _cmd_build_chain(args: argparse.Namespace) -> int:
    g = _load(args.file, LimitLinearSeries)
    try:
        chain = build_chain(g)
    except ChainBuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outputs = [(dumps_instance(chain), args.output)]
    if args.dot:
        outputs.append((emit_dot(chain), args.dot))
    return _emit(*outputs)


def _cmd_limit(args: argparse.Namespace) -> int:
    task = _load(args.file, SubspaceTask)
    direction = Direction.ZERO if args.at == "zero" else Direction.INFINITY
    result = limit(task.split, task.subspace, direction)
    return _emit((dumps_instance(SubspaceTask(task.split, result)), args.output))


def _cmd_degree(args: argparse.Namespace) -> int:
    task = _load(args.file, SubspaceTask)
    print(orbit_degree(task.split, task.subspace))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if not 0 <= args.d <= MAX_DEGREE:
        print(f"error: gen handles degrees 0 through {MAX_DEGREE}, got {args.d}", file=sys.stderr)
        return 2
    try:
        check_steps(args.d, args.delta)
    except ValueError as exc:
        print(f"error: argument --delta: {exc}", file=sys.stderr)
        return 2
    try:
        g = random_exact_lls(args.d, args.r, args.delta, args.seed)
    except (GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _emit((dumps_instance(g), args.output))


def _verify_chain(chain: ContinuousChain, use_oracle: bool, samples: int) -> int:
    report = validate_chain(chain)
    print(report.summary())
    ok = report.passed
    if use_oracle:
        mismatch = compare_chain(chain)
        print(f"oracle limits/degrees: {'pass' if not mismatch else 'FAIL'}")
        for line in mismatch:
            print(f"  - {line}")
        sample_report = sample_orbit_check(chain, samples, seed=0)
        print(f"oracle orbit sampling: {'pass' if sample_report.passed else 'FAIL'}")
        for line in sample_report.failures:
            print(f"  - {line}")
        ok = ok and not mismatch and sample_report.passed
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    obj = _load(args.file, _VERIFIABLE)
    g = obj if isinstance(obj, LimitLinearSeries) else obj.series
    if g.model.d > MAX_DEGREE:
        print(
            f"error: verify handles degrees 0 through {MAX_DEGREE}, got {g.model.d}",
            file=sys.stderr,
        )
        return 2
    if obj is g:
        exact = check_exact(g)
        data = numerical_data(g)
        print(f"exact: {str(exact.passed).lower()}")
        print(f"minimal: {str(data.is_minimal()).lower()}")
        if not exact.passed or not data.is_minimal():
            return 1
        obj = ContinuousChain(g)
    return _verify_chain(obj, args.oracle, args.samples)


def _sample_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_SAMPLES}, got {value}")
    return value


def _delta_counts(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """Refuses a bad argument with one stderr line, without the usage text."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nodalseries",
        description=(
            "Exact computations with degenerations of linear series on a"
            " two-component nodal curve"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="compatibility and exactness report for a series")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("numerical-data", help="per-index kernel and mobile dimensions")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_numerical_data)

    p = sub.add_parser("reduce", help="drop trivial non-integer slots of an exact series")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("build-chain", help="assemble the chain of an exact minimal series")
    p.add_argument("file")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_build_chain)

    p = sub.add_parser("limit", help="orbit limit of a subspace task")
    p.add_argument("file")
    p.add_argument("--at", choices=("zero", "infty"), required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("degree", help="orbit degree of a subspace task")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_degree)

    p = sub.add_parser("gen", help="generate a random exact minimal series")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--delta", type=_delta_counts, default=(), help="comma-separated subdivision counts"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="validate a chain (or a series via its chain)")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help="also run the brute-force oracle")
    p.add_argument(
        "--samples", type=_sample_count, default=20,
        help=f"orbit samples per component, 1..{MAX_SAMPLES}",
    )
    p.set_defaults(fn=_cmd_verify)

    return parser


# built once per process: parse_args starts every call from a fresh namespace
# and keeps no state in the parser
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except ChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
