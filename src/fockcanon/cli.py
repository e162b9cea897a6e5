"""Command-line interface.

Subcommands:
  matrix  compute/serialize a transition matrix (A, D, E, C), with caching
  apply   apply an operator to a vector and pretty-print the result
  verify  run a verification suite; exit 0 on pass, 1 on failure

Exit codes: 0 success, 1 mathematical failure (verify), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import fock, matrixio, verify
from .canonical import (
    TransitionMatrix,
    a_matrix,
    adjoint_matrix,
    blocks,
    canonical_lower,
    canonical_upper,
)
from .fock import FockVector
from .partitions import check_partition

DEFAULT_CACHE_DIR = ".fock-cache"
CACHE_ENV = "FOCK_CANON_CACHE"


def _json_loads(text: str):
    """json.loads, with text nested too deeply to decode a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the JSON text is nested too deeply") from None


def parse_partition(text: str):
    """Accept "[3,1,1]", "311" (single-digit parts) or "0"/"" for empty."""
    text = text.strip()
    if text in ("", "0", "[]"):
        return ()
    if text.startswith("["):
        return check_partition(_json_loads(text))
    if not text.isdigit():
        raise ValueError(f"cannot parse partition {text!r}")
    return check_partition([int(ch) for ch in text])


def parse_vector(text: str) -> FockVector:
    """A partition (see parse_partition) or a JSON FockVector document."""
    stripped = text.strip()
    if stripped.startswith("["):
        doc = _json_loads(stripped)
        if doc and all(isinstance(entry, dict) for entry in doc):
            for entry in doc:
                entry["partition"] = check_partition(entry["partition"])
            return FockVector.from_json(doc)
        return FockVector.basis(check_partition(doc))
    return FockVector.basis(parse_partition(stripped))


def _int_at_least(text: str, low: int, name: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
    return value


def parse_modulus(text: str) -> int:
    """The -n value of every subcommand: an integer n >= 2."""
    return _int_at_least(text, 2, "n")


def parse_degree(text: str) -> int:
    """The -m value of matrix and the --max-m value of verify: an integer m >= 0."""
    return _int_at_least(text, 0, "m")


def compute_matrix(kind: str, n: int, m: int) -> TransitionMatrix:
    """The matrix of a kind.  E is read off C, and C is solved once per D,
    so D, E and C in one process walk D and C only."""
    if kind == "A":
        return a_matrix(n, m)
    if kind == "D":
        return canonical_upper(n, m)
    if kind == "E":
        return canonical_lower(n, m)
    if kind == "C":
        return adjoint_matrix(canonical_upper(n, m))
    raise ValueError(f"unknown kind {kind!r}")


def _cmd_matrix(args) -> int:
    block = None
    if args.block is not None:
        block = parse_partition(args.block)
        if block not in blocks(args.n, args.m):
            raise ValueError(f"no {args.n}-core block {list(block)} in degree {args.m}")
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE_DIR
    mat = None
    if not args.no_cache:
        try:
            if not os.path.isdir(cache_dir):
                os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cache directory {cache_dir} is unusable: {exc.strerror}") from None
        try:
            mat = matrixio.cache_load(cache_dir, args.kind, args.n, args.m)
        except (matrixio.CacheMissError, matrixio.SchemaMismatchError):
            mat = None
    fresh = mat is None
    if fresh:
        mat = compute_matrix(args.kind, args.n, args.m)
    text = matrixio.render(mat, args.format, block)
    sys.stdout.write(text)
    if fresh and not args.no_cache:
        # the json rendering is the cache document: serialize it once
        try:
            matrixio.cache_store(cache_dir, mat, text if args.format == "json" else None)
        except OSError as exc:
            path = matrixio.cache_path(cache_dir, args.kind, args.n, args.m)
            print(f"warning: cache entry {path} not stored: {exc.strerror or exc}", file=sys.stderr)
    return 0


def _cmd_apply(args) -> int:
    v = parse_vector(args.vector)
    n = args.n
    op = args.op
    if op in ("f", "e"):
        if args.i is None:
            raise ValueError(f"operator {op} needs --i RESIDUE")
        if not 0 <= args.i < n:
            raise ValueError(f"residue {args.i} is not in 0..{n - 1}")
        fn = fock.f_action if op == "f" else fock.e_action
        out = fn(args.i, v, n)
    elif op in ("V", "U"):
        if args.k is None or args.k < 0:
            raise ValueError(f"operator {op} needs --k K with K >= 0")
        fn = fock.v_op if op == "V" else fock.u_op
        out = fn(args.k, v, n)
    elif op == "B":
        if args.k is None or args.k == 0:
            raise ValueError("operator B needs a nonzero --k")
        out = fock.b_action(args.k, v, n)
    elif op == "S":
        if args.alpha is None:
            raise ValueError("operator S needs --alpha PARTITION")
        out = fock.s_alpha(parse_partition(args.alpha), v, n)
    elif op == "bar":
        out = fock.bar(v, n)
    else:
        raise ValueError(f"unknown operator {op!r}")
    print(out.pretty())
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, n=args.n, max_m=args.max_m)
    print(report.render())
    return 0 if report.ok else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fock-canon",
        description="Canonical bases of the q-deformed Fock space, exactly.",
    )
    sub = parser.add_subparsers(dest="command")

    p_matrix = sub.add_parser("matrix", help="compute and print a transition matrix")
    p_matrix.add_argument("--kind", required=True, choices=["A", "D", "E", "C"])
    p_matrix.add_argument("-n", type=parse_modulus, required=True, help="modulus, n >= 2")
    p_matrix.add_argument("-m", type=parse_degree, required=True, help="degree, m >= 0")
    p_matrix.add_argument(
        "--format", default="pretty", choices=["json", "csv", "latex", "pretty"]
    )
    p_matrix.add_argument(
        "--block", default=None, metavar="CORE",
        help="restrict the csv, latex and pretty output to the partitions with "
        "this n-core; the json document always holds the whole degree",
    )
    p_matrix.add_argument(
        "--cache-dir", default=None,
        help=f"cache directory (default {DEFAULT_CACHE_DIR}, env {CACHE_ENV} overrides)",
    )
    p_matrix.add_argument("--no-cache", action="store_true")

    p_apply = sub.add_parser("apply", help="apply an operator to a vector")
    p_apply.add_argument("op", choices=["f", "e", "V", "U", "B", "S", "bar"])
    p_apply.add_argument("-n", type=parse_modulus, required=True, help="modulus, n >= 2")
    p_apply.add_argument("--vector", required=True,
                         help='partition ("311" or "[3,1,1]") or JSON FockVector')
    p_apply.add_argument("--i", type=int, default=None, help="residue for f/e")
    p_apply.add_argument("--k", type=int, default=None, help="index for V/U/B")
    p_apply.add_argument("--alpha", default=None, help="partition for S")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p_verify.add_argument("-n", type=parse_modulus, default=2, help="modulus, n >= 2")
    p_verify.add_argument("--max-m", type=parse_degree, default=6, help="largest degree, m >= 0")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)  # a usage error: stdout stays empty
        return 2
    handler = {"matrix": _cmd_matrix, "apply": _cmd_apply, "verify": _cmd_verify}[
        args.command
    ]
    try:
        return handler(args)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
