"""Command-line front end: check, realign, factor, gen.

Exit codes for ``check`` are the machine contract:
0 = EQUIVALENT, 2 = INEQUIVALENT_SPECTRUM, 3 = NOT_FOUND,
1 = usage/parse/validation error.
``factor`` exits 0 when factored, 2 when the input is not a tensor product.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
import warnings

import numpy as np
import orjson

from .decompose import factor_full
from .equivalence import SearchConfig, StateError, Verdict, VerdictStatus, check_equivalence
from .matfile import MatrixFileError, entry_pairs, load_matrix, save_matrix
from .oracle import PairSample, make_equivalent_pair, make_spectrum_mismatch_pair, paper_example
from .spectral import rank_one_test
from .states import DensityMatrix
from .tensor import DimProfile, realign

EXIT_CODES = {
    VerdictStatus.EQUIVALENT: 0,
    VerdictStatus.INEQUIVALENT_SPECTRUM: 2,
    VerdictStatus.NOT_FOUND: 3,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors become ValueError, so they exit 1 like every other input
    error; argparse's own exit code 2 is INEQUIVALENT_SPECTRUM here."""

    def error(self, message):
        raise ValueError(message)


def _config_from(args) -> SearchConfig:
    return SearchConfig(
        sweeps=args.sweeps,
        restarts=args.restarts,
        rank_tol=args.tol_rank,
        spec_tol=args.tol_spec,
        seed=args.seed,
    )


def _load_operator(path) -> tuple[np.ndarray, DimProfile]:
    """The matrix of a file and its dims header; every error names the file."""
    try:
        mf = load_matrix(path)
        return mf.matrix, mf.profile
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except MatrixFileError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _save(path, m, **meta) -> None:
    try:
        save_matrix(path, m, **meta)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _dims_list(parts: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in parts.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"cannot parse dims {parts!r}") from None
    if len(dims) < 2:
        raise ValueError("need at least two local dimensions")
    return dims


def _json_ready(verdict: Verdict) -> Verdict:
    """The verdict with each witness factor, a complex array orjson cannot
    write, as its shape and [re, im] pairs, so orjson writes the rest as it
    stands.  Not a default hook: orjson 3.8.3 never frees what one returns."""
    fs = verdict.witness
    if fs is None:
        return verdict
    factors = tuple({"shape": f.shape, "data": entry_pairs(f)} for f in fs.factors)
    return dataclasses.replace(verdict, witness=dataclasses.replace(fs, factors=factors))


def _print_matrix(m: np.ndarray, out) -> None:
    for row in m:
        print("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row), file=out)


def _cut_line(r) -> str:
    return (
        f"cut {r.cut}: sigma1={r.sigma1:.6e} sigma2={r.sigma2:.6e} "
        f"ratio={r.ratio:.3e} rank_one={r.rank_one}"
    )


def _report_check(verdict: Verdict, out) -> None:
    print(f"verdict: {verdict.status.value}", file=out)
    if verdict.path is not None:
        print(f"path: {verdict.path}", file=out)
    if verdict.path == "coset-block":
        print("note: degenerate spectrum; used the block-unitary search", file=out)
    if verdict.path == "lift":
        why = (
            "the coset point read off the lifted rank-one system verified"
            if verdict.status is VerdictStatus.EQUIVALENT
            else "the lifted rank-one system shows no coset point can pass the rank-one test"
        )
        print(f"note: no search ran; {why}", file=out)
    if verdict.path in ("bound", "invariant"):
        why = {
            "bound": "the marginal spectra",
            "invariant": "the cycle products of the marginal eigenframes",
        }[verdict.path]
        print(f"distance_lower: {verdict.distance_lower:.3e}", file=out)
        print(
            f"note: no search ran; {why} put every product unitary "
            "farther than the witness gate allows",
            file=out,
        )
    for r in verdict.cuts or ():
        print(_cut_line(r), file=out)
    if verdict.objective_history:
        print(
            f"objective: best={verdict.best_objective:.3e} "
            f"over {len(verdict.objective_history)} recorded steps",
            file=out,
        )
    if verdict.status is VerdictStatus.EQUIVALENT and verdict.witness is not None:
        print(f"witness residual: {verdict.witness_residual:.3e}", file=out)
        for i, f in enumerate(verdict.witness.factors, start=1):
            print(f"witness factor U{i} ({f.shape[0]}x{f.shape[1]}):", file=out)
            _print_matrix(f, out)


def cmd_check(args) -> int:
    rho = DensityMatrix(*_load_operator(args.file_a))
    rho_prime = DensityMatrix(*_load_operator(args.file_b))
    try:
        verdict = check_equivalence(rho, rho_prime, _config_from(args))
    except StateError as exc:
        raise ValueError(f"{(args.file_a, args.file_b)[exc.index]}: {exc}") from None
    if args.json:
        options = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
        sys.stdout.write(orjson.dumps(_json_ready(verdict), option=options).decode())
    else:
        _report_check(verdict, sys.stdout)
    return EXIT_CODES[verdict.status]


def cmd_realign(args) -> int:
    m, profile = _load_operator(args.file)
    realigned = realign(m, profile, args.cut)
    # the verdict is not printed, so any tolerance serves
    r = rank_one_test(realigned, SearchConfig.rank_tol)
    out_path = args.out or f"{args.file}.cut{args.cut}.realigned.json"
    _save(out_path, realigned, dims=None, label=f"realigned cut {args.cut}")
    print(f"cut {args.cut}: shape {realigned.shape[0]}x{realigned.shape[1]} -> {out_path}")
    print(f"sigma1={r.sigma1:.12e} sigma2={r.sigma2:.12e} ratio={r.ratio:.3e}")
    return 0


def cmd_factor(args) -> int:
    m, profile = _load_operator(args.file)
    try:
        reports, fs = factor_full(m, profile, args.tol_rank)
    except ValueError as exc:  # the file holds no unitary
        raise ValueError(f"{args.file}: {exc}") from None
    for r in reports:
        print(_cut_line(r))
    if fs is None:
        worst = max(reports, key=lambda r: r.ratio)
        print(f"not decomposable: cut {worst.cut} has ratio {worst.ratio:.3e}")
        return 2
    prefix = args.out_prefix or f"{args.file}.factor"
    for i, (f, d) in enumerate(zip(fs.factors, profile.dims), start=1):
        path = f"{prefix}{i}.json"
        _save(path, f, dims=(d,), label=f"factor {i}")
        print(f"factor U{i} ({d}x{d}) -> {path}")
    print(f"reconstruction residual: {fs.factorization_residual:.3e}")
    return 0


def cmd_gen(args) -> int:
    seed = args.seed
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    prefix, note = args.out_prefix, ""
    if args.kind == "paper-example":
        sample = PairSample(*paper_example(args.a, args.b, args.c))
        tag, seed, note = "paper-example", None, f" (a={args.a} b={args.b} c={args.c})"
    else:
        if args.dims is None:
            raise ValueError(f"--dims is required for kind {args.kind}")
        profile = DimProfile(_dims_list(args.dims))
        planted = args.kind == "pair-equivalent"
        sample = (make_equivalent_pair if planted else make_spectrum_mismatch_pair)(profile, seed)
        tag = "planted" if planted else "mismatch"
    dims = sample.rho.profile.dims
    written = [f"{prefix}_a.json", f"{prefix}_b.json"]
    for path, m, name in zip(written, (sample.rho, sample.rho_prime), ("rho", "rho_prime")):
        _save(path, m.matrix, dims=dims, label=f"{tag} {name}", seed=seed)
    for i, (u, d) in enumerate(zip(sample.planted or (), dims), start=1):
        written.append(f"{prefix}_u{i}.json")
        _save(written[-1], u, dims=(d,), label=f"planted factor {i}", seed=seed)
    print("wrote " + " ".join(written) + note)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The root parser, built once per process; argparse looks up sys.stdout
    when it prints."""
    return _parsers()[0]


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and each command's own parser, by command name."""
    parser = _Parser(
        prog="luequiv",
        description="Local-unitary equivalence of multipartite density matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = SearchConfig()  # the one source of the search defaults
    search_flags = (
        ("--tol-rank", float, d.rank_tol, "rank-one threshold on sigma2/sigma1: the rank_one "
         "flags, search success, lift floor and factor's refusal; check's witness gate ignores it"),
        ("--tol-spec", float, d.spec_tol,
         "absolute eigenvalue tolerance: spectra match and degeneracy grouping"),
        ("--sweeps", int, d.sweeps, "alignment passes per start"),
        ("--restarts", int, d.restarts, "search starts: three race, then all the others at once"),
        ("--seed", int, d.seed, "search seed"),
    )

    def add_flags(p, flags):
        for flag, kind, default, what in flags:
            p.add_argument(flag, type=kind, default=default, help=f"{what} (default %(default)s)")

    p_check = sub.add_parser("check", help="decide LU equivalence of two states")
    p_check.add_argument("file_a")
    p_check.add_argument("file_b")
    p_check.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    add_flags(p_check, search_flags)
    p_check.set_defaults(func=cmd_check)

    p_re = sub.add_parser("realign", help="realign an operator across one cut")
    p_re.add_argument("file")
    p_re.add_argument("--cut", type=int, required=True, help="cut index k (1..M-1)")
    p_re.add_argument("-o", "--out", default=None, help="output path for the realigned matrix")
    p_re.set_defaults(func=cmd_realign)

    p_fac = sub.add_parser("factor", help="factor a unitary into local tensor factors")
    p_fac.add_argument("file")
    add_flags(p_fac, search_flags[:1])
    p_fac.add_argument("-o", "--out-prefix", default=None, help="prefix for factor files")
    p_fac.set_defaults(func=cmd_factor)

    p_gen = sub.add_parser("gen", help="generate fixture states")
    p_gen.add_argument(
        "kind", choices=["pair-equivalent", "pair-spectrum-mismatch", "paper-example"]
    )
    p_gen.add_argument("--dims", default=None, help="local dimensions, e.g. 2,2,2")
    p_gen.add_argument("--a", type=float, default=3.0)
    p_gen.add_argument("--b", type=float, default=5.0)
    p_gen.add_argument("--c", type=float, default=7.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--out-prefix", default="luequiv_gen")
    p_gen.set_defaults(func=cmd_gen)
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """One parse: a command's own parser reads the arguments after its name,
    as the root parser would hand them on; the root parser reads the rest
    (--help, no command, an unknown command)."""
    root, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return root.parse_args(argv)
    return command.parse_args(argv[1:])


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning for the CLI: one ``warning:`` line, no source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # the one place a failure becomes an exit code: a ValueError (a usage or
    # file error, MatrixFileError, ShapeError, LinAlgError, a SearchConfig
    # range error) or a MemoryError (numpy's names the allocation it refused)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            args = _parse_args(argv)
            code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left (``| head``): the rest goes to devnull, so the flush at
        # exit does not fail again; a stream with no descriptor is left alone
        with contextlib.suppress(AttributeError, OSError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
