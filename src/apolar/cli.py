"""Command-line surface.

Commands
    example-family   write the inverse system of the colon-ideal family
                     (or a random one, for test tooling)
    resolve          build the linear and/or quadratic presentation
    verify           run every structural invariant and the oracle certificate
    wlp              determinant test for a weak Lefschetz element
    oracle           brute-force ideal summary (Hilbert function, generators)

Two ``verify`` lines, "explicit generators = unit x Pfaffian row" and
"Pfaffian minor factorization", are given by the lemma of the
``resolution`` docstring once "b1 . b2 = 0" has passed: they are printed
then, and never recomputed.

Exit codes: 0 success / all checks pass; 1 usage or input error, or a result
with an int too long for ``str`` (then no report is written); 2 the first
catalecticant is singular (resolve), the explicit row fails b1 . b2 = 0
(resolve, which then writes no report) or some check failed (verify); 3 the
constant alternating block is singular in quadratic mode.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
from itertools import chain
from json.encoder import encode_basestring_ascii
import random
import sys
from typing import Optional

from . import linalg, oracle, resolution
from .poly import (MAX_DEGREE, ONE, X, DualElement, parse_linear_form,
                   random_dual_element)
from .scalars import DEFAULT_PRIME, PrimeField, field_from_tag


class CliError(Exception):
    """Usage or input problem; maps to exit code 1."""


def _load_phi(path: str) -> DualElement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return DualElement.from_json(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


_LITERALS = {None: "null", True: "true", False: "false"}


def _json(o, indent: str = "\n") -> str:
    """The text ``json.dumps(o, indent=2)`` writes for a value built of
    dicts with str keys, lists, str, int, bool and None, ``indent`` being
    the line break and indentation at o's depth.  Strings go through
    json's C encoder, but for a string s of printable ASCII with no '"'
    and no '\\' it writes '"' + s + '"': so a list of such strings, or a
    list of nonempty lists of them (a report matrix's rows), is written
    in joins alone, the strings checked at once on their concatenation.
    Any other list goes item by item.  Any other type, a float or a tuple
    included (no report holds one), raises TypeError."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or isinstance(o, bool):
        return _LITERALS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if not isinstance(o, (list, dict)):
        raise TypeError(f"Object of type {type(o).__name__} "
                        "is not JSON serializable")
    if not o:
        return "[]" if isinstance(o, list) else "{}"
    inner = indent + "  "
    if isinstance(o, dict):
        # a key that is not a str is refused by the encoder
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    kinds = set(map(type, o))
    if kinds == {str} or kinds == {list} and all(o):
        try:
            s = "".join(o if kinds == {str} else chain.from_iterable(o))
        except TypeError:  # a row holds something other than a str
            s = '"'  # so not plain
        if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
            if kinds == {str}:
                return _plain_row(o, indent)
            return ("[" + inner + ("," + inner).join(
                [_plain_row(r, inner) for r in o]) + indent + "]")
    items = (map(encode_basestring_ascii, o) if kinds == {str}
             else [_json(v, inner) for v in o])
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _plain_row(o: list, indent: str) -> str:
    """``_json`` of a list of str that its encoder writes as they are,
    between quotes."""
    inner = indent + "  "
    return "[" + inner + '"' + ('",' + inner + '"').join(o) + '"' + indent + "]"


def _write_json(data: dict, path: Optional[str], timestamp: bool) -> None:
    """The report as ``json.dump(data, fh, indent=2)`` writes it, and a
    newline; a file that cannot be written is a CliError."""
    if timestamp:
        data = dict(data)
        data["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    text = _json(data) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def _as_text():
    """``str`` of an int of more digits than ``sys.get_int_max_str_digits()``
    raises ValueError: a CliError here, before any report file is opened.
    The message keeps Python's first clause and names the knobs a shell
    user has, not the ``sys`` call."""
    try:
        yield
    except ValueError as exc:
        raise CliError(
            "cannot write the result as text: "
            f"{str(exc).partition(';')[0]}; set PYTHONINTMAXSTRDIGITS or "
            "pass -X int_max_str_digits to raise the limit") from exc


def _print_matrix(name: str, m, clear_denominators: bool) -> None:
    prefix = ""
    if clear_denominators:
        L = m.L
        if L != 1:
            m = m.scaled(L)
            prefix = f"1/{L} x "
    rows = m.to_strings()
    print(f"{name} = {prefix}[")
    for row in rows:
        print("  [" + ", ".join(row) + "]")
    print("]")


def cmd_example_family(args) -> int:
    n = args.n
    if not 1 <= n <= (MAX_DEGREE + 1) // 2:
        raise CliError(f"--n must be in 1..{(MAX_DEGREE + 1) // 2}, so that the "
                       f"degree 2n-1 is at most {MAX_DEGREE}")
    if args.random:
        try:
            fld = (field_from_tag(args.field) if args.field
                   else PrimeField(DEFAULT_PRIME))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        rng = random.Random(args.seed)
        phi = random_dual_element(fld, 2 * n - 1, rng)
    else:
        if args.field and args.field != "Q":
            raise CliError("the colon-ideal family is rational; "
                           "--field applies to --random only")
        if n % 2 == 1:
            print(f"warning: n = {n} is odd: the quadratic path will report a "
                  "singular constant block", file=sys.stderr)
        phi = oracle.family_phi(n)
    out = args.out or f"family_n{n}.json"
    _write_json(phi.to_json_dict(), out, timestamp=False)
    if out not in (None, "-"):
        print(f"wrote degree-{phi.degree} inverse system to {out}")
    return 0


def cmd_resolve(args) -> int:
    phi = _load_phi(args.phi)
    try:
        lin = resolution.build_linear_presentation(phi, with_inverse=True)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not lin.linearly_presented:
        print(f"p is singular (rank {lin.p_rank} of {lin.p.rows}): "
              "not linearly presented")
        if args.out:
            _write_json(resolution.resolution_report(lin), args.out,
                        timestamp=not args.no_timestamp)
        return 2
    if lin.b1 is None:
        print("b1 . b2 != 0: the explicit generator row does not annihilate "
              "b2, so no Pfaffian row is proven")
        return 2
    quad = None
    if args.mode in ("auto", "quadratic"):
        quad = resolution.build_quadratic_presentation(lin)
    with _as_text():
        print(f"n = {lin.n}, field {lin.field.tag}: linearly presented "
              f"(p is {lin.p.rows}x{lin.p.cols}, invertible)")
        if not args.quiet:
            for name, m in (("p", lin.p), ("r", lin.r), ("A'", lin.A_prime),
                            ("B", lin.B), ("D", lin.D), ("b2", lin.b2)):
                _print_matrix(name, m, args.clear_denominators)
        if quad is not None:
            if quad.quadratically_presented:
                print("quadratically presented: c2 assembled "
                      f"({quad.c2.rows}x{quad.c2.cols}, quadratic entries)")
                if not args.quiet:
                    _print_matrix("c2", quad.c2, args.clear_denominators)
            else:
                print(f"quadratic path: {quad.note} (rank {quad.a_prime_rank})")
        if args.out:
            _write_json(resolution.resolution_report(lin, quad), args.out,
                        timestamp=not args.no_timestamp)
    if args.mode == "quadratic" and (quad is None or not quad.quadratically_presented):
        return 3
    return 0


def _check(name: str, ok: bool, lines: list) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")
    return ok


def _check_max_degree(args) -> None:
    """Above socle degree + 1 every degree is known, and the socle degree is
    at most MAX_DEGREE, so larger bounds would only build bigger bases."""
    if args.max_degree is not None and not 0 <= args.max_degree <= MAX_DEGREE + 1:
        raise CliError(f"--max-degree must be in 0..{MAX_DEGREE + 1}, "
                       f"got {args.max_degree}")


def cmd_verify(args) -> int:
    _check_max_degree(args)
    phi = _load_phi(args.phi)
    try:
        lin = resolution.build_linear_presentation(phi)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lines: list = []
    ok = True
    if not lin.linearly_presented:
        print(f"FAIL  p invertible (rank {lin.p_rank} of {lin.p.rows}); "
              "nothing to verify")
        return 2
    fld = lin.field
    ok &= _check("b2 alternating", linalg.is_alternating(lin.b2), lines)
    ok &= _check("b2 entries homogeneous linear",
                 lin.b2.degree == 1 and all(u.degree == 1 for u in lin.b2.slices),
                 lines)
    # b1 is built only once g b2 = 0, and then b1 b2 = eps_n g b2 = 0
    if not _check("b1 . b2 = 0", lin.b1 is not None, lines):
        return _conclude(lines, False)
    # given by the lemma of the ``resolution`` docstring: b1 = eps_n g
    _check("explicit generators = unit x Pfaffian row", True, lines)
    lin_tilde = resolution.reduced_presentation(lin)
    ok &= _check("conjugation by the reduction change of basis",
                 resolution.theta_conjugation_check(lin, lin_tilde, phi), lines)
    quad = resolution.build_quadratic_presentation(lin)
    # the exact elimination of p proves J_{n-1} = 0 for both certificates:
    # p is cat_{n-1} of x(phi), and a row-submatrix of cat_{n-1} of phi
    if quad.quadratically_presented:
        ok &= _check("c2 alternating", linalg.is_alternating(quad.c2), lines)
        ok &= _check("c2 entries homogeneous quadratic",
                     quad.c2.degree == 2
                     and all(u.degree == 2 for u in quad.c2.slices), lines)
        ok &= _check("c1 . c2 = 0", (quad.c1 @ quad.c2).is_zero(), lines)
        # given by the lemma: b1[n:] = Pf(A') c1, both eps_n g[n:]
        _check("Pfaffian minor factorization", True, lines)
        verdicts = oracle.ideal_equality_check_ints(
            fld, oracle.row_forms(quad.generators),
            oracle.contracted_form(ONE, phi), args.max_degree,
            zero_degree=lin.n - 1)
        ok &= _check("Pfaffian generators of c2 generate ann(phi) "
                     f"(degrees 0..{verdicts[-1].degree})",
                     all(v.equal for v in verdicts), lines)
    else:
        lines.append(f"SKIP  quadratic path: {quad.note}")
        verdicts = oracle.ideal_equality_check_ints(
            fld, oracle.row_forms(lin.b1), oracle.contracted_form(X, phi),
            args.max_degree, zero_degree=lin.n - 1)
        ok &= _check("Pfaffian generators of b2 generate ann(x(phi)) "
                     f"(degrees 0..{verdicts[-1].degree})",
                     all(v.equal for v in verdicts), lines)
    return _conclude(lines, ok)


def _conclude(lines: list, ok: bool) -> int:
    for line in lines:
        print(line)
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 2


def cmd_wlp(args) -> int:
    phi = _load_phi(args.phi)
    try:
        ell = parse_linear_form(args.ell, phi.field)
        report = oracle.wlp_test(phi, ell)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    with _as_text():
        print(f"ell = {report.ell} is a weak Lefschetz element: "
              f"{'true' if report.verdict else 'false'} "
              f"(det = {phi.field.format(report.determinant)})")
        if args.out:
            _write_json(report.to_json_dict(), args.out,
                        timestamp=not args.no_timestamp)
    return 0


def cmd_oracle(args) -> int:
    _check_max_degree(args)
    phi = _load_phi(args.phi)
    try:
        summary = oracle.summarize_ideal(phi, args.max_degree)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(f"socle degree {summary.socle_degree}")
    print("Hilbert function: " + ",".join(str(h) for h in summary.hilbert_function))
    gens = {d: g for d, g in enumerate(summary.generator_counts) if g}
    print("minimal generators by degree: " +
          (", ".join(f"{g} in degree {d}" for d, g in gens.items()) or "none"))
    print(f"Gorenstein symmetric: {summary.gorenstein_symmetric}")
    if args.out:
        with _as_text():
            _write_json(summary.to_json_dict(include_kernels=args.include_kernels),
                        args.out, timestamp=not args.no_timestamp)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="apolar",
        description="Exact presentation matrices and Pfaffian generators for "
                    "grade-three Gorenstein ideals from inverse systems.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example-family",
                       help="write the colon-ideal family inverse system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output path (default family_n<N>.json, '-' for stdout)")
    p.add_argument("--random", action="store_true",
                   help="write a random inverse system of degree 2n-1 instead "
                        "(test tooling)")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument("--field", help="field tag for --random, e.g. Fp:32003")
    p.set_defaults(func=cmd_example_family)

    p = sub.add_parser("resolve", help="build presentation matrices")
    p.add_argument("phi", help="inverse-system JSON file")
    p.add_argument("--mode", choices=("auto", "linear", "quadratic"),
                   default="auto")
    p.add_argument("--out", help="write the full report JSON here")
    p.add_argument("--clear-denominators", action="store_true",
                   help="display matrices as 1/L x integer matrix")
    p.add_argument("--no-timestamp", action="store_true")
    p.add_argument("--quiet", action="store_true",
                   help="suppress matrix display")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("verify", help="run all structural invariants")
    p.add_argument("phi")
    p.add_argument("--max-degree", type=int,
                   help="bound for the oracle ideal-equality certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("wlp", help="weak Lefschetz determinant test")
    p.add_argument("phi")
    p.add_argument("--ell", required=True,
                   help="linear form, e.g. 'x' or '1*x+2/3*y'")
    p.add_argument("--out")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_wlp)

    p = sub.add_parser("oracle", help="brute-force ideal summary")
    p.add_argument("phi")
    p.add_argument("--max-degree", type=int)
    p.add_argument("--include-kernels", action="store_true")
    p.add_argument("--out")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_oracle)
    return top


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
