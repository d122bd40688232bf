"""Command-line surface.

Commands
    example-family   write the inverse system of the colon-ideal family
                     (or a random one, for test tooling)
    resolve          build the linear and/or quadratic presentation
    verify           run every structural invariant and the oracle certificate
    wlp              determinant test for a weak Lefschetz element
    oracle           brute-force ideal summary (Hilbert function, generators)

Exit codes: 0 success / all checks pass; 1 usage or input error; 2 the first
catalecticant is singular (resolve) or some check failed (verify); 3 the
constant alternating block is singular in quadratic mode.
"""

from __future__ import annotations

import argparse
import datetime
import json
import random
import sys
from typing import Optional

from . import linalg, oracle, resolution
from .linalg import denominator_lcm
from .poly import (DualElement, Polynomial, contract, parse_linear_form,
                   random_dual_element)
from .scalars import DEFAULT_PRIME, PrimeField, field_from_tag


class CliError(Exception):
    """Usage or input problem; maps to exit code 1."""


def _load_phi(path: str) -> DualElement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return DualElement.from_json(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write_json(data: dict, path: Optional[str], timestamp: bool) -> None:
    if timestamp:
        data = dict(data)
        data["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    text = json.dumps(data, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_matrix(name: str, m, clear_denominators: bool) -> None:
    prefix = ""
    if clear_denominators:
        L = denominator_lcm(m)
        if L != 1:
            m = m.scaled(L)
            prefix = f"1/{L} x "
    print(f"{name} = {prefix}[")
    for row in m.to_strings():
        print("  [" + ", ".join(row) + "]")
    print("]")


def cmd_example_family(args) -> int:
    n = args.n
    if n < 1:
        raise CliError("--n must be a positive integer")
    if args.random:
        fld = field_from_tag(args.field) if args.field else PrimeField(DEFAULT_PRIME)
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
        lin = resolution.build_linear_presentation(phi)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not lin.linearly_presented:
        print(f"p is singular (rank {lin.p_rank} of {lin.p.rows}): "
              "not linearly presented")
        if args.out:
            _write_json(resolution.resolution_report(lin), args.out,
                        timestamp=not args.no_timestamp)
        return 2
    quad = None
    if args.mode in ("auto", "quadratic"):
        quad = resolution.build_quadratic_presentation(lin)
    print(f"n = {lin.n}, field {lin.field.tag}: linearly presented "
          f"(p is {lin.p.rows}x{lin.p.cols}, invertible)")
    if not args.quiet:
        _print_matrix("p", lin.p, args.clear_denominators)
        _print_matrix("r", lin.r, args.clear_denominators)
        _print_matrix("A'", lin.A_prime, args.clear_denominators)
        _print_matrix("B", lin.B, args.clear_denominators)
        _print_matrix("D", lin.D, args.clear_denominators)
        _print_matrix("b2", lin.b2, args.clear_denominators)
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
    if args.max_degree is not None and args.max_degree < 0:
        raise CliError(f"--max-degree must be nonnegative, got {args.max_degree}")


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
    n = lin.n
    fld = lin.field
    ok &= _check("b2 alternating", linalg.is_alternating(lin.b2), lines)
    ok &= _check("b2 entries homogeneous linear",
                 lin.b2.degree == 1 and all(e.is_zero or e.degree == 1
                                            for row in lin.b2.entries for e in row),
                 lines)
    ok &= _check("b1 . b2 = 0", (lin.b1 @ lin.b2).is_zero(), lines)
    try:
        resolution.proportionality_unit(lin.generators, lin.b1.entries[0])
        prop_ok = True
    except resolution.ProportionalityError:
        prop_ok = False
    ok &= _check("explicit generators = unit x Pfaffian row", prop_ok, lines)
    lin_tilde = resolution.build_linear_presentation(
        resolution.reduced_inverse_system(phi), with_pfaffian_row=False)
    ok &= _check("conjugation by the reduction change of basis",
                 resolution.theta_conjugation_check(lin, lin_tilde, phi), lines)
    quad = resolution.build_quadratic_presentation(lin)
    if quad.quadratically_presented:
        ok &= _check("c2 alternating", linalg.is_alternating(quad.c2), lines)
        ok &= _check("c2 entries homogeneous quadratic",
                     quad.c2.degree == 2 and all(e.is_zero or e.degree == 2
                                                 for row in quad.c2.entries
                                                 for e in row),
                     lines)
        ok &= _check("c1 . c2 = 0", (quad.c1 @ quad.c2).is_zero(), lines)
        ok &= _check("Pfaffian minor factorization",
                     resolution.claim_factorization_check(lin, quad), lines)
        verdicts = oracle.ideal_equality_check(quad.generators, phi,
                                               args.max_degree)
        ok &= _check("Pfaffian generators of c2 generate ann(phi) "
                     f"(degrees 0..{verdicts[-1].degree})",
                     all(v.equal for v in verdicts), lines)
    else:
        lines.append(f"SKIP  quadratic path: {quad.note}")
        x = Polynomial.variable(fld, "x")
        xphi = contract(x, phi)
        bound = args.max_degree if args.max_degree is not None else 2 * n - 1
        verdicts = oracle.ideal_equality_check(list(lin.b1.entries[0]), xphi,
                                               bound)
        ok &= _check("Pfaffian generators of b2 generate ann(x(phi)) "
                     f"(degrees 0..{verdicts[-1].degree})",
                     all(v.equal for v in verdicts), lines)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
