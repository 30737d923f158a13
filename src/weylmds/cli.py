"""Command-line front end.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success (and
verification pass), 1 verification failure, 2 usage error.  Output is
deterministic byte-for-byte for a fixed command line.
"""

import argparse
import json
import signal
import sys

from .chars import (character_gt, euler_product_n1,
                    verify_deformation_identity, verify_euler_bridge,
                    verify_euler_factor_identity, verify_h_tilde)
from .coeffs import h_table, verify_k_sum
from .gauss import ArithContext, gauss_brute, gauss_eval, numeric_eval
from .patterns import LambdaTwist, enumerate_patterns, is_strict
from .stable import verify_stable_match
from .tableaux import (pattern_from_tableau, standard_tableaux,
                       tableau_from_pattern, tableau_stats)


def _emit(text):
    sys.stdout.write(text + "\n")


def _dump(obj):
    return json.dumps(obj, separators=(",", ": "), indent=1, sort_keys=False)


def _parse_ints(text):
    return tuple(int(x) for x in text.split(","))


def _twist(args) -> LambdaTwist:
    l = _parse_ints(args.l)
    if len(l) != args.rank:
        raise SystemExit2(f"--l must have {args.rank} entries")
    return LambdaTwist(l)


class SystemExit2(Exception):
    """Usage error signalled from command handlers."""


def cmd_patterns(args):
    twist = _twist(args)
    pats = list(enumerate_patterns(twist.top_row))
    if args.strict_only:
        pats = [P for P in pats if is_strict(P)]
    if args.count_only:
        _emit(str(len(pats)))
        return 0
    if args.format == "csv":
        for P in pats:
            flat = [x for row in (P.a + P.b) for x in row]
            _emit(",".join(str(x) for x in flat))
        return 0
    _emit(_dump([P.to_json() for P in pats]))
    return 0


def cmd_tableaux(args):
    twist = _twist(args)
    out = []
    for S in standard_tableaux(twist.top_row):
        if args.format == "text":
            _emit(S.render_text())
            _emit("")
        else:
            st = tableau_stats(S)
            out.append({"tableau": S.to_json(),
                        "wgt": list(st.wgt),
                        "str": st.str_total,
                        "barred": st.barred,
                        "height": st.height})
    if args.format == "json":
        _emit(_dump(out))
    return 0


def cmd_hcoeff(args):
    twist = _twist(args)
    table = h_table(twist, args.n)
    obj = table.to_json()
    if args.numeric:
        ctx = _context(args)
        for entry, (_, val) in zip(obj["entries"], table.entries):
            z = numeric_eval(val, ctx)
            entry["numeric"] = [z.real, z.imag]
    if args.format == "csv":
        for entry in obj["entries"]:
            val = ";".join(f"{t['c']}q^{t['q']}g{t['g']}"
                           for t in entry["value"]) or "0"
            _emit(",".join(str(x) for x in entry["k"]) + "," + val)
        return 0
    _emit(_dump(obj))
    return 0


def cmd_character(args):
    twist = _twist(args)
    poly = character_gt(twist.partition, args.rank)
    if args.format == "csv":
        for e, c in poly.sorted_terms():
            _emit(",".join(str(x) for x in e) + f",{c}")
        return 0
    _emit(_dump(poly.to_json()))
    return 0


def cmd_euler(args):
    m = _parse_ints(args.m)
    if len(m) != args.rank:
        raise SystemExit2(f"--m must have {args.rank} entries")
    table = euler_product_n1(m, args.bound)
    rows = [{"c": list(c), "value": str(v)} for c, v in sorted(table.items())]
    if args.format == "csv":
        for row in rows:
            _emit(",".join(str(x) for x in row["c"]) + "," + row["value"])
        return 0
    _emit(_dump(rows))
    return 0


def _context(args) -> ArithContext:
    if args.p is None:
        raise SystemExit2("--p is required here")
    n = getattr(args, "n", 1) or 1
    if (args.p - 1) % n:
        raise SystemExit2("p must be congruent to 1 mod n")
    return ArithContext(n, args.p)


def cmd_verify(args):
    if args.what == "stable":
        twist = _twist(args)
        if args.n is None:
            raise SystemExit2("--n is required for stable verification")
        ctx = _context(args) if args.p else None
        report = verify_stable_match(twist, args.n, ctx)
        _emit(_dump(report))
        return 0 if not report["mismatches"] else 1

    if args.what == "hamel-king":
        twist = _twist(args)
        ok, diff = verify_deformation_identity(twist)
        _emit(_dump({"ok": ok, "residual": diff.to_json()}))
        return 0 if ok else 1

    if args.what == "lemma3":
        twist = _twist(args)
        bad = [P.to_json() for P in enumerate_patterns(twist.top_row)
               if not verify_k_sum(P)]
        _emit(_dump({"ok": not bad, "failures": bad}))
        return 0 if not bad else 1

    if args.what == "lemma4":
        from .tableaux import verify_tableau_stats
        twist = _twist(args)
        bad = []
        for P in enumerate_patterns(twist.top_row):
            if not is_strict(P):
                continue
            if not verify_tableau_stats(P):
                bad.append(P.to_json())
            elif pattern_from_tableau(tableau_from_pattern(P)) != P:
                bad.append(P.to_json())
        _emit(_dump({"ok": not bad, "failures": bad}))
        return 0 if not bad else 1

    if args.what == "gauss":
        n = args.n or 1
        p = args.p or {1: 5, 3: 7, 5: 11}.get(n)
        if p is None:
            raise SystemExit2("--p is required for this degree")
        ctx = ArithContext(n, p)
        bad = []
        for t in (1, 2):
            for c in range(0, 6):
                for v in range(0, 5):
                    sym = numeric_eval(gauss_eval(t, c, v, n), ctx)
                    brute = gauss_brute(t, c, v, ctx)
                    if abs(sym - brute) > 1e-9 * p ** v:
                        bad.append({"t": t, "c": c, "v": v,
                                    "symbolic": [sym.real, sym.imag],
                                    "brute": [brute.real, brute.imag]})
        _emit(_dump({"ok": not bad, "n": n, "p": p, "failures": bad}))
        return 0 if not bad else 1

    if args.what == "cs":
        twist = _twist(args)
        ok_a, diff_a = verify_euler_bridge(args.rank)
        ok_b, diff_b = verify_euler_factor_identity(twist)
        ok_t, bad = verify_h_tilde(twist)
        _emit(_dump({"ok": ok_a and ok_b and ok_t,
                     "bridge_residual": diff_a.to_json(),
                     "full_residual": diff_b.to_json(),
                     "reduced_table_failures": [list(k) for k in bad]}))
        return 0 if ok_a and ok_b and ok_t else 1

    raise SystemExit2(f"unknown verification {args.what!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weylmds",
        description="pattern enumerations, coefficient tables and identity "
                    "checks for type-C multiple Dirichlet series")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *formats):
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--l", type=str, required=True,
                       help="comma-separated twisting exponents")
        add_format(p, *formats)

    def add_format(p, *formats):
        p.add_argument("--format", choices=("json",) + formats,
                       default="json")

    p = sub.add_parser("patterns", help="enumerate patterns for a twist")
    common(p, "csv")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--strict-only", action="store_true")
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("tableaux", help="dump the standard shifted tableaux")
    common(p, "text")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("hcoeff", help="prime-power coefficient table")
    common(p, "csv")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--numeric", action="store_true",
                   help="add a floating cross-check column (requires --p)")
    p.set_defaults(func=cmd_hcoeff)

    p = sub.add_parser("character", help="symplectic character for a twist")
    common(p, "csv")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("euler", help="global coefficients at n = 1")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--m", type=str, required=True)
    p.add_argument("--bound", type=int, required=True)
    add_format(p, "csv")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("what", choices=("stable", "hamel-king", "lemma3",
                                    "lemma4", "gauss", "cs"))
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--l", type=str, default="0")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    # a reader that closes stdout early (`| head`) ends the process quietly
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
