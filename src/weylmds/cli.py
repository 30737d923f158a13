"""Command-line front end.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success (and
verification pass), 1 verification failure, 2 usage error, refused oversized
work or a failed internal check.  Output is deterministic byte-for-byte for a
fixed command line.  Each command imports only the modules it runs.
"""

import argparse
import json
import signal
import sys
from itertools import islice
from math import factorial


def _emit(text):
    sys.stdout.write(text + "\n")


def _dump(obj):
    return json.dumps(obj, separators=(",", ": "), indent=1, sort_keys=False)


def _emit_list(items, head="", indent="", end=""):
    """Write head + _dump(list(items)) + end and a newline, every line of
    the list after its first indented by `indent`, a few thousand items at
    a time, without holding the whole list or its text.  Nothing is written
    before the first chunk is built."""
    items = iter(items)
    sep = head + "["
    while chunk := list(islice(items, 4096)):
        text = _dump(chunk)[1:-2]    # "\n {...},\n {...}"
        sys.stdout.write(sep + text.replace("\n", "\n" + indent))
        sep = ","
    _emit((sep + "]" if sep != "," else "\n" + indent + "]") + end)


def _parse_ints(text):
    return tuple(int(x) for x in text.split(","))


def _parse_twist(args) -> "LambdaTwist":
    from .roots import LambdaTwist
    l = _parse_ints(args.l)
    if len(l) != args.rank:
        raise SystemExit2(f"--l must have {args.rank} entries")
    return LambdaTwist(l)


def _twist(args) -> "LambdaTwist":
    """The twist of a command that walks the patterns of its top row."""
    from .roots import check_pattern_count
    twist = _parse_twist(args)
    check_pattern_count(twist.top_row)
    return twist


class SystemExit2(Exception):
    """Usage error signalled from command handlers."""


def cmd_patterns(args):
    from .patterns import enumerate_patterns
    twist = _twist(args)
    pats = enumerate_patterns(twist.top_row, strict=args.strict_only)
    if args.count_only:
        _emit(str(sum(1 for _ in pats)))
        return 0
    if args.format == "csv":
        for P in pats:
            flat = [x for row in (P.a + P.b) for x in row]
            _emit(",".join(str(x) for x in flat))
        return 0
    _emit_list(P.to_json() for P in pats)
    return 0


def cmd_tableaux(args):
    from .tableaux import standard_tableaux
    twist = _twist(args)
    tableaux = standard_tableaux(twist.top_row)
    if args.format == "text":
        for S in tableaux:
            _emit(S.render_text())
            _emit("")
        return 0
    _emit_list(map(_tableau_json, tableaux))
    return 0


def _tableau_json(S):
    from .tableaux import tableau_stats
    st = tableau_stats(S)
    return {"tableau": S.to_json(), "wgt": list(st.wgt),
            "str": st.str_total, "barred": st.barred, "height": st.height}


def cmd_hcoeff(args):
    from . import coeffs, gauss
    twist = _twist(args)
    if args.numeric:
        if args.format == "csv":
            raise SystemExit2("--numeric has no csv column; use --format json")
        if args.p is None:
            raise SystemExit2("--numeric needs --p")
        ctx = gauss.ArithContext(args.n, args.p)
    elif args.p is not None:
        raise SystemExit2("--p is only read with --numeric")
    table = coeffs.h_table(twist, args.n)
    entries = table.entries_json()
    if args.format == "csv":
        for entry in entries:
            val = ";".join(f"{t['c']}q^{t['q']}g{t['g']}"
                           for t in entry["value"]) or "0"
            _emit(",".join(str(x) for x in entry["k"]) + "," + val)
        return 0
    if args.numeric:
        e = max((t[1] for _, v in table.entries for t in v.terms), default=0)
        gauss.check_numeric_terms(len(table.entries), ctx, e)
        entries = _with_numeric(entries, table, ctx)
    # the entry list goes one level deeper, between the head and the tail
    head, _, tail = _dump(table.to_json(entries=[])).rpartition("[]")
    _emit_list(entries, head, indent=" ", end=tail)
    return 0


def _with_numeric(entries, table, ctx):
    """Each entry with the numeric value of its GaussValue, evaluated as
    the entry is written."""
    from .gauss import numeric_eval
    for entry, (_, val) in zip(entries, table.entries):
        z = numeric_eval(val, ctx)
        entry["numeric"] = [z.real, z.imag]
        yield entry


def cmd_character(args):
    from .chars import character_gt, check_pattern_count
    twist = _parse_twist(args)
    check_pattern_count(twist.partition)
    poly = character_gt(twist.partition, args.rank)
    if args.format == "csv":
        for e, c in poly.sorted_terms():
            _emit(",".join(str(x) for x in e) + f",{c}")
        return 0
    _emit_list(poly.to_json())
    return 0


def cmd_euler(args):
    from .chars import euler_product_n1
    m = _parse_ints(args.m)
    if len(m) != args.rank:
        raise SystemExit2(f"--m must have {args.rank} entries")
    table = sorted(euler_product_n1(m, args.bound).items())
    if args.format == "csv":
        for c, v in table:
            _emit(",".join(map(str, c + (v,))))
        return 0
    _emit_list({"c": list(c), "value": str(v)} for c, v in table)
    return 0


def _verdict(ok, report):
    _emit(_dump(report))
    return 0 if ok else 1


def cmd_verify_stable(args):
    from . import gauss, stable
    twist = _twist(args)
    ctx = None
    if args.p is not None:
        ctx = gauss.ArithContext(args.n, args.p)
        # at most two values per signed permutation
        gauss.check_numeric_terms(2 * 2 ** args.rank * factorial(args.rank),
                                  ctx)
    report = stable.verify_stable_match(twist, args.n, ctx)
    return _verdict(not report["mismatches"], report)


def cmd_verify_hamel_king(args):
    from .chars import verify_deformation_identity
    ok, diff = verify_deformation_identity(_twist(args))
    return _verdict(ok, {"ok": ok, "residual": diff.to_json()})


def cmd_verify_lemma3(args):
    from . import coeffs, patterns
    twist = _twist(args)
    bad = [P.to_json() for P in patterns.enumerate_patterns(twist.top_row)
           if not coeffs.verify_k_sum(P)]
    return _verdict(not bad, {"ok": not bad, "failures": bad})


def cmd_verify_lemma4(args):
    from . import patterns, tableaux
    twist = _twist(args)
    strict = patterns.enumerate_patterns(twist.top_row, strict=True)
    bad = [P.to_json() for P in strict if not tableaux.verify_tableau_stats(P)]
    return _verdict(not bad, {"ok": not bad, "failures": bad})


def cmd_verify_gauss(args):
    from . import gauss
    n = args.n
    if n < 1:
        raise SystemExit2("--n must be positive")
    p = args.p if args.p is not None else {1: 5, 3: 7, 5: 11}.get(n)
    if p is None:
        raise SystemExit2("--p is required for this degree")
    ctx = gauss.ArithContext(n, p)
    gauss.brute_force_modulus(p, 4)  # refused before summing: v reaches 4
    bad = []
    for t in (1, 2):
        for c in range(0, 6):
            for v in range(0, 5):
                sym = gauss.numeric_eval(gauss.gauss_eval(t, c, v, n), ctx)
                brute = gauss.gauss_brute(t, c, v, ctx)
                if abs(sym - brute) > 1e-9 * p ** v:
                    bad.append({"t": t, "c": c, "v": v,
                                "symbolic": [sym.real, sym.imag],
                                "brute": [brute.real, brute.imag]})
    return _verdict(not bad, {"ok": not bad, "n": n, "p": p, "failures": bad})


def cmd_verify_cs(args):
    from . import chars
    twist = _twist(args)
    ok_a, diff_a = chars.verify_euler_bridge(args.rank)
    ok_b, diff_b = chars.verify_euler_factor_identity(twist)
    ok_t, bad = chars.verify_h_tilde(twist)
    ok = ok_a and ok_b and ok_t
    return _verdict(ok, {"ok": ok,
                         "bridge_residual": diff_a.to_json(),
                         "full_residual": diff_b.to_json(),
                         "reduced_table_failures": [list(k) for k in bad]})


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

    # each verification takes only the flags it reads
    p = sub.add_parser("verify", help="run a verification suite")
    targets = p.add_subparsers(dest="what", required=True)

    def target(name, func, text, twist=True):
        parser = targets.add_parser(name, help=text)
        if twist:
            parser.add_argument("--rank", type=int, default=1)
            parser.add_argument("--l", type=str, default="0")
        parser.set_defaults(func=func)
        return parser

    p = target("stable", cmd_verify_stable,
               "pattern-sum table against the stable-case product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, help="also compare numerically at p")
    target("hamel-king", cmd_verify_hamel_king,
           "deformed-denominator identity over shifted tableaux")
    target("lemma3", cmd_verify_lemma3, "support-sum identity")
    target("lemma4", cmd_verify_lemma4,
           "entry classification against tableau statistics")
    p = target("gauss", cmd_verify_gauss,
               "symbolic Gauss sums against brute force", twist=False)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p", type=int)
    target("cs", cmd_verify_cs, "n = 1 Euler-factor identities")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SystemExit2, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a broken internal invariant, not a verification failure (exit 1)
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    # a reader that closes stdout early (`| head`) ends the process quietly
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
