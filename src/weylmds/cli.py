"""Command-line front end.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success (and
verification pass), 1 verification failure, 2 usage error, refused oversized
work or a failed internal check.  Output is deterministic byte-for-byte for a
fixed command line.  Each command imports only the modules it runs, except
that the chars commands (character, euler, verify cs and verify hamel-king)
load all of chars' imports.
"""

import argparse
import signal
import sys
from itertools import islice


def _emit(text):
    sys.stdout.write(text + "\n")


def _dump(obj):
    import json
    return json.dumps(obj, separators=(",", ": "), indent=1, sort_keys=False)


def _emit_list(items, within=None):
    """Write _dump(list(items)) and a newline, or with `within`, a dict
    whose last value is [], _dump(within) with that [] holding the items.
    The list goes out a few thousand items at a time, without holding the
    whole list or its text, and nothing is written before the first chunk
    is built."""
    head, _, end = _dump(within).rpartition("[]") if within else ("", "", "")
    key = head.rpartition("\n")[2]  # ' "entries": ', as deep as the items
    indent = key[:len(key) - len(key.lstrip())]
    items = iter(items)
    sep = head + "["
    while chunk := list(islice(items, 4096)):
        text = _dump(chunk)[1:-2]    # "\n {...},\n {...}"
        sys.stdout.write(sep + text.replace("\n", "\n" + indent))
        sep = ","
    _emit((sep + "]" if sep != "," else "\n" + indent + "]") + end)


def _parse_ints(text, flag, rank):
    if rank <= 0:  # before the list, whose length would name the wrong flag
        raise ValueError("--rank must be positive")
    parts = text.split(",")  # int() also takes "1_0", " 1" and other digits
    if not all(x.isascii() and x.removeprefix("-").isdigit() for x in parts):
        raise ValueError(f"{flag} {text!r} is not comma-separated integers")
    if len(parts) != rank:
        raise ValueError(f"{flag} must have {rank} entries")
    # int() refuses more than 4,300 digits with a text that names no flag;
    # 4,000 leaves room for the sums of the top row that a refusal writes
    if max(map(len, parts)) > 4000:
        raise ValueError(f"{flag} has an entry of more than 4000 digits")
    return tuple(map(int, parts))


def _parse_twist(args) -> "LambdaTwist":
    from .roots import LambdaTwist
    return LambdaTwist(_parse_ints(args.l, "--l", args.rank))


def _twist(args) -> "LambdaTwist":
    """The twist of a command that walks the patterns of its top row."""
    from .roots import check_pattern_count
    twist = _parse_twist(args)
    check_pattern_count(twist.top_row)
    return twist


def cmd_patterns(args):
    from .patterns import enumerate_patterns
    pats = enumerate_patterns(_twist(args).top_row, strict=args.strict_only)
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
    tableaux = standard_tableaux(_twist(args).top_row)
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
    if args.p is not None:
        if args.format == "csv":
            raise ValueError("--p adds a column that csv does not have; "
                             "use --format json")
        ctx = gauss.ArithContext(args.n, args.p)
    table = coeffs.h_table(twist, args.n)
    if args.format == "csv":
        for k, value in table.entries:
            val = ";".join(f"{c}q^{e}g{list(syms)}"
                           for syms, e, c in value.terms) or "0"
            _emit(",".join(map(str, k)) + "," + val)
        return 0

    def entries():  # each entry built as it is written
        for k, value in table.entries:
            entry = {"k": list(k), "value": value.to_json()}
            if args.p is not None:
                z = gauss.numeric_eval(value, ctx)
                entry["numeric"] = [z.real, z.imag]
            yield entry

    if args.p is not None:
        gauss.check_numeric_terms(ctx, [v for _, v in table.entries])
    _emit_list(entries(), {"l": list(twist.l), "n": args.n, "entries": []})
    return 0


def cmd_character(args):
    from .chars import character_gt
    from .roots import check_pattern_count
    twist = _parse_twist(args)
    check_pattern_count(twist.partition)
    poly = character_gt(twist.partition)
    if args.format == "csv":
        for e, c in poly.sorted_terms():
            _emit(",".join(str(x) for x in e) + f",{c}")
        return 0
    _emit_list(poly.to_json())
    return 0


def cmd_euler(args):
    from .chars import euler_product_n1
    entries = euler_product_n1(_parse_ints(args.m, "--m", args.rank),
                               args.bound)
    if args.format == "csv":
        for c, v in entries:
            _emit(",".join(map(str, c + (v,))))
        return 0
    _emit_list({"c": list(c), "value": str(v)} for c, v in entries)
    return 0


def _verdict(ok, report):
    _emit(_dump(report))
    return 0 if ok else 1


def cmd_verify_stable(args):
    from . import gauss, stable
    twist = _twist(args)
    ctx = None if args.p is None else gauss.ArithContext(args.n, args.p)
    report = stable.verify_stable_match(twist, args.n, ctx)
    return _verdict(not report["mismatches"], report)


def cmd_verify_hamel_king(args):
    from .chars import verify_deformation_identity
    ok, diff = verify_deformation_identity(_twist(args))
    return _verdict(ok, {"ok": ok, "residual": diff.to_json()})


def cmd_verify_lemma3(args):
    from .coeffs import k_sum_classes
    bad = [{"k": list(k), "exponent_sum": exp, "patterns": count}
           for k, exp, count in k_sum_classes(_twist(args)) if sum(k) != exp]
    return _verdict(not bad, {"ok": not bad, "failures": bad})


def cmd_verify_lemma4(args):
    from .tableaux import verify_tableau_stats
    ok, bad = verify_tableau_stats(_twist(args))
    return _verdict(ok, {"ok": ok, "failures": [
        {"pair": i, "rows": list(map(list, rows)), "residuals": list(res)}
        for i, rows, res in bad]})


def cmd_verify_gauss(args):
    from . import gauss
    n = args.n
    if n < 1:
        raise ValueError("--n must be positive")
    p = args.p if args.p is not None else {1: 5, 3: 7, 5: 11}.get(n)
    if p is None:
        raise ValueError("--p is required for this degree")
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
    from . import chars, coeffs
    table = coeffs.h_table(_twist(args), 1)  # read by both table identities
    ok_a, diff_a = chars.verify_euler_bridge(args.rank)
    ok_b, diff_b = chars.verify_euler_factor_identity(table)
    ok_t, bad = chars.verify_h_tilde(table)
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
    p.add_argument("--p", type=int, help="add a numeric column at p")
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
    except (ValueError, OverflowError) as exc:
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
