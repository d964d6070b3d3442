"""Command-line front end: states, spectra, correlators, probabilities, and
the verification suites, with CSV/JSON output suitable for regenerating every
reported number."""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import __version__, cgproj, suites, transfercorr, vbsstate
from .qnum import RatQ, parse_q, radical_form


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows):
    """Lines of comma-joined string fields. No field holds a comma, a quote
    or a line break, so these are the bytes of csv's minimal quoting."""
    return "\n".join(map(",".join, (header, *rows))) + "\n"


def _radical_text(factors):
    """sqrt(prod factors) in its normal form, as (r) * sqrt((f) * ...) or r."""
    r, kept = radical_form(factors)
    if not kept:
        return str(r)
    return "(%s) * sqrt(%s)" % (r, " * ".join("(%s)" % f for f in kept))


@lru_cache(maxsize=16)
def _chain_state(S, L, bc, p1, p2):
    """The exact chain state, which does not depend on q, and its rows for
    output, (key text, position in amps) sorted by key, kept across
    queries; the caller checks the arguments and the budget first, so a
    cached chain is still refused under a lowered QVBS_BUDGET_MB."""
    if bc == "pbc":
        st = vbsstate.build_pbc(S, L)
    else:
        st = vbsstate.build_open(S, L, p1, p2)
    keys = list(st.amps)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return st, tuple((";".join(map(str, keys[i])), i) for i in order)


def cmd_state(args):
    q0 = parse_q(args.q)
    p1, p2 = args.p1, args.p2
    if args.bc == "pbc" and (p1, p2) != (None, None):
        raise ValueError("--p1 and --p2 apply only to --bc open")
    if args.bc == "open":
        p1, p2 = (1 if p is None else p for p in (p1, p2))
    vbsstate._check_state_args(args.spin, args.length)
    st, rows = _chain_state(args.spin, args.length, args.bc, p1, p2)
    source = "chain_state_%s" % args.bc
    if args.exact:
        amps = list(st.amps.values())
        payload = {
            "spin": args.spin,
            "length": args.length,
            "bc": args.bc,
            "source": source,
            "amplitude_convention": "monomial gauge; physical amplitude is "
                                    "value * sqrt(prod_l [S+m_l]! [S-m_l]!) "
                                    "* prefactor",
            "prefactor": _radical_text(st.prefactor),
            "amplitudes": {key: amps[i].to_json_obj() for key, i in rows},
        }
        if args.bc == "open":
            payload["p1"], payload["p2"] = p1, p2
        _emit(_json_text(payload), args.output)
        return 0
    values = st.float_values(q0).tolist()
    _emit(_csv_text(["m", "value", "source"],
                    ([key, repr(values[i]), source] for key, i in rows)),
          args.output)
    return 0


def cmd_eigenvalues(args):
    q0 = parse_q(args.q)
    es = transfercorr.spectral_data(args.spin, q0).es
    payload = {
        "spin": args.spin,
        "q": str(q0),
        "eigenvalues": [float(v) for v in es.eigenvalues],
        "degeneracies": [m for _, m in es.groups],
        "group_values": [v for v, _ in es.groups],
        "conjecture_match": None,
        "source": "transfer_matrix_spectrum",
    }
    if args.check_conjecture:
        payload["conjecture_match"] = transfercorr.conjecture_check(
            args.spin, q0)["match"]
    if args.exact:
        payload["exact_closed_form"] = [
            RatQ(transfercorr.conjectured_eigenvalue(args.spin, l)).to_json_obj()
            for l in range(args.spin + 1)
        ]
    _emit(_json_text(payload), args.output)
    return 0


def cmd_correlator(args):
    q0 = parse_q(args.q)
    if args.op != "sz":
        raise ValueError("only the sz correlator is implemented")
    if args.mode == "thermo" and args.length is not None:
        raise ValueError("--length applies only to --mode finite")
    if args.r_min < 2:
        raise ValueError("r starts at 2")
    if args.r_max < args.r_min:
        raise ValueError("empty r range")
    rs = range(args.r_min, args.r_max + 1)
    if args.mode == "thermo":
        values = transfercorr.two_point_thermo_range(
            "sz", "sz", args.spin, q0, rs)
        source = "two_point_spectral_thermo"
    else:
        if not args.length:
            raise ValueError("finite mode needs --length")
        values = transfercorr.two_point_finite_range(
            "sz", "sz", args.spin, q0, args.length, rs)
        source = "two_point_trace_finite"
    closed_available = args.mode == "thermo" and args.spin in (2, 3)
    # every row is held until the text is written: its fields, its line and
    # its share of the text, measured (tracemalloc) at 340-380 B a row and
    # 560-630 B with the closed form; charged before the spectral pass,
    # which the first row starts
    cgproj.check_budget(len(rs) * (640 if closed_available else 384),
                        "correlator(S=%d, %d rows)" % (args.spin, len(rs)))
    rows = []
    for r, val in zip(rs, values):
        if closed_available:
            cf = transfercorr.closed_form_szsz(args.spin, q0, r)
            rows.append([str(r), repr(val), repr(cf), repr(abs(val - cf)),
                         source])
        else:
            rows.append([str(r), repr(val), "", "", source])
    _emit(_csv_text(["r", "value", "closed_form_value", "abs_diff", "source"],
                    rows), args.output)
    return 0


def cmd_prob(args):
    q0 = parse_q(args.q)
    probs = transfercorr.sz_distribution(args.spin, q0)
    rows = [[str(m), repr(p), "sz_probability_thermo"]
            for m, p in zip(range(-args.spin, args.spin + 1), probs)]
    _emit(_csv_text(["m", "probability", "source"], rows), args.output)
    return 0


def cmd_verify(args):
    payload = suites.run_suite(args.suite, seed=args.seed, spin=args.spin)
    _emit(_json_text(payload), args.output)
    return 0 if payload["passed"] else 1


def _criterion_line(item):
    return "criterion %d %-26s %s" % (item["criterion"], item["id"],
                                      "PASS" if item["passed"] else "FAIL")


def cmd_reproduce(args):
    rep = suites.run_acceptance(
        seed=args.seed,
        progress=lambda item, seconds: print(
            "%s  (%.1fs)" % (_criterion_line(item), seconds), file=sys.stderr))
    out = args.output or "qvbs_reproduce_paper.json"
    _emit(_json_text(rep), out)
    for item in rep["items"]:
        print(_criterion_line(item))
    print("report written to %s" % out)
    return 0 if rep["passed"] else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="qvbs",
        description="deformed valence-bond chain states, spectra, and "
                    "correlators, with verification suites")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("state", help="dump chain state amplitudes")
    sp.add_argument("--spin", type=int, required=True)
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--bc", choices=("pbc", "open"), default="pbc")
    sp.add_argument("--p1", type=int,
                    help="left boundary label, 1..S+1 (open chains only; "
                         "default 1)")
    sp.add_argument("--p2", type=int,
                    help="right boundary label, 1..S+1 (open chains only; "
                         "default 1)")
    sp.add_argument("--q", default="1")
    sp.add_argument("--exact", action="store_true",
                    help="emit exact Laurent amplitudes as JSON")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_state)

    se = sub.add_parser("eigenvalues", help="transfer-matrix spectrum")
    se.add_argument("--spin", type=int, required=True)
    se.add_argument("--q", default="1")
    se.add_argument("--exact", action="store_true",
                    help="include the exact closed-form eigenvalues")
    se.add_argument("--check-conjecture", action="store_true")
    se.add_argument("--output")
    se.set_defaults(func=cmd_eigenvalues)

    sc = sub.add_parser("correlator", help="two-point spin correlator")
    sc.add_argument("--spin", type=int, required=True)
    sc.add_argument("--q", default="1")
    sc.add_argument("--op", default="sz")
    sc.add_argument("--mode", choices=("thermo", "finite"), default="thermo")
    sc.add_argument("--length", type=int)
    sc.add_argument("--r-min", type=int, default=2)
    sc.add_argument("--r-max", type=int, default=8)
    sc.add_argument("--output")
    sc.set_defaults(func=cmd_correlator)

    sb = sub.add_parser("prob", help="spin-resolved probabilities")
    sb.add_argument("--spin", type=int, required=True)
    sb.add_argument("--q", default="1")
    sb.add_argument("--output")
    sb.set_defaults(func=cmd_prob)

    sv = sub.add_parser("verify", help="run one verification suite")
    sv.add_argument("--suite", required=True)
    sv.add_argument("--spin", type=int,
                    help="check one spin S alone (divisibility, certificates)")
    sv.add_argument("--seed", type=int, default=0,
                    help="seed of the randomized negative controls; only "
                         "--suite groundstate reads it")
    sv.add_argument("--output")
    sv.set_defaults(func=cmd_verify)

    sr = sub.add_parser("reproduce-paper",
                        help="run the full acceptance battery")
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--output")
    sr.set_defaults(func=cmd_reproduce)
    return p


@lru_cache(maxsize=1)
def _parser():
    # built on first use and kept: argparse re-parses safely, and building
    # the tree costs more than most queries
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, cgproj.BudgetError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # the bare text names neither the command nor the point
        at = " at q=%s" % args.q if getattr(args, "q", None) else ""
        kind = ("float overflow" if isinstance(exc, OverflowError)
                else type(exc).__name__)
        print("error: %s%s: %s (%s)" % (args.command, at, kind, exc.args[-1]
                                        if exc.args else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
