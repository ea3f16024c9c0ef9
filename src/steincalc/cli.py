"""Command-line interface.

Subcommands mirror the library: ``plumb`` (graph invariants and move
replay), ``seifert`` (star reading and open books), ``mcg`` (word
actions), ``lf`` (fibration Euler characteristics), ``knots`` (Alexander
polynomials), and ``report`` (the four pipeline reports, JSON or
markdown).  Report commands exit 0 exactly when the overall verdict is
pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import knots, mcg, plumbing, reports, seifert, smooth4
from .exactmat import IntMatrix, _det_inertia, _parse_int
from .plumbing import PlumbingGraph, intersection_matrix


def _dump(data, out: str | None) -> None:
    text = reports.json_text(data) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _graph_invariants(G: PlumbingGraph) -> dict:
    M = intersection_matrix(G)
    rank, torsion = plumbing.boundary_homology(G)
    det, pos, neg, _ = _det_inertia(M)  # one pivot pass; an intersection form is symmetric
    return {
        "graph": G.to_dict(),
        "determinant": det,
        "signature": pos - neg,
        "negative_definite": neg == M.nrows,
        "boundary_homology": {"rank": rank, "torsion": list(torsion)},
    }


def _cmd_plumb_invariants(args) -> int:
    G = PlumbingGraph.from_json(Path(args.graph).read_text())
    _dump(_graph_invariants(G), args.out)
    return 0


def _cmd_plumb_moves(args) -> int:
    G = PlumbingGraph.from_json(Path(args.graph).read_text())
    script = plumbing.MoveScript.from_json(Path(args.script).read_text())
    final = script.replay(G)
    _dump(
        {
            "moves_applied": len(script),
            "before": _graph_invariants(G),
            "after": _graph_invariants(final),
        },
        args.out,
    )
    return 0


def _seifert_payload(sd: seifert.SeifertData) -> dict:
    flags = seifert.canonical_contact_flag(sd)
    return {
        "seifert_data": sd.to_dict(),
        "euler_number": str(sd.euler_number),
        "singularity_link": seifert.is_singularity_link(sd),
        "milnor_fillable": flags.milnor_fillable,
        "unique_transverse_invariant_class": flags.unique_transverse_invariant_class,
    }


def _cmd_seifert_from_star(args) -> int:
    G = PlumbingGraph.from_json(Path(args.graph).read_text())
    sd = seifert.star_to_seifert(G, center=args.center)
    _dump(_seifert_payload(sd), args.out)
    return 0


def _cmd_seifert_open_book(args) -> int:
    ob = seifert.OpenBookDesc(page_genus=args.genus, powers=_parse_powers(args.powers))
    rank, torsion = seifert.openbook_homology(ob)
    payload = _seifert_payload(seifert.openbook_manifold(ob))
    payload["open_book"] = ob.to_dict()
    payload["homology"] = {"rank": rank, "torsion": list(torsion)}
    _dump(payload, args.out)
    return 0


def _cmd_mcg_action(args) -> int:
    parts = args.surface.split(",")
    if len(parts) != 2:
        raise ValueError(f"--surface is genus,boundary_count, not {args.surface!r}")
    g_str, r_str = parts
    surface = mcg.SurfaceSpec(
        genus=_parse_int(g_str, "genus"), boundary_count=_parse_int(r_str, "boundary count")
    )
    text = Path(args.word).read_text()
    if args.curves:
        table = mcg.load_curves(Path(args.curves).read_text(), surface)
    elif surface.boundary_count == 0 and surface.genus >= 1:
        table = mcg.chain_curves(surface.genus)
    else:
        table = None
    word = mcg.parse_word(text, surface, table)
    payload = {"letter_count": word.letter_count, "surface": {"genus": surface.genus, "boundary_count": surface.boundary_count}}
    try:
        action = mcg.word_action(word)
        payload["action"] = action.to_lists()
        payload["is_identity"] = action == IntMatrix.identity(surface.h1_rank)
        payload["note"] = "homological certificate only"
    except (ValueError, KeyError) as exc:
        payload["action"] = None
        payload["note"] = f"word_action unavailable: {exc}"
    _dump(payload, args.out)
    return 0


def _cmd_lf_chi(args) -> int:
    if args.catalog == "hyperelliptic":
        word = mcg.hyperelliptic_word(args.param)
        blowup_chi = smooth4.make_X_g1(args.param).euler_char
    else:
        word = mcg.korkmaz_word(args.param)
        blowup_chi = smooth4.make_W(args.param).euler_char
    g, n = word.surface.genus, word.letter_count
    chi = mcg.lf_euler_characteristic(g, n)
    _dump(
        {
            "catalog": args.catalog,
            "fiber_genus": g,
            "singular_fibers": n,
            "chi_from_fibration": chi,
            "chi_from_blowups": blowup_chi,
            "match": chi == blowup_chi,
        },
        args.out,
    )
    return 0 if chi == blowup_chi else 1


def _cmd_knots_alexander(args) -> int:
    V = knots.SeifertMatrixK.from_json(Path(args.matrix).read_text())
    delta = knots.alexander(V)
    cert = knots.fibered_certificate(delta, V.genus)
    _dump(
        {
            "name": V.name,
            "genus": V.genus,
            "alexander": str(delta),
            "alexander_coefficients": delta.to_dict(),
            "delta_at_1": delta.evaluate_at_one(),
            "fibered_certificate": {
                "passes": cert.passes,
                "monic": cert.monic,
                "span_matches": cert.span_matches,
                "reasons": list(cert.reasons),
            },
        },
        args.out,
    )
    return 0


def _parse_powers(text: str) -> tuple:
    return tuple(_parse_int(p, "power") for p in text.split(","))


def _int_option(text: str) -> int:
    """argparse type of the integer options: ASCII digits only, where ``int`` takes '1_0' too."""
    try:
        return _parse_int(text, "option")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _load_family(path: str | None):
    if path is None:
        return None
    return knots.load_family(Path(path).read_text())


def _cmd_report(args) -> int:
    if args.kind == "figure1":
        rpt = reports.report_figure1(args.genus, _parse_powers(args.powers))
    elif args.kind == "thm44":
        rpt = reports.report_thm44(args.g, args.k, args.r, family=_load_family(args.family))
    elif args.kind == "thm53":
        rpt = reports.report_thm53(args.m, args.n, args.k, family=_load_family(args.family))
    else:
        rpt = reports.report_corollary55(args.h, n=args.n, family=_load_family(args.family))
    text = rpt.to_json() if args.format == "json" else rpt.to_markdown()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if rpt.overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steincalc",
        description="Exact-arithmetic toolkit for plumbing calculus, Seifert invariants, "
        "Lefschetz fibration bookkeeping, and Alexander-polynomial distinguishers.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    plumb = top.add_parser("plumb", help="plumbing graph calculus").add_subparsers(
        dest="sub", required=True
    )
    p = plumb.add_parser("invariants", help="intersection form and boundary homology")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plumb_invariants)
    p = plumb.add_parser("moves", help="replay a move script")
    p.add_argument("graph")
    p.add_argument("script")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plumb_moves)

    seif = top.add_parser("seifert", help="Seifert invariants").add_subparsers(
        dest="sub", required=True
    )
    p = seif.add_parser("from-star", help="read Seifert data off a reduced star graph")
    p.add_argument("graph")
    p.add_argument("--center", type=_int_option, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_seifert_from_star)
    p = seif.add_parser("open-book", help="boundary-twist open book invariants")
    p.add_argument("--genus", type=_int_option, required=True)
    p.add_argument("--powers", required=True, help="comma-separated twist powers")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_seifert_open_book)

    mcg_parser = top.add_parser("mcg", help="twist words on homology").add_subparsers(
        dest="sub", required=True
    )
    p = mcg_parser.add_parser("action", help="apply a twist word to H1")
    p.add_argument("--word", required=True, help="word DSL text file")
    p.add_argument("--surface", required=True, help="genus,boundary_count")
    p.add_argument("--curves", default=None, help="curve-class JSON file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mcg_action)

    lf = top.add_parser("lf", help="Lefschetz fibration counts").add_subparsers(
        dest="sub", required=True
    )
    p = lf.add_parser("chi", help="Euler characteristic double count")
    p.add_argument("--catalog", choices=("hyperelliptic", "korkmaz"), required=True)
    p.add_argument("--param", type=_int_option, required=True, help="genus g, or m for the odd-genus catalog")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lf_chi)

    kn = top.add_parser("knots", help="Seifert matrices and Alexander polynomials").add_subparsers(
        dest="sub", required=True
    )
    p = kn.add_parser("alexander", help="Alexander polynomial of a Seifert matrix file")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_knots_alexander)

    rep = top.add_parser("report", help="pipeline reports").add_subparsers(
        dest="kind", required=True
    )
    p = rep.add_parser("figure1", help="positive vs reduced star equivalence")
    p.add_argument("--genus", type=_int_option, required=True)
    p.add_argument("--powers", required=True)
    common = [p]
    q = rep.add_parser("thm44", help="simply-connected filling family")
    q.add_argument("--g", type=_int_option, required=True)
    q.add_argument("--k", type=_int_option, required=True)
    q.add_argument("--r", type=_int_option, required=True)
    q.add_argument("--family", default=None, help="Seifert-matrix family JSON file")
    common.append(q)
    q = rep.add_parser("thm53", help="Z + Z/n filling family")
    q.add_argument("--m", type=_int_option, required=True)
    q.add_argument("--n", type=_int_option, required=True)
    q.add_argument("--k", type=_int_option, required=True)
    q.add_argument("--family", default=None)
    common.append(q)
    q = rep.add_parser("cor55", help="both families at a given genus")
    q.add_argument("--h", type=_int_option, required=True)
    q.add_argument("--n", type=_int_option, default=1)
    q.add_argument("--family", default=None)
    common.append(q)
    for q in common:
        q.add_argument("--format", choices=("json", "md"), default="json")
        q.add_argument("--out", default=None)
        q.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a JSON file or a word nested past the interpreter's stack
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
