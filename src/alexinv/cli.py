"""Command-line front end tying the modules into reproducible runs.

Exit codes: 0 success, 2 invalid files or option values, 3 mathematical
precondition failures (with actionable messages), 64 unknown subcommand,
70 internal error (a failed self-check: a bug, not bad input).
Reports are deterministic byte-for-byte for identical inputs.

Each subcommand handler imports the modules it runs, so a run loads only
those: a Fox-calculus run loads no resolution, a germ run no group theory.
A run builds the parser of its own subcommand alone, and no module it
loads imports ``dataclasses``: the value classes are plain classes, so no
class generates and compiles its methods at import.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from . import serialize
from .errors import AlexinvError, BadArgument, InternalError, ValidationError
from .schema import load_schema, violations

SUBCOMMANDS = (
    "local",
    "global",
    "fox",
    "charvar",
    "covers",
    "quasiadj",
    "lct",
    "vankampen",
    "faces",
)

CHOICES = "{" + ",".join(SUBCOMMANDS) + "}"

USAGE = (
    "usage: alexinv " + CHOICES + " [options]\n"
    "Run 'alexinv <subcommand> --help' for details.\n"
)


def parse_and_validate(path: str, schema_id: str):
    """Load a JSON file, check it against the named schema, and build the
    typed value.  All violations are collected, not just the first."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError([f"{path}: cannot read file: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError([f"{path}: malformed JSON: {exc}"]) from exc
    found = [
        f"{path}: {'/'.join(map(str, where)) or '<root>'}: {message}"
        for where, message in violations(load_schema(schema_id), data)
    ]
    if found:
        raise ValidationError(found)
    builder = {
        "presentation": serialize.presentation_from_json,
        "braids": serialize.monodromy_from_json,
        "curve": serialize.curve_from_json,
        "tree": serialize.tree_from_json,
        "character": serialize.character_from_json,
    }[schema_id]
    try:
        return builder(data)
    except ValidationError as exc:
        raise ValidationError([f"{path}: {v}" for v in exc.violations]) from exc


def _fr(x) -> str:
    return serialize.fraction_str(x)


def _parse_list(option: str, text: str, kind=Fraction) -> list:
    """The comma-separated values of an option; a value that does not parse
    is a validation error naming the option."""
    try:
        return [kind(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValidationError([f"{option}: cannot parse {text!r}"]) from None


def _check(ok: bool, option: str, message: str) -> None:
    """An option value that parses but is out of range is an input error
    naming the option."""
    if not ok:
        raise ValidationError([f"{option}: {message}"])


def _emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines: List[str] = []

    def walk(value, indent=0, key=None):
        pad = "  " * indent
        label = f"{key}: " if key is not None else ""
        if isinstance(value, dict):
            if key is not None:
                lines.append(f"{pad}{key}:")
            for k in value:
                walk(value[k], indent + (key is not None), k)
        elif isinstance(value, list):
            if key is not None:
                lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, (dict, list)):
                    lines.append(f"{'  ' * (indent + 1)}-")
                    walk(item, indent + 2)
                else:
                    lines.append(f"{'  ' * (indent + 1)}- {item}")
        else:
            lines.append(f"{pad}{label}{value}")

    walk(report)
    return "\n".join(lines) + "\n"


def _germ_from_args(args):
    return serialize.parse_germ(args.germ, ["--germ"] * len(args.germ))


# ---------------------------------------------------------------------------
# subcommand handlers, each returning a report dict
# ---------------------------------------------------------------------------


def _cmd_local(args) -> dict:
    from .quasiadj import constants_of_quasiadjunction, lct_threshold
    from .resolution import (
        acampo_zeta,
        local_alexander_from_zeta,
        multivariable_link_alexander,
        resolve,
    )

    if not args.tree and not args.germ:
        raise ValidationError(["local: need --germ or --tree"])
    if args.tree:
        tree = parse_and_validate(args.tree, "tree")
        report = {"tree_file": args.tree}
    else:
        germ = _germ_from_args(args)
        tree = resolve(germ)
        report = {"germ": list(args.germ)}
    zeta = acampo_zeta(tree)
    report.update(
        {
            "resolution_tree": tree.to_json(),
            "zeta": str(zeta),
            "alexander": str(local_alexander_from_zeta(zeta)),
        }
    )
    if tree.r >= 2:
        report["multivariable_alexander"] = str(multivariable_link_alexander(tree))
    if tree.r == 1 and tree.has_charts:
        report["constants_of_quasiadjunction"] = [
            _fr(k) for k in constants_of_quasiadjunction(tree)
        ]
    report["lct_threshold_diagonal"] = _fr(lct_threshold(tree, [1] * tree.r))
    return report


def _cmd_global(args) -> dict:
    from .curves import cyclic_cover_h1, divisibility_check

    spec = parse_and_validate(args.curve, "curve")
    rep = divisibility_check(spec)
    fac = rep.factorization
    alexander = rep.alexander
    report = {
        "degree": spec.degree,
        "components": [{"label": l, "degree": d} for l, d in spec.components],
        "factors": [
            {"kappa": _fr(k), "exponent": s} for k, s in fac.factors
        ],
        "t_minus_one_exponent": fac.t_minus_one_exponent,
        "alexander": str(alexander),
        "alexander_terms": serialize.laurent_to_json(alexander),
        "local_product": str(rep.local_product),
        "infinity": str(rep.infinity),
        "divisibility": {
            "local": "PASS",
            "infinity": "PASS",
            "local_quotient": str(rep.local_quotient),
            "infinity_quotient": str(rep.infinity_quotient),
        },
    }
    if args.cover is not None:
        _check(args.cover >= 1, "--cover", "the cover order must be >= 1")
        rank, eigen = cyclic_cover_h1(fac, args.cover, semisimple=args.semisimple)
        cover = {"n": args.cover, "rank": rank}
        if args.semisimple:
            cover["eigenvalues"] = [
                {"omega": _fr(w), "multiplicity": m} for w, m in eigen
            ]
        report["cyclic_cover"] = cover
    return report


def _cmd_fox(args) -> dict:
    from .groups import fox_jacobian, one_variable_alexander

    pres = parse_and_validate(args.presentation, "presentation")
    matrix = fox_jacobian(pres)
    report = {
        "generators": pres.generators,
        "relators": len(pres.relators),
        "rank": pres.rank,
        "matrix": [[str(e) for e in row] for row in matrix.entries],
    }
    if pres.rank == 1:
        report["alexander"] = str(one_variable_alexander(pres))
    return report


def _cmd_charvar(args) -> dict:
    from .groups import CharacterPoint, local_system_h1_dim

    pres = parse_and_validate(args.presentation, "presentation")
    chars = [("--character", CharacterPoint(_parse_list("--character", c)))
             for c in args.character or []]
    chars += [(path, parse_and_validate(path, "character")) for path in args.character_file or []]
    for source, chi in chars:
        _check(len(chi) == pres.rank, source,
               f"{len(chi)} coordinates in {','.join(map(_fr, chi.coords))}, "
               f"but the abelianization rank is {pres.rank}")
    if not chars:
        raise ValidationError(["charvar: need --character or --character-file"])
    rows = []
    for _, chi in chars:
        # depth is dim H_1, and chi lies in V_1 exactly when it is positive
        d = local_system_h1_dim(pres, chi)
        rows.append(
            {
                "character": [_fr(c) for c in chi.coords],
                "h1_dim": d,
                "depth": d,
                "in_V1": d >= 1,
            }
        )
    return {"characters": rows}


def _cmd_covers(args) -> dict:
    from .groups import branched_cover_betti, unbranched_cover_betti

    pres = parse_and_validate(args.presentation, "presentation")
    report: dict = {}
    if args.cyclic is not None:
        _check(pres.rank == 1, "--cyclic", f"needs a presentation with r = 1, not r = {pres.rank}")
        n = args.cyclic
        _check(n >= 1, "--cyclic", "the cover order must be >= 1")
        report["cyclic_order"] = n
        report["unbranched_b1"] = unbranched_cover_betti(pres, (n,))
        report["branched_b1"] = branched_cover_betti({frozenset({0}): pres}, (n,))
    if args.abelian:
        orders = tuple(_parse_list("--abelian", args.abelian, int))
        _check(len(orders) == pres.rank, "--abelian", f"need one order per Z factor ({pres.rank})")
        _check(all(n >= 1 for n in orders), "--abelian", "every order must be >= 1")
        report["abelian_orders"] = list(orders)
        report["unbranched_b1_abelian"] = unbranched_cover_betti(pres, orders)
    if not report:
        raise ValidationError(["covers: need --cyclic N or --abelian n1,n2,..."])
    return report


def _cmd_quasiadj(args) -> dict:
    from .quasiadj import (
        constants_of_quasiadjunction,
        ideal_of_quasiadjunction,
        polytopes_and_faces,
    )
    from .resolution import resolve

    germ = _germ_from_args(args)
    tree = resolve(germ)
    report: dict = {"germ": list(args.germ)}
    if tree.r == 1:
        report["constants"] = [_fr(k) for k in constants_of_quasiadjunction(tree)]
    if args.xi:
        xi = _parse_list("--xi", args.xi)
        _check(len(xi) == tree.r, "--xi", f"need one entry per component ({tree.r})")
        _check(all(0 < x <= 1 for x in xi), "--xi", "every entry must lie in (0, 1]")
        ideal = ideal_of_quasiadjunction(tree, xi, args.variant)
        report["ideal"] = {
            "xi": [_fr(x) for x in xi],
            "variant": args.variant,
            **ideal.staircase_json(),
            "colength": ideal.colength,
        }
    faces = polytopes_and_faces(tree)
    rendered = []
    for qp in faces:
        for f in qp.faces:
            planes = [
                {"coeffs": [_fr(x) for x in normal], "level": _fr(bound)}
                for normal, bound in qp.polytope.planes(f.face)
            ]
            rendered.append(
                {
                    "hyperplane": planes[0] if planes else None,
                    "vertices": [[_fr(x) for x in v] for v in f.face.vertices],
                    "dim": f.face.dim,
                    "ideal_staircase": f.ideals[0].generators(),
                    "dim_quotient": f.dim_quotient,
                }
            )
    report["faces"] = rendered
    return report


def _cmd_lct(args) -> dict:
    from .quasiadj import lct_region, lct_threshold
    from .resolution import resolve

    if not args.tree and not args.germ:
        raise ValidationError(["lct: need --germ or --tree"])
    if args.tree:
        tree = parse_and_validate(args.tree, "tree")
    else:
        tree = resolve(_germ_from_args(args))
    direction = (
        _parse_list("--direction", args.direction) if args.direction else [Fraction(1)] * tree.r
    )
    _check(len(direction) == tree.r, "--direction", f"need one entry per component ({tree.r})")
    _check(all(d >= 0 for d in direction) and any(direction), "--direction",
           "the direction must point into the positive orthant")
    threshold = lct_threshold(tree, direction)
    return {
        "source": args.tree if args.tree else " , ".join(args.germ),
        "direction": [_fr(d) for d in direction],
        "threshold": _fr(threshold),
        "log_canonical_at_threshold": lct_region(
            tree, [min(threshold * d, Fraction(1)) for d in direction]
        ),
    }


def _cmd_vankampen(args) -> dict:
    from .braids import full_twist_check, presentation_homology, vankampen_presentation
    from .groups import GroupPresentation, one_variable_alexander

    data = parse_and_validate(args.braids, "braids")
    pres = vankampen_presentation(data, args.mode)
    free_rank, torsion = presentation_homology(pres)
    report = {
        "mode": args.mode,
        "strands": data.strand_count,
        "full_twist": full_twist_check(data),
        "generators": pres.generators,
        "relators": len(pres.relators),
        "h1_free_rank": free_rank,
        "h1_torsion": torsion,
    }
    if isinstance(pres, GroupPresentation) and pres.rank == 1:
        try:
            report["alexander"] = str(one_variable_alexander(pres))
        except AlexinvError:
            report["alexander"] = "non-torsion module"
    return report


def _cmd_faces(args) -> dict:
    from .curves import global_faces_and_components

    spec = parse_and_validate(args.curve, "curve")
    faces = global_faces_and_components(spec)
    return {
        "degree": spec.degree,
        "faces": [
            {
                "vertices": [[_fr(x) for x in v] for v in f.vertices],
                "level": _fr(f.level) if f.level is not None else None,
                "twist_degree": f.twist_degree,
                "h1": f.h1,
                "predicted_depth": f.h1,
                "character": f.character_description(),
                "points": f.contributing_points,
            }
            for f in faces
        ],
    }


HANDLERS = {
    "local": _cmd_local,
    "global": _cmd_global,
    "fox": _cmd_fox,
    "charvar": _cmd_charvar,
    "covers": _cmd_covers,
    "quasiadj": _cmd_quasiadj,
    "lct": _cmd_lct,
    "vankampen": _cmd_vankampen,
    "faces": _cmd_faces,
}


def build_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the subcommand ``name`` alone; its usage and error
    lines still name every subcommand."""
    parser = argparse.ArgumentParser(
        prog="alexinv",
        description="Alexander-type invariants of plane curves and their singularities",
    )
    p = parser.add_subparsers(dest="subcommand", metavar=CHOICES).add_parser(name)
    p.add_argument("--format", choices=("text", "json"), default="text")
    if name == "local":  # resolve a germ and report its local invariants
        p.add_argument("--germ", action="append", metavar="POLY",
                       help="component polynomial in x, y (repeat for several branches)")
        p.add_argument("--tree", metavar="FILE",
                       help="explicit resolution-tree file instead of a germ")
    elif name == "global":  # global Alexander polynomial and divisibility report
        p.add_argument("--curve", required=True, metavar="FILE")
        p.add_argument("--cover", type=int, metavar="N",
                       help="also report H_1 of the N-fold cyclic cover")
        p.add_argument("--no-semisimple", dest="semisimple", action="store_false",
                       help="report only the rank of the cover homology")
    elif name == "fox":  # Fox Jacobian and one-variable Alexander polynomial
        p.add_argument("--presentation", required=True, metavar="FILE")
    elif name == "charvar":  # characteristic-variety membership at characters
        p.add_argument("--presentation", required=True, metavar="FILE")
        p.add_argument("--character", action="append", metavar="k/m[,k/m...]")
        p.add_argument("--character-file", action="append", metavar="FILE")
    elif name == "covers":  # Betti numbers of finite covers
        p.add_argument("--presentation", required=True, metavar="FILE")
        p.add_argument("--cyclic", type=int, metavar="N")
        p.add_argument("--abelian", metavar="n1,n2,...")
    elif name == "quasiadj":  # ideals, constants and faces of quasiadjunction
        p.add_argument("--germ", action="append", required=True, metavar="POLY")
        p.add_argument("--xi", metavar="k/m[,k/m...]")
        p.add_argument("--variant", choices=("strict", "weight1", "log"), default="strict")
    elif name == "lct":  # log-canonical threshold of a germ
        p.add_argument("--germ", action="append", metavar="POLY")
        p.add_argument("--tree", metavar="FILE")
        p.add_argument("--direction", metavar="d1[,d2...]")
    elif name == "vankampen":  # Zariski-van Kampen presentation from braid data
        p.add_argument("--braids", required=True, metavar="FILE")
        p.add_argument("--mode", choices=("affine", "projective"), default="affine")
    elif name == "faces":  # global faces of quasiadjunction of a curve
        p.add_argument("--curve", required=True, metavar="FILE")
    return parser


def run(argv: Optional[List[str]] = None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = out or sys.stdout
    if not argv or argv[0] in ("-h", "--help"):
        out.write(USAGE)
        return 0
    if argv[0] not in SUBCOMMANDS:
        sys.stderr.write(f"alexinv: unknown subcommand {argv[0]!r}\n")
        sys.stderr.write(USAGE)
        return 64
    parser = build_parser(argv[0])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        report = HANDLERS[args.subcommand](args)
    except ValidationError as exc:
        for v in exc.violations:
            sys.stderr.write(f"error: {v}\n")
        return 2
    except BadArgument as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 70
    except AlexinvError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    out.write(_emit(report, args.format))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
