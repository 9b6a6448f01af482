"""JSON encoding of the package's values and construction of typed values
from validated JSON documents.

Rationals are serialized as strings "p/q" (or "p") to avoid precision
ambiguity; polynomials are printed and serialized in descending graded
lexicographic order (t1 < ... < tr) so reports diff reproducibly.

Each builder imports the module it builds from, so loading this module
loads no mathematics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List

from .errors import ValidationError

if TYPE_CHECKING:
    from .braids import MonodromyData
    from .curves import ProjectiveCurveSpec
    from .groups import CharacterPoint, GroupPresentation
    from .laurent import LaurentPolynomial
    from .resolution import PlaneCurveGerm, ResolutionTree


def fraction_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(text, field: str) -> Fraction:
    """A rational written "p/q" or "p" in an input file; one that does not
    parse is a validation error naming the field."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ValidationError([f"{field}: cannot parse {text!r} as a rational"]) from None


def parse_germ(texts: List[str], fields: List[str]) -> PlaneCurveGerm:
    """The germ with the given component strings; a string that does not
    parse is a validation error naming its field.  Whether the parsed germ
    is a valid one is a mathematical precondition, checked after."""
    from .biv import parse
    from .errors import BadGerm
    from .resolution import PlaneCurveGerm

    components, violations = [], []
    for text, field in zip(texts, fields):
        try:
            components.append(parse(text))
        except BadGerm as exc:
            violations.append(f"{field}: {exc}")
    if violations:
        raise ValidationError(violations)
    return PlaneCurveGerm(components)


def laurent_to_json(p: LaurentPolynomial) -> dict:
    return {
        "vars": p.var_count,
        "terms": [
            {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
            for exp, c in p.sorted_terms()
        ],
    }


# ---------------------------------------------------------------------------
# typed values from JSON documents (file formats documented in README)
# ---------------------------------------------------------------------------


def presentation_from_json(data: dict) -> GroupPresentation:
    """{"generators": s, "relators": [[[j, +-1], ...]], "phi": [[..], ..],
    "torsion": bool?}; generator indices are 1-based in files."""
    from .groups import GroupPresentation

    violations: List[str] = []
    s = int(data["generators"])
    relators = []
    for ri, rel in enumerate(data.get("relators", [])):
        letters = []
        for li, pair in enumerate(rel):
            j, e = int(pair[0]), int(pair[1])
            if not 1 <= j <= s:
                violations.append(
                    f"relator {ri + 1}, letter {li + 1}: generator {j} out of range 1..{s}"
                )
            if e not in (1, -1):
                violations.append(
                    f"relator {ri + 1}, letter {li + 1}: exponent {e} must be +-1"
                )
            letters.append((j - 1, e))
        relators.append(tuple(letters))
    phi = data.get("phi")
    if phi is None:
        phi = [[1]] * s
    if len(phi) != s:
        violations.append(f"phi must list one vector per generator ({s})")
    if len({len(v) for v in phi}) > 1:
        violations.append("phi vectors of unequal length")
    if violations:
        raise ValidationError(violations)
    return GroupPresentation(
        s, tuple(relators), phi, torsion=bool(data.get("torsion", False))
    )


def character_from_json(data: dict) -> CharacterPoint:
    from .groups import CharacterPoint

    return CharacterPoint([parse_fraction(c, f"coords/{i}") for i, c in enumerate(data["coords"])])


def monodromy_from_json(data: dict) -> MonodromyData:
    from .braids import BraidWord, MonodromyData

    violations: List[str] = []
    d = int(data["strands"])
    braids = []
    for bi, letters in enumerate(data.get("braids", [])):
        for li, l in enumerate(letters):
            if l == 0 or abs(int(l)) >= d:
                violations.append(
                    f"braid {bi + 1}, letter {li + 1}: index {l} out of range for {d} strands"
                )
        if not violations:
            braids.append(BraidWord(d, [int(l) for l in letters]))
    labels = {int(k): str(v) for k, v in data.get("labels", {}).items()}
    if labels and set(labels) != set(range(1, d + 1)):
        violations.append("labels must cover strands 1..d exactly")
    if violations:
        raise ValidationError(violations)
    if not labels:
        labels = {i + 1: "C" for i in range(d)}
    return MonodromyData(d, braids, labels)


def tree_from_json(data: dict) -> ResolutionTree:
    from .resolution import ResolutionTree

    return ResolutionTree.from_json(data)


def curve_from_json(data: dict) -> ProjectiveCurveSpec:
    from .curves import ProjectiveCurveSpec, singular_point

    violations: List[str] = []
    degree = int(data["degree"])
    components = [(str(c["label"]), int(c["degree"])) for c in data.get(
        "components", [{"label": "C", "degree": degree}]
    )]
    if sum(d for _, d in components) != degree:
        violations.append("component degrees do not sum to total")
    points = []
    for si, sing in enumerate(data.get("singularities", [])):
        where = f"singularities/{si}"
        pos = sing.get("pos")
        if pos is None or len(pos) != 2:
            violations.append(f"{where}/pos: must be a pair")
            continue
        try:
            position = tuple(
                parse_fraction(x, f"{where}/pos/{i}") for i, x in enumerate(pos)
            )
        except ValidationError as exc:
            violations += exc.violations
            continue
        kind = sing.get("type")
        if "germ" in sing:
            texts = sing["germ"]
            if isinstance(texts, str):
                texts, fields = [texts], [f"{where}/germ"]
            else:
                fields = [f"{where}/germ/{k}" for k in range(len(texts))]
            try:
                kind = parse_germ(texts, fields)
            except ValidationError as exc:
                violations += exc.violations
                continue
        elif kind == "torus":
            pq = sing.get("pq")
            if not pq or len(pq) != 2:
                violations.append(f"{where}: torus type needs pq")
                continue
            kind = (int(pq[0]), int(pq[1]))
        elif kind not in ("node", "cusp"):
            violations.append(f"{where}: unknown type {kind!r} and no germ")
            continue
        incidence = tuple(str(x) for x in sing.get("incidence", ()))
        if not incidence and len(components) == 1:
            incidence = (components[0][0],)
        points.append(singular_point(position, kind, incidence))
    if violations:
        raise ValidationError(violations)
    return ProjectiveCurveSpec(degree, components, points)
