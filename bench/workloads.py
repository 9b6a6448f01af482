"""The four benchmark workloads: seeded inputs, op lists and exact checks.

Each workload is a list of ops run in order by one client; an op may read
what an earlier op of the same pass left in the shared context (a parsed
germ, a resolution tree, a presentation).  Every op carries its own
check, and every expected answer is either a closed form or a value
pinned here, so the check holds on any seed: the seed only applies
changes that provably keep the answer (conjugating a braid system,
rotating a relator, scaling or swapping germ coordinates, choosing
points on a conic, affine changes of coordinates).

Expected values are computed while the inputs are built, before any
trace wrapper is installed, so checks never add calls to the traced
counts.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import alexinv  # noqa: F401  (set-up time includes the package import)
import harness
from alexinv.braids import BraidWord, MonodromyData, full_twist_check, vankampen_presentation
from alexinv.curves import (
    ProjectiveCurveSpec,
    SingularPoint,
    cyclic_cover_h1,
    divisibility_check,
    global_alexander,
    global_faces_and_components,
    local_data_for,
    superabundance,
    transform_positions,
)
from alexinv.groups import (
    GroupPresentation,
    branched_cover_betti,
    hopf_link_presentation,
    one_variable_alexander,
    sphere_braid_presentation,
    trefoil_presentation,
    unbranched_cover_betti,
)
from alexinv.laurent import LaurentPolynomial, common_root_count
from alexinv.quasiadj import (
    constants_of_quasiadjunction,
    ideal_of_quasiadjunction,
    kappa_constant,
    lct_threshold,
    polytopes_and_faces,
)
from alexinv.resolution import (
    PlaneCurveGerm,
    acampo_zeta,
    local_alexander,
    resolve,
    torus_knot_alexander,
)

WORKLOADS = ("fox_covers", "germ_faces", "global_curves", "cli_batch")
KAPPA = Fraction(1, 6)


@dataclass
class Op:
    """One timed call.  ``run`` gets the pass context and returns the
    answer; ``check`` decides the answer exactly."""

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any], bool]
    subcommand: Optional[str] = None


@dataclass
class Workload:
    ops: List[Op]
    sizes: Dict[str, Any]
    files: Dict[str, str] = field(default_factory=dict)  # relative path -> text


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[f"_build_{name}"](random.Random(seed))


def _laurent(coeffs) -> LaurentPolynomial:
    return LaurentPolynomial.from_univariate([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# fox_covers: braids, groups, cyclotomic, laurent, linalg.cyclotomic_rank
# ---------------------------------------------------------------------------

# Monodromy (s1 ... s_{d-1})^2, repeated d times.  A system is conjugated
# by a freely reduced braid of the given length, drawn until the affine
# van Kampen presentation has the fixed size below: total relator length
# and total number of terms in its Fox matrix.  Conjugating every braid
# of the system by one braid keeps the group, hence its Alexander
# polynomial and (the composite being central) the full-twist verdict.
VK_RUNGS = {
    # d: (conjugator length, relator letters, Fox matrix terms, systems per pass)
    3: (3, 162, 105, 3),
    4: (2, 88, 80, 3),
}
VK_ALEXANDER = {3: (1, -1, 1), 4: (-1, 1, -1, 1)}  # t^2-t+1, t^3-t^2+t-1
SPHERE_ALEXANDER = {4: (1, -1, 1), 5: (1,), 6: (1,), 7: (1,)}
TREFOIL_COVERS = range(2, 37)
HOPF_COVERS = [(n1, n2) for n1 in range(2, 6) for n2 in range(2, 6)]


def _reduced_braid(rng: random.Random, length: int, d: int) -> List[int]:
    word: List[int] = []
    while len(word) < length:
        letter = rng.choice((1, -1)) * rng.randint(1, d - 1)
        if not word or word[-1] != -letter:
            word.append(letter)
    return word


def _conjugated_system(d: int, conjugator: List[int]) -> MonodromyData:
    base = [letter for _ in range(2) for letter in range(1, d)]
    inverse = [-letter for letter in reversed(conjugator)]
    braid = BraidWord(d, inverse + base + conjugator)
    return MonodromyData(d, [braid] * d)


def _fox_terms(p: GroupPresentation) -> int:
    from alexinv.groups import fox_jacobian

    return sum(len(e.terms) for row in fox_jacobian(p).entries for e in row)


def _rotate(rel, k: int, invert: bool):
    """A cyclic rotation, optionally inverted, of a relator: the normal
    closure, hence the group, is unchanged."""
    rel = tuple(rel[k:] + rel[:k])
    return tuple((g, -e) for g, e in reversed(rel)) if invert else rel


def _reshuffled(p: GroupPresentation, rng: random.Random) -> GroupPresentation:
    rels = [_rotate(r, rng.randrange(len(r)), rng.random() < 0.5) for r in p.relators]
    return GroupPresentation(p.generators, tuple(rels), p.phi, torsion=p.torsion)


def _build_fox_covers(rng: random.Random) -> Workload:
    ops: List[Op] = []
    sizes: Dict[str, Any] = {}
    for d, (length, letters, terms, count) in VK_RUNGS.items():
        seen = []
        while len(seen) < count:
            conjugator = _reduced_braid(rng, length, d)
            if conjugator in seen:
                continue
            pres = vankampen_presentation(_conjugated_system(d, conjugator))
            if sum(len(r) for r in pres.relators) == letters and _fox_terms(pres) == terms:
                seen.append(conjugator)
        sizes[f"vankampen_d{d}"] = {
            "conjugators": seen, "relators": d * d, "generators": d,
            "relator_letters": letters, "fox_terms": terms,
        }
        expected = _laurent(VK_ALEXANDER[d])
        for i, conjugator in enumerate(seen):
            key = f"vk{d}.{i}"
            system = _conjugated_system(d, conjugator)

            def build_pres(ctx, system=system, key=key):
                ctx[key] = vankampen_presentation(system)
                return ctx[key]

            ops.append(Op(f"{key}.vankampen_presentation", build_pres,
                          lambda p, d=d, n=letters: p.generators == d
                          and sum(len(r) for r in p.relators) == n))
            ops.append(Op(f"{key}.full_twist_check",
                          lambda ctx, system=system: full_twist_check(system),
                          lambda ok: ok is False))
            ops.append(Op(f"{key}.one_variable_alexander",
                          lambda ctx, key=key: one_variable_alexander(ctx[key]),
                          lambda a, e=expected: a == e))
    for d, coeffs in SPHERE_ALEXANDER.items():
        pres = _reshuffled(sphere_braid_presentation(d), rng)
        ops.append(Op(f"sphere{d}.one_variable_alexander",
                      lambda ctx, p=pres: one_variable_alexander(p),
                      lambda a, e=_laurent(coeffs): a == e))
    sizes["sphere_braid"] = {"d": list(SPHERE_ALEXANDER)}

    trefoil = _reshuffled(trefoil_presentation(), rng)
    delta = _laurent((1, -1, 1))
    sizes["trefoil"] = {"relator": list(trefoil.relators[0]), "n": [TREFOIL_COVERS[0], TREFOIL_COVERS[-1]]}
    for n in TREFOIL_COVERS:
        roots = common_root_count(delta, n)
        ops.append(Op(f"trefoil.unbranched.{n}",
                      lambda ctx, n=n: unbranched_cover_betti(trefoil, (n,)),
                      lambda b, e=1 + roots: b == e))
        ops.append(Op(f"trefoil.branched.{n}",
                      lambda ctx, n=n: branched_cover_betti({frozenset({0}): trefoil}, (n,)),
                      lambda b, e=roots: b == e))
    hopf = _reshuffled(hopf_link_presentation(), rng)
    for orders in HOPF_COVERS:
        # the Hopf link group is Z^2; every finite abelian cover of its
        # complement is again a torus times an interval: b_1 = 2
        ops.append(Op(f"hopf.unbranched.{orders[0]}x{orders[1]}",
                      lambda ctx, o=orders: unbranched_cover_betti(hopf, o),
                      lambda b: b == 2))
    sizes["hopf"] = {"orders": [list(o) for o in HOPF_COVERS]}
    return Workload(ops, sizes)


# ---------------------------------------------------------------------------
# germ_faces: biv, resolution, quasiadj, polytope
# ---------------------------------------------------------------------------

# x^a + y^b: (a, b) -> nodes of its minimal embedded resolution
QUASI_HOMOGENEOUS = {(2, 3): 3, (3, 4): 4, (3, 5): 4, (4, 7): 5, (5, 9): 6}
# Faces of x^5 + y^9 take 5 to 8 s, most of a pass on their own: every
# other op runs on that germ, and its faces join once they take under 2 s.
FACES_WALLS = {(5, 9)}

# Pinned at the commit that introduced the benchmark: A'Campo zeta,
# resolution nodes, constants, lct along the diagonal, strict-ideal
# colengths at xi = k/11 (k = 1..10, diagonal), and (polytopes, faces).
OTHER_GERMS = {
    "puiseux2": {  # two Puiseux pairs
        "texts": ("(x^2-y^3)^2-4*x^5*y-x^7",),
        "zeta": "(1 - t^4) * (1 - t^6) * (1 - t^12)^-1 * (1 - t^17) * (1 - t^34)^-1",
        "nodes": 7,
        "constants": [Fraction(k, 34) for k in (1, 3, 5, 7, 9, 11, 13, 15)] + [Fraction(7, 12)],
        "lct": Fraction(5, 12),
        "colengths": [8, 7, 4, 3, 1, 1, 0, 0, 0, 0],
        "faces": (9, 9),
    },
    "node": {
        "texts": ("x^2-y^2",),
        "zeta": "1",
        "nodes": 1,
        "constants": [],
        "lct": Fraction(1),
        "colengths": [0] * 10,
        "faces": (0, 0),
    },
    "two_cusps": {
        "texts": ("x^2-y^3", "x^3-y^2"),
        "zeta": "(1 - t^5)^2 * (1 - t^10)^-2",
        "nodes": 5,
        "constants": None,
        "lct": Fraction(1, 2),
        "colengths": [5, 3, 3, 1, 1, 0, 0, 0, 0, 0],
        "faces": (3, 11),
    },
    "four_lines": {
        "texts": ("x", "y", "x-y", "x+y"),
        "zeta": "(1 - t^4)^-2",
        "nodes": 1,
        "constants": None,
        "lct": Fraction(1, 2),
        "colengths": [3, 3, 1, 1, 1, 0, 0, 0, 0, 0],
        "faces": None,  # four branches: faces are supported for r <= 3
    },
}


def _substitute(text: str, scale_x: int, scale_y: int, swap: bool) -> str:
    """x -> scale_x*x, y -> scale_y*y, then optionally x <-> y: a linear
    change of coordinates, so every analytic invariant is kept."""
    out = []
    for ch in text:
        if ch in "xy":
            var = {"x": "y", "y": "x"}[ch] if swap else ch
            out.append(f"({scale_x if ch == 'x' else scale_y}*{var})")
        else:
            out.append(ch)
    return "".join(out)


def _merle_teissier(a: int, b: int) -> List[Fraction]:
    values = {kappa_constant(a, b, i, j) for i in range(a) for j in range(b)}
    return sorted(k for k in values if 0 < k < 1)


def _quasi_homogeneous_colength(a: int, b: int, xi: Fraction) -> int:
    """Colength of the strict ideal of x^a + y^b at xi: the monomials
    x^i y^j with 1 - (i+1)/a - (j+1)/b >= xi."""
    return sum(
        1 for i in range(a) for j in range(b)
        if 1 - Fraction(i + 1, a) - Fraction(j + 1, b) >= xi
    )


def _germ_ops(key: str, texts, expect: dict) -> List[Op]:
    gk, tk = f"{key}.germ", f"{key}.tree"
    r = len(texts)

    def parse(ctx):
        ctx[gk] = PlaneCurveGerm.from_strings(*texts)
        return ctx[gk]

    def run_resolve(ctx):
        ctx[tk] = resolve(ctx[gk])
        return ctx[tk]

    ops = [
        Op(f"{key}.parse", parse, lambda g: g.r == r),
        Op(f"{key}.resolve", run_resolve,
           lambda t: len(t.nodes) == expect["nodes"]),
        Op(f"{key}.acampo_zeta", lambda ctx: str(acampo_zeta(ctx[tk])),
           lambda z: z == expect["zeta"]),
        Op(f"{key}.local_alexander",
           lambda ctx: local_alexander(ctx[tk]),
           lambda a: expect["alexander"] is None or a == expect["alexander"]),
    ]
    if expect["constants"] is not None:
        ops.append(Op(f"{key}.constants",
                      lambda ctx: constants_of_quasiadjunction(ctx[tk]),
                      lambda c: c == expect["constants"]))
    ops.append(Op(f"{key}.lct_threshold",
                  lambda ctx: lct_threshold(ctx[tk], [1] * r),
                  lambda v: v == expect["lct"]))
    for xi, colength in zip(expect["xi"], expect["colengths"]):
        ops.append(Op(f"{key}.ideal.{xi}",
                      lambda ctx, xi=xi: ideal_of_quasiadjunction(ctx[tk], [xi] * r, "strict").colength,
                      lambda c, e=colength: c == e))
    if expect["faces"] is not None:
        ops.append(Op(f"{key}.polytopes_and_faces",
                      lambda ctx: polytopes_and_faces(ctx[tk]),
                      lambda ps, e=expect["faces"]: (len(ps), sum(len(q.faces) for q in ps)) == e))
    return ops


def _build_germ_faces(rng: random.Random) -> Workload:
    ops: List[Op] = []
    sizes: Dict[str, Any] = {}
    grid = [Fraction(k, 11) for k in range(1, 11)]
    xi_pool = sorted({Fraction(k, m) for m in range(2, 61) for k in range(1, m)})
    germs = []
    for (a, b), nodes in QUASI_HOMOGENEOUS.items():
        xi = sorted(rng.sample(xi_pool, 10))
        germs.append((f"x{a}y{b}", (f"x^{a}+y^{b}",), {
            "zeta": f"(1 - t^{a}) * (1 - t^{b}) * (1 - t^{a * b})^-1",
            "nodes": nodes,
            "alexander": torus_knot_alexander(a, b),
            "constants": _merle_teissier(a, b),
            "lct": Fraction(1, a) + Fraction(1, b),
            "xi": xi,
            "colengths": [_quasi_homogeneous_colength(a, b, x) for x in xi],
            # one branch: each constant is the one face of its own polytope
            "faces": None if (a, b) in FACES_WALLS else (len(_merle_teissier(a, b)),) * 2,
        }))
    for key, pinned in OTHER_GERMS.items():
        germs.append((key, pinned["texts"], dict(pinned, xi=grid, alexander=None)))
    for key, texts, expect in germs:
        swap = rng.random() < 0.5
        sx, sy = rng.choice((1, -1, 2, -2, 3)), rng.choice((1, -1, 2, -2, 3))
        texts = tuple(_substitute(t, sx, sy, swap) for t in texts)
        sizes[key] = {"germ": list(texts), "branches": len(texts), "tree_nodes": expect["nodes"]}
        ops.extend(_germ_ops(key, texts, expect))
    return Workload(ops, sizes)


# ---------------------------------------------------------------------------
# global_curves: curves, linalg.rational_rank, quasiadj (named germs)
# ---------------------------------------------------------------------------

CONIC_RUNGS = [(6, 6), (12, 30), (18, 70), (24, 120)]
GENERAL_RUNGS = [(12, 30), (18, 45)]
# Standalone superabundance on curves drawn from the seed, several per
# (degree, cusps): the many mid-sized eliminations around the median op.
CONIC_LADDER = [(12, n) for n in range(8, 21) for _ in range(5)] + [(18, n) for n in (13, 16, 19, 22)]
GENERAL_LADDER = [(12, n) for n in range(6, 22)]
CONIC_COVER_ORDER = 6
SEXTIC_DELTA_COVERS = (6, 7)


def _twist(d: int) -> int:
    return d - 3 - int(d * KAPPA)


def _affine(rng: random.Random):
    """A unimodular integer affine map (x, y, 1) -> (x', y', 1): a product
    of a shear, a transvection and a translation with small entries, so
    coordinate sizes grow by a bounded factor on every seed."""
    s, t = rng.choice((-1, 1)) * rng.randint(1, 2), rng.choice((-1, 1)) * rng.randint(1, 2)
    a, b = rng.randint(-5, 5), rng.randint(-5, 5)
    # [[1, s], [0, 1]] @ [[1, 0], [t, 1]] = [[1 + s t, s], [t, 1]]
    return [[1 + s * t, s, a], [t, 1, b], [0, 0, 1]]


def _general_base(n: int) -> List[tuple]:
    """Fixed points in general position for degree-m curves: the first n
    distinct points of a fixed pseudo-random walk on a small grid.  Their
    superabundance is pinned; the seed moves them only by an affine map."""
    base = random.Random(20051018)
    pts: List[tuple] = []
    while len(pts) < n:
        p = (base.randint(-12, 12), base.randint(-12, 12))
        if p not in pts:
            pts.append(p)
    return pts


def _curve_on_conic(rng: random.Random, d: int, n: int) -> ProjectiveCurveSpec:
    """n cusps at distinct grid points of the smooth conic y = x^2."""
    xs = rng.sample(range(-1000, 1001), n)
    return ProjectiveCurveSpec.build(d, [((x, x * x), "cusp") for x in xs])


def _conic_h1(d: int, n: int) -> int:
    """n distinct points of a smooth conic impose min(n, 2m + 1) conditions
    on curves of degree m: their restriction to the conic is a binary form
    of degree 2m."""
    return max(0, n - (2 * _twist(d) + 1))


def _cover_answer(s: int, n: int):
    if n % 6:
        return 0, []
    return 2 * s, [(Fraction(1, 6), s), (Fraction(5, 6), s)]


def _superabundance_op(name: str, spec: ProjectiveCurveSpec, h1: int) -> Op:
    return Op(name, lambda ctx: superabundance(spec, KAPPA), lambda v: v == h1)


def _build_global_curves(rng: random.Random) -> Workload:
    ops: List[Op] = []
    sizes: Dict[str, Any] = {}
    rungs = []
    for d, n in CONIC_RUNGS:
        rungs.append((f"conic{d}", _curve_on_conic(rng, d, n), _conic_h1(d, n), n, _twist(d)))
    for d, n in GENERAL_RUNGS:
        m = _twist(d)
        spec = ProjectiveCurveSpec.build(d, [(p, "cusp") for p in _general_base(n)])
        rungs.append((f"general{d}", spec, max(0, n - comb(m + 2, 2)), n, m))
    for key, spec, h1, n, m in rungs:
        spec = transform_positions(spec, _affine(rng))
        factors = [(KAPPA, h1)] if h1 else []
        sizes[key] = {"degree": spec.degree, "cusps": n, "condition_matrix": [n, comb(m + 2, 2)]}

        def run_global(ctx, s=spec, key=key):
            ctx[key] = global_alexander(s)
            return ctx[key]

        ops.append(Op(f"{key}.global_alexander", run_global,
                      lambda f, e=factors: f.factors == e and f.t_minus_one_exponent == 0))
        if key.startswith("conic"):
            ops.append(Op(f"{key}.cyclic_cover_h1.{CONIC_COVER_ORDER}",
                          lambda ctx, key=key: cyclic_cover_h1(ctx[key], CONIC_COVER_ORDER),
                          lambda v, e=_cover_answer(h1, CONIC_COVER_ORDER): v == e))
    counts: Dict[str, int] = {}
    for d, n in CONIC_LADDER:
        key = f"ladder.conic{d}.n{n}"
        i = counts[key] = counts.get(key, -1) + 1
        spec = transform_positions(_curve_on_conic(rng, d, n), _affine(rng))
        ops.append(_superabundance_op(f"{key}.{i}.superabundance", spec, _conic_h1(d, n)))
    # Any subset of the general12 rung's points imposes independent
    # conditions, as the whole set does: h^1 = 0 on every seed.
    d, pool = GENERAL_RUNGS[0]
    for _, n in GENERAL_LADDER:
        points = rng.sample(_general_base(pool), n)
        spec = transform_positions(ProjectiveCurveSpec.build(d, [(p, "cusp") for p in points]), _affine(rng))
        ops.append(_superabundance_op(f"ladder.general{d}.n{n}.superabundance", spec, 0))
    for kind, ladder in (("conic", CONIC_LADDER), ("general", GENERAL_LADDER)):
        for d, n in ladder:
            entry = sizes.setdefault(f"ladder.{kind}{d}", {"curves": 0, "cusps": [n, n], "columns": comb(_twist(d) + 2, 2)})
            entry["curves"] += 1
            entry["cusps"] = [min(entry["cusps"][0], n), max(entry["cusps"][1], n)]
    sextic = transform_positions(rungs[0][1], _affine(rng))
    ops.append(Op("conic6.divisibility_check",
                  lambda ctx: divisibility_check(sextic).alexander,
                  lambda a: a == _laurent((1, -1, 1))))
    general = transform_positions(rungs[len(CONIC_RUNGS)][1], _affine(rng))
    ops.append(Op("general12.divisibility_check",
                  lambda ctx: divisibility_check(general).alexander,
                  lambda a: a.is_one()))
    delta = _laurent((1, -1, 1))
    for k in SEXTIC_DELTA_COVERS:
        ops.append(Op(f"sextic_delta.cyclic_cover_h1.{k}",
                      lambda ctx, k=k: cyclic_cover_h1(delta, k),
                      lambda v, e=_cover_answer(1, k): v == e))
    for key, spec, expected in _face_curves(rng, rungs):
        ops.append(Op(f"{key}.global_faces_and_components",
                      lambda ctx, s=spec: [(f.vertices, f.level, f.h1) for f in global_faces_and_components(s)],
                      lambda v, e=expected: v == e))
        sizes[f"faces_{key}"] = {"components": spec.r, "points": len(spec.singularities)}
    return Workload(ops, sizes)


def _face_curves(rng: random.Random, rungs):
    """One-, two- and three-component curves with their pinned faces
    (vertices, level, h^1)."""
    F = Fraction
    tacnode = ProjectiveCurveSpec(4, [("C1", 2), ("C2", 2)], [SingularPoint(
        (F(0), F(0)), local_data_for(PlaneCurveGerm.from_strings("y - x^2", "y + x^2")),
        "tacnode", ("C1", "C2"))])
    pencil = ProjectiveCurveSpec(3, [("L1", 1), ("L2", 1), ("L3", 1)], [SingularPoint(
        (F(0), F(0)), local_data_for(PlaneCurveGerm.from_strings("x", "y", "x-y")),
        "triple point", ("L1", "L2", "L3"))])
    curves = [
        ("conic6", rungs[0][1], [(((F(1, 6),),), F(1), 1)]),
        ("conic12", rungs[1][1], [(((F(1, 6),),), F(2), 15)]),
        ("tacnode", tacnode, [(((F(0), F(1, 2)), (F(1, 2), F(0))), F(1), 0)]),
        ("pencil", pencil, [(((F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(0))), F(1), None)]),
    ]
    return [(key, transform_positions(spec, _affine(rng)), e) for key, spec, e in curves]


# ---------------------------------------------------------------------------
# cli_batch: cli, serialize, schema validation and the package import
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".bench_work"

# (op name, argv after "python -m alexinv.cli"): every subcommand once and
# quasiadj, the slowest, in both formats, so that the p90 of the ten ops
# lies between two like ones.  Files under WORK_DIR are generated from
# the seed; their reports do not depend on the seed.
CLI_CALLS = [
    ("local", ["local", "--germ", "x^2 - y^3", "--germ", "x^3 - y^2", "--format", "json"]),
    ("global", ["global", "--curve", f"{WORK_DIR}/sextic.json", "--cover", "6", "--format", "json"]),
    ("fox", ["fox", "--presentation", "data/trefoil.json", "--format", "text"]),
    ("charvar", ["charvar", "--presentation", f"{WORK_DIR}/trefoil.json",
                 "--character", "1/6", "--character-file", f"{WORK_DIR}/character.json", "--format", "text"]),
    ("covers", ["covers", "--presentation", f"{WORK_DIR}/hopf.json", "--abelian", "3,4", "--format", "json"]),
    ("quasiadj.json", ["quasiadj", "--germ", "x^4 + y^7", "--xi", "1/4", "--format", "json"]),
    ("quasiadj.text", ["quasiadj", "--germ", "x^4 + y^7", "--xi", "1/4", "--format", "text"]),
    ("lct", ["lct", "--germ", "x^2 + y^5", "--format", "text"]),
    ("vankampen", ["vankampen", "--braids", f"{WORK_DIR}/cusps3.json", "--format", "json"]),
    ("faces", ["faces", "--curve", f"{WORK_DIR}/sextic.json", "--format", "text"]),
]
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def _dump(rng: random.Random, doc: dict) -> str:
    """The document with keys in seeded order and seeded indentation: the
    same JSON value, so the same validated input."""
    keys = list(doc)
    rng.shuffle(keys)
    return json.dumps({k: doc[k] for k in keys}, indent=rng.choice((None, 1, 2, 4))) + "\n"


def cli_files(rng: random.Random) -> Dict[str, str]:
    def relator_doc(p: GroupPresentation):
        return [[[g + 1, e] for g, e in rel] for rel in p.relators]

    xs = rng.sample(range(-1000, 1001), 6)
    sextic = {"schema_version": 1, "degree": 6,
              "components": [{"label": "C", "degree": 6}],
              "singularities": [{"pos": [str(x), str(x * x)], "type": "cusp"} for x in xs]}
    trefoil = _reshuffled(trefoil_presentation(), rng)
    hopf = _reshuffled(hopf_link_presentation(), rng)
    label = rng.choice(("C", "K", "cuspidal"))
    docs = {
        "sextic.json": sextic,
        "trefoil.json": {"schema_version": 1, "generators": 2, "relators": relator_doc(trefoil), "phi": [[1], [1]]},
        "hopf.json": {"schema_version": 1, "generators": 2, "relators": relator_doc(hopf), "phi": [[1, 0], [0, 1]]},
        "character.json": {"schema_version": 1, "coords": [rng.choice(("1/6", "7/6", "-5/6"))]},
        "cusps3.json": {"schema_version": 1, "strands": 3, "braids": [[1, 2, 1, 2]] * 3,
                        "labels": {str(i): label for i in (1, 2, 3)}},
    }
    return {f"{WORK_DIR}/{name}": _dump(rng, doc) for name, doc in docs.items()}


@contextmanager
def work_dir(files: Dict[str, str]):
    """WORK_DIR holding the generated input files, removed afterwards."""
    path = ROOT / WORK_DIR
    path.mkdir(exist_ok=True)
    try:
        for rel, text in files.items():
            (ROOT / rel).write_text(text)
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def cli_argv(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "alexinv.cli", *args]


def cli_op(name: str, args: List[str], expected: bytes) -> Op:
    """``python -m alexinv.cli ...`` in a fresh interpreter; the check is
    exit code 0 and stdout equal to the pinned report byte for byte."""
    argv = cli_argv(args)

    def run(ctx):
        code, out, rss_kb = harness.run_child(argv, ROOT, ROOT / WORK_DIR / f"{name}.stdout")
        ctx.setdefault("child_rss_kb", []).append(rss_kb)
        return code, out

    return Op(f"cli.{name}", run, lambda r: r == (0, expected), subcommand=args[0])


def _build_cli_batch(rng: random.Random) -> Workload:
    files = cli_files(rng)
    ops = []
    for name, args in CLI_CALLS:
        expected = (EXPECTED_DIR / f"{name}.out").read_bytes()
        ops.append(cli_op(name, args, expected))
    sizes = {"invocations": len(ops), "files": {k: len(v) for k, v in files.items()}}
    return Workload(ops, sizes, files)
