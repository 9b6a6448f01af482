"""Per-layer counters for the traced run.

The benchmark wraps public functions of the ``alexinv`` modules from
outside: each wrapper replaces the function in every ``alexinv`` module
that holds it (so ``from .linalg import rational_rank`` in ``polytope``
is wrapped too), or the method on its class.  A wrapper counts calls and
busy self time: its own duration minus the time spent in wrapped callees.
Nothing under ``src/`` is changed, and ``uninstall`` puts every original
back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path) of every wrapped callable; the metric prefix is
# "<module>.<attribute path>".
TARGETS = [
    ("braids", "vankampen_presentation"),
    ("braids", "full_twist_check"),
    ("groups", "fox_jacobian"),
    ("groups", "local_system_h1_dim"),
    ("groups", "one_variable_alexander"),
    ("cyclotomic", "evaluate_character"),
    ("cyclotomic", "CyclotomicElement.inverse"),
    ("laurent", "univariate_gcd"),
    ("linalg", "cyclotomic_rank"),
    ("linalg", "rational_rank"),
    ("biv", "parse"),
    ("biv", "factor_univariate"),
    ("resolution", "resolve"),
    ("resolution", "acampo_zeta"),
    ("quasiadj", "ideal_of_quasiadjunction"),
    ("quasiadj", "constants_of_quasiadjunction"),
    ("quasiadj", "lct_threshold"),
    ("quasiadj", "polytopes_and_faces"),
    ("polytope", "RationalPolytope.faces"),
    ("polytope", "RationalPolytope.vertices"),
    ("curves", "superabundance"),
    ("curves", "global_alexander"),
    ("curves", "global_faces_and_components"),
    ("curves", "divisibility_check"),
]

CLI_SUBCOMMANDS = ("local", "global", "fox", "charvar", "covers", "quasiadj", "lct", "vankampen", "faces")

# Every per-layer metric with its unit, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("groups.fox_jacobian.calls", "count"),
    ("groups.fox_jacobian.calls_per_presentation", "ratio"),
    ("groups.local_system_h1_dim.calls", "count"),
    ("groups.local_system_h1_dim.calls_per_orbit", "ratio"),
    ("cyclotomic.evaluate_character.calls", "count"),
    ("cyclotomic.evaluate_character.s", "s"),
    ("cyclotomic.CyclotomicElement.inverse.calls", "count"),
    ("cyclotomic.CyclotomicElement.inverse.s", "s"),
    ("linalg.cyclotomic_rank.calls", "count"),
    ("linalg.cyclotomic_rank.s", "s"),
    ("groups.one_variable_alexander.s", "s"),
    ("laurent.univariate_gcd.calls", "count"),
    ("laurent.univariate_gcd.s", "s"),
    ("braids.vankampen_presentation.s", "s"),
    ("braids.full_twist_check.s", "s"),
    ("linalg.rational_rank.calls", "count"),
    ("linalg.rational_rank.s", "s"),
    ("linalg.rational_rank.entries", "count"),
    ("curves.superabundance.calls", "count"),
    ("curves.superabundance.s", "s"),
    ("curves.global_alexander.s", "s"),
    ("curves.global_faces_and_components.s", "s"),
    ("curves.divisibility_check.s", "s"),
    ("quasiadj.polytopes_and_faces.calls", "count"),
    ("quasiadj.polytopes_and_faces.s", "s"),
    ("polytope.RationalPolytope.faces.calls", "count"),
    ("polytope.RationalPolytope.faces.s", "s"),
    ("polytope.RationalPolytope.vertices.calls", "count"),
    ("polytope.RationalPolytope.vertices.s", "s"),
    ("polytope.faces.calls_per_reported_face", "ratio"),
    ("quasiadj.ideal_of_quasiadjunction.calls", "count"),
    ("quasiadj.ideal_of_quasiadjunction.s", "s"),
    ("quasiadj.constants_of_quasiadjunction.s", "s"),
    ("quasiadj.lct_threshold.s", "s"),
    ("resolution.resolve.calls", "count"),
    ("resolution.resolve.s", "s"),
    ("resolution.resolve.nodes", "count"),
    ("resolution.acampo_zeta.s", "s"),
    ("biv.parse.calls", "count"),
    ("biv.parse.s", "s"),
    ("biv.factor_univariate.calls", "count"),
    ("biv.factor_univariate.s", "s"),
    ("cli.import_s", "s"),
    *[(f"cli.{sub}.p50_s", "s") for sub in CLI_SUBCOMMANDS],
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def galois_orbit(coords) -> Tuple[int, Tuple[int, ...]]:
    """Canonical representative of the orbit of a torsion character under
    zeta -> zeta^u, gcd(u, M) = 1, where M is its conductor."""
    coords = [Fraction(c) % 1 for c in coords]
    m = 1
    for c in coords:
        m = m * c.denominator // gcd(m, c.denominator)
    ks = [int(c * m) for c in coords]
    return m, min(tuple(u * k % m for k in ks) for u in range(1, m + 1) if gcd(u, m) == 1)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.extra: Counter = Counter()
        self.presentations = set()
        self.orbits = set()
        self._stack: List[float] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, key: str, fn: Callable, after: Optional[Callable]) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                self.self_s[key] += elapsed - children
                self.calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hooks(self) -> Dict[str, Callable]:
        def presentation(args, result):
            p = args[0]
            self.presentations.add((p.generators, p.relators, p.phi, p.torsion))

        def orbit(args, result):
            p, chi = args[0], args[1]
            self.orbits.add(((p.generators, p.relators, p.phi, p.torsion), galois_orbit(chi.coords)))

        def entries(args, result):
            matrix = args[0]
            self.extra["linalg.rational_rank.entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)

        def nodes(args, result):
            self.extra["resolution.resolve.nodes"] += len(result.nodes)

        def reported_faces(args, result):
            self.extra["reported_faces"] += sum(len(qp.faces) for qp in result)

        return {
            "groups.fox_jacobian": presentation,
            "groups.local_system_h1_dim": orbit,
            "linalg.rational_rank": entries,
            "resolution.resolve": nodes,
            "quasiadj.polytopes_and_faces": reported_faces,
        }

    def install(self, *callers) -> None:
        """Wrap every target in the alexinv modules and in ``callers``,
        the benchmark modules that imported the names themselves."""
        hooks = self._after_hooks()
        modules = [m for n, m in list(sys.modules.items()) if n == "alexinv" or n.startswith("alexinv.")]
        modules += callers
        for module_name, path in TARGETS:
            key = f"{module_name}.{path}"
            owner = importlib.import_module(f"alexinv.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original, hooks.get(key))
            if outer:  # a method: the class attribute serves every instance
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- report -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """The per-layer values that the wrappers measure; names as in
        PER_LAYER."""
        out: Dict[str, float] = {}
        for module_name, path in TARGETS:
            key = f"{module_name}.{path}"
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.s"] = self.self_s[key]
        out["linalg.rational_rank.entries"] = self.extra["linalg.rational_rank.entries"]
        out["resolution.resolve.nodes"] = self.extra["resolution.resolve.nodes"]

        def ratio(num, den):
            return num / den if den else 0.0

        out["groups.fox_jacobian.calls_per_presentation"] = ratio(
            self.calls["groups.fox_jacobian"], len(self.presentations))
        out["groups.local_system_h1_dim.calls_per_orbit"] = ratio(
            self.calls["groups.local_system_h1_dim"], len(self.orbits))
        out["polytope.faces.calls_per_reported_face"] = ratio(
            self.calls["polytope.RationalPolytope.faces"], self.extra["reported_faces"])
        return out
