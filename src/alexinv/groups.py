"""Fox calculus on finite presentations: Alexander matrices, one-variable
Alexander polynomials, characteristic-variety membership and depth at
torsion characters, Betti numbers of finite abelian covers, and the Koszul
model for generic-arrangement homotopy modules.

Words are stored unreduced; Fox differentiation is invariant under free
reduction, which the test suite checks.  One walk over a relator gives
its Fox derivatives by every generator and its image under phi
(``_fox_walk``): with exponent vectors in Z^r its dicts are the entries
of the Alexander matrix over the Laurent ring, with the integer images
n_j = phi(x_j) in Z they give the one-variable order through its minors,
and with integer exponents read mod M they evaluate the matrix at a
torsion character of conductor M without building it.  Every path checks
the fundamental identity of every row against that image, on the walk's
own exponent dicts or, at a character, in Z[x]/(x^M - 1), and raises
``InternalError`` when it fails; the character path also refuses a
character that does not kill the image.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add, mul
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import uni
from .cyclotomic import _reduce, expand_cyclotomic
from .errors import (
    BadArgument,
    BadWord,
    InternalError,
    InvalidAbelianization,
    MissingSublinkData,
    NonTorsionModule,
    TrivialCharacterUnsupported,
)
from .laurent import LaurentPolynomial, normalize_unit
from .linalg import cyclotomic_rank, smith_normal_form

Letter = Tuple[int, int]  # (generator index, +-1)
Word = Tuple[Letter, ...]


def word(letters: Sequence[Sequence[int]]) -> Word:
    out = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise BadWord(f"letter exponent must be +-1, got {exp}")
        out.append((int(gen), int(exp)))
    return tuple(out)


def word_inverse(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def free_reduce(w: Word) -> Word:
    out: List[Letter] = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class CharacterPoint:
    """A torsion character, coordinates k_i/m_i reduced mod 1."""

    def __init__(self, coords):
        self.coords: Tuple[Fraction, ...] = tuple(Fraction(c) % 1 for c in coords)

    @property
    def nontrivial(self) -> bool:
        return any(c != 0 for c in self.coords)

    def __len__(self):
        return len(self.coords)


class GroupPresentation:
    """A finite presentation with a map phi to Z^r on generators.

    phi must send every relator to zero unless ``torsion`` is set; in the
    torsion case (used for groups like the sphere braid groups, whose
    abelianization is finite cyclic) r must be 1 and the relator images
    determine the finite cyclic image.
    """

    def __init__(self, generators, relators, phi, torsion=False):
        self.generators = int(generators)
        self.relators = tuple(word(r) for r in relators)
        self.phi: Tuple[Tuple[int, ...], ...] = tuple(tuple(int(x) for x in v) for v in phi)
        self.torsion = bool(torsion)
        self._validate()

    def _validate(self):
        if self.generators < 1:
            raise BadWord("need at least one generator")
        if len(self.phi) != self.generators:
            raise InvalidAbelianization("phi must give a vector per generator")
        r = self.rank
        if any(len(v) != r for v in self.phi):
            raise InvalidAbelianization("phi vectors of unequal length")
        for rel in self.relators:
            for g, _ in rel:
                if not 0 <= g < self.generators:
                    raise BadWord(f"generator {g} out of range")
            image = self.relator_image(rel)
            if any(image) and not self.torsion:
                raise InvalidAbelianization(
                    f"phi does not kill relator {rel}: image {image}"
                )
        if self.torsion and (r != 1 or not any(v[0] for v in self.phi)):
            raise InvalidAbelianization("torsion abelianizations need r = 1 and phi != 0")
        # phi is onto Z^r exactly when its r invariant factors are all 1
        if not self.torsion and smith_normal_form(self.phi) != [1] * r:
            raise InvalidAbelianization("phi is not surjective onto Z^r")

    @property
    def rank(self) -> int:
        return len(self.phi[0]) if self.phi else 0

    def relator_image(self, rel: Word) -> Tuple[int, ...]:
        img = [0] * self.rank
        for g, e in rel:
            for i, x in enumerate(self.phi[g]):
                img[i] += e * x
        return tuple(img)

    def torsion_order(self) -> int:
        """gcd of relator images under phi (r=1); 0 means a true surjection."""
        m = 0
        for rel in self.relators:
            m = gcd(m, abs(self.relator_image(rel)[0]))
        return m


def free_group(rank: int) -> GroupPresentation:
    phi = [[1 if j == i else 0 for j in range(rank)] for i in range(rank)]
    return GroupPresentation(rank, (), phi)


# ---------------------------------------------------------------------------
# Fox derivatives and the Alexander matrix
# ---------------------------------------------------------------------------


def _fox_walk(w: Word, images, inverses, origin, plus) -> Tuple[List[Dict], object]:
    """The abelianized Fox derivatives of w by every generator, and the
    exponent of w itself, in one walk over its letters: terms[j] maps an
    exponent to its coefficient in d w / d x_j.

    The prefix exponent starts at origin, and a letter x_g^e moves it by
    images[g] when e = 1 and by inverses[g] when e = -1, added by plus;
    its final value is the image of w.  The product rule adds
    +t^{phi(prefix)} to terms[g] before a letter x_g, and the inverse rule
    -t^{phi(prefix x_g^-1)} after a letter x_g^-1.
    """
    terms: List[Dict] = [{} for _ in images]
    prefix = origin
    for g, e in w:
        d = terms[g]
        if e == 1:
            d[prefix] = d.get(prefix, 0) + 1
            prefix = plus(prefix, images[g])
        else:
            prefix = plus(prefix, inverses[g])
            d[prefix] = d.get(prefix, 0) - 1
    return terms, prefix


def _add_vectors(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(map(add, a, b))


def _fox_rows(p: GroupPresentation, images, inverses, origin, plus) -> List[List[Dict]]:
    """The Fox walk of every relator, each row checked against the
    fundamental identity sum_j d r/d x_j (t^images[j] - 1) = t^phi(r) - 1
    on the walk's own exponent dicts; InternalError when it fails."""
    rows = []
    for rel in p.relators:
        terms, image = _fox_walk(rel, images, inverses, origin, plus)
        diff = Counter({origin: 1})
        diff[image] -= 1
        for n, d in zip(images, terms):
            for e, c in d.items():
                diff[plus(e, n)] += c
                diff[e] -= c
        if any(diff.values()):
            raise InternalError("Fox row identity violated (internal error)")
        rows.append(terms)
    return rows


class AlexanderMatrix:
    """Fox Jacobian of a presentation over the Laurent ring in r variables."""

    def __init__(self, presentation: GroupPresentation,
                 entries: Optional[List[List[LaurentPolynomial]]] = None):
        self.presentation = presentation
        self.entries = [] if entries is None else entries

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self.presentation.generators


def fox_jacobian(p: GroupPresentation) -> AlexanderMatrix:
    r = p.rank
    inverses = [tuple(-x for x in v) for v in p.phi]
    rows = _fox_rows(p, p.phi, inverses, (0,) * r, _add_vectors)
    return AlexanderMatrix(p, [[LaurentPolynomial(r, d) for d in row] for row in rows])


# ---------------------------------------------------------------------------
# one-variable Alexander polynomial
# ---------------------------------------------------------------------------


def one_variable_alexander(p: GroupPresentation) -> LaurentPolynomial:
    """Order of the torsion of the Alexander module for r = 1: its monic
    representative up to +-t^a, lowest term in degree 0.

    For presentations whose abelianization is finite cyclic (torsion mode)
    the order is assembled from the twisted homology at the characters of
    the cyclic image.  Raises NonTorsionModule when the module has
    positive rank (e.g. free groups of rank >= 2).
    """
    if p.rank != 1:
        raise BadArgument("one-variable Alexander polynomial requires r = 1")
    m = p.torsion_order() if p.torsion else 0
    if m:
        return expand_cyclotomic({d: _h1_at(p, ks, d) for ks, d, _ in _galois_orbits((m,))})
    # The order is the gcd of the (s - 1)-minors.  Every row r satisfies
    # sum_k r_k (t^n_k - 1) = 0 with n_k = phi(x_k), so on any s - 1 rows
    # the minor without column k is +-(t^n_k - 1)/(t^n_j - 1) times the one
    # without column j, and gcd_k (t^n_k - 1) = t^e - 1, e = gcd_k n_k (1 when
    # phi is onto Z).  So the order is (t^e - 1)/(t^n_j - 1) times the gcd of
    # the maximal minors of the matrix without column j, for any n_j != 0.
    n = [v[0] for v in p.phi]
    j = min((k for k in range(p.generators) if n[k]), key=lambda k: abs(n[k]))
    rows = []
    for walk in _fox_rows(p, n, [-x for x in n], 0, add):
        row = [{e: c for e, c in d.items() if c} for k, d in enumerate(walk) if k != j]
        low = min((e for d in row for e in d), default=0)
        # each entry times t^-low, as a coefficient list from degree 0
        rows.append([[d.get(e, 0) for e in range(low, max(d) + 1)] if d else [] for d in row])
    g = uni.maximal_minor_gcd(rows, p.generators - 1)
    if not g:
        raise NonTorsionModule(
            "Alexander module has positive rank; no polynomial order"
        )
    # t^n_j - 1 = -t^n_j (t^-n_j - 1) is t^|n_j| - 1 up to a unit
    t_e = uni.sub(uni.x_power(gcd(*n)), [1])
    t_j = uni.sub(uni.x_power(abs(n[j])), [1])
    return normalize_unit(LaurentPolynomial.from_univariate(uni.exact_div(uni.mul(g, t_e), t_j)))


# ---------------------------------------------------------------------------
# local systems, characteristic varieties, covers
# ---------------------------------------------------------------------------


def local_system_h1_dim(p: GroupPresentation, chi: CharacterPoint) -> int:
    """dim H_1 of the rank-one local system chi (chi nontrivial):
    s - 1 - rank of the Alexander matrix evaluated at chi."""
    if not chi.nontrivial:
        raise TrivialCharacterUnsupported("identity character excluded")
    M = lcm(*[c.denominator for c in chi.coords])
    return _h1_at(p, [c.numerator * (M // c.denominator) for c in chi.coords], M)


def _h1_at(p: GroupPresentation, ks: Sequence[int], M: int) -> int:
    """dim H_1 at the nontrivial character chi = k/M, integer numerators k
    over one conductor M; the covers and the torsion Alexander polynomial
    call it once per Galois orbit, so that a trace of
    ``local_system_h1_dim`` counts only the characters asked for.

    The Fox matrix at chi is built without the Laurent matrix: generator j
    goes to zeta_M^{n_j}, n_j = <phi(x_j), k>, and one integer walk per
    relator adds +-1 into each generator's accumulator in Z[x]/(x^M - 1)
    at its prefix exponent mod M.  The walk ends at <phi(rel), k>, and
    InvalidAbelianization is raised when that is not 0 mod M: chi does not
    kill the relator.  The fundamental identity sum_j row_j (x^{n_j} - 1) =
    x^{<phi(rel), k>} - 1 is then checked there, with right side 0, and
    InternalError is raised when the left side is not 0.  Each accumulator
    is reduced mod Phi_M once, and the rank is taken over Z[zeta_M] on the
    coefficient lists.
    """
    if len(ks) != p.rank:
        raise BadArgument("character length does not match abelianization rank")
    images = [sum(map(mul, ks, v)) for v in p.phi]
    inverses = [-n for n in images]
    rows = []
    for rel in p.relators:
        walk, image = _fox_walk(rel, images, inverses, 0, add)
        if image % M:
            raise InvalidAbelianization("character does not kill all relators")
        lhs = [0] * M
        row = []
        for n, terms in zip(images, walk):
            acc = [0] * M
            for e, c in terms.items():
                acc[e % M] += c
                lhs[(e + n) % M] += c
                lhs[e % M] -= c
            row.append(_reduce(acc, M))
        if any(lhs):
            raise InternalError("Fox row identity violated (internal error)")
        rows.append(row)
    return p.generators - 1 - cyclotomic_rank(rows, M)


def depth(p: GroupPresentation, chi: CharacterPoint) -> int:
    """Largest k with chi in V_k; equals dim H_1(X, chi) for chi != 1."""
    return local_system_h1_dim(p, chi)


def charvar_membership(p: GroupPresentation, k: int, chi: CharacterPoint) -> bool:
    if k < 1:
        raise BadArgument("k must be positive")
    return local_system_h1_dim(p, chi) >= k


def _galois_orbits(orders: Sequence[int]):
    """One nontrivial character of Z/n_1 x ... x Z/n_r per Galois orbit, as
    (k, M, orbit size): the character k/M over its conductor M.

    u prime to M acts by k -> u k; the action is free, so the orbit has
    phi(M) elements, and it keeps the support {i : k_i != 0}.  The Fox
    matrix has integer entries, so the conjugate characters are Galois
    conjugate points and have the same depth.  One factor has one orbit
    per divisor d > 1 of n, 1/d, found without a scan: phi(d) is d less
    phi(e) for each divisor e < d of d.  Several factors are enumerated
    over N = lcm(n_i), and each new orbit is scanned once.
    """
    if any(n < 1 for n in orders):
        raise BadArgument("orders must be >= 1")
    if len(orders) == 1:
        n, phi = orders[0], {1: 1}
        for d in uni.divisors(n)[1:]:
            phi[d] = d - sum(v for e, v in phi.items() if d % e == 0)
            yield [1], d, phi[d]
        return
    N, seen = lcm(*orders), set()
    for ks in product(*(range(0, N, N // n) for n in orders)):
        if ks in seen or not any(ks):
            continue
        M = N // gcd(N, *ks)
        orbit = {tuple(u * k % N for k in ks) for u in range(1, M) if gcd(u, M) == 1}
        seen |= orbit
        yield [k * M // N for k in ks], M, len(orbit)


def unbranched_cover_betti(p: GroupPresentation, orders: Sequence[int]) -> int:
    """First Betti number of the finite unbranched abelian cover of orders
    (n_1, ..., n_r): r plus the sum of depths over nontrivial torsion
    characters of the deck group, one depth per Galois orbit."""
    if len(orders) != p.rank:
        raise BadArgument("need one order per Z factor")
    return p.rank + sum(size * _h1_at(p, ks, M) for ks, M, size in _galois_orbits(orders))


def branched_cover_betti(
    sublink_data: Dict[FrozenSet[int], GroupPresentation], orders: Sequence[int]
) -> int:
    """Middle Betti number of the abelian cover branched over an r-component
    link, from per-sublink presentations.

    For each character chi of the deck group, I_chi is the set of
    components where chi is nontrivial; chi reduced to those components is
    evaluated in the presentation supplied for that subset.  One depth is
    taken per Galois orbit, which has one support.
    """
    total = 0
    for ks, M, size in _galois_orbits(orders):
        support = [i for i, k in enumerate(ks) if k]
        key = frozenset(support)
        if key not in sublink_data:
            raise MissingSublinkData(f"no presentation for components {[i + 1 for i in support]}")
        total += size * _h1_at(sublink_data[key], [ks[i] for i in support], M)
    return total


def diagonal_multiplicity(p: GroupPresentation, omega: Fraction) -> int:
    """Multiplicity of omega as a Milnor-monodromy eigenvalue: the depth of
    the diagonal character (omega, ..., omega)."""
    return depth(p, CharacterPoint([omega] * p.rank))


# ---------------------------------------------------------------------------
# Koszul model for generic-arrangement homotopy modules
# ---------------------------------------------------------------------------


def koszul_support_membership(r: int, n: int, chi: CharacterPoint) -> bool:
    """Whether chi lies in the support of the generic-arrangement homotopy
    module (Koszul cokernel over the subtorus t_1...t_r = 1): exactly when
    chi is a point of the subtorus, that is when its coordinates sum to an
    integer.

    The module is presented over Z[t_1^+-, ..., t_r^+-]/(t_1...t_r - 1) by
    the Koszul boundary from degree n+1 together with the relation rows
    (t_1...t_r - 1) e_T.  Off the subtorus the relation rows alone have
    full rank.  On it they vanish, and the Koszul complex of (t_1 - 1, ...,
    t_r - 1) evaluated at chi != 1 is exact, so the boundary has rank
    C(r-1, n) and the cokernel dimension C(r-1, n-1) > 0; at chi = 1 the
    boundary is zero.  So the support is the whole subtorus, and no rank
    is taken.
    """
    if not 2 <= n <= r - 1:
        raise BadArgument("need 2 <= n <= r - 1")
    if len(chi) != r:
        raise BadArgument("character length must be r")
    return sum(chi.coords) % 1 == 0


# ---------------------------------------------------------------------------
# standard fixtures
# ---------------------------------------------------------------------------


def trefoil_presentation() -> GroupPresentation:
    """<x, y | xyx y^-1 x^-1 y^-1> with the total linking map."""
    rel = word([(0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)])
    return GroupPresentation(2, (rel,), [[1], [1]])


def hopf_link_presentation() -> GroupPresentation:
    """<x, y | [x, y]> with the identity abelianization to Z^2."""
    rel = word([(0, 1), (1, 1), (0, -1), (1, -1)])
    return GroupPresentation(2, (rel,), [[1, 0], [0, 1]])


def sphere_braid_presentation(d: int) -> GroupPresentation:
    """B_d(S^2) on generators s_1..s_{d-1}: braid relations plus
    s_1 ... s_{d-1} s_{d-1} ... s_1 = 1.  Abelianization is Z/2(d-1),
    so the presentation is built in torsion mode."""
    s = d - 1
    if s < 1:
        raise BadArgument("need d >= 2")
    relators = []
    for i in range(s - 1):
        relators.append(
            word(
                [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
            )
        )
    for i in range(s):
        for j in range(i + 2, s):
            relators.append(word([(i, 1), (j, 1), (i, -1), (j, -1)]))
    sphere = [(i, 1) for i in range(s)] + [(i, 1) for i in reversed(range(s))]
    relators.append(word(sphere))
    return GroupPresentation(s, tuple(relators), [[1]] * s, torsion=True)
