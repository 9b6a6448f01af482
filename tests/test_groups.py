from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alexinv import groups
from alexinv.braids import BraidWord, MonodromyData, vankampen_presentation
from alexinv.cyclotomic import evaluate_character
from alexinv.errors import (
    BadArgument,
    BadWord,
    InternalError,
    InvalidAbelianization,
    MissingSublinkData,
    NonTorsionModule,
    TrivialCharacterUnsupported,
)
from alexinv.groups import (
    CharacterPoint,
    GroupPresentation,
    branched_cover_betti,
    charvar_membership,
    depth,
    diagonal_multiplicity,
    fox_jacobian,
    free_group,
    free_reduce,
    hopf_link_presentation,
    koszul_support_membership,
    local_system_h1_dim,
    one_variable_alexander,
    sphere_braid_presentation,
    trefoil_presentation,
    unbranched_cover_betti,
    word,
)
from alexinv.laurent import LaurentPolynomial, univariate_gcd
from alexinv.linalg import cyclotomic_rank
from conftest import (
    RUNAWAY_PHI,
    echelon,
    integer_kernel_basis,
    koszul_boundary_rows,
    laurent_koszul_rows,
    reference_cover_betti,
    reference_galois_orbits,
)

t = LaurentPolynomial.variable()
PHI6 = t**2 - t + 1
F = Fraction


def test_trefoil_matrix_and_polynomial():
    tref = trefoil_presentation()
    matrix = fox_jacobian(tref)
    assert matrix.rows == 1 and matrix.cols == 2
    assert {str(e) for e in matrix.entries[0]} == {"t^2 - t + 1", "-t^2 + t - 1"}
    assert one_variable_alexander(tref) == PHI6


def test_free_group_jacobian_empty():
    matrix = fox_jacobian(free_group(2))
    assert matrix.rows == 0 and matrix.cols == 2


def test_sphere_braid_groups():
    assert one_variable_alexander(sphere_braid_presentation(4)) == PHI6
    assert one_variable_alexander(sphere_braid_presentation(5)) == LaurentPolynomial.one()
    assert one_variable_alexander(sphere_braid_presentation(6)) == LaurentPolynomial.one()


def test_sphere_braid_matrix_shape():
    matrix = fox_jacobian(sphere_braid_presentation(4))
    assert matrix.rows == 4 and matrix.cols == 3


def test_non_torsion_marker():
    with pytest.raises(NonTorsionModule):
        one_variable_alexander(GroupPresentation(2, (), [[1], [1]]))


@pytest.mark.parametrize("copies", [1, 2])
def test_non_torsion_with_relators(copies):
    """The trefoil relator on three generators, all mapped to t: one copy
    leaves no 2x2 minor, two copies leave only vanishing ones."""
    (rel,) = trefoil_presentation().relators
    with pytest.raises(NonTorsionModule):
        one_variable_alexander(GroupPresentation(3, (rel,) * copies, [[1], [1], [1]]))


def test_answer_is_monic_whatever_the_minor_order():
    """<x, y | x^-1 y x^-1 y>: the minors are -2t^-1 and 2t^-1, so the order
    over Q is 1, not the first minor's content 2."""
    rel = word([(0, -1), (1, 1), (0, -1), (1, 1)])
    pres = GroupPresentation(2, (rel,), [[1], [1]])
    assert one_variable_alexander(pres) == LaurentPolynomial.one()


def test_vankampen_rung_d5():
    """Five braids (s1 s2 s3 s4)^2 on 5 strands: 5 generators, 25 relators."""
    braid = BraidWord(5, [1, 2, 3, 4] * 2)
    pres = vankampen_presentation(MonodromyData(5, [braid] * 5))
    assert (pres.generators, len(pres.relators)) == (5, 25)
    assert one_variable_alexander(pres) == t**4 - t**3 + t**2 - t + 1


def test_rank_one_free_group():
    assert one_variable_alexander(free_group(1)) == LaurentPolynomial.one()


def test_invalid_abelianization():
    with pytest.raises(InvalidAbelianization):
        GroupPresentation(2, (word([(0, 1)]),), [[1], [1]])
    with pytest.raises(InvalidAbelianization):
        GroupPresentation(2, (), [[0], [0]], torsion=True)
    with pytest.raises(InvalidAbelianization, match="a vector per generator"):
        GroupPresentation(2, (), [[1]])
    with pytest.raises(InvalidAbelianization, match="unequal length"):
        GroupPresentation(2, (), [[1], [1, 0]])
    with pytest.raises(InvalidAbelianization, match="not surjective"):
        GroupPresentation(1, (), [[2]])


def test_surjectivity_check_ends_on_a_runaway_phi():
    assert GroupPresentation(6, (), RUNAWAY_PHI).rank == 5
    doubled = [row[:-1] + [2 * row[-1]] for row in RUNAWAY_PHI]
    with pytest.raises(InvalidAbelianization, match="not surjective"):
        GroupPresentation(6, (), doubled)


def test_bad_presentation_words():
    with pytest.raises(BadWord, match="at least one generator"):
        GroupPresentation(0, (), [])
    with pytest.raises(BadWord, match="out of range"):
        GroupPresentation(2, (((2, 1), (0, -1)),), [[1], [1]])
    # a tuple relator is checked like any other: the exponent 2 is refused
    # here, not read later as an inverse letter by the Fox walk
    with pytest.raises(BadWord, match="exponent must be"):
        GroupPresentation(1, (((0, 2),),), [[1]], torsion=True)


@given(st.integers(3, 6), st.integers(0, 30), st.integers(1, 30))
def test_character_validity_matches_fraction_oracle(d, k, n):
    """A character of the sphere braid group, whose abelianization is
    Z/(2d - 2), is valid iff it kills every relator image, decided with
    Fraction arithmetic here; an invalid one is refused before evaluation."""
    p = sphere_braid_presentation(d)
    chi = CharacterPoint([F(k, n)])
    valid = all(chi.coords[0] * p.relator_image(rel)[0] % 1 == 0 for rel in p.relators)
    assert valid == (k * (2 * d - 2) % n == 0)
    if not valid:
        with pytest.raises(InvalidAbelianization):
            local_system_h1_dim(p, chi)
    elif chi.nontrivial:
        assert local_system_h1_dim(p, chi) >= 0


def test_local_system_dims():
    tref = trefoil_presentation()
    assert local_system_h1_dim(free_group(2), CharacterPoint([F(1, 3), F(2, 5)])) == 1
    assert local_system_h1_dim(tref, CharacterPoint([F(1, 6)])) == 1
    assert local_system_h1_dim(tref, CharacterPoint([F(1, 2)])) == 0
    with pytest.raises(TrivialCharacterUnsupported):
        local_system_h1_dim(tref, CharacterPoint([F(0)]))


def test_depth_and_membership():
    tref = trefoil_presentation()
    assert depth(free_group(3), CharacterPoint([F(1, 2), F(1, 3), F(1, 5)])) == 2
    assert depth(tref, CharacterPoint([F(1, 6)])) == 1
    assert depth(hopf_link_presentation(), CharacterPoint([F(1, 2), F(1, 3)])) == 0
    assert charvar_membership(tref, 1, CharacterPoint([F(1, 6)])) is True
    assert charvar_membership(tref, 2, CharacterPoint([F(1, 6)])) is False


@given(st.fractions(max_denominator=8).filter(lambda q: q % 1 != 0))
def test_depth_antitone_in_k(chi0):
    tref = trefoil_presentation()
    chi = CharacterPoint([chi0])
    d = depth(tref, chi)
    for k in range(1, d + 1):
        assert charvar_membership(tref, k, chi)
    assert not charvar_membership(tref, d + 1, chi)


def test_unbranched_cover_betti():
    f2 = free_group(2)
    assert unbranched_cover_betti(f2, (2, 2)) == 5
    assert unbranched_cover_betti(f2, (3, 1)) == 4
    assert unbranched_cover_betti(trefoil_presentation(), (6,)) == 3


@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 3))
def test_free_group_cover_euler_characteristic(n1, n2, r):
    orders = (n1, n2) if r == 2 else (n1, n2, 2)
    total = 1
    for n in orders:
        total *= n
    assert unbranched_cover_betti(free_group(r), orders) == 1 + total * (r - 1)


def test_branched_cover_betti():
    tref = trefoil_presentation()
    assert branched_cover_betti({frozenset({0}): tref}, (6,)) == 2
    assert branched_cover_betti({frozenset({0}): free_group(1)}, (9,)) == 0
    hopf = {
        frozenset({0}): free_group(1),
        frozenset({1}): free_group(1),
        frozenset({0, 1}): hopf_link_presentation(),
    }
    assert branched_cover_betti(hopf, (3, 3)) == 0
    with pytest.raises(MissingSublinkData):
        branched_cover_betti({frozenset({0}): tref}, (2, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: one_variable_alexander(hopf_link_presentation()), "requires r = 1"),
    (lambda: local_system_h1_dim(hopf_link_presentation(), CharacterPoint([F(1, 2)])),
     "character length does not match"),
    (lambda: branched_cover_betti({frozenset({0}): hopf_link_presentation()}, (2,)),
     "character length does not match"),
    (lambda: charvar_membership(trefoil_presentation(), 0, CharacterPoint([F(1, 6)])),
     "k must be positive"),
    (lambda: unbranched_cover_betti(trefoil_presentation(), (2, 3)), "one order per Z factor"),
    (lambda: unbranched_cover_betti(trefoil_presentation(), (0,)), "orders must be >= 1"),
    (lambda: unbranched_cover_betti(hopf_link_presentation(), (2, 0)), "orders must be >= 1"),
    (lambda: koszul_support_membership(3, 1, CharacterPoint([F(1, 2)] * 3)), "need 2 <= n <= r - 1"),
    (lambda: koszul_support_membership(4, 2, CharacterPoint([F(1, 2)] * 3)), "character length must be r"),
    (lambda: sphere_braid_presentation(1), "need d >= 2"),
], ids=[
    "alexander_rank", "h1_length", "branched_length", "charvar_k", "cover_order_count",
    "cyclic_order", "abelian_order", "koszul_n", "koszul_length", "sphere_d",
])
def test_bad_argument_at_each_site(call, message):
    """Every argument check in groups raises BadArgument, an input error
    (exit 2) that is still a ValueError for callers that catch one."""
    with pytest.raises(BadArgument, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_diagonal_multiplicity():
    tref = trefoil_presentation()
    assert diagonal_multiplicity(tref, F(1, 6)) == 1
    assert diagonal_multiplicity(tref, F(1, 3)) == 0
    assert diagonal_multiplicity(hopf_link_presentation(), F(1, 2)) == 0
    with pytest.raises(TrivialCharacterUnsupported):
        diagonal_multiplicity(tref, F(0))


def test_koszul_support():
    assert koszul_support_membership(3, 2, CharacterPoint([F(1, 3)] * 3)) is True
    assert koszul_support_membership(3, 2, CharacterPoint([F(1, 2), F(0), F(0)])) is False
    assert koszul_support_membership(4, 2, CharacterPoint([F(1, 2)] * 4)) is True


@given(
    st.integers(3, 4),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=4), min_size=4, max_size=4),
)
def test_koszul_false_off_subtorus(r, coords):
    chi = CharacterPoint(coords[:r])
    result = koszul_support_membership(r, 2, chi)
    if sum(chi.coords) % 1 != 0:
        assert result is False
    else:
        assert result is True  # full support on the subtorus


@given(st.integers(3, 6), st.data())
def test_koszul_membership_matches_laurent_presentation(r, data):
    """Membership agrees with the rank of the whole Laurent presentation
    evaluated at chi, on the subtorus and off it, and on the subtorus
    with the rank of the integer boundary rows, which are the Laurent
    boundary rows evaluated at chi, entry by entry.  The support is the
    whole subtorus, so only the entry check would show a wrong row."""
    n = data.draw(st.integers(2, r - 1))
    m = data.draw(st.integers(1, 8))
    ks = data.draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r))
    if data.draw(st.booleans()):
        ks[-1] = -sum(ks[:-1]) % m
    chi = CharacterPoint([F(k, m) for k in ks])
    member = koszul_support_membership(r, n, chi)
    oracle = laurent_koszul_rows(r, n, chi)
    assert member == (len(echelon([list(row) for row in oracle])) < comb(r, n))
    if sum(chi.coords) % 1 == 0:
        rows, conductor = koszul_boundary_rows(r, n, chi)
        assert rows == [[list(e.coeffs) for e in row] for row in oracle[:comb(r, n + 1)]]
        assert member == (cyclotomic_rank(rows, conductor) < comb(r, n))


# ---------------------------------------------------------------------------
# random-presentation properties
# ---------------------------------------------------------------------------

letters = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))
words = st.lists(letters, min_size=1, max_size=8).map(tuple)


@st.composite
def presentations(draw):
    s = draw(st.integers(2, 3))
    n_rel = draw(st.integers(1, 3))
    relators = []
    for _ in range(n_rel):
        w = tuple(
            (g % s, e)
            for g, e in draw(st.lists(letters, min_size=2, max_size=8))
        )
        relators.append(w)
    matrix = [[0] * s for _ in relators]
    for i, rel in enumerate(relators):
        for g, e in rel:
            matrix[i][g] += e
    basis = integer_kernel_basis(matrix)
    if not basis:
        return None
    phi = [[v[j] for v in basis] for j in range(s)]
    return GroupPresentation(s, tuple(relators), phi)


@settings(max_examples=200)
@given(presentations())
def test_fox_row_identity_on_random_presentations(pres):
    if pres is None:
        return
    matrix = fox_jacobian(pres)  # the identity is asserted internally
    r = pres.rank
    for i, rel in enumerate(pres.relators):
        total = LaurentPolynomial.zero(r)
        for j in range(pres.generators):
            tj = LaurentPolynomial.monomial(1, tuple(pres.phi[j]))
            total = total + matrix.entries[i][j] * (tj - LaurentPolynomial.one(r))
        assert total.is_zero()


def test_corrupted_fox_row_is_an_internal_error(monkeypatch):
    """A Fox walk that is off by one in one derivative breaks the
    fundamental identity on every path that builds Fox rows: the Laurent
    matrix, its evaluation at a character, which every cover takes, and
    the integer walk of the one-variable minors."""
    true_walk = groups._fox_walk

    def corrupted(w, images, inverses, origin, plus):
        terms, image = true_walk(w, images, inverses, origin, plus)
        terms[1][origin] = terms[1].get(origin, 0) + 1
        return terms, image

    monkeypatch.setattr(groups, "_fox_walk", corrupted)
    tref = trefoil_presentation()
    calls = [
        lambda: fox_jacobian(tref),
        lambda: local_system_h1_dim(tref, CharacterPoint([F(1, 6)])),
        lambda: unbranched_cover_betti(tref, (4,)),
        lambda: branched_cover_betti({frozenset({0}): tref}, (4,)),
        lambda: one_variable_alexander(sphere_braid_presentation(4)),
        lambda: one_variable_alexander(tref),
    ]
    for call in calls:
        with pytest.raises(InternalError, match="Fox row identity"):
            call()


def _fox_derivatives(w):
    """The Fox derivatives of w by x_1, x_2, x_3 under the identity map to
    Z^3, with zero coefficients dropped, and the image of w."""
    images = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    inverses = [tuple(-x for x in v) for v in images]
    terms, image = groups._fox_walk(w, images, inverses, (0, 0, 0), groups._add_vectors)
    return [{e: c for e, c in d.items() if c} for d in terms], image


@given(words)
def test_fox_derivative_invariant_under_free_reduction(w):
    assert _fox_derivatives(w) == _fox_derivatives(free_reduce(w))


def test_cover_walls():
    """Two covers that took about 2 s each with one field rank per
    character: the 30-fold cyclic cover of the five-strand (s1 s2 s3 s4)^2
    van Kampen presentation and the 210-fold cyclic cover of the trefoil."""
    braid = BraidWord(5, [1, 2, 3, 4] * 2)
    assert unbranched_cover_betti(vankampen_presentation(MonodromyData(5, [braid] * 5)), (30,)) == 5
    assert unbranched_cover_betti(trefoil_presentation(), (210,)) == 3


def old_h1_dim(p, chi):
    """dim H_1 at one character from the Laurent Fox matrix, evaluated at
    chi entry by entry and eliminated over the field Q(zeta_M): the path
    that the Galois-orbit sums and the walk at a character replaced, kept
    as their oracle."""
    evaluated = [[evaluate_character(e, chi.coords) for e in row] for row in fox_jacobian(p).entries]
    return p.generators - 1 - len(echelon(evaluated))


def _rotated(p, shifts, inverts):
    """The presentation with each relator cyclically rotated, and inverted
    where asked: the normal closure, hence the group, is unchanged."""
    rels = []
    for rel, k, inv in zip(p.relators, shifts, inverts):
        rel = rel[k % len(rel):] + rel[:k % len(rel)]
        rels.append(tuple((g, -e) for g, e in reversed(rel)) if inv else rel)
    return GroupPresentation(p.generators, tuple(rels), p.phi, torsion=p.torsion)


@settings(max_examples=100)
@given(presentations(), st.data())
def test_character_walk_matches_laurent_evaluation(pres, data):
    """The depth from one walk per relator at chi equals the depth of the
    Laurent Fox matrix evaluated at chi, on random presentations and on
    the same presentations with their relators rotated and inverted."""
    assume(pres is not None)
    n = len(pres.relators)
    rotated = _rotated(
        pres,
        data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)),
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )
    chi = CharacterPoint(data.draw(st.lists(
        st.builds(F, st.integers(0, 11), st.integers(1, 12)), min_size=pres.rank, max_size=pres.rank)))
    assume(chi.nontrivial)
    for q in (pres, rotated):
        assert local_system_h1_dim(q, chi) == old_h1_dim(q, chi)


@settings(max_examples=20)
@given(st.integers(2, 7), st.data())
def test_character_walk_on_sphere_braid_groups(d, data):
    """On the torsion presentations of B_d(S^2), reshuffled, the walk gives
    the oracle's depth at every character of the cyclic image."""
    pres = sphere_braid_presentation(d)
    n = len(pres.relators)
    pres = _rotated(
        pres,
        data.draw(st.lists(st.integers(0, 11), min_size=n, max_size=n)),
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )
    m = pres.torsion_order()
    for k in range(1, m):
        chi = CharacterPoint([F(k, m)])
        assert local_system_h1_dim(pres, chi) == old_h1_dim(pres, chi)


LINKS = {
    # name: (presentation, presentation of each sublink by its components)
    "trefoil": (trefoil_presentation(), {frozenset({0}): trefoil_presentation()}),
    "hopf": (hopf_link_presentation(), {
        frozenset({0}): free_group(1),
        frozenset({1}): free_group(1),
        frozenset({0, 1}): hopf_link_presentation(),
    }),
    "unknot": (free_group(1), {frozenset({0}): free_group(1)}),
    "unlink": (free_group(2), {
        frozenset({0}): free_group(1),
        frozenset({1}): free_group(1),
        frozenset({0, 1}): free_group(2),
    }),
}


@settings(max_examples=40)
@given(
    st.sampled_from(sorted(LINKS)),
    st.lists(st.integers(0, 5), min_size=2, max_size=2),
    st.lists(st.booleans(), min_size=2, max_size=2),
    st.lists(st.integers(1, 12), min_size=2, max_size=2),
)
def test_galois_orbit_sums_match_per_character_oracle(name, shifts, inverts, orders):
    pres, sublinks = LINKS[name]
    pres = _rotated(pres, shifts, inverts)
    sublinks = {key: _rotated(q, shifts, inverts) for key, q in sublinks.items()}
    orders = tuple(orders[:pres.rank])
    depths = {
        ks: old_h1_dim(pres, CharacterPoint([F(k, n) for k, n in zip(ks, orders)]))
        for ks in product(*(range(n) for n in orders)) if any(ks)
    }
    for ks, d in depths.items():
        m = lcm(*(n // gcd(k, n) for k, n in zip(ks, orders)))
        for u in range(2, m):
            if gcd(u, m) == 1:
                assert depths[tuple(u * k % n for k, n in zip(ks, orders))] == d
    assert unbranched_cover_betti(pres, orders) == pres.rank + sum(depths.values())
    branched = 0
    for ks in depths:
        support = sorted(i for i, k in enumerate(ks) if k)
        chi = CharacterPoint([F(ks[i], orders[i]) for i in support])
        branched += old_h1_dim(sublinks[frozenset(support)], chi)
    assert branched_cover_betti(sublinks, orders) == branched


def _free_sublinks(r):
    """The unlink of r components: every sublink's group is free."""
    return {frozenset(S): free_group(len(S)) for k in range(1, r + 1) for S in combinations(range(r), k)}


VK3 = vankampen_presentation(MonodromyData(3, [BraidWord(3, [1, 2] * 2)] * 3))
COVER_LINKS = {
    "trefoil": LINKS["trefoil"],
    "hopf": LINKS["hopf"],
    **{f"free{r}": (free_group(r), _free_sublinks(r)) for r in (1, 2, 3)},
    "vankampen": (VK3, {frozenset({0}): VK3}),
}
# the largest order of each factor, by the number of factors
ORDER_BOUNDS = {1: (40,), 2: (6, 6), 3: (3, 3, 2)}


@settings(max_examples=120)
@given(st.sampled_from(sorted(COVER_LINKS)), st.data())
def test_cover_betti_matches_scan_oracle(name, data):
    """Both cover Betti numbers equal the scan oracle's, which enumerates
    every character as a Fraction point and scans each orbit; the orbits
    (k over M, size) are nontrivial characters of the deck group over
    their conductors, their sizes add up to |A| - 1, and each lies in its
    own orbit of the scan, of the size the scan finds."""
    pres, sublinks = COVER_LINKS[name]
    orders = tuple(data.draw(st.integers(1, b)) for b in ORDER_BOUNDS[pres.rank])
    orbits = list(groups._galois_orbits(orders))
    assert sum(size for _, _, size in orbits) == prod(orders) - 1
    found = {}
    for ks, M, size in orbits:
        assert len(ks) == len(orders) and M > 1 and gcd(M, *ks) == 1
        assert all(k * n % M == 0 for k, n in zip(ks, orders))
        ks = [k * n // M for k, n in zip(ks, orders)]
        first = min(tuple(u * k % n for k, n in zip(ks, orders)) for u in range(1, M) if gcd(u, M) == 1)
        assert first not in found
        found[first] = size
    assert found == dict(reference_galois_orbits(orders))
    assert (unbranched_cover_betti(pres, orders), branched_cover_betti(sublinks, orders)) == \
        reference_cover_betti(pres, sublinks, orders)


def test_semisimple_consistency_trefoil():
    """dim H_1 at chi is 1 exactly when Delta(chi) = 0 (module semisimple)."""
    tref = trefoil_presentation()
    delta = one_variable_alexander(tref)
    for m in (2, 3, 4, 6, 12):
        for k in range(1, m):
            chi = CharacterPoint([F(k, m)])
            vanishes = evaluate_character(delta, chi.coords).is_zero()
            assert (local_system_h1_dim(tref, chi) >= 1) == vanishes


def test_semisimple_consistency_sphere_braid():
    """Same check on B_4(S^2), whose characters live on Z/6."""
    b4 = sphere_braid_presentation(4)
    delta = one_variable_alexander(b4)
    assert delta == PHI6
    for k in range(1, 6):
        chi = CharacterPoint([F(k, 6)])
        vanishes = evaluate_character(delta, chi.coords).is_zero()
        assert (local_system_h1_dim(b4, chi) >= 1) == vanishes


# ---------------------------------------------------------------------------
# the gcd of all (s - 1)-minors by cofactor expansion, as an oracle
# ---------------------------------------------------------------------------


def _poly_det(entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = LaurentPolynomial.zero(entries[0][0].var_count)
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = entries[0][j] * _poly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def fitting_minor_generators(p, k):
    """Every minor of size s - k of the Fox matrix."""
    matrix = fox_jacobian(p)
    size = p.generators - k
    if size <= 0:
        return []
    if size > matrix.rows:
        return [LaurentPolynomial.zero(p.rank)]
    minors = []
    for ri in combinations(range(matrix.rows), size):
        for ci in combinations(range(p.generators), size):
            minors.append(_poly_det([[matrix.entries[i][j] for j in ci] for i in ri]))
    return minors


def _bezout(n):
    """Small integers c with sum c_k n_k = 1."""
    return min(
        (c for c in product(range(-3, 4), repeat=len(n)) if sum(a * b for a, b in zip(c, n)) == 1),
        key=lambda c: sum(map(abs, c)),
    )


@st.composite
def killed_presentations(draw):
    """2-4 generators, 1-4 relators, phi entries in {-1, 1, 2, 3}: each
    relator is a random word closed off by a suffix that phi sends to minus
    its image, then rotated."""
    s = draw(st.integers(2, 4))
    n = draw(st.lists(st.sampled_from([-1, 1, 2, 3]), min_size=s, max_size=s))
    assume(gcd(*n) == 1)
    c = _bezout(n)
    relators = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.lists(st.tuples(st.integers(0, s - 1), st.sampled_from([1, -1])), max_size=5))
        image = sum(n[g] * e for g, e in w)
        sign = -1 if image > 0 else 1
        for k in range(s):
            w += [(k, sign if c[k] > 0 else -sign)] * (abs(image * c[k]))
        if not w:
            continue
        cut = draw(st.integers(0, len(w) - 1))
        relators.append(tuple(w[cut:] + w[:cut]))
    return GroupPresentation(s, tuple(relators), [[x] for x in n])


@settings(max_examples=150)
@given(killed_presentations())
def test_alexander_matches_minor_gcd_oracle(pres):
    g = LaurentPolynomial.zero(1)
    for minor in fitting_minor_generators(pres, 1):
        if not minor.is_zero():
            g = univariate_gcd(g, minor)
    if g.is_zero():
        with pytest.raises(NonTorsionModule):
            one_variable_alexander(pres)
        return
    assert one_variable_alexander(pres) == g
