import pytest
from hypothesis import given
from hypothesis import strategies as st

from alexinv.braids import (
    BraidWord,
    MonodromyData,
    ProjectivePresentation,
    artin_action,
    full_twist_check,
    presentation_homology,
    vankampen_presentation,
)
from alexinv.errors import BadWord, Unsupported
from alexinv.groups import GroupPresentation, free_reduce, word, word_inverse
from conftest import letter_by_letter_action


def test_artin_examples():
    b = BraidWord(2, [1])
    assert artin_action(b, ((0, 1),)) == ((0, 1), (1, 1), (0, -1))
    assert artin_action(b, ((1, 1),)) == ((0, 1),)
    b2 = BraidWord(2, [1, 1])
    prod = ((0, 1), (1, 1))
    expected = free_reduce(prod + ((0, 1),) + word_inverse(prod))
    assert artin_action(b2, ((0, 1),)) == expected
    assert artin_action(BraidWord(3, []), ((2, -1), (0, 1))) == ((2, -1), (0, 1))


def test_artin_bad_word():
    with pytest.raises(BadWord):
        artin_action(BraidWord(2, [1]), ((5, 1),))
    # an exponent other than +-1 is refused, not read as an inverse letter
    with pytest.raises(BadWord, match="exponent must be"):
        artin_action(BraidWord(2, []), ((0, 2),))
    with pytest.raises(BadWord):
        BraidWord(2, [2])
    with pytest.raises(BadWord, match="at least one strand"):
        BraidWord(0, [])


def test_monodromy_bad_input():
    with pytest.raises(BadWord, match="share the strand count"):
        MonodromyData(2, [BraidWord(3, [1])])
    with pytest.raises(BadWord, match="cover strands"):
        MonodromyData(2, [], {1: "C"})


@st.composite
def monodromy_systems(draw):
    """Up to three braids on d = 2..6 strands with 0..30 letters in all,
    and a word of 0..30 letters; when asked, one more braid closes the
    composite to the full twist (s_1 ... s_{d-1})^d."""
    d = draw(st.integers(2, 6))
    letters = draw(st.lists(st.integers(1 - d, d - 1).filter(bool), max_size=30))
    cuts = sorted(draw(st.lists(st.integers(0, len(letters)), max_size=2)))
    bounds = [0] + cuts + [len(letters)]
    braids = [BraidWord(d, letters[a:b]) for a, b in zip(bounds, bounds[1:])]
    if draw(st.booleans()):
        twist = [i for _ in range(d) for i in range(1, d)]
        braids.append(BraidWord(d, [-l for l in reversed(letters)] + twist))
    w = tuple(draw(st.lists(st.tuples(st.integers(0, d - 1), st.sampled_from([1, -1])), max_size=30)))
    return MonodromyData(d, braids), w


@given(monodromy_systems())
def test_generator_images_match_letter_by_letter_action(system):
    """artin_action, full_twist_check and the van Kampen relators, read
    from the table of generator images, equal what rewriting the whole
    word letter by letter gives."""
    m, w = system
    d = m.strand_count
    for b in m.braids:
        assert artin_action(b, w) == letter_by_letter_action(b, w)
    composite = BraidWord(d, [l for b in m.braids for l in b.letters])
    delta = tuple((i, 1) for i in range(d))
    twist = all(
        letter_by_letter_action(composite, ((g, 1),))
        == free_reduce(delta + ((g, 1),) + word_inverse(delta))
        for g in range(d)
    )
    assert full_twist_check(m) == twist
    relators = [
        rel for b in m.braids for g in range(d)
        if (rel := free_reduce(letter_by_letter_action(b, ((g, 1),)) + ((g, -1),)))
    ]
    assert list(vankampen_presentation(m).relators) == relators


@given(st.integers(3, 5), st.integers(1, 3), st.lists(st.tuples(st.integers(0, 4), st.sampled_from([1, -1])), min_size=1, max_size=6))
def test_braid_relations(d, i, letters):
    i = min(i, d - 2)
    w = tuple((g % d, e) for g, e in letters)
    lhs = BraidWord(d, [i, i + 1, i])
    rhs = BraidWord(d, [i + 1, i, i + 1])
    assert artin_action(lhs, w) == artin_action(rhs, w)
    if abs(i - (d - 1)) >= 2:
        far = BraidWord(d, [i, d - 1])
        far2 = BraidWord(d, [d - 1, i])
        assert artin_action(far, w) == artin_action(far2, w)


@given(st.integers(2, 5), st.lists(st.integers(-4, 4).filter(bool), max_size=8))
def test_boundary_product_fixed(d, letters):
    letters = [l for l in letters if abs(l) < d]
    b = BraidWord(d, letters)
    boundary = tuple((i, 1) for i in range(d))
    assert artin_action(b, boundary) == boundary


def test_full_twist():
    assert full_twist_check(MonodromyData(2, [BraidWord(2, [1]), BraidWord(2, [1])]))
    assert not full_twist_check(MonodromyData(2, [BraidWord(2, [1])]))
    assert full_twist_check(MonodromyData(3, [BraidWord(3, [1, 2, 1, 2, 1, 2])]))
    assert not full_twist_check(MonodromyData(3, [BraidWord(3, [1, 2, 1, 2])]))


def test_vankampen_conic_fixture():
    m = MonodromyData(2, [BraidWord(2, [1]), BraidWord(2, [1])])
    proj = vankampen_presentation(m, "projective")
    assert isinstance(proj, ProjectivePresentation)
    assert presentation_homology(proj) == (0, [2])
    aff = vankampen_presentation(m, "affine")
    assert isinstance(aff, GroupPresentation)
    assert presentation_homology(aff) == (1, [])
    assert aff.rank == 1  # single component label


def test_vankampen_unknown_mode():
    m = MonodromyData(2, [BraidWord(2, [1]), BraidWord(2, [1])])
    with pytest.raises(Unsupported):
        vankampen_presentation(m, "elliptic")


def test_vankampen_single_strand():
    m = MonodromyData(1, [])
    aff = vankampen_presentation(m, "affine")
    assert aff.generators == 1 and not aff.relators
    assert presentation_homology(aff) == (1, [])


def test_vankampen_affine_presentation_valid():
    # phi kills every relator by construction (checked in the constructor)
    m = MonodromyData(3, [BraidWord(3, [1, 2, 1, 2, 1, 2])])
    aff = vankampen_presentation(m, "affine")
    assert all(aff.relator_image(r) == (0,) for r in aff.relators)


def test_labels_must_respect_orbits():
    with pytest.raises(BadWord):
        MonodromyData(2, [BraidWord(2, [1])], {1: "A", 2: "B"})


def _joint_orbits(m: MonodromyData):
    parent = list(range(m.strand_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in m.braids:
        for s, img in enumerate(b.permutation()):
            ra, rb = find(s), find(img)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for s in range(m.strand_count):
        groups.setdefault(find(s), []).append(s)
    return list(groups.values())


@given(st.integers(2, 4), st.integers(0, 5))
def test_full_twist_projective_homology_matches_orbit_degrees(d, split_seed):
    """A full-twist system presents a curve whose components are the joint
    strand orbits; projective H_1 is Z^r modulo the orbit-degree vector.
    (The irreducible case of the homology proposition is the transitive
    special case: a single orbit of size d gives Z/d.)"""
    from alexinv.curves import h1_complement

    letters = [i for _ in range(d) for i in range(1, d)]
    cut = 1 + split_seed % max(len(letters) - 1, 1)
    braids = [BraidWord(d, letters[:cut]), BraidWord(d, letters[cut:])]
    braids = [b for b in braids if b.letters]
    m = MonodromyData(d, braids)
    assert full_twist_check(m)
    proj = vankampen_presentation(m, "projective")
    degrees = sorted(len(orbit) for orbit in _joint_orbits(m))
    assert presentation_homology(proj) == h1_complement(degrees)


def test_full_twist_irreducible_gives_z_mod_d():
    # transitive monodromy: the conic fixture (d=2) and a transitive split
    # of the full twist in B_3
    conic = MonodromyData(2, [BraidWord(2, [1]), BraidWord(2, [1])])
    assert presentation_homology(vankampen_presentation(conic, "projective")) == (0, [2])
    m3 = MonodromyData(3, [BraidWord(3, [1, 2]), BraidWord(3, [1, 2]), BraidWord(3, [1, 2])])
    assert full_twist_check(m3)
    assert len(_joint_orbits(m3)) == 1
    assert presentation_homology(vankampen_presentation(m3, "projective")) == (0, [3])
