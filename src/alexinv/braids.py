"""Artin braid actions on free groups and Zariski-van Kampen presentations
of curve-complement groups from symbolic braid monodromy.

Braid monodromy is always an input; nothing here computes it from
equations.  Orientation convention: sigma_i sends x_i to
x_i x_{i+1} x_i^-1 and x_{i+1} to x_i (the opposite convention differs by
a global inverse).  Braid-word letters act left to right.  A braid acts as
the automorphism fixed by its images of x_1, ..., x_d: ``_images`` builds
that table once, and the action on a word, the full-twist check and the
van Kampen relators read it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BadWord, Unsupported
from .groups import GroupPresentation, Word, free_reduce, word, word_inverse


class BraidWord:
    """Element of the Artin braid group B_d as a sequence of signed
    generator indices in {+-1, ..., +-(d-1)}."""

    def __init__(self, strand_count: int, letters: Sequence[int]):
        self.strand_count = int(strand_count)
        self.letters: Tuple[int, ...] = tuple(int(l) for l in letters)
        if self.strand_count < 1:
            raise BadWord("need at least one strand")
        for l in self.letters:
            if l == 0 or abs(l) >= self.strand_count:
                raise BadWord(f"braid letter {l} out of range for {self.strand_count} strands")

    def permutation(self) -> List[int]:
        """Underlying permutation of strands (0-based)."""
        perm = list(range(self.strand_count))
        for l in self.letters:
            i = abs(l) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return perm


def _images(braid: BraidWord) -> List[Word]:
    """The reduced image of every generator x_g under the braid.

    Letters act left to right, so the braid acts as sigma_L o ... o
    sigma_1.  The table is built from the right: each letter substitutes
    the images found so far into its own short images of x_i and x_{i+1}.
    """
    images = [((g, 1),) for g in range(braid.strand_count)]
    for letter in reversed(braid.letters):
        i = abs(letter) - 1
        a, b = images[i], images[i + 1]
        if letter > 0:
            images[i], images[i + 1] = free_reduce(a + b + word_inverse(a)), a
        else:
            images[i], images[i + 1] = b, free_reduce(word_inverse(b) + a + b)
    return images


def artin_action(braid: BraidWord, w: Word) -> Word:
    """Image of the word w under the Artin action of the braid."""
    w = word(w)
    for g, _ in w:
        if not 0 <= g < braid.strand_count:
            raise BadWord(f"word uses generator {g + 1} beyond {braid.strand_count} strands")
    images = _images(braid)
    return free_reduce(tuple(
        l for g, e in w for l in (images[g] if e == 1 else word_inverse(images[g]))
    ))


class MonodromyData:
    """An ordered system of braids, one per singular fiber, with curve
    component labels per strand (1-based strand keys)."""

    def __init__(self, strand_count: int, braids: List[BraidWord],
                 component_labels: Optional[Dict[int, str]] = None):
        self.strand_count = strand_count
        self.braids = braids
        self.component_labels = component_labels
        for b in self.braids:
            if b.strand_count != self.strand_count:
                raise BadWord("all braids must share the strand count")
        if not self.component_labels:
            self.component_labels = {i + 1: "C" for i in range(self.strand_count)}
        if set(self.component_labels) != set(range(1, self.strand_count + 1)):
            raise BadWord("labels must cover strands 1..d exactly")
        # labels must be constant on the strand orbits of every braid
        for b in self.braids:
            perm = b.permutation()
            for s in range(self.strand_count):
                if self.component_labels[s + 1] != self.component_labels[perm[s] + 1]:
                    raise BadWord(
                        f"braid permutes strand {s+1} across component labels"
                    )

    def labels_in_order(self) -> List[str]:
        seen: List[str] = []
        for i in range(1, self.strand_count + 1):
            if self.component_labels[i] not in seen:
                seen.append(self.component_labels[i])
        return seen


def full_twist_check(m: MonodromyData) -> bool:
    """Whether the composite action of all braids (in order) is conjugation
    by x_1 x_2 ... x_d on every generator -- the full-twist identity."""
    d = m.strand_count
    images = _images(BraidWord(d, [l for b in m.braids for l in b.letters]))
    delta = tuple((i, 1) for i in range(d))
    return all(
        image == free_reduce(delta + ((g, 1),) + word_inverse(delta))
        for g, image in enumerate(images)
    )


def vankampen_presentation(m: MonodromyData, mode: str = "affine") -> GroupPresentation:
    """Zariski-van Kampen presentation from the monodromy data.

    Generators x_1..x_d; relators beta_j(x_i) x_i^-1 for every braid and
    generator, freely reduced with trivial relators dropped.  Projective
    mode adds the genus-zero relator x_1...x_d and therefore carries no
    map to Z^r (its total linking is d); affine mode maps each generator
    to the basis vector of its component label.
    """
    if mode not in ("affine", "projective"):
        raise Unsupported(f"unknown mode {mode!r}; genus > 0 pencils are unsupported")
    d = m.strand_count
    relators: List[Word] = []
    for b in m.braids:
        for g, image in enumerate(_images(b)):
            rel = free_reduce(image + ((g, -1),))
            if rel:
                relators.append(rel)
    labels = m.labels_in_order()
    if mode == "projective":
        relators.append(tuple((i, 1) for i in range(d)))
        counts = {lab: 0 for lab in labels}
        for s in range(1, d + 1):
            counts[m.component_labels[s]] += 1
        # total linking of the genus-zero relator is (d_1, ..., d_r) != 0,
        # so no surjection to Z^r kills it; use the homology presentation
        return ProjectivePresentation(d, tuple(relators), labels, counts)
    index = {lab: i for i, lab in enumerate(labels)}
    phi = []
    for s in range(1, d + 1):
        v = [0] * len(labels)
        v[index[m.component_labels[s]]] = 1
        phi.append(v)
    return GroupPresentation(d, tuple(relators), phi)


class ProjectivePresentation:
    """Presentation of the projective complement group.

    H_1 is finite-rank-deficient (Z^r mod the degree vector), so there is
    no abelianization to Z^r; only homology-type queries are offered.
    """

    def __init__(self, generators: int, relators: Tuple[Word, ...], labels, counts):
        self.generators = generators
        self.relators = relators
        self.component_labels = list(labels)
        self.component_counts = dict(counts)


def presentation_homology(p) -> tuple:
    """(free rank, torsion factors) of the abelianization of a presentation."""
    from .linalg import cokernel_invariants

    rows = []
    for rel in p.relators:
        v = [0] * p.generators
        for g, e in rel:
            v[g] += e
        rows.append(v)
    return cokernel_invariants(rows, p.generators)

