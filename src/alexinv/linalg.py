"""Exact linear algebra.

One fraction-free elimination kernel over Q and one over Z[zeta_M] take
every rank.  ``echelon_insert`` reduces an integer row against an echelon
of primitive integer rows and inserts what is left, so no ``Fraction`` is
normalised inside the loop: ``rational_rank`` inserts each row of a
rational matrix, cleared of denominators, and the superabundance rank of
``curves`` inserts its rows one at a time and stops early.
``cyclotomic_rank`` takes a rank over Q(zeta_M) by the same step over the
ring Z[zeta_M] = Z[x]/Phi_M, each entry a list of phi(M) integer
coefficients.  Lattice results need unimodular integer operations, which
these kernels do not give, so the Smith normal form has its own loop: one
Euclid loop that always pivots on an entry of least absolute value, so
its entries stay small and it ends.

Matrices are plain lists of lists; everything is small and desk-scale.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

from .cyclotomic import _reduce


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix: min(rows,
    cols) nonnegative entries, zeros trailing.

    One Euclid loop on the minor a[t:][t:]: each round moves an entry p of
    least absolute value to the corner and clears its column, then its row,
    by floor quotients; a nonzero remainder is smaller than |p| and becomes
    the next pivot.  If p then fails to divide an entry below and to the
    right, that entry's row is added into the corner row and the round
    repeats; otherwise |p| is the next invariant factor.  |p| falls at
    least every second round, and a least pivot keeps the entries small.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    n, t, diag = min(rows, cols), 0, []
    while t < n:
        least = min(((abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]),
                    default=None)
        if least is None:
            break
        _, i, j = least
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]
        top, p = a[t], a[t][t]
        for row in a[t + 1:]:
            q = row[t] // p
            for k in range(t, cols):
                row[k] -= q * top[k]
        for k in range(t + 1, cols):
            q = top[k] // p
            for row in a[t:]:
                row[k] -= q * row[t]
        if any(row[t] for row in a[t + 1:]) or any(top[t + 1:]):
            continue
        bad = next((row for row in a[t + 1:] if any(x % p for x in row[t + 1:])), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(top, bad)]
            continue
        diag.append(abs(p))
        t += 1
    return diag + [0] * (n - len(diag))


def cokernel_invariants(matrix: Sequence[Sequence[int]], ambient_rank: int) -> Tuple[int, List[int]]:
    """Free rank and torsion factors (>1) of Z^ambient_rank / row span."""
    rows = [list(r) for r in matrix]
    if not rows:
        return ambient_rank, []
    diag = smith_normal_form(rows)
    nonzero = [d for d in diag if d != 0]
    free = ambient_rank - len(nonzero)
    torsion = [d for d in nonzero if d > 1]
    return free, torsion


def _integer_row(row: Sequence) -> List[int]:
    """A rational row scaled by the lcm of its denominators: an integer row
    on the same line (``echelon_insert`` divides out its content)."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    # lcm of a list, not a generator: CPython builds a generator's argument
    # tuple by resizing, so it is never taken from the tuple free list of
    # its final length but is put back there, and those free lists fill up
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def rational_rank(matrix: Sequence[Sequence]) -> int:
    """Rank over Q of a matrix of integers or ``Fraction`` entries: each
    row, cleared of denominators, is inserted into one echelon."""
    rows: List[List[int]] = []
    pivots: List[int] = []
    return sum(echelon_insert(rows, pivots, _integer_row(row)) for row in matrix)


def echelon_insert(rows: List[List[int]], pivots: List[int], row: List[int]) -> bool:
    """Reduce an integer row against an echelon (rows, pivots) and insert
    what is left; True when it was independent of the rows.

    The echelon is a list of primitive integer rows with increasing
    pivots: rows[i] is zero before column pivots[i] and nonzero there.  The
    row is reduced at each pivot c in turn by row <- (p/g) row - (f/g) top,
    with p = top[c], f = row[c] and g = gcd(p, f), and its content is
    divided out, which keeps the entries from growing like the minors;
    earlier pivots stay cleared, since each top row is zero before its
    pivot.  A nonzero remainder is inserted at its first nonzero column; a
    row that is zero, or is reduced to zero, leaves the echelon as it was.
    """
    g = gcd(*row)
    if not g:
        return False
    if g > 1:
        row = [x // g for x in row]
    for top, c in zip(rows, pivots):
        f = row[c]
        if f:
            p = top[c]
            g = gcd(p, f)
            pg, fg = p // g, f // g
            row = [pg * x - fg * y for x, y in zip(row, top)]
            g = gcd(*row)
            if not g:
                return False
            if g > 1:
                row = [x // g for x in row]
    c = next(i for i, x in enumerate(row) if x)
    at = bisect_left(pivots, c)
    rows.insert(at, row)
    pivots.insert(at, c)
    return True


def cyclotomic_rank(matrix: Sequence[Sequence[Sequence[int]]], conductor: int) -> int:
    """Rank over Q(zeta_M), M the conductor, of a matrix whose entries are
    given by their phi = phi(M) integer coefficients in the basis 1, x,
    ..., x^(phi-1) of Z[zeta_M] = Z[x]/Phi_M.

    The elimination runs in Z[zeta_M], a domain whose field of fractions
    is Q(zeta_M).  Column c is cleared from each later row by row <- p row
    - f top, with p = top[c] and f = row[c]: ring products, reduced by the
    monic Phi_M, so they stay integral, and p is nonzero, so the span over
    Q(zeta_M) is kept.  The result is divided by the integer gcd of all
    its coefficients, and dropped when it is zero.  An s x g matrix costs
    s g min(s, g) phi^2 coefficient operations; its regular representation
    over Q, phi times as tall and as wide, would cost phi^3 times s g
    min(s, g).
    """
    rest = [row for row in matrix if any(map(any, row))]
    # every row in rest is nonzero and starts at the column being cleared
    rank = 0
    while rest:
        pr = next((i for i, row in enumerate(rest) if any(row[0])), None)
        if pr is None:
            rest = [row[1:] for row in rest]
            continue
        top = rest.pop(pr)
        p, tail = top[0], top[1:]
        reduced = []
        for row in rest:
            f = row[0]
            if any(f):
                row = [_mul_sub(p, x, f, y, conductor) for x, y in zip(row[1:], tail)]
                g = gcd(*[c for e in row for c in e])
                if not g:
                    continue
                if g > 1:
                    row = [[c // g for c in e] for e in row]
            else:
                row = row[1:]
            reduced.append(row)
        rest = reduced
        rank += 1
    return rank


def _mul_sub(p: Sequence[int], a: Sequence[int], f: Sequence[int], b: Sequence[int], conductor: int) -> List[int]:
    """p a - f b in Z[x]/Phi_M, each given by its phi(M) coefficients."""
    out = [0] * (len(a) + len(p) - 1)
    if any(a):
        for i, x in enumerate(p):
            if x:
                for j, y in enumerate(a, i):
                    out[j] += x * y
    if any(b):
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(b, i):
                    out[j] -= x * y
    return _reduce(out, conductor)
