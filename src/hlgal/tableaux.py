"""Young tableaux of types A, B, C and the gallery correspondence.

Columns are enumerated right to left: the first stored column is the
rightmost of the diagram and belongs to the first gallery edge.  Letters
are coded as integers: 1..n+1 for type A; for B/C the ordered alphabet
1 < ... < n < barred n < ... < barred 1 is coded 1..2n with
bar(k) = 2n+1-k.  Every edge gives one column, its germ read by signs:
a germ of an edge of type i has i non-zero coordinates, all of one
absolute value, and the column holds k where coordinate k is positive and
bar(k) where it is negative.  A non-minuscule omega_i is a block of two
half-edges, hence of two columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apartment import expected_germ, local_data
from .gallery import Gallery, fundamental_type
from .rootdata import RootSystem, Vec, vadd


@dataclass(frozen=True)
class Tableau:
    family: str
    rank: int
    columns: tuple  # right to left; each column a tuple of letter codes


def bar(rank: int, letter: int) -> int:
    return 2 * rank + 1 - letter


def letter_str(family: str, rank: int, letter: int) -> str:
    if family == "A" or letter <= rank:
        return str(letter)
    return str(bar(rank, letter)) + "̄"


def shape_partition(rs: RootSystem, lam: Vec) -> tuple:
    """Row lengths of the diagram attached to a dominant weight: omega_i
    adds as many columns of height i as its block has edges."""
    a = rs.weight_coeffs(lam)
    rows = [
        sum(a[i] * rs.fundamental_scale[i] for i in range(r, rs.rank))
        for r in range(rs.rank)
    ]
    return tuple(r for r in rows if r > 0)


def _column_germ(rs: RootSystem, col, step: int) -> Vec:
    """The germ a column encodes: coordinate k is step for the letter k and
    -step for bar(k).  ValueError unless the letters increase and name
    distinct coordinates, so never both k and bar(k)."""
    coords = [0] * rs.dim
    for x in col:
        k, sign = (x, step) if rs.family == "A" or x <= rs.rank else (bar(rs.rank, x), -step)
        if not 1 <= k <= rs.dim or coords[k - 1]:
            raise ValueError("invalid column %r" % (col,))
        coords[k - 1] = sign
    if list(col) != sorted(col):
        raise ValueError("invalid column %r" % (col,))
    return tuple(coords)


def gallery_to_tableau(rs: RootSystem, g: Gallery) -> Tableau:
    """One column per edge, in edge order: the signs of its germ."""
    n = rs.rank
    columns = tuple(
        tuple(sorted(k if x > 0 else bar(n, k) for k, x in enumerate(d, start=1) if x))
        for d in g.directions()
    )
    return Tableau(rs.family, n, columns)


def tableau_to_gallery(rs: RootSystem, tab: Tableau) -> Gallery:
    """Inverse of gallery_to_tableau; validates the columns and, in a
    two-column block, that the second germ is reachable at the midpoint."""
    if (tab.family, tab.rank) != (rs.family, rs.rank):
        raise ValueError("tableau family/rank does not match the root system")
    cols = tab.columns
    vertices = [(0,) * rs.dim]
    gtype = []
    pos = 0
    # a column of height i opens a block of omega_i
    while pos < len(cols):
        i = len(cols[pos])
        if not 1 <= i <= rs.rank:
            raise ValueError("column height %d out of range" % i)
        block_type = fundamental_type(rs, i)
        block = cols[pos : pos + len(block_type)]
        if len(block) != len(block_type) or any(len(c) != i for c in block):
            raise ValueError("truncated block in tableau")
        # every letter of the block moves its coordinate by one step
        step = max(expected_germ(rs, block_type[0]))
        germs = [_column_germ(rs, c, step) for c in block]
        if len(germs) == 2:
            mid = vadd(vertices[-1], germs[0])
            if germs[1] not in local_data(rs, mid).orbit(germs[0]):
                raise ValueError("second column is not reachable at the midpoint")
        for d in germs:
            vertices.append(vadd(vertices[-1], d))
        gtype.extend(block_type)
        pos += len(block_type)
    return Gallery(tuple(vertices), tuple(gtype))


def is_semistandard(tab: Tableau) -> bool:
    """Rows weakly increase left to right (columns are stored right to left)."""
    cols = tab.columns
    for t in range(len(cols) - 1):
        right, left = cols[t], cols[t + 1]
        for row in range(min(len(right), len(left))):
            if left[row] > right[row]:
                return False
    return True


def tableau_to_jsonable(tab: Tableau) -> dict:
    def decode(x):
        return x if tab.family == "A" or x <= tab.rank else -bar(tab.rank, x)

    return {
        "family": tab.family,
        "rank": tab.rank,
        "columns": [[decode(x) for x in col] for col in tab.columns],
    }


def pretty(tab: Tableau) -> str:
    """Row layout, tallest (leftmost) column first."""
    cols = list(reversed(tab.columns))  # left to right
    if not cols:
        return "(empty tableau)"
    rows = max(len(c) for c in cols)
    lines = []
    for r in range(rows):
        cells = [
            letter_str(tab.family, tab.rank, c[r]) for c in cols if len(c) > r
        ]
        lines.append(" ".join(cells))
    return "\n".join(lines)
