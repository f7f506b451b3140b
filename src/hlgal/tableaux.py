"""Young tableaux of types A, B, C and the gallery correspondence.

Columns are enumerated right to left: the first stored column is the
rightmost of the diagram and belongs to the first gallery block.  Letters
are coded as integers: 1..n+1 for type A; for B/C the ordered alphabet
1 < ... < n < barred n < ... < barred 1 is coded 1..2n with
bar(k) = 2n+1-k.  A one-column block records the weight of its edge; a
two-column block (a non-minuscule fundamental weight) records the pair of
half-edge weights, first column to the right.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apartment import EdgeType, expected_germ, local_data
from .gallery import Gallery
from .rootdata import RootSystem, Vec, vadd, vdiv, vscale


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
    """Row lengths of the diagram attached to a dominant weight."""
    a = rs.weight_coeffs(lam)
    n = rs.rank
    if rs.family == "A":
        rows = [sum(a[i:]) for i in range(n)]
    elif rs.family == "B":
        rows = [2 * sum(a[i : n - 1]) + a[n - 1] for i in range(n)]
    else:
        rows = [a[0] + 2 * sum(a[1:])] + [2 * sum(a[i:]) for i in range(1, n)]
    return tuple(r for r in rows if r > 0)


def _column_valid(rs: RootSystem, col) -> bool:
    if list(col) != sorted(col) or len(set(col)) != len(col):
        return False
    if rs.family == "A":
        return all(1 <= x <= rs.rank + 1 for x in col)
    n = rs.rank
    if not all(1 <= x <= 2 * n for x in col):
        return False
    plain = {x if x <= n else bar(n, x) for x in col}
    return len(plain) == len(col)  # never both k and bar(k)


def _column_factor(rs: RootSystem, halved: bool) -> int:
    """Lattice vector of an edge over its column's 0/+-1 vector: a halved
    column (a spin column or one of a two-column block) is half an edge."""
    return rs.scale // 2 if halved else rs.scale


def _column_weight(rs: RootSystem, col, halved: bool) -> Vec:
    coords = [0] * rs.dim
    for x in col:
        if rs.family == "A" or x <= rs.rank:
            coords[x - 1] += 1
        else:
            coords[bar(rs.rank, x) - 1] -= 1
    return vscale(_column_factor(rs, halved), coords)


def _weight_column(rs: RootSystem, v: Vec, halved: bool) -> tuple:
    letters = []
    for k, x in enumerate(vdiv(v, _column_factor(rs, halved)), start=1):
        if x == 1:
            letters.append(k)
        elif x == -1:
            letters.append(bar(rs.rank, k))
        elif x != 0:
            raise ValueError("vector is not a single-column weight: %r" % (v,))
    return tuple(sorted(letters))


def _block_columns(rs: RootSystem, i: int):
    """(number of columns, spin flag) for an omega_i block; the column
    count is omega_i's wall scale."""
    spin = rs.family == "B" and i == rs.rank
    return rs.fundamental_scale[i - 1], spin


def gallery_to_tableau(rs: RootSystem, g: Gallery) -> Tableau:
    """Columns of the blocks, rightmost column first."""
    columns = []
    dirs = g.directions()
    k = 0
    while k < len(g.gtype):
        t = g.gtype[k]
        ncols, spin = _block_columns(rs, t.index)
        if ncols == 1:
            columns.append(_weight_column(rs, _canon_block(rs, dirs[k], t.index), spin))
            k += 1
        else:
            columns.append(_weight_column(rs, dirs[k], True))
            columns.append(_weight_column(rs, dirs[k + 1], True))
            k += 2
    return Tableau(rs.family, rs.rank, tuple(columns))


def _canon_block(rs: RootSystem, v: Vec, index: int) -> Vec:
    """Strip the invariant-line drift so the vector lies in the 0/1 orbit."""
    if rs.family != "A":
        return v
    shift, rem = divmod(sum(v) - index, rs.dim)
    if rem:
        raise ValueError("vector is not a single-column weight: %r" % (v,))
    return tuple(x - shift for x in v)


def tableau_to_gallery(rs: RootSystem, tab: Tableau) -> Gallery:
    """Inverse of gallery_to_tableau; validates columns and block pairing."""
    if (tab.family, tab.rank) != (rs.family, rs.rank):
        raise ValueError("tableau family/rank does not match the root system")
    cols = list(tab.columns)
    vertices = [(0,) * rs.dim]
    gtype = []
    pos = 0
    # deduce the block sequence from the column heights
    while pos < len(cols):
        height = len(cols[pos])
        i = height
        if not 1 <= i <= rs.rank:
            raise ValueError("column height %d out of range" % height)
        ncols, spin = _block_columns(rs, i)
        block = cols[pos : pos + ncols]
        if len(block) != ncols or any(len(c) != height for c in block):
            raise ValueError("truncated block in tableau")
        for c in block:
            if not _column_valid(rs, c):
                raise ValueError("invalid column %r" % (c,))
        if ncols == 1:
            d = _column_weight(rs, block[0], spin)
            _check_orbit_member(rs, d, EdgeType(i, "whole"))
            vertices.append(vadd(vertices[-1], d))
            gtype.append(EdgeType(i, "whole"))
        else:
            _check_pair_exchange(rs, block[0], block[1])
            d1 = _column_weight(rs, block[0], True)
            _check_orbit_member(rs, d1, EdgeType(i, "first"))
            mid = vadd(vertices[-1], d1)
            d2 = _column_weight(rs, block[1], True)
            if d2 not in local_data(rs, mid).orbit(d1):
                raise ValueError("second column is not reachable at the midpoint")
            vertices.append(mid)
            vertices.append(vadd(mid, d2))
            gtype.append(EdgeType(i, "first"))
            gtype.append(EdgeType(i, "second"))
        pos += ncols
    return Gallery(tuple(vertices), tuple(gtype))


def _check_orbit_member(rs: RootSystem, d: Vec, etype: EdgeType):
    want = rs.edge_orbit_keys.get(etype)
    if want is None:
        want = rs.dominant_rep(rs.canonical_key(expected_germ(rs, etype)))
        rs.edge_orbit_keys[etype] = want
    if rs.dominant_rep(rs.canonical_key(d)) != want:
        raise ValueError("column weight is not in the %s orbit" % etype.tag())


def _check_pair_exchange(rs: RootSystem, c1, c2):
    n = rs.rank
    plain1 = [x if x <= n else bar(n, x) for x in c1]
    plain2 = [x if x <= n else bar(n, x) for x in c2]
    if sorted(plain1) != sorted(plain2):
        raise ValueError("paired columns differ beyond sign exchanges")
    if rs.family == "C":
        flips = sum(1 for x in c2 if x not in c1)
        if flips % 2 != 0:
            raise ValueError("odd number of sign exchanges in a C pair")


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
