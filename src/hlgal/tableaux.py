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

gallery_to_tableau, tableau_to_gallery and is_semistandard are folds of
three rules: germ_column encodes one germ, decode_block decodes one block
from the vertex it starts at, and columns_ordered tests one pair of
adjacent columns.  The verify module's pass applies the same rules edge by
edge.  Each coding rule runs once per key and root system: encoding keeps
each germ's column in ``rs.tableau_columns``, decoding keeps each valid
column's germ in ``rs.column_germs``.  The two tables are filled
independently, each by its own rule, so a round trip still tests one rule
against the other.
"""

from __future__ import annotations

from operator import le

from .apartment import local_data
from .gallery import Gallery, fundamental_type
from .rootdata import Frozen, RootSystem, Vec, vadd


class Tableau(Frozen):
    """``columns`` run right to left; each column is a tuple of letter codes."""

    __slots__ = _fields = ("family", "rank", "columns")

    def __init__(self, family: str, rank: int, columns: tuple):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "columns", columns)


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


def germ_column(rs: RootSystem, d: Vec) -> tuple:
    """The encode rule: the column of germ d, its signs read once per germ
    and kept in ``rs.tableau_columns``."""
    col = rs.tableau_columns.get(d)
    if col is None:
        n = rs.rank
        letters = (k if x > 0 else bar(n, k) for k, x in enumerate(d, start=1) if x)
        col = rs.tableau_columns[d] = tuple(sorted(letters))
    return col


def gallery_to_tableau(rs: RootSystem, g: Gallery) -> Tableau:
    """One column per edge, in edge order, each by germ_column."""
    return Tableau(rs.family, rs.rank, tuple(germ_column(rs, d) for d in g.directions()))


def _decode_column(rs: RootSystem, col) -> Vec:
    """Decode a column not yet in ``rs.column_germs`` and keep its germ
    there: each letter moves its coordinate by the step of its block."""
    step = max(rs.fundamental_germs[len(col) - 1])
    d = rs.column_germs[col] = _column_germ(rs, col, step)
    return d


def decode_block(rs: RootSystem, vertex: Vec, cols, pos: int = 0) -> tuple:
    """The decode rule: (edge types, vertices after each edge) of the block
    that cols[pos] opens, walked from ``vertex``.

    A column's height fixes its block and so its step, hence its germ.  An
    invalid column raises and is never stored; the height, block and
    midpoint checks run on every call, the last a scan of the midpoint's
    memoised orbit of d."""
    i = len(cols[pos])
    if not 1 <= i <= rs.rank:
        raise ValueError("column height %d out of range" % i)
    block_type = fundamental_type(rs, i)
    if len(block_type) == 2 and (len(cols) <= pos + 1 or len(cols[pos + 1]) != i):
        raise ValueError("truncated block in tableau")
    germs = rs.column_germs  # a germ is a non-zero vector, so never falsy
    d = germs.get(cols[pos]) or _decode_column(rs, cols[pos])
    v = vadd(vertex, d)
    if len(block_type) == 1:
        return block_type, (v,)
    e = germs.get(cols[pos + 1]) or _decode_column(rs, cols[pos + 1])
    if e not in local_data(rs, v).orbit(d):
        raise ValueError("second column is not reachable at the midpoint")
    return block_type, (v, vadd(v, e))


def tableau_to_gallery(rs: RootSystem, tab: Tableau) -> Gallery:
    """Inverse of gallery_to_tableau: decode_block on each block in turn,
    a column of height i opening a block of omega_i."""
    if (tab.family, tab.rank) != (rs.family, rs.rank):
        raise ValueError("tableau family/rank does not match the root system")
    cols = tab.columns
    vertices = [(0,) * rs.dim]
    gtype = []
    while len(gtype) < len(cols):
        block_type, block_vertices = decode_block(rs, vertices[-1], cols, len(gtype))
        vertices.extend(block_vertices)
        gtype.extend(block_type)
    return Gallery(tuple(vertices), tuple(gtype))


def columns_ordered(right: tuple, left: tuple) -> bool:
    """The adjacent-column rule: each row weakly increases from the left
    column into the right one."""
    return all(map(le, left, right))


def is_semistandard(tab: Tableau) -> bool:
    """Rows weakly increase left to right (columns are stored right to left):
    columns_ordered holds on every adjacent pair."""
    cols = tab.columns
    return all(map(columns_ordered, cols, cols[1:]))


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
