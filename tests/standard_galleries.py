"""Galleries built by hand: the fundamental gallery of one fundamental
weight, concatenation, and the standard gallery of a dominant weight.

The library only walks the galleries of a type; the tests start from
these.
"""

from hlgal.apartment import expected_germ
from hlgal.gallery import Gallery, fundamental_type
from hlgal.rootdata import vadd, vsub


def gamma_omega(rs, i):
    """The fundamental gallery along [0, omega_i]."""
    if not 1 <= i <= rs.rank:
        raise ValueError("no fundamental weight with index %d" % i)
    omega = rs.fundamental_weights[i - 1]
    o = (0,) * rs.dim
    gtype = fundamental_type(rs, i)
    if len(gtype) == 1:
        return Gallery((o, omega), gtype)
    return Gallery((o, expected_germ(rs, gtype[0]), omega), gtype)


def concat(rs, g1, g2):
    """Concatenate, displacing g2 so its source lands on g1's target."""
    shift = vsub(g1.target, g2.vertices[0])
    moved = tuple(vadd(v, shift) for v in g2.vertices[1:])
    return Gallery(g1.vertices + moved, g1.gtype + g2.gtype)


def gamma_lambda(rs, lam):
    """The standard minimal gallery for a dominant weight, Bourbaki order."""
    if not rs.is_dominant_weight(lam):
        raise ValueError("lambda must be a dominant weight")
    g = Gallery(((0,) * rs.dim,), ())
    for i, a in enumerate(rs.weight_coeffs(lam), start=1):
        for _ in range(a):
            g = concat(rs, g, gamma_omega(rs, i))
    return g
