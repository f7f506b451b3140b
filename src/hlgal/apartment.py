"""The affine apartment: walls, faces and the local group of a vertex.

A wall is H_{c,n} = {x : <x, c> + n = 0} where c runs over the coroot
functionals of the root system and n over the integers.  Vertices are
points of the integer lattice of rootdata; an edge germ at a vertex is the
lattice vector pointing along the edge.  The walls through a vertex V
make up Phi_V, and its Weyl group W_V is a rootdata.ReflectionGroup
memoised on the root system per local key; at the origin it is W itself.
Sidedness questions are always settled by evaluating functionals at exact
lattice points, never by sign conventions on abstract simple roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import ReflectionGroup, RootSystem, Vec, pairing

SEGMENTS = ("whole", "first", "second")


@dataclass(frozen=True)
class EdgeType:
    """Type tag of a fundamental-gallery edge: which omega, which piece."""

    index: int  # 1-based Bourbaki index of the fundamental weight
    segment: str  # "whole" for one-edge galleries, else "first"/"second"

    def __post_init__(self):
        if self.segment not in SEGMENTS:
            raise ValueError("bad segment %r" % (self.segment,))

    def tag(self) -> str:
        return "%d:%s" % (self.index, self.segment)


def local_key(rs: RootSystem, vertex: Vec) -> tuple:
    """Indices of the positive walls passing through the vertex: those whose
    pairing with it is integral, i.e. divisible by the lattice scale."""
    return tuple(
        k for k, c in enumerate(rs.pos_coroots) if pairing(vertex, c) % rs.scale == 0
    )


def local_data(rs: RootSystem, vertex: Vec) -> ReflectionGroup:
    """Phi_V and its Weyl group; alpha is in Phi_V iff <V, alpha> is integral.

    Memoised per vertex on rs, so local_key runs once per distinct vertex."""
    hit = rs.vertex_locals.get(vertex)
    if hit is None:
        hit = local_data_for_key(rs, local_key(rs, vertex))
        rs.vertex_locals[vertex] = hit
    return hit


def local_data_for_key(rs: RootSystem, key: tuple) -> ReflectionGroup:
    """One group per local key, memoised on rs."""
    return rs.local_group(key)


def crossings(rs: RootSystem, vertex: Vec, direction: Vec) -> tuple:
    """(positive, negative): walls through the vertex that the germ leaves
    into their positive, resp. negative, side.  Memoised on the local group."""
    local = local_data(rs, vertex)
    hit = local.crossings.get(direction)
    if hit is None:
        sides = [pairing(direction, c) for c in local.pos_functionals]
        hit = (sum(1 for s in sides if s > 0), sum(1 for s in sides if s < 0))
        local.crossings[direction] = hit
    return hit


def expected_germ(rs: RootSystem, etype: EdgeType) -> Vec:
    """The dominant reference germ for an edge type: omega_i over the
    number of edges in its block, whichever segment the edge is."""
    return rs.fundamental_germs[etype.index - 1]

