"""The affine apartment: walls, faces and local root systems.

A wall is H_{c,n} = {x : <x, c> + n = 0} where c runs over the coroot
functionals of the root system and n over the integers.  Vertices are
points of the integer lattice of rootdata; an edge germ at a vertex is the
lattice vector pointing along the edge.  Sidedness questions are always
settled by evaluating functionals at exact lattice points, never by sign
conventions on abstract simple roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import ReflectionGroup, RootSystem, Vec, pairing, vdiv, vsub

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


class LocalRootSystem(ReflectionGroup):
    """The finite Coxeter-complex shadow of the apartment at a vertex.

    Carries the sub-root-system Phi_V (as wall functionals) and its Weyl
    group W_V, a ReflectionGroup on full-group indices whose letters are
    the sorted local simple functionals, plus the base chamber: the
    W_V-chamber whose interior contains the generic antidominant
    direction.  ``factors`` memoises the junction factors at this residue,
    keyed by (d_in, d_out); a zero factor is also the junction test's
    "not positively folded".  ``closest`` and ``crossings`` memoise the
    closest chamber and the (positive, negative) wall-crossing counts of
    a germ, keyed by its direction.
    """

    def __init__(self, rs: RootSystem, key: tuple):
        self.rs = rs
        self.key = key
        self.pos_functionals = tuple(rs.pos_coroots[k] for k in key)

        # simple system: indecomposable positive functionals
        pos_set = set(self.pos_functionals)
        simples = []
        for c in self.pos_functionals:
            decomposable = any(
                vsub(c, a) in pos_set for a in self.pos_functionals if a != c
            )
            if not decomposable:
                simples.append(c)
        self.simples = tuple(sorted(simples))
        # rs.reflections lines up with rs.pos_coroots, hence with pos_functionals
        self.reflection_indices = tuple(rs.reflections[k] for k in key)
        reflection_of = dict(zip(self.pos_functionals, self.reflection_indices))
        super().__init__(
            0, (reflection_of[c] for c in self.simples), self.pos_functionals, rs.mul, rs.act
        )

        # generic dominant point; its negative is interior to the base chamber
        self.generic_dominant = tuple(rs.dim - k for k in range(rs.dim))

        self._base_face: dict = {}
        self.factors: dict = {}
        self.closest: dict = {}
        self.crossings: dict = {}

    # chambers are u * base for u in elements
    def in_base_closure(self, d: Vec) -> bool:
        return all(pairing(d, c) <= 0 for c in self.simples)

    def in_chamber_closure(self, u: int, d: Vec) -> bool:
        return self.in_base_closure(self.rs.act(self.rs.inverse[u], d))

    def base_face(self, d: Vec) -> Vec:
        """The unique W_V-translate of d lying in the closed base chamber."""
        hit = self._base_face.get(d)
        if hit is None:
            matches = [u for u in self.orbit(d) if self.in_base_closure(u)]
            if len(matches) != 1:
                raise AssertionError("orbit meets base closure %d times" % len(matches))
            hit = matches[0]
            self._base_face[d] = hit
        return hit


def local_data(rs: RootSystem, vertex: Vec) -> LocalRootSystem:
    """Phi_V and its Weyl group; alpha is in Phi_V iff <V, alpha> is integral.

    Memoised per vertex on rs, so local_key runs once per distinct vertex."""
    hit = rs.vertex_locals.get(vertex)
    if hit is None:
        hit = local_data_for_key(rs, local_key(rs, vertex))
        rs.vertex_locals[vertex] = hit
    return hit


def local_data_for_key(rs: RootSystem, key: tuple) -> LocalRootSystem:
    """One object per local key, cached on rs."""
    hit = rs.local_groups.get(key)
    if hit is None:
        hit = LocalRootSystem(rs, key)
        rs.local_groups[key] = hit
    return hit


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
    """The dominant reference germ for an edge type."""
    omega = rs.fundamental_weights[etype.index - 1]
    if etype.segment == "whole":
        return omega
    return vdiv(omega, 2)

