"""Exact root-system, Weyl-group and Bruhat-order substrate for A_n, B_n, C_n.

Everything lives in the Bourbaki epsilon coordinates of the named family.
The lattice the rest of the library walks on (vertices of the apartment,
the lambda/mu inputs) is the *weight* lattice of that family; levels,
degrees and wall data pair those points against the *coroots*, used as
linear functionals via the ambient dot product.  In type A the two vector
families agree; in types B and C they are dual to each other, and keeping
both around is what makes the half-integral spin weight of B_n a special
vertex while the corresponding C_n weight is not.

All arithmetic is exact integer arithmetic; no floats anywhere.  Every
vertex, germ, weight and root is a tuple of ints: its ambient coordinates
times ``rs.scale``, which is 1 for A (every vertex is integral there) and
2 for B and C (spin weights and half-edge midpoints are half-integral).
Coroots are not scaled, so ``pairing(v, c)`` of a lattice vector with a
coroot is ``scale`` times the ambient pairing, and v lies on a wall of c
exactly when it is divisible by ``scale``.  Ambient coordinates, as
Fractions, appear only at the output boundary: ``ambient`` and
``canonical_weight``, which import ``fractions`` when first called.  A
canonical weight is a ``HashedWeight``, a tuple of Fractions that computes
its hash once, so the character dicts keyed by them hash each key in
constant time; ``canonical_weights`` memoises each vertex's, for the LS
character walk, the Freudenthal oracle and verify alike.
Weyl group elements are signed permutations of the epsilon basis, stored
as tuples ``((image, sign), ...)`` meaning ``w(e_j) = sign * e_image``;
a RootSystem indexes them and multiplies and acts by index.  It builds W
and its Bruhat order on integer index tables: one breadth-first search
from the identity gives the elements, their lengths and each simple
reflection's left-multiplication table; every other reflection's table is
a conjugate s t s of tables already found, with no product of
permutations; and the Bruhat masks read each product t * w from those
tables, which the build then drops.  One ReflectionGroup class on those
indices serves W and every local group W_V: W is the local group at the
origin, where every wall passes.
A RootSystem's root data is immutable after construction; the memo tables
of everything derived from it, local groups included, live on the object.
Among them are the per-type constants of the gallery walks: each dominant
weight's standard gallery type (``lambda_types``), each type's walk
plan, its reference germs and block suffixes (``walk_plans``), and
each mu that passed the dominance check (``dominant_weights``): a row
of L pays its type's constants once, not once per mu, and a mu is
checked once, not once per L value.  Only validated results are
stored; a rejected weight or type raises on every call.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, attrgetter, mul, neg, sub

Vec = tuple  # tuple of int lattice coordinates
SignedPerm = tuple  # tuple of (image_index, sign) pairs

FAMILIES = ("A", "B", "C")
MAX_RANK = 4  # desk scale; |W| <= 384


def pairing(weight: Vec, covector: Vec) -> int:
    """Integer dot product <weight, covector>."""
    if len(weight) != len(covector):
        raise ValueError("dimension mismatch: %d vs %d" % (len(weight), len(covector)))
    return sum(map(mul, weight, covector))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(map(add, u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(map(sub, u, v))


def vneg(u: Vec) -> Vec:
    return tuple(map(neg, u))


def vscale(c: int, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vdiv(u: Vec, k: int) -> Vec:
    """u / k; raises ValueError unless every coordinate is divisible by k."""
    if any(a % k for a in u):
        raise ValueError("%r is not divisible by %d" % (u, k))
    return tuple(a // k for a in u)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def sp_act(w: SignedPerm, v: Vec) -> Vec:
    out = [0] * len(v)
    for j, (i, s) in enumerate(w):
        out[i] = v[j] if s == 1 else -v[j]
    return tuple(out)


def sp_mul(w1: SignedPerm, w2: SignedPerm) -> SignedPerm:
    # (w1 w2)(e_j) = w1(s2 e_i) for w2(e_j) = s2 e_i
    out = []
    for i2, s2 in w2:
        i1, s1 = w1[i2]
        out.append((i1, s1 * s2))
    return tuple(out)


def sp_inv(w: SignedPerm) -> SignedPerm:
    out = [None] * len(w)
    for j, (i, s) in enumerate(w):
        out[i] = (j, s)
    return tuple(out)


class HashedWeight(tuple):
    """A tuple (of Fractions) that computes its hash once, on creation.

    It equals, hashes, sorts, prints and pickles as the plain tuple does;
    Fraction.__hash__ takes a modular inverse on every call, which this
    pays once per memoised weight, not once per dict operation."""

    def __new__(cls, items):
        self = tuple.__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return HashedWeight, (tuple(self),)


class Frozen:
    """An immutable value with named fields, on nothing the interpreter
    has not already loaded, so that a command-line run imports no more
    than it runs.  A subclass lists its fields in ``_fields`` and keeps
    them, with any cache slots, in ``__slots__``; its ``__init__`` stores
    them with ``object.__setattr__``.  Two values are equal when their
    classes and fields are; the hash is the fields', the repr is
    ``Name(field=value, ...)`` and assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class RootSystemSpec(Frozen):
    __slots__ = _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @property
    def ambient_dim(self) -> int:
        return self.rank + 1 if self.family == "A" else self.rank

    def validate(self):
        if self.family not in FAMILIES:
            raise ValueError("unsupported family %r (want A, B or C)" % (self.family,))
        if not (1 <= self.rank <= MAX_RANK):
            raise ValueError("unsupported rank %r (supported: 1..%d)" % (self.rank, MAX_RANK))


def lattice_scale(family: str) -> int:
    """Ambient coordinates times this are integers on every vertex and germ."""
    return 1 if family == "A" else 2


def _root_data(family: str, n: int):
    """Positive roots, aligned coroots and simple indices, Bourbaki order.

    Roots and fundamental weights are lattice vectors (scaled); coroots are
    integral functionals and are not."""
    m = n + 1 if family == "A" else n
    s = lattice_scale(family)

    def e(i):
        return tuple(1 if k == i else 0 for k in range(m))

    pos_roots, pos_coroots = [], []
    if family == "A":
        for i in range(m):
            for j in range(i + 1, m):
                r = vsub(e(i), e(j))
                pos_roots.append(r)
                pos_coroots.append(r)
    else:
        # the roots a e_i and coroots a_vee e_i: e_i, 2 e_i in B; 2 e_i, e_i in C
        a, a_vee = (1, 2) if family == "B" else (2, 1)
        for i in range(n):
            pos_roots.append(vscale(s * a, e(i)))
            pos_coroots.append(vscale(a_vee, e(i)))
        for i in range(n):
            for j in range(i + 1, n):
                for sign in (1, -1):
                    r = vadd(e(i), vscale(sign, e(j)))
                    pos_roots.append(vscale(s, r))
                    pos_coroots.append(r)

    simple_roots = [vscale(s, vsub(e(i), e(i + 1))) for i in range(m - 1)]
    if family != "A":
        simple_roots.append(vscale(s * a, e(n - 1)))

    fundamental = []
    for i in range(1, n + 1):
        w = tuple(s if k < i else 0 for k in range(m))
        if family == "B" and i == n:
            w = tuple(1 for _ in range(m))  # the spin weight, all 1/2
        fundamental.append(w)

    return pos_roots, pos_coroots, simple_roots, fundamental


def _closure(seed, gens, step) -> dict:
    """Everything reachable from seed by repeatedly applying step(g, x), g
    in gens, mapped to the fewest steps that reach it."""
    seen = {seed: 0}
    frontier = [seed]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for x in frontier:
            for g in gens:
                y = step(g, x)
                if y not in seen:
                    seen[y] = level
                    nxt.append(y)
        frontier = nxt
    return seen


class ReflectionGroup:
    """The Weyl group W_V of the walls whose ``rs.pos_coroots`` indices are
    in ``key``, on full-group indices, given by its walls alone.

    Those functionals are the positive system of W_V.  The simple letters
    are the indecomposable ones in descending order, so the group of every
    wall (the origin's) is W with its Bourbaki letters.  The chambers of
    the residue are u * base for u in W_V, base being the one whose
    interior holds the generic antidominant direction.  No element list is
    kept: closest chambers and reduced words come from descent to base.
    ``factors`` memoises the junction factors at this residue, keyed by
    (d_in, d_out); a zero factor is also the junction test's "not
    positively folded".  ``closest`` and ``crossings`` memoise the closest
    chamber and the (positive, negative) wall-crossing counts of a vector.
    ``edges`` memoises gallery.outgoing_edges, the one edge rule every
    walk reads, keyed by (germ whose orbit the edge takes, chain mask):
    each kept germ with its chain mask and its block's crossing-bound
    defect, which the local group and that key fix.  Filled on W alone,
    ``moves`` memoises gallery.block_moves per (block, chain mask), each
    move (germs, mask after, defect, offset), the one block table that the
    gallery walks and the LS character walk read; and ``offsets``
    gallery.offset_index per remaining blocks, then per chain mask.  A
    chain mask of None is an unfolded walk's.  ``orbit(v)`` is v's orbit,
    sorted, memoised once per v.
    """

    def __init__(self, rs: RootSystem, key: tuple):
        self.rs = rs
        self.pos_functionals = tuple(rs.pos_coroots[k] for k in key)
        sums = {vadd(a, b) for a in self.pos_functionals for b in self.pos_functionals}
        # the indecomposable positive functionals, in descending order
        self.simples = tuple(sorted(set(self.pos_functionals) - sums, reverse=True))
        self.simple_reflections = tuple(rs.reflections[rs.pos_coroots.index(c)] for c in self.simples)
        self._orbits: dict = {}
        self.factors: dict = {}
        self.closest: dict = {}
        self.crossings: dict = {}
        self.edges: dict = {}
        self.moves: dict = {}
        self.offsets: dict = {}

    def orbit(self, v: Vec) -> tuple:
        hit = self._orbits.get(v)
        if hit is None:
            hit = tuple(sorted(_closure(v, self.simple_reflections, self.rs.act)))
            self._orbits[v] = hit
        return hit

    def closest_chamber(self, d: Vec) -> tuple:
        """(u, word): the shortest u whose closed chamber holds d, and u's
        lexicographically least reduced word.

        d is reflected into the closed base chamber, each time in the least
        simple wall it lies strictly beyond.  The walls it lies strictly
        beyond are the left descents of the part of u still to undo, so
        each letter is the least of them (Humphreys, Reflection Groups and
        Coxeter Groups, 1990, ch. 1)."""
        hit = self.closest.get(d)
        if hit is None:
            u, word, x = 0, [], d
            while True:
                k = next((k for k, c in enumerate(self.simples) if pairing(x, c) > 0), None)
                if k is None:
                    break
                s = self.simple_reflections[k]
                u, x = self.rs.mul(u, s), self.rs.act(s, x)
                word.append(k)
            hit = (u, tuple(word))
            self.closest[d] = hit
        return hit

    def reduced_word(self, w: int) -> tuple:
        """Lexicographically least reduced word of w in W_V: the word of
        the closest chamber of a point interior to w * base."""
        return self.closest_chamber(self.rs.act(w, vneg(self.rs.generic_dominant)))[1]


class RootSystem:
    """Immutable bundle of exact root data plus the full Weyl group.

    Elements of W are addressed by integer index; index 0 is the identity
    and the list is sorted by (length, signed permutation) so that the
    ordering is reproducible.  ``weyl`` is W as the ReflectionGroup of
    every wall, built on first use and shared with the origin's residue.
    """

    def __init__(self, spec: RootSystemSpec):
        spec.validate()
        self.family = spec.family
        self.rank = spec.rank
        self.dim = spec.ambient_dim
        self.scale = lattice_scale(self.family)
        # canonical keys are key_scale times the canonical weight
        self.key_scale = self.scale * (self.dim if self.family == "A" else 1)

        pos_roots, pos_coroots, simple_roots, fundamental = _root_data(self.family, self.rank)
        order = sorted(range(len(pos_roots)), key=lambda k: pos_coroots[k])
        self.pos_roots = tuple(pos_roots[k] for k in order)
        self.pos_coroots = tuple(pos_coroots[k] for k in order)
        self.simple_roots = tuple(simple_roots)
        self.simple_coroots = tuple(
            self.pos_coroots[self.pos_roots.index(a)] for a in self.simple_roots
        )
        self.fundamental_weights = tuple(fundamental)
        # coordinate k of every omega_i: weight() pairs a coefficient vector with each
        self._weight_columns = tuple(zip(*self.fundamental_weights))
        # largest pairing of each omega_i with a positive coroot; 1 means minuscule
        tops = [
            max(pairing(w, c) for c in self.pos_coroots) // self.scale
            for w in self.fundamental_weights
        ]
        if any(t not in (1, 2) for t in tops):
            raise AssertionError("fundamental weight pairs beyond 2; outside A/B/C scope")
        self.fundamental_scale = tuple(tops)
        # omega_i over its scale: the dominant germ of each edge of its block
        self.fundamental_germs = tuple(map(vdiv, self.fundamental_weights, tops))
        self.two_rho = self._vsum(self.pos_coroots)  # 2 rho^vee, an integral functional
        # rho as a weight, the sum of the fundamental weights; in type A it is
        # half the sum of the positive roots only modulo the invariant line
        self.rho_weight = self._vsum(self.fundamental_weights)
        # a generic dominant point; its negative is interior to every base chamber
        self.generic_dominant = tuple(self.dim - k for k in range(self.dim))

        self._build_group()

        # memo tables
        self._chamber_masks: dict = {}  # germ -> chamber_class_mask
        self.canonical_weights: dict = {}  # vertex -> canonical_weight
        self.local_groups: dict = {}  # local key -> its ReflectionGroup
        self.vertex_locals: dict = {}  # vertex -> its entry in local_groups
        self.fundamental_blocks: dict = {}  # i -> gallery.fundamental_type's EdgeType tuple
        # validated results only: a rejected weight or type stores nothing
        self.lambda_types: dict = {}  # dominant weight -> gallery.type_of_lambda's type
        self.dominant_weights: set = set()  # the mus folding.enumerate_pf has validated
        self.walk_plans: dict = {}  # gallery type -> gallery.walk_plan's (germs, block suffixes)
        self.tableau_columns: dict = {}  # germ -> its column (tableaux encode rule)
        self.column_germs: dict = {}  # valid column -> its germ (tableaux decode rule)

    @staticmethod
    def _vsum(vs):
        acc = vs[0]
        for v in vs[1:]:
            acc = vadd(acc, v)
        return acc

    # ------------------------------------------------------------------ group

    def reflection_perm(self, root: Vec) -> SignedPerm:
        """The orthogonal reflection through root^perp, as a signed permutation."""
        norm = pairing(root, root)
        cols = []
        for j in range(self.dim):
            # norm * s_root(e_j) = norm * e_j - 2 root_j root
            img = [(norm if k == j else 0) - 2 * root[j] * r for k, r in enumerate(root)]
            nz = [(k, c) for k, c in enumerate(img) if c != 0]
            if len(nz) != 1 or abs(nz[0][1]) != norm:
                raise ValueError("reflection is not a signed permutation")
            cols.append((nz[0][0], 1 if nz[0][1] > 0 else -1))
        return tuple(cols)

    def _build_group(self):
        """W, its lengths, inverses and reflections, and the Bruhat masks.

        The search runs on signed images, sign * (image + 1), on which a
        simple reflection acts by one list lookup per coordinate; its levels
        are the lengths, and it fills each simple left table, index of s * x.
        The reflection s t s has the table s[t[s[x]]], so every reflection's
        table comes by conjugation, and below[w] = {w} | below[t * w] over
        the t with l(t * w) = l(w) - 1 reads each product from them."""
        m = self.dim
        gens = [self.reflection_perm(a) for a in self.simple_roots]
        steps = []
        for g in gens:
            step = [0] * (2 * m + 1)  # signed image x -> g's image of it, at index x
            for j, (i, s) in enumerate(g, 1):
                step[j], step[-j] = s * (i + 1), -s * (i + 1)
            steps.append(step.__getitem__)
        found = {tuple(range(1, m + 1)): 0}  # signed images -> search position
        searched = list(found)
        level = [0]
        left = [[] for _ in gens]  # left[k][b]: search position of s_k times element b
        for b, x in enumerate(searched):  # grows while it is walked
            for step, table in zip(steps, left):
                y = tuple(map(step, x))
                c = found.get(y)
                if c is None:
                    c = found[y] = len(searched)
                    searched.append(y)
                    level.append(level[b] + 1)
                table.append(c)
        pair = {s * (i + 1): (i, s) for i in range(m) for s in (1, -1)}
        perms = [tuple(map(pair.__getitem__, x)) for x in searched]
        ranked = sorted(range(len(perms)), key=lambda b: (level[b], perms[b]))
        rank = sorted(range(len(ranked)), key=ranked.__getitem__)  # rank[ranked[i]] == i
        self.elements = tuple(perms[b] for b in ranked)
        self.index = dict(zip(self.elements, range(len(ranked))))
        self.length = length = tuple(level[b] for b in ranked)
        self.inverse = tuple(self.index[sp_inv(w)] for w in self.elements)
        simple = [[rank[table[b]] for b in ranked] for table in left]
        self.simple_reflections = tuple(table[0] for table in simple)
        self.reflections = tuple(self.index[self.reflection_perm(a)] for a in self.pos_roots)
        self.w0 = len(ranked) - 1  # the one longest element sorts last

        tables = dict(zip(self.simple_reflections, simple))
        reached = list(simple)
        for t in reached:  # grows while it is walked
            for s, table in zip(self.simple_reflections, simple):
                u = table[t[s]]  # s t s, as the image of the identity
                if u not in tables:
                    tables[u] = conjugate = [table[t[x]] for x in table]
                    reached.append(conjugate)
        below = []
        for w, products in enumerate(zip(*tables.values())):
            ell = length[w] - 1
            mask = 1 << w
            for v in products:
                if length[v] == ell:
                    mask |= below[v]
            below.append(mask)
        self.below_mask = tuple(below)

    def act(self, i: int, v: Vec) -> Vec:
        return sp_act(self.elements[i], v)

    def mul(self, i: int, j: int) -> int:
        return self.index[sp_mul(self.elements[i], self.elements[j])]

    def order(self) -> int:
        return len(self.elements)

    def local_group(self, key: tuple) -> ReflectionGroup:
        """The Weyl group of the walls in key, built once per key."""
        hit = self.local_groups.get(key)
        if hit is None:
            hit = ReflectionGroup(self, key)
            self.local_groups[key] = hit
        return hit

    @cached_property
    def weyl(self) -> ReflectionGroup:
        """W, the local group of every wall: the one at the origin."""
        return self.local_group(tuple(range(len(self.pos_coroots))))

    # ----------------------------------------------------------------- bruhat

    def bruhat_leq(self, u: int, w: int) -> bool:
        return bool((self.below_mask[w] >> u) & 1)

    # ---------------------------------------------------------------- weights

    def weight(self, coeffs) -> Vec:
        """Sum a_i * omega_i for a coefficient vector in Bourbaki order."""
        if len(coeffs) != self.rank:
            raise ValueError("expected %d coefficients" % self.rank)
        return tuple([sum(map(mul, coeffs, col)) for col in self._weight_columns])

    def weight_coeffs(self, v: Vec) -> tuple:
        """The integers a_i with v = sum a_i * omega_i; ValueError off the weight lattice."""
        out = []
        for c in self.simple_coroots:
            a, rem = divmod(pairing(v, c), self.scale)
            if rem:
                raise ValueError("%r is not a weight" % (v,))
            out.append(a)
        return tuple(out)

    def height(self, v: Vec) -> int:
        """<v, 2 rho^vee>, the sum of v's pairings with the positive coroots."""
        h, rem = divmod(pairing(v, self.two_rho), self.scale)
        if rem:
            raise ValueError("%r is not a weight" % (v,))
        return h

    def is_dominant(self, v: Vec) -> bool:
        return self.dominant_rep(v) == v

    def is_dominant_weight(self, v: Vec) -> bool:
        return self.is_dominant(v) and all(pairing(v, c) % self.scale == 0 for c in self.simple_coroots)

    def canonical_key(self, v: Vec) -> Vec:
        """key_scale times the canonical representative of v modulo the
        invariant line (type A only), as an integer vector."""
        if self.family != "A":
            return v
        total = sum(v)
        return tuple(self.dim * a - total for a in v)

    # Boundary forms: ambient coordinates as Fractions, for output; the
    # canonical weights are memoised HashedWeights, each hashed once.

    def ambient(self, v: Vec) -> tuple:
        from fractions import Fraction

        return tuple(Fraction(a, self.scale) for a in v)

    def canonical_weight(self, v: Vec) -> tuple:
        """The canonical representative of v modulo the invariant line (type
        A only), in ambient coordinates, memoised per vertex in
        ``canonical_weights``: a HashedWeight, whose hash is computed once."""
        hit = self.canonical_weights.get(v)
        if hit is None:
            from fractions import Fraction

            key = self.canonical_key(v)
            hit = self.canonical_weights[v] = HashedWeight(Fraction(a, self.key_scale) for a in key)
        return hit

    def dominant_rep(self, v: Vec) -> Vec:
        if self.family == "A":
            return tuple(sorted(v, reverse=True))
        return tuple(sorted(map(abs, v), reverse=True))

    # --------------------------------------------------------------- chambers

    def chamber_class_mask(self, d: Vec) -> int:
        """Bit mask of {w : d in w(closed dominant chamber)}.

        w^-1 d is dominant exactly when w(dominant_rep(d)) = d, so one pass
        over W fills the masks of the whole orbit of d at once."""
        hit = self._chamber_masks.get(d)
        if hit is None:
            if is_zero(d):
                raise ValueError("zero direction has no chamber class")
            dom = self.dominant_rep(d)
            for i in range(self.order()):
                image = self.act(i, dom)
                self._chamber_masks[image] = self._chamber_masks.get(image, 0) | 1 << i
            hit = self._chamber_masks[d]
        return hit

    def below_closure_mask(self, mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask  # visit the set bits only
            out |= self.below_mask[low.bit_length() - 1]
            mask ^= low
        return out


_CACHE: dict = {}


def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Build (and cache) the full root datum for a family/rank."""
    key = (spec.family, spec.rank)
    rs = _CACHE.get(key)
    if rs is None:
        rs = RootSystem(spec)
        _CACHE[key] = rs
    return rs
