"""Littelmann's root operators on piecewise-linear paths: an oracle for
which galleries are LS.

A gallery is read as the path through its vertices in ambient
coordinates, as exact Fractions, with every break point between two
segments of the same direction merged away, so two paths are equal
exactly when they trace the same polyline.  f_i and e_i act on such
paths as in P. Littelmann, Paths and root operators in representation
theory, Ann. of Math. 142 (1995), and the LS galleries of a type are the
crystal B(lambda) that they generate from the standard gallery
(S. Gaussent and P. Littelmann, LS galleries, the path model, and MV
cycles, Duke Math. J. 127 (2005)).  Only root data is read here: no walk,
folding test or crossing count of the library.
"""


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _shift(x, c, alpha):
    """x + c * alpha."""
    return tuple(a + c * b for a, b in zip(x, alpha))


def _same_direction(u, w):
    k = next(k for k, a in enumerate(u) if a)
    c = w[k] / u[k]
    return c > 0 and all(b == c * a for a, b in zip(u, w))


def merged(points):
    """The polyline through the points, as a tuple, with no break point
    between two segments of the same direction."""
    out = [points[0]]
    for x in points[1:]:
        if x == out[-1]:
            continue
        if len(out) > 1 and _same_direction(_sub(out[-1], out[-2]), _sub(x, out[-1])):
            out[-1] = x
        else:
            out.append(x)
    return tuple(out)


def path_of(rs, g):
    return merged([rs.ambient(v) for v in g.vertices])


def _levels(rs, i, path):
    """alpha_i, and h = <pi, alpha_i^vee> at each break point, with its
    least value m, which must be an integer."""
    alpha = rs.ambient(rs.simple_roots[i - 1])
    coroot = rs.simple_coroots[i - 1]
    h = [sum(a * b for a, b in zip(x, coroot)) for x in path]
    m = min(h)
    assert m.denominator == 1, (i, path)
    return alpha, h, m


def _split(path, h, j, level):
    """Put the point where h reaches level inside the segment ending at
    break point j in as a break point, at index j."""
    t = (level - h[j - 1]) / (h[j] - h[j - 1])
    x = _shift(path[j - 1], t, _sub(path[j], path[j - 1]))
    return path[:j] + (x,) + path[j:], h[:j] + [level] + h[j:]


def f(rs, i, path):
    """f_i(path), or None: reflect by s_i the piece from the last time
    h = m to the first later time h = m + 1, and shift the rest by
    -alpha_i."""
    alpha, h, m = _levels(rs, i, path)
    if h[-1] < m + 1:
        return None
    p = max(j for j, v in enumerate(h) if v == m)
    x = next(j for j in range(p + 1, len(h)) if h[j] >= m + 1)
    if h[x] > m + 1:
        path, h = _split(path, h, x, m + 1)
    return merged(
        path[: p + 1]
        + tuple(_shift(path[j], m - h[j], alpha) for j in range(p + 1, x + 1))
        + tuple(_shift(path[j], -1, alpha) for j in range(x + 1, len(path)))
    )


def e(rs, i, path):
    """e_i(path), or None: reflect by s_i the piece from the last time
    h = m + 1 to the first time h = m, and shift the rest by alpha_i."""
    alpha, h, m = _levels(rs, i, path)
    if m > -1:
        return None
    q = h.index(m)
    y = max(j for j in range(q) if h[j] >= m + 1)
    if h[y] > m + 1:
        path, h = _split(path, h, y + 1, m + 1)
        y, q = y + 1, q + 1
    return merged(
        path[: y + 1]
        + tuple(_shift(path[j], m + 1 - h[j], alpha) for j in range(y + 1, q + 1))
        + tuple(_shift(path[j], 1, alpha) for j in range(q + 1, len(path)))
    )


def crystal(rs, path):
    """Every path reached from the given one by f_1 .. f_n."""
    seen, todo = {path}, [path]
    while todo:
        pi = todo.pop()
        for i in range(1, rs.rank + 1):
            nxt = f(rs, i, pi)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen
