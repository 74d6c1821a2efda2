"""Brute-force verification on finite quotients.

Exhaustive twisted-conjugacy orbit enumeration over integer-coded finite
quotients of class <= 2 lattices, used as an independent check on every
finite count the exact machinery produces.
"""

from itertools import product as iproduct

from .errors import BoundExceededError, NilcoError, ShapeError, max_order_cap
from .intmat import determinant


def union_roots(size, image_lists):
    """Least member of each index's block once every u in range(size) is
    joined with images[u], for each list in image_lists: one list-based
    union-find.  Roots only ever point to smaller indices, so one ascending
    pass resolves every index to its root."""
    parent = list(range(size))
    for images in image_lists:
        for u, v in enumerate(images):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u < v:
                parent[v] = u
            elif v < u:
                parent[u] = v
    for u in range(size):
        parent[u] = parent[parent[u]]
    return parent


def _translation_images(m, vector):
    """Index images of z -> z + vector on (Z/m)^len(vector)."""
    images = [0]
    for t in vector:
        shifted = [(s + t) % m for s in range(m)]
        images = [i * m + s for i in images for s in shifted]
    return images


class FiniteGroupTable:
    """A class <= 2 lattice with every coordinate taken mod m.

    Element i is the coordinate vector (level 1, then level 2) mod m read as
    a base-m numeral, first coordinate most significant: the order of
    itertools.product(range(m), repeat=total rank).  The product is the
    lattice rule (a, c) * (a', c') = (a + a', c + c' + B(a, a')), where
    brackets holds one r1 x r1 integer matrix (row lists) per level-2
    coordinate.  Nothing is enumerated until an orbit count asks for it.
    """

    identity = 0

    def __init__(self, modulus, ranks, brackets=()):
        if modulus < 1:
            raise NilcoError("modulus must be >= 1")
        self.modulus = modulus
        self.ranks = tuple(ranks)
        self.brackets = tuple(brackets)
        self.order = modulus ** sum(self.ranks)

    def __contains__(self, i):
        return isinstance(i, int) and 0 <= i < self.order

    def project(self, e):
        """Index of a lattice element, or of per-level coordinates, mod m."""
        coords = getattr(e, "coordinates", e)
        if tuple(len(level) for level in coords) != self.ranks:
            raise ShapeError(f"{coords!r} does not match ranks {self.ranks!r}")
        return self._join(*coords)

    def _join(self, a, c=()):
        m = self.modulus
        i = 0
        for x in (*a, *c):
            i = i * m + x % m
        return i

    def _split(self, i):
        """(level-1, level-2) digit vectors of i; level 2 is () for class 1."""
        m = self.modulus
        digits = []
        for _ in range(sum(self.ranks)):
            i, d = divmod(i, m)
            digits.append(d)
        digits.reverse()
        r1 = self.ranks[0]
        return tuple(digits[:r1]), tuple(digits[r1:])

    def _cocycle(self, a, b):
        """B(a, b), one entry per bracket matrix (empty for class 1)."""
        return tuple(
            sum(a[i] * row[j] * b[j] for i, row in enumerate(B) for j in range(len(b)))
            for B in self.brackets
        )

    def product(self, x, y):
        (a, c), (b, d) = self._split(x), self._split(y)
        top = tuple(p + q for p, q in zip(a, b))
        return self._join(top, tuple(p + q + s for p, q, s in zip(c, d, self._cocycle(a, b))))

    def inverse(self, x):
        a, c = self._split(x)
        top = tuple(-p for p in a)
        return self._join(top, tuple(s - p for p, s in zip(c, self._cocycle(a, a))))

    def twisted_images(self, a, b):
        """Images of every element under u -> b * u * a^{-1}, in closed form.

        Level 1 moves by the translation b1 - a1; over each level-1 vector x
        level 2 moves by B(b1, x) - B(x, a1) + (b2 - a2 + B(a1, a1) - B(b1, a1)).
        """
        m = self.modulus
        (a1, a2), (b1, b2) = self._split(a), self._split(b)
        level1 = _translation_images(m, [q - p for p, q in zip(a1, b1)])
        if len(self.ranks) == 1:
            return level1
        const = [
            q - p + s - t
            for p, q, s, t in zip(a2, b2, self._cocycle(a1, a1), self._cocycle(b1, a1))
        ]
        r1 = len(a1)
        slopes = [
            [sum(b1[i] * B[i][j] - B[j][i] * a1[i] for i in range(r1)) for j in range(r1)]
            for B in self.brackets
        ]
        span = m ** self.ranks[1]
        fibers = {}
        images = []
        for image, x in zip(level1, iproduct(range(m), repeat=r1)):
            shift = tuple(
                (c + sum(s * xj for s, xj in zip(row, x))) % m for c, row in zip(const, slopes)
            )
            fiber = fibers.get(shift)
            if fiber is None:
                fiber = fibers[shift] = _translation_images(m, shift)
            base = image * span
            images += [base + z for z in fiber]
        return images


def translation_group(modulus, dim):
    """(Z/m)^dim with componentwise addition: the rank-dim torus quotient."""
    return FiniteGroupTable(modulus, (dim,))


def twisted_orbits_finite(G, movers):
    """Orbit partition of G under u -> b_j * u * a_j^{-1} for movers (a_j, b_j).

    Movers are element indices of G.  Returns (count, partition), where the
    partition lists each orbit as ascending indices, ordered by least element.
    This is the one enumerator of quotient elements: a G of order past the
    enumeration cap (`max_order_cap`) raises BoundExceededError before any
    image is built.
    """
    cap = max_order_cap()
    if G.order > cap:
        raise BoundExceededError(f"quotient order {G.order} exceeds cap {cap}")
    for a, b in movers:
        if a not in G or b not in G:
            raise NilcoError(f"mover {(a, b)!r} contains foreign elements")
    roots = union_roots(G.order, (G.twisted_images(a, b) for a, b in movers))
    blocks = {}
    for u, root in enumerate(roots):
        if root == u:
            blocks[u] = [u]
        else:
            blocks[root].append(u)
    return len(blocks), list(blocks.values())


def cokernel_oracle(A):
    """Order of Z^n / im(A) for square nonsingular A by exhaustive orbit count.

    Enumerates (Z/m)^n with m = |det A| and translation moves by the columns
    of A; soundness rests on m * Z^n being contained in im(A).  The m^n
    elements are bounded only by the enumeration cap of
    `twisted_orbits_finite`.
    """
    if not A.is_square:
        raise ShapeError("cokernel oracle needs a square matrix")
    d = determinant(A)
    if d == 0:
        raise NilcoError("cokernel oracle requires a nonsingular matrix")
    G = translation_group(abs(d), A.rows)
    movers = [(G.identity, G.project((A.column(j),))) for j in range(A.rows)]
    count, _ = twisted_orbits_finite(G, movers)
    return count
