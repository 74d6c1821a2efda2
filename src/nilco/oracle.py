"""Brute-force verification on finite quotients.

Twisted-conjugacy orbit counts over integer-coded finite quotients of class
<= 2 lattices, level by level with only the group law mod m, used as an
independent check on every finite count the exact machinery produces.
"""

from itertools import product as iproduct
from operator import mul

from .errors import BoundExceededError, NilcoError, ShapeError, max_order_cap
from .intmat import determinant


def _add(u, v, m):
    """u + v in (Z/m)^n, vectors as tuples."""
    return tuple([(p + q) % m for p, q in zip(u, v)])


def _extend(group, v, m):
    """Close `group`, a subgroup of (Z/m)^n held as a set of tuples, under v:
    each multiple k*v outside it adds its whole coset of the old subgroup."""
    if v in group:
        return
    old, step = list(group), v
    while step not in group:
        group.update([_add(h, step, m) for h in old])
        step = _add(step, v, m)


class FiniteGroupTable:
    """A class <= 2 lattice with every coordinate taken mod m.

    Element i is the coordinate vector (level 1, then level 2) mod m read as
    a base-m numeral, first coordinate most significant: the order of
    itertools.product(range(m), repeat=total rank).  The group law is the
    lattice's, (a, c) * (a', c') = (a + a', c + c' + B(a, a')), where
    brackets holds one r1 x r1 integer matrix (row lists) per level-2
    coordinate; the table applies it only through `closed_form`.  Nothing is
    enumerated until an orbit count asks for it, and the count walks level 1
    and each level-1 orbit's stabiliser, not the m^(r1 + r2) elements.
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
        return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < self.order

    def project(self, e):
        """Index of a lattice element, or of per-level coordinates, mod m."""
        coords = getattr(e, "coordinates", e)
        if tuple(len(level) for level in coords) != self.ranks:
            raise ShapeError(f"{coords!r} does not match ranks {self.ranks!r}")
        m = self.modulus
        i = 0
        for level in coords:
            for x in level:
                i = i * m + x % m
        return i

    def _split(self, i):
        """(level-1, level-2) digit lists of i; level 2 is [] for class 1."""
        m, n, r1 = self.modulus, sum(self.ranks), self.ranks[0]
        digits = [i // m ** (n - 1 - k) % m for k in range(n)]
        return digits[:r1], digits[r1:]

    def closed_form(self, a, b):
        """u -> b * u * a^{-1} as (step, const, slopes), every entry mod m.

        Level 1 moves by step d = b1 - a1; over a level-1 vector x, level 2
        moves by shift(x) = const + slopes . x, where const_k = b2 - a2 -
        B_k(d, a1) and slopes_k . x = B_k(b1, x) - B_k(x, a1).  Class 1 has
        const = slopes = ().
        """
        m = self.modulus
        (a1, a2), (b1, b2) = self._split(a), self._split(b)
        d, r = _add(b1, [-p for p in a1], m), range(len(a1))
        const = tuple(
            (q - p - sum(d[i] * B[i][j] * a1[j] for i in r for j in r)) % m
            for B, p, q in zip(self.brackets, a2, b2)
        )
        slopes = tuple(
            tuple(sum(b1[i] * B[i][j] - B[j][i] * a1[i] for i in r) % m for j in r)
            for B in self.brackets
        )
        return d, const, slopes


def translation_group(modulus, dim):
    """(Z/m)^dim with componentwise addition: the rank-dim torus quotient."""
    return FiniteGroupTable(modulus, (dim,))


def twisted_orbits_finite(G, movers):
    """Number of orbits of G under u -> b_j * u * a_j^{-1} for movers (a_j,
    b_j), given as element indices of G.  A G of order m^(r1 + r2) past the
    enumeration cap (`max_order_cap`) raises BoundExceededError before
    anything is built.

    Counted level by level from each mover's `closed_form`.  Level 1 moves
    by the translations d_j, so its orbits are the cosets of H1 = <d_j>, and
    with no level 2 there are m^r1 / |H1| orbits.  Otherwise a breadth-first
    search over each level-1 orbit O from its base point x0 gives each x in
    O a tree offset sigma_x: sigma_x0 = 0, and a tree edge x -> y = x + d_j
    sets sigma_y = sigma_x + shift_j(x), so the tree word t_x carries
    (x0, z) to (x, z + sigma_x).  Each orbit over O meets the fiber over x0
    in one orbit of the stabiliser of x0 (in the free group on the movers),
    which acts there by translations: through a homomorphism onto some
    S <= (Z/m)^r2.  By Schreier's lemma the words t_x g_j t_y^{-1}, x in O,
    y = x + d_j, generate the stabiliser; each translates the fiber by
    sigma_x + shift_j(x) - sigma_y, which is 0 on tree edges.  So the
    non-tree edges generate S, and O adds the m^r2 / |S| cosets of S.
    """
    cap = max_order_cap()
    if G.order > cap:
        raise BoundExceededError(f"quotient order {G.order} exceeds cap {cap}")
    for a, b in movers:
        if a not in G or b not in G:
            raise NilcoError(f"mover {(a, b)!r} contains foreign elements")
    m, r1, r2 = G.modulus, G.ranks[0], sum(G.ranks[1:])
    forms = [G.closed_form(a, b) for a, b in movers]
    if not r2:
        level1 = {(0,) * r1}
        for step, _, _ in forms:
            _extend(level1, step, m)
        return m**r1 // len(level1)
    zero, sigma, count = (0,) * r2, {}, 0
    for base in iproduct(range(m), repeat=r1):
        if base in sigma:
            continue
        sigma[base] = zero
        orbit, stabiliser = [base], {zero}
        for x in orbit:  # grows as the search reaches new points
            offset = sigma[x]
            for d, const, slopes in forms:
                y = _add(x, d, m)
                moved = _add(offset, [c + sum(map(mul, r, x)) for c, r in zip(const, slopes)], m)
                known = sigma.get(y)
                if known is None:
                    sigma[y] = moved
                    orbit.append(y)
                else:
                    _extend(stabiliser, tuple([(p - q) % m for p, q in zip(moved, known)]), m)
        count += m**r2 // len(stabiliser)
    return count


def cokernel_oracle(A):
    """Order of Z^n / im(A) for square nonsingular A by exhaustive orbit count.

    Counts the orbits of (Z/m)^n, m = |det A|, under translation by the
    columns of A; soundness rests on m * Z^n being contained in im(A).  The
    m^n elements are bounded only by the enumeration cap of
    `twisted_orbits_finite`.
    """
    if not A.is_square:
        raise ShapeError("cokernel oracle needs a square matrix")
    d = determinant(A)
    if d == 0:
        raise NilcoError("cokernel oracle requires a nonsingular matrix")
    G = translation_group(abs(d), A.rows)
    movers = [(G.identity, G.project((A.column(j),))) for j in range(A.rows)]
    return twisted_orbits_finite(G, movers)
