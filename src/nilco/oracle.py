"""Brute-force verification on finite quotients.

Twisted-conjugacy orbit counts over the finite quotients mod m of class <= 2
lattices, level by level with only the group law mod m, used as an
independent check on every finite count the exact machinery produces.
"""

from operator import mul

from .errors import BoundExceededError, NilcoError, ShapeError, UnsupportedClassError, max_order_cap
from .intmat import determinant


def _moves(v, places, m):
    """x -> x + v on the codes of (Z/m)^n: one (place, limit, up, down) per
    nonzero v_i.  A vector's code is the mixed-radix number of its entries
    mod m, the first most significant, so entry i sits at place m^(n-1-i)
    (`places`).  There the code gains up = place * v_i while x_i < limit =
    m - v_i, and down = place * (v_i - m) otherwise: the entry wraps and
    carries nothing."""
    return [(p, m - c, p * c, p * (c - m)) for p, c in zip(places, v) if c]


def _close(flags, members, v, places, m):
    """Close H, a subgroup of (Z/m)^n held as a bytearray of flags over the
    codes and the list of its codes (0 first), under the step v: add the
    cosets H + v, H + 2v, ..., each the last one moved by v, until one
    starts (at the code of k*v) inside the grown subgroup."""
    moves, n, last = _moves(v, places, m), len(members), 0
    while True:
        coset = members[last:last + n]
        for p, limit, up, down in moves:
            coset = [y + up if y // p % m < limit else y + down for y in coset]
        if flags[coset[0]]:
            return
        for y in coset:
            flags[y] = 1
        last = len(members)
        members += coset


class FiniteGroupTable:
    """A class <= 2 lattice with every coordinate taken mod m.

    An element is its pair (level-1 vector, level-2 vector) mod m, level 2
    () at class 1.  The group law is the lattice's, (a, c) * (a', c') =
    (a + a', c + c' + B(a, a')), where brackets holds one r1 x r1 integer
    matrix (row lists) per level-2 coordinate; the table applies it only
    through `closed_form`.  More than two levels raise
    UnsupportedClassError, and a bracket count other than r2, or a bracket
    that is not r1 x r1, raises ShapeError, as `NilpotentLattice` does.
    Nothing is enumerated until an orbit count asks for it, and the count
    walks level 1 and each level-1 orbit's stabiliser, not the m^(r1 + r2)
    elements (`twisted_orbits_finite`).
    """

    def __init__(self, modulus, ranks, brackets=()):
        if modulus < 1:
            raise NilcoError("modulus must be >= 1")
        self.modulus = modulus
        self.ranks = tuple(ranks)
        self.brackets = tuple(brackets)
        if len(self.ranks) > 2:
            raise UnsupportedClassError(f"finite quotient of class {len(self.ranks)} > 2")
        try:
            r1, r2 = (*self.ranks, 0)[:2]
            fits = len(self.brackets) == r2 and all(
                len(B) == r1 and all(len(row) == r1 for row in B) for B in self.brackets
            )
        except (TypeError, ValueError):
            fits = False
        if not fits:
            raise ShapeError(f"ranks {self.ranks!r} need r2 bracket matrices of r1 x r1")
        self.order = modulus ** sum(self.ranks)

    def project(self, e):
        """(level-1, level-2) vectors mod m of a lattice element, or of
        per-level coordinates: plain ints (no bools) in the table's ranks."""
        coords = getattr(e, "coordinates", e)
        try:
            fits = tuple(map(len, coords)) == self.ranks
        except TypeError:
            fits = False
        if not fits or {type(x) for level in coords for x in level} - {int}:
            raise ShapeError(f"{coords!r} does not match ranks {self.ranks!r} as integers")
        x, *z = [tuple([c % self.modulus for c in level]) for level in coords]
        return x, z[0] if z else ()

    def closed_form(self, a, b):
        """u -> b * u * a^{-1} as (step, const, slopes), every entry mod m, for
        a and b as `project` returns them.

        Level 1 moves by step d = b1 - a1; over a level-1 vector x, level 2
        moves by shift(x) = const + slopes . x, where const_k = b2 - a2 -
        B_k(d, a1) and slopes_k . x = B_k(b1, x) - B_k(x, a1).  Class 1 has
        const = slopes = ().
        """
        m, (a1, a2), (b1, b2) = self.modulus, a, b
        d, r = tuple([(q - p) % m for p, q in zip(a1, b1)]), range(len(a1))
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
    """Number of orbits of G under u -> b_j * u * a_j^{-1} for the sequence
    of movers (a_j, b_j), tuple or list pairs (else ShapeError) of lattice
    elements or per-level coordinates, which `G.project` reduces mod m.  A
    G of order m^(r1 + r2) past the enumeration cap (`max_order_cap`)
    raises BoundExceededError before any mover is read.

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

    Points of each level are walked as their codes in [0, m^r) (`_moves`).
    One closure (`_close`) builds H1 and each S as flags over the codes plus
    their list; S's m^r2 flags, read per Schreier generator, are cleared
    through that list after each orbit.  sigma holds m^r1 slots, None until
    reached, and offsets only for the current orbit: a finished point holds
    True.  So memory is about m^r1 slots, m^r2 flags and the largest
    orbit's offsets, though the cap bounds m^(r1 + r2).
    """
    cap = max_order_cap()
    if G.order > cap:
        raise BoundExceededError(f"quotient order {G.order} exceeds cap {cap}")
    m, r1, r2 = G.modulus, G.ranks[0], sum(G.ranks[1:])
    if bad := [mv for mv in movers if not (isinstance(mv, (tuple, list)) and len(mv) == 2)]:
        raise ShapeError(f"mover {bad[0]!r} is not a pair (a, b)")
    forms = [G.closed_form(G.project(a), G.project(b)) for a, b in movers]
    places, size = [m**k for k in reversed(range(r1))], m**r1
    if not r2:
        flags, members = bytearray(size), [0]
        flags[0] = 1
        for d, _, _ in forms:
            _close(flags, members, d, places, m)
        return size // len(members)
    walk = [(_moves(d, places, m), const, slopes) for d, const, slopes in forms]
    places2, fiber = [m**k for k in reversed(range(r2))], m**r2
    flags, zero, sigma, count = bytearray(fiber), (0,) * r2, [None] * size, 0
    flags[0] = 1
    for base in range(size):
        if sigma[base] is not None:
            continue
        sigma[base], orbit, members = zero, [base], [0]  # S = {0}
        for x in orbit:  # grows as the search reaches new points
            offset, digits = sigma[x], [x // p % m for p in places]
            for moves, const, slopes in walk:
                y = x
                for p, limit, up, down in moves:
                    y += up if x // p % m < limit else down
                moved = tuple([(o + c + sum(map(mul, r, digits))) % m
                               for o, c, r in zip(offset, const, slopes)])
                known = sigma[y]
                if known is None:
                    sigma[y] = moved
                    orbit.append(y)
                elif moved != known:
                    g = [(s - t) % m for s, t in zip(moved, known)]
                    if not flags[sum(map(mul, g, places2))]:
                        _close(flags, members, g, places2, m)
        count += fiber // len(members)
        for z in members[1:]:
            flags[z] = 0
        for x in orbit:
            sigma[x] = True
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
    zero = ((0,) * A.rows,)
    movers = [(zero, (A.column(j),)) for j in range(A.rows)]
    return twisted_orbits_finite(translation_group(abs(d), A.rows), movers)
