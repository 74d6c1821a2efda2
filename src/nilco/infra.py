"""Infra-nilmanifold domains via a regular finite nil-cover.

The pair is lifted to the cover; an infinite cover count settles the
question outright.  A finite one is refined by counting the infra group
itself: it is generated by the cover generators and the coset
representatives x, so its twisted classes are the orbits of the
generator-pair system made of the cover images (phi(s), psi(s)) plus the
holonomy pairs (f(x), g(x)), counted by the same orbit engine as every
other input kind.  Class >= 3 targets, and class >= 3 covers into a class-2
target, exit 4 until a presentation is given (the lifted maps refuse to be
built).  Every branch ends in `reidemeister.verdict`.

The holonomy data is checked once, when an InfraStructure is built, and
`infra_action` checks what ties it to a map pair.  `decide_infra` counts
that action, whose maps are the cover pair; the parser builds the same
action from a file's parts.
"""

from collections import namedtuple

from .errors import NilcoError, ShapeError
from .intmat import determinant
from .lattice import _checked_make
from .reidemeister import (
    EQ_THM,
    INFTY_THM,
    REPS_LIMIT,
    TwistedAction,
    TwistedOrbitEngine,
    coincidence_invariants,
    verdict,
)


# action of one nontrivial holonomy coset on the cover lattice: the level
# matrices of an automorphism plus a translation part, a cover element
CosetAction = namedtuple("CosetAction", "matrices translation")


class InfraStructure(namedtuple("InfraStructure", (
    "cover",  # NilpotentLattice
    "holonomy_order",
    "coset_actions",  # CosetAction per nontrivial coset representative
    "map_images",  # (f image, g image) in the target, per nontrivial coset
))):
    """Holonomy data over the cover: the holonomy order h and, per nontrivial
    coset representative x, its action on the cover and its image pair
    (f(x), g(x)) in the target.

    The constructor checks the data and raises ShapeError listing every
    violation: h >= 1; h - 1 coset actions and image pairs; level matrices
    that are unimodular and square of the cover's ranks; translations that
    lie in the cover.  `infra_action` checks that the images lie in the
    target of the maps.
    """

    __slots__ = ()

    def __new__(cls, cover, holonomy_order, coset_actions, map_images):
        self = super().__new__(
            cls, cover, holonomy_order, tuple(coset_actions), tuple(map_images)
        )
        self.__post_init__()
        return self

    _make = _checked_make

    def __post_init__(self):
        """The checks of the constructor, run once per new value."""
        cover, h = self.cover, self.holonomy_order
        violations = [] if h >= 1 else ["holonomy_order must be >= 1"]
        expected = max(h - 1, 0)
        for what, items in (("coset actions", self.coset_actions),
                             ("map image pairs", self.map_images)):
            if len(items) != expected:
                violations.append(f"expected {expected} {what}, got {len(items)}")
        for idx, act in enumerate(self.coset_actions):
            if len(act.matrices) != cover.class_c:
                violations.append(
                    f"coset action {idx}: expected {cover.class_c} level matrices"
                )
            for i, (M, r) in enumerate(zip(act.matrices, cover.ranks)):
                if M.rows != r or M.cols != r:
                    violations.append(f"coset action {idx}: level {i + 1} matrix must be {r}x{r}")
                elif (d := determinant(M)) not in (1, -1):
                    violations.append(
                        f"coset action {idx}: level {i + 1} determinant {d} is not +-1"
                    )
            try:
                cover.element(act.translation.coordinates)
            except NilcoError as exc:
                violations.append(f"coset action {idx}: bad translation part: {exc}")
        if violations:
            raise ShapeError("invalid infra data: " + "; ".join(violations))


def infra_action(infra, phi, psi):
    """The twisted action of the infra pair: the cover generator images
    (phi(s), psi(s)) followed by the holonomy pairs (f(x), g(x)).

    Checks what ties the infra data to the maps: both are defined on the
    cover, and the TwistedAction constructor checks that every holonomy
    image fits their target's ranks.  The images are kept as built.  (The
    parser builds this action itself, from images checked where it read them.)
    """
    if phi.source != infra.cover or psi.source != infra.cover:
        raise ShapeError("lifted homomorphisms must be defined on the cover lattice")
    return TwistedAction(phi.target, infra.map_images, maps=(phi, psi))


def decide_infra(action):
    """Coincidence report for the infra-nilmanifold pair itself, from its
    action (`infra_action(infra, phi, psi)`, or the parser's), whose maps
    are the cover pair.

    Returns (report, cover_report).  An infinite cover count gives R =
    infinity under INFTY_THM.  Otherwise the orbit engine counts `action`,
    and `verdict` applies EQ_THM.
    """
    cover_report = coincidence_invariants(*action.maps, reps_limit=None)
    if cover_report.R.infinite_level is not None:
        return verdict(cover_report.R, INFTY_THM), cover_report
    return verdict(TwistedOrbitEngine(action).result(reps_limit=REPS_LIMIT), EQ_THM), cover_report
