"""Infra-nilmanifold domains via a regular finite nil-cover.

The pair is lifted to the cover; an infinite cover count settles the
question outright.  A finite one is refined by counting the infra group
itself: it is generated by the cover generators and the coset
representatives x, so its twisted classes are the orbits of the
generator-pair system made of the cover images (phi(s), psi(s)) plus the
holonomy pairs (f(x), g(x)), counted by the same orbit engine as every
other input kind.

The holonomy data is checked once, when an InfraStructure is built, and
`infra_action` checks what ties it to a map pair.
"""

from dataclasses import dataclass

from .errors import NilcoError, ShapeError
from .intmat import determinant
from .lattice import NilpotentLattice
from .reidemeister import (
    EQ_THM,
    FINITE,
    INFINITE,
    INFTY_THM,
    NO,
    YES,
    CoincidenceReport,
    ReidemeisterResult,
    TwistedAction,
    TwistedOrbitEngine,
    coincidence_invariants,
)


@dataclass(frozen=True)
class CosetAction:
    """Action of one nontrivial holonomy coset on the cover lattice:
    an automorphism given by level matrices plus a translation part."""

    matrices: tuple
    translation: object  # LatticeElement of the cover


@dataclass(frozen=True)
class InfraStructure:
    """Holonomy data over the cover: the holonomy order h and, per nontrivial
    coset representative x, its action on the cover and its image pair
    (f(x), g(x)) in the target.

    The constructor checks the data and raises ShapeError listing every
    violation: h >= 1; h - 1 coset actions and image pairs; level matrices
    that are unimodular and square of the cover's ranks; translations that
    lie in the cover.  `infra_action` checks that the images lie in the
    target of the maps.
    """

    cover: NilpotentLattice
    holonomy_order: int
    coset_actions: tuple  # CosetAction per nontrivial coset representative
    map_images: tuple  # (f image, g image) in the target, per nontrivial coset

    def __post_init__(self):
        object.__setattr__(self, "coset_actions", tuple(self.coset_actions))
        object.__setattr__(self, "map_images", tuple(self.map_images))
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
    cover, and every holonomy image lies in their target.
    """
    if phi.source != infra.cover or psi.source != infra.cover:
        raise ShapeError("lifted homomorphisms must be defined on the cover lattice")
    holonomy = TwistedAction.from_pairs(phi.target, infra.map_images).movers
    return TwistedAction(
        target=phi.target, movers=TwistedAction.from_homs(phi, psi).movers + holonomy
    )


def decide_infra(infra, phi, psi):
    """Coincidence report for the infra-nilmanifold pair itself.

    Returns (cover_report, report).  When the cover count R_cover is finite
    and the target has class > 2, the orbit engine is unavailable and the
    report carries the count bounds ceil(R_cover / h) and R_cover with
    exact=False instead.
    """
    action = infra_action(infra, phi, psi)
    cover_report = coincidence_invariants(phi, psi, reps_limit=None)
    if cover_report.R.status == INFINITE:
        report = CoincidenceReport(
            R=cover_report.R, N=0, deformable=YES, rationale=INFTY_THM
        )
        return cover_report, report

    if phi.target.class_c > 2:
        r_cover = cover_report.R.count
        bounds = (-(-r_cover // infra.holonomy_order), r_cover)
        report = CoincidenceReport(
            R=ReidemeisterResult(
                status=FINITE,
                count=None,
                level_counts=cover_report.R.level_counts,
            ),
            N=None,
            deformable=NO,
            rationale=EQ_THM,
            exact=False,
            count_bounds=bounds,
        )
        return cover_report, report

    R = TwistedOrbitEngine(action).result(reps_limit=1024)
    report = CoincidenceReport(R=R, N=R.count, deformable=NO, rationale=EQ_THM)
    return cover_report, report
