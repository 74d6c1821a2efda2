"""Infra-nilmanifold domains via a regular finite nil-cover.

The pair is lifted to the cover; an infinite cover count settles the
question outright.  A finite one is refined by counting the infra group
itself: it is generated by the cover generators and the coset
representatives x, so its twisted classes are the orbits of the
generator-pair system made of the cover images (phi(s), psi(s)) plus the
holonomy pairs (f(x), g(x)), counted by the same orbit engine as every
other input kind.
"""

from dataclasses import dataclass
from math import ceil

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
    cover: NilpotentLattice
    holonomy_order: int
    coset_actions: tuple  # CosetAction per nontrivial coset representative
    map_images: tuple  # (f image, g image) in the target, per nontrivial coset

    def __post_init__(self):
        object.__setattr__(self, "coset_actions", tuple(self.coset_actions))
        object.__setattr__(self, "map_images", tuple(self.map_images))


def validate_infra(infra, target):
    """Itemized violations of the holonomy data; empty list when ok."""
    violations = []
    if infra.holonomy_order < 1:
        violations.append("holonomy_order must be >= 1")
    expected = max(infra.holonomy_order - 1, 0)
    if len(infra.coset_actions) != expected:
        violations.append(
            f"expected {expected} coset actions, got {len(infra.coset_actions)}"
        )
    if len(infra.map_images) != expected:
        violations.append(
            f"expected {expected} map image pairs, got {len(infra.map_images)}"
        )
    cover = infra.cover
    for idx, act in enumerate(infra.coset_actions):
        mats = tuple(act.matrices)
        if len(mats) != cover.class_c:
            violations.append(
                f"coset action {idx}: expected {cover.class_c} level matrices"
            )
            continue
        for i, M in enumerate(mats):
            r = cover.ranks[i]
            if M.rows != r or M.cols != r:
                violations.append(
                    f"coset action {idx}: level {i + 1} matrix must be {r}x{r}"
                )
                continue
            try:
                d = determinant(M)
            except NilcoError as exc:
                violations.append(f"coset action {idx}: {exc}")
                continue
            if d not in (1, -1):
                violations.append(
                    f"coset action {idx}: level {i + 1} determinant {d} is not +-1"
                )
        try:
            cover.element(act.translation.coordinates)
        except NilcoError as exc:
            violations.append(f"coset action {idx}: bad translation part: {exc}")
    for idx, (fi, gi) in enumerate(infra.map_images):
        try:
            target.element(fi.coordinates)
            target.element(gi.coordinates)
        except NilcoError as exc:
            violations.append(f"map images {idx}: {exc}")
    return violations


def require_valid_infra(infra, target):
    violations = validate_infra(infra, target)
    if violations:
        raise ShapeError("invalid infra data: " + "; ".join(violations))


def infra_movers(infra, cover_action):
    """Mover pairs of the infra pair: the cover generator images (phi(s), psi(s))
    of `cover_action` = TwistedAction.from_homs(phi, psi), followed by the
    holonomy pairs (f(x), g(x)) of the coset representatives."""
    return cover_action.movers + infra.map_images


def decide_infra(infra, phi, psi, action=None):
    """Coincidence report for the infra-nilmanifold pair itself.

    Returns (cover_report, report).  When the cover count is finite and the
    target has class > 2, the orbit engine is unavailable and the report
    carries count bounds with exact=False instead.  A caller that already
    holds `TwistedAction.from_homs(phi, psi)` passes it as `action`.
    """
    require_valid_infra(infra, phi.target)
    if phi.source != infra.cover or psi.source != infra.cover:
        raise ShapeError("lifted homomorphisms must be defined on the cover lattice")
    cover_action = action if action is not None else TwistedAction.from_homs(phi, psi)
    cover_report = coincidence_invariants(phi, psi, reps_limit=None, action=cover_action)
    if cover_report.R.status == INFINITE:
        report = CoincidenceReport(
            R=cover_report.R, N=0, deformable=YES, rationale=INFTY_THM
        )
        return cover_report, report

    if phi.target.class_c > 2:
        r_cover = cover_report.R.count
        bounds = (ceil(r_cover / max(infra.holonomy_order, 1)), r_cover)
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

    action = TwistedAction(target=phi.target, movers=infra_movers(infra, cover_action))
    R = TwistedOrbitEngine(action).result(reps_limit=1024)
    report = CoincidenceReport(R=R, N=R.count, deformable=NO, rationale=EQ_THM)
    return cover_report, report
