"""Infra-nilmanifold domains via a regular finite nil-cover.

The pair is lifted to the cover; an infinite cover count settles the
question outright, and a finite one is refined by merging cover-level
classes under the holonomy coset moves u -> g(x) * u * f(x)^{-1} with
the oracle's list-based union-find on canonical label indices.
"""

from dataclasses import dataclass
from math import ceil

from .errors import NilcoError, ShapeError, UnsupportedClassError
from .intmat import determinant
from .lattice import NilpotentLattice
from .oracle import union_roots
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


def validate_infra(infra, target=None):
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
    if target is not None:
        for idx, (fi, gi) in enumerate(infra.map_images):
            try:
                target.element(fi.coordinates)
                target.element(gi.coordinates)
            except NilcoError as exc:
                violations.append(f"map images {idx}: {exc}")
    return violations


def require_valid_infra(infra, target=None):
    violations = validate_infra(infra, target=target)
    if violations:
        raise ShapeError("invalid infra data: " + "; ".join(violations))


def lift_pair(infra, phi, psi):
    """Coincidence report for the lifted pair on the nil-cover."""
    if phi.source != infra.cover or psi.source != infra.cover:
        raise ShapeError("lifted homomorphisms must be defined on the cover lattice")
    return coincidence_invariants(phi, psi)


def decide_infra(infra, phi, psi, reps_limit=100000):
    """Coincidence report for the infra-nilmanifold pair itself.

    Returns (cover_report, report).  When the cover count is finite and the
    target has class > 2, exact merging is unavailable and the report
    carries count bounds with exact=False instead.
    """
    require_valid_infra(infra, target=phi.target)
    cover_report = lift_pair(infra, phi, psi)
    if cover_report.R.status == INFINITE:
        report = CoincidenceReport(
            R=cover_report.R, N=0, deformable=YES, rationale=INFTY_THM
        )
        return cover_report, report

    holonomy = max(infra.holonomy_order, 1)
    if phi.target.class_c > 2:
        r_cover = cover_report.R.count
        bounds = (ceil(r_cover / holonomy), r_cover)
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

    engine = TwistedOrbitEngine(TwistedAction.from_homs(phi, psi))
    cover_result = engine.result(reps_limit=reps_limit)
    if cover_result.reps is None:
        raise NilcoError(
            f"cover class set too large to merge (limit {reps_limit})"
        )
    labels = list(cover_result.reps)
    index = {lab.coordinates: i for i, lab in enumerate(labels)}
    target = phi.target

    def moved_indices(f_img, g_img):
        g_elem = target.element(g_img.coordinates)
        f_inv = target.inverse(target.element(f_img.coordinates))
        moved = (target.multiply(target.multiply(g_elem, lab), f_inv) for lab in labels)
        return [index[engine.label(u)[0].coordinates] for u in moved]

    roots = union_roots(len(labels), (moved_indices(f, g) for f, g in infra.map_images))
    rep_elements = tuple(lab for i, lab in enumerate(labels) if roots[i] == i)
    merged = len(rep_elements)

    report = CoincidenceReport(
        R=ReidemeisterResult(
            status=FINITE,
            count=merged,
            level_counts=(merged,),
            reps=rep_elements,
        ),
        N=merged,
        deformable=NO,
        rationale=EQ_THM,
    )
    return cover_report, report
