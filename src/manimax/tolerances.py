"""Numerical tolerances shared by the geometry layer.

Every invariant check in :mod:`manimax.manifolds` reads its threshold from a
ToleranceProfile, so callers that need looser or tighter checking construct a
manifold with a custom profile instead of patching constants.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceProfile:
    """Thresholds for point/tangent validation and geometric edge cases.

    Attributes
    ----------
    base_match:
        Absolute elementwise tolerance when two tangents must share a base
        point, and when an operation checks that a tangent is rooted at the
        point it was handed.
    sphere_point_rel:
        Relative tolerance on | ||x|| - r | for sphere membership.
    sphere_tangent_rel:
        |<x, u>| <= tol * r * ||u|| for sphere tangency.
    stiefel_orth:
        Frobenius tolerance on ||X^T X - I||.
    stiefel_tangent:
        Frobenius tolerance on ||X^T U + U^T X||.
    spd_symmetry:
        Entrywise symmetry tolerance, scaled by max(1, max|entry|).
    degenerate_norm:
        Below this norm the sphere retraction input x + u (or a QR pivot)
        counts as collapsed and raises DegenerateRetraction.
    antipodal_margin:
        The sphere log raises AntipodalPoints when <x,y>/r^2 <= -1 + margin.
    eig_floor_rel:
        SPD matrix functions clamp eigenvalues below eig_floor_rel * lambda_max
        before inverting or taking logs.
    """

    base_match: float = 1e-12
    sphere_point_rel: float = 1e-10
    sphere_tangent_rel: float = 1e-10
    stiefel_orth: float = 1e-10
    stiefel_tangent: float = 1e-10
    spd_symmetry: float = 1e-12
    degenerate_norm: float = 1e-14
    antipodal_margin: float = 1e-10
    eig_floor_rel: float = 1e-14


DEFAULT_TOLERANCES = ToleranceProfile()
