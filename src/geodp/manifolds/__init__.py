"""Concrete manifolds and curvature coefficient helpers."""

from __future__ import annotations

from ..errors import ConfigError
from ..geometry import Manifold
from .curvature import c_coeff, s_coeff
from .kendall import KendallPreshape
from .sphere import Sphere
from .spd import SPD

__all__ = [
    "Sphere",
    "SPD",
    "KendallPreshape",
    "c_coeff",
    "s_coeff",
    "manifold_from_spec",
]


def manifold_from_spec(spec: dict) -> Manifold:
    """Build a manifold from its JSON identity block."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"manifold spec must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]
    extra = set(spec) - {"kind", "landmarks"}
    if extra:
        raise ConfigError(f"unknown manifold spec keys: {sorted(extra)}")
    if kind == "sphere":
        return Sphere()
    if kind == "spd":
        return SPD()
    if kind == "kendall":
        if "landmarks" not in spec:
            raise ConfigError("kendall manifold spec requires 'landmarks'")
        return KendallPreshape(spec["landmarks"])
    raise ConfigError(f"unknown manifold kind {kind!r}")
