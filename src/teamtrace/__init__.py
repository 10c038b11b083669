"""Spatio-temporal team behavior analytics for MOBA-style match telemetry.

Decodes DTL2 tick streams into 1 Hz player tracks, classifies positions
into terrain zones, and computes dwell-filtered zone-change rates,
intra-team distance series and permutation-distribution time-series
clustering, with one-way ANOVA and silhouette diagnostics plus a seeded
synthetic match generator for end-to-end verification.
"""

__version__ = "0.1.0"

from .core import (
    Phase,
    SkillTier,
    Team,
)
from .zonemap import ZoneLabel, ZoneMap, load_zone_map

__all__ = [
    "Phase",
    "SkillTier",
    "Team",
    "ZoneLabel",
    "ZoneMap",
    "load_zone_map",
    "__version__",
]
