"""Shared domain types and rules: the grid, teams, skill tiers, match
outcomes and phases, the ten-player lineup and the run defaults.

Everything in this module is immutable.
"""
from __future__ import annotations

import math
from enum import Enum

GRID_SIZE = 128
TEAM_SIZE = 5
PLAYER_COUNT = 2 * TEAM_SIZE

# Longest match a track array is built for, in seconds (one day): a 1 Hz
# resample allocates per second, so a longer claimed duration is rejected.
MAX_DURATION_S = 86_400
# Most matches synth plans per regime; it writes each stream as it makes it
# and holds one metadata row per match.
MAX_SYNTH_MATCHES = 10_000

# Defaults of the reference analysis configuration.
DEFAULT_MIN_DWELL_S = 5
DEFAULT_CLUSTER_COUNT = 3
DEFAULT_MEMBERSHIP_EXPONENT = 1.15
DEFAULT_EMBED_DIM = 5
# Embedding dimensions the ordinal-pattern kernel supports (m! patterns).
MIN_EMBED_DIM = 2
MAX_EMBED_DIM = 7

# Match phase boundaries, half-open: [0, 900) early, [900, 1800) mid,
# [1800, inf) late.
MID_PHASE_START_S = 900
LATE_PHASE_START_S = 1800


class Team(Enum):
    RADIANT = 0
    DIRE = 1

    def __str__(self) -> str:
        return "Radiant" if self is Team.RADIANT else "Dire"

    @classmethod
    def parse(cls, text: str) -> "Team":
        try:
            return {"radiant": cls.RADIANT, "dire": cls.DIRE}[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown team name: {text!r}") from None


class SkillTier(Enum):
    NORMAL = "Normal"
    HIGH = "High"
    VERY_HIGH = "VeryHigh"
    PROFESSIONAL = "Professional"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "SkillTier":
        for tier in cls:
            if tier.value.lower() == text.strip().lower():
                return tier
        raise ValueError(f"unknown skill tier: {text!r}")


class Phase(Enum):
    EARLY = "Early"
    MID = "Mid"
    LATE = "Late"

    def __str__(self) -> str:
        return self.value


def outcome(won: bool) -> str:
    """The word reports write for a team's result."""
    return "win" if won else "loss"


def phase_window(phase: Phase) -> tuple[int, float]:
    """Half-open [start, end) second interval covered by a phase."""
    if phase is Phase.EARLY:
        return 0, MID_PHASE_START_S
    if phase is Phase.MID:
        return MID_PHASE_START_S, LATE_PHASE_START_S
    return LATE_PHASE_START_S, math.inf


def check_lineup(teams) -> None:
    """Raise ValueError unless ``teams`` (one Team per player slot) is a
    full match lineup: PLAYER_COUNT players, TEAM_SIZE per side."""
    if len(teams) != PLAYER_COUNT:
        raise ValueError(f"a match has {PLAYER_COUNT} players, got {len(teams)}")
    for side in Team:
        n = sum(1 for team in teams if team is side)
        if n != TEAM_SIZE:
            raise ValueError(f"expected {TEAM_SIZE} players for {side}, got {n}")
