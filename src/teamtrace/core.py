"""Shared domain types and rules: the grid, teams, skill tiers, match
phases and the ten-player lineup.

Everything in this module is immutable and safe to share across worker
processes.
"""
from __future__ import annotations

import math
from enum import Enum

GRID_SIZE = 128

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


def phase_of(t: float) -> Phase:
    """Map a match time in seconds to its phase.

    Boundaries are half-open: t=900 is Mid, t=1800 is Late.
    """
    if t < 0:
        raise ValueError(f"match time must be non-negative, got {t}")
    if t < MID_PHASE_START_S:
        return Phase.EARLY
    if t < LATE_PHASE_START_S:
        return Phase.MID
    return Phase.LATE


def phase_window(phase: Phase) -> tuple[int, float]:
    """Half-open [start, end) second interval covered by a phase."""
    if phase is Phase.EARLY:
        return 0, MID_PHASE_START_S
    if phase is Phase.MID:
        return MID_PHASE_START_S, LATE_PHASE_START_S
    return LATE_PHASE_START_S, math.inf


def tier_of_mmr(mmr: float) -> SkillTier:
    """Classify a matchmaking rating into a rated skill tier.

    Intervals are half-open upward: [2000,3000) Normal, [3000,4000) High,
    [4000,inf) VeryHigh. Professional is never returned; it comes from
    tournament provenance, not from a rating.
    """
    if mmr < 2000:
        raise ValueError(f"MMR {mmr} is below the studied brackets (>= 2000)")
    if mmr < 3000:
        return SkillTier.NORMAL
    if mmr < 4000:
        return SkillTier.HIGH
    return SkillTier.VERY_HIGH


def check_lineup(teams) -> None:
    """Raise ValueError unless ``teams`` (one Team per player slot) is a
    full match lineup: ten players, five per side."""
    if len(teams) != 10:
        raise ValueError(f"a match has 10 players, got {len(teams)}")
    for side in Team:
        n = sum(1 for team in teams if team is side)
        if n != 5:
            raise ValueError(f"expected 5 players for {side}, got {n}")
