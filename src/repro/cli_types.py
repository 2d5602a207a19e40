"""``argparse`` types shared by the sub-commands: a value the parser
refuses exits 2 with the flag's name, before any config is built."""

from __future__ import annotations

import argparse
import math

__all__ = ["positive_int", "non_negative_int", "positive_float", "port"]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def port(text: str) -> int:
    """A TCP port, 0-65535 (0 lets the system pick one)."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0-65535, got {value}")
    return value
