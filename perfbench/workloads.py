"""Workload definitions: which CLI config each experiment kind runs with.

Every workload runs all five kinds, in the fixed order of ``KINDS``, so every
end-to-end metric exists on every workload. Each workload scales up the kinds
whose layers it is meant to stress and leaves the others at the shipped
defaults, where they act as controls that a change to the stressed layers
should not move. The reasons for each choice are in README.md.
"""

from __future__ import annotations

from typing import NamedTuple

KINDS = ("field", "gd", "ecm", "fim", "nn")

# Overrides merged into the shipped default config of each kind (a shallow
# merge, as ``load_config`` does it, so nested blocks are given whole).
EMPIRICAL_GD = {"gradient_source": "empirical", "n_samples": 10000, "steps": 100}
# Components 3 sigma apart: near the paper's overlapping truth (-5.1, -5.0)
# EM/ECM iteration counts at n = 10^4 have a heavy tail (up to ~9,000 and
# close to the 10,000-iteration budget); here 60 seeds took 215-283 EM and
# 18-23 ECM iterations.
LARGE_ECM = {"n_samples": 10000, "true_means": [-6.5, -3.5]}
SCALED_FIELD = {"grid": {"min": -2.0, "max": 2.0, "step": 0.05}}
LONG_GD = {"steps": 1000}
BIG_FIM = {"budget": 1000000}
WIDE_NN = {"sizes": [40, 40, 1]}


class Slot(NamedTuple):
    """One kind's place in a rotation: its config overrides, and how many
    runs it makes per rotation. Cheap control kinds repeat inside workloads
    whose scaled kinds take seconds, so their averages rest on more samples."""

    overrides: dict
    repeats: int = 1


WORKLOADS: dict[str, dict[str, Slot]] = {
    "sample_fits": {"field": Slot({}, 4), "gd": Slot(EMPIRICAL_GD), "ecm": Slot(LARGE_ECM),
                    "fim": Slot({}, 5), "nn": Slot({}, 20)},
    "scaled_grids": {"field": Slot(SCALED_FIELD), "gd": Slot(LONG_GD), "ecm": Slot({}, 5),
                     "fim": Slot(BIG_FIM), "nn": Slot(WIDE_NN)},
}


def seed_free(kind: str, overrides: dict) -> bool:
    """True when the run draws no random numbers, so its outputs can be
    compared with a stored reference at every seed."""
    return kind == "field" or (
        kind == "gd" and overrides.get("gradient_source", "expected") == "expected")


def config(kind: str, overrides: dict, seed: int | None) -> dict:
    """The YAML config handed to the CLI for one run; no seed keeps the
    kind's shipped default seed."""
    cfg = {"kind": kind, **overrides}
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def reference_key(kind: str, overrides: dict) -> str:
    """Name of the stored reference for a kind at the given overrides."""
    if not overrides:
        return f"{kind}@default"
    parts = []
    for key, value in sorted(overrides.items()):
        if isinstance(value, dict):
            value = ",".join(f"{k}={v}" for k, v in sorted(value.items()))
        elif isinstance(value, list):
            value = "x".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return f"{kind}@" + ";".join(parts)
