"""Seeded input generator for the benchmark.

Every document is built from its own ``random.Random`` stream, seeded by
the workload seed and the file's name, so adding or resizing one input
never changes another.  Only ``Random.random`` is used: its output is
fixed across Python versions and platforms, which makes the same seed give
byte-identical files anywhere.
"""

from __future__ import annotations

import json
import random


def rng_for(seed: int, name: str) -> random.Random:
    """The independent random stream of one named input."""
    return random.Random(f"{seed}:{name}")


def goods(m: int) -> list:
    return [f"g{i + 1}" for i in range(m)]


def _below(rng: random.Random, n: int) -> int:
    return min(int(rng.random() * n), n - 1)


def _subset(rng: random.Random, labels: list, density: float) -> list:
    return [g for g in labels if rng.random() < density]


def binary_instance(rng: random.Random, k: int, m: int, n: int, density: float) -> dict:
    """``k`` groups of ``n`` binary agents; each wants each good with
    probability ``density``."""
    labels = goods(m)
    groups = [
        [{"type": "binary", "desired": _subset(rng, labels, density)} for _ in range(n)]
        for _ in range(k)
    ]
    return {"goods": labels, "groups": groups}


def identical_binary_instance(rng: random.Random, m: int, n: int, density: float) -> dict:
    """Two groups holding the same ``n`` binary agents (the precondition
    of the identical-groups local search)."""
    doc = binary_instance(rng, 1, m, n, density)
    doc["groups"] = doc["groups"] * 2
    return doc


def additive_instance(rng: random.Random, k: int, m: int, n: int, vmax: int) -> dict:
    """``k`` groups of ``n`` additive agents with integer values in
    ``1..vmax`` per good."""
    labels = goods(m)
    groups = [
        [
            {"type": "additive", "values": [1 + _below(rng, vmax) for _ in range(m)]}
            for _ in range(n)
        ]
        for _ in range(k)
    ]
    return {"goods": labels, "groups": groups}


def allocation(rng: random.Random, instance: dict) -> dict:
    """A uniformly random assignment of the instance's goods to its groups."""
    k = len(instance["groups"])
    bundles = [[] for _ in range(k)]
    for good in instance["goods"]:
        bundles[_below(rng, k)].append(good)
    return {"bundles": bundles}


def dump(doc: dict) -> str:
    """The on-disk form of a generated document."""
    return json.dumps(doc, indent=1) + "\n"
