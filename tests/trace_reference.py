"""Per-member reference for the picking trace's member rows.

:func:`reference_render_turns` is :func:`groupfair.protocols._render_turns`
as it was before the trace text read one row per run of
:attr:`groupfair.model.Instance.runs`: it makes one row per member of the
acting group, from that member's own state, and merges equal adjacent rows.
The property tests in ``test_member_runs.py`` hold the per-run text to it.
"""

from __future__ import annotations

import functools
import itertools

from groupfair.model import Bundle, Instance, _set_bits
from groupfair.protocols import _fmt_weight


def reference_render_turns(trace, inst: Instance, out: list):
    weight_of = functools.cache(_fmt_weight)

    @functools.cache
    def labels_of(live: int) -> str:
        return ",".join(inst.labels(_set_bits(live)))

    for rec in trace.turns:
        out.append(
            f"Turn #{rec.turn}: Group {rec.group + 1}'s turn to pick a good"
            f" from {inst.labels(rec.remaining)}:"
        )
        out.append("Calculating member weights:")
        out.append(
            "".ljust(12) + "Desired set".ljust(12) + "r".ljust(3)
            + "s".ljust(3) + "weight".ljust(9)
        )
        remaining_mask = Bundle.from_indices(rec.remaining, inst.m).mask
        rows = [
            (labels_of(agent.valuation.desired.mask & remaining_mask), r, s, weight_of(w))
            for agent, (r, s, w) in zip(inst.groups[rec.group], rec.member_states)
        ]
        for (labels, r, s, w), run in itertools.groupby(rows):
            count = sum(1 for _ in run)
            label = f"{count} member" + ("s" if count != 1 else "")
            out.append(
                label.ljust(12) + labels.ljust(12) + str(r).ljust(3)
                + str(s).ljust(3) + w.ljust(9)
            )
        out.append("Calculating remaining good weights:")
        out.append("".ljust(6) + "Weight".ljust(9))
        for good, w in rec.good_weights:
            out.append(inst.goods[good].ljust(6) + weight_of(w).ljust(9))
        out.append(f"Group {rec.group + 1} picks {inst.goods[rec.pick]}")
        out.append("")
