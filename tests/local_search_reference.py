"""Per-member reference for :func:`groupfair.protocols.identical_local_search`.

This is the search as it ran before it counted members by run of
:attr:`groupfair.model.Instance.runs`: the identity check sorts each
group's per-member desired masks, and every count walks each member's pair
of goods.  The property test in ``test_protocols.py`` requires the run
counts to make the same moves and end in the same bundles.
"""

from __future__ import annotations

from groupfair.model import Instance, binarize_instance
from groupfair.protocols import MoveRecord, ProtocolInvariantError


def _masks(inst: Instance) -> list:
    return [[agent.valuation.desired.mask for agent in grp] for grp in inst.groups]


def reference_local_search(inst: Instance) -> tuple:
    """``(bundle masks, moves)`` of the local search on two binary groups;
    ``ValueError`` when their desired-set multisets differ."""
    full_masks = _masks(inst)
    if sorted(full_masks[0]) != sorted(full_masks[1]):
        raise ValueError("groups are not identical (desired-set multisets differ)")
    # each member's two goods, 0 for the exempt
    pairs = [[mask if mask.bit_count() == 2 else 0 for mask in grp]
             for grp in _masks(binarize_instance(inst, 2))]
    own = [0, (1 << inst.m) - 1]

    def wanting_with_util(g: int, good: int, u: int) -> int:
        return sum(1 for pair in pairs[g]
                   if pair >> good & 1 and (pair & own[g]).bit_count() == u)

    max_moves = sum(1 for grp in pairs for pair in grp if pair) // 2
    moves = []
    while True:
        for good in range(inst.m):
            bit = 1 << good
            held = 0 if own[0] & bit else 1
            if wanting_with_util(1 - held, good, 0) > wanting_with_util(held, good, 1):
                own[held] &= ~bit
                own[1 - held] |= bit
                moves.append(MoveRecord(good, held, 1 - held))
                break
        else:
            break
        if len(moves) > max_moves:
            raise ProtocolInvariantError(f"local search exceeded {max_moves} moves")
    return tuple(own), tuple(moves)
