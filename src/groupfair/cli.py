"""Command-line interface: run protocols, check fairness, brute-force
optima, print weight tables, and generate adversarial instances.

Machine output is deterministic JSON (same argv + files + seed produce
byte-identical bytes); ``--trace`` renders the step-by-step audit trail of
a protocol run in a stable plain-text layout.

Exit codes: 0 success, 2 validation/usage error, 3 enumeration, table,
member or wanted-goods cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import itertools
import json
import sys
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

from .budgets import B, C, KGroupWeights, maxh, w
from .errors import CapExceededError, FormatError
from .model import (
    DEFAULT_CAP,
    Instance,
    allocation_doc,
    binarize_instance,
    bundles_of,
    parse_allocation,
    parse_instance,
    parse_rational,
    rational_doc,
    serialize_instance,
)

__all__ = ["main"]


def _lazy_submodule(name: str):
    """``groupfair.<name>``, registered in ``sys.modules`` and on the
    package as an import would, but compiled and run only on its first
    attribute access, so each command loads only the modules it uses.

    Python 3.11's lazy loader is not thread-safe: every command touches its
    modules on the main thread before any thread pool starts.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


fairness = _lazy_submodule("fairness")
protocols = _lazy_submodule("protocols")
oracles = _lazy_submodule("oracles")

_FIXED_CRITERION = {
    "line2": "EF1 (built in)",
    "linek": "PROP-(k-1) (built in)",
    "local-search": "1-of-best-2 (built in)",
    "best-k": "1-of-best-k (built in)",
}


#: Most cells ``(rmax + 1) * (smax + 1)`` a ``table`` grid may have.
MAX_TABLE_CELLS = 20_000
#: Largest ``--rmax`` for ``--which Bk`` and ``maxh``.  The float ``Bk``
#: overflows past ``r = 1023`` at ``k = 2``; a ``maxh`` cell sums up to ``s``
#: ints of ``r * log2(k)`` bits, and is 0 without a sum unless ``k <= r``.
MAX_TABLE_RMAX = 300
#: Most threads ``brute --workers`` may ask for: ``max_h`` can start one per
#: block of the allocation space, which is thousands at a large ``--cap``.
MAX_WORKERS = 64


class _CliError(Exception):
    """Validation failure -> exit 2."""


# ---------------------------------------------------------------------------
# formatting helpers


def _fmt_weight(x) -> str:
    x = float(x)
    return "0" if x == 0 else str(x)


def _fmt_cell(x) -> str:
    """Three-decimal table cell (half-up), integers printed bare."""
    f = Fraction(repr(x)) if isinstance(x, float) else Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    d = Decimal(f.numerator) / Decimal(f.denominator)
    return str(d.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _bundle_text(inst: Instance, bundle) -> str:
    labels = inst.labels(bundle)
    if not labels:
        return "set()"
    return "{" + ", ".join(repr(lab) for lab in labels) + "}"


def _guarantee_doc(x):
    if isinstance(x, float):
        return x
    return rational_doc(Fraction(x))


# ---------------------------------------------------------------------------
# trace renderers


def _render_turns(trace, inst: Instance, out: list):
    # each live mask's labels and each weight's text, made once per render
    weight_of = functools.cache(_fmt_weight)

    @functools.cache
    def labels_of(live: int) -> str:
        names = []
        while live:
            bit = live & -live
            names.append(inst.goods[bit.bit_length() - 1])
            live ^= bit
        return ",".join(names)

    for rec in trace.turns:
        remaining = [inst.goods[i] for i in rec.remaining]
        out.append(
            f"Turn #{rec.turn}: Group {rec.group + 1}'s turn to pick a good"
            f" from {remaining}:"
        )
        out.append("Calculating member weights:")
        out.append(
            "".ljust(12) + "Desired set".ljust(12) + "r".ljust(3)
            + "s".ljust(3) + "weight".ljust(9)
        )
        remaining_mask = 0
        for i in rec.remaining:
            remaining_mask |= 1 << i
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


def _render_final(result, inst: Instance, out: list, order=None):
    out.append("Final allocation:")
    bundles = bundles_of(result.allocation)
    report = result.report
    for g in order if order is not None else range(inst.k):
        out.append(
            f" *  Group {g + 1}: allocated bundle = "
            f"{_bundle_text(inst, bundles[g])}, happy members = "
            f"{report.happy[g]}/{report.sizes[g]}"
        )


def _render_line(trace, inst: Instance, out: list):
    for rec in trace.records:
        left = [inst.goods[i] for i in rec.left]
        right = [inst.goods[i] for i in rec.right]
        out.append(f"Current partition:  {left} | {right}:")
        for g, yes, size in rec.counts:
            out.append(
                f"   Group {g + 1}: {yes}/{size} members think the left"
                f" bundle is {trace.criterion_label}"
            )
        if rec.claimed_by is not None:
            out.append(f"   Group {rec.claimed_by + 1} gets the left bundle")
    out.append(
        f"   Group {trace.remainder_group + 1} gets the remaining bundle"
    )
    out.append("")


def _render_trace(result, inst: Instance) -> str:
    out: list = []
    trace = result.trace
    order = None
    if isinstance(trace, protocols.ProtocolTrace):
        _render_turns(trace, inst, out)
        if inst.k == 2 and trace.turns:
            first = trace.turns[0].group
            order = [first, 1 - first]
    elif isinstance(trace, protocols.LineTrace):
        _render_line(trace, inst, out)
    elif isinstance(trace, protocols.SearchTrace):
        for i, mv in enumerate(trace.moves, 1):
            out.append(
                f"Move #{i}: good {inst.goods[mv.good]} moves from Group"
                f" {mv.from_group + 1} to Group {mv.to_group + 1}"
            )
        out.append("")
    elif isinstance(trace, protocols.EnhancedSplit):
        out.append(
            f"Group {trace.group + 1} takes its commonly-desired good"
            f" {inst.goods[trace.good]}"
            f" ({trace.desiring}/{trace.counted} counted members want it)"
        )
        out.append(f"All remaining goods go to Group {2 - trace.group}")
        out.append("")
    elif isinstance(trace, protocols.BestKTrace):
        for i, step in enumerate(trace.steps, 1):
            out.append(
                f"Step #{i}: Group {step.group + 1} takes good"
                f" {inst.goods[step.good]} ({step.desiring}/{step.size}"
                f" members want it)"
            )
        if trace.base is not None:
            groups = ", ".join(str(g + 1) for g in trace.base_groups)
            goods = [inst.goods[i] for i in trace.base_goods]
            out.append(
                f"Remaining groups {groups} split the remaining goods"
                f" {goods} with {trace.base.protocol}"
            )
            renum = ", ".join(
                f"sub-group {i + 1} = group {g + 1}"
                for i, g in enumerate(trace.base_groups)
            )
            out.append(f"(sub-run groups renumbered: {renum})")
            out.append("")
            sub = _render_trace(trace.base, trace.base_instance)
            out.append(sub.rstrip("\n"))
            out.append("")
        else:
            out.append("")
    _render_final(result, inst, out, order)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# table rendering


def _grid(title: str, rmax: int, smax: int, cell) -> str:
    lines = [title, ""]
    header = "r\\s".ljust(5)
    for s in range(smax + 1):
        header += str(s).ljust(7)
    lines.append(header.rstrip())
    for r in range(rmax + 1):
        row = str(r).ljust(5)
        for s in range(smax + 1):
            row += _fmt_cell(cell(r, s)).ljust(7)
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def _render_table(which: str, rmax: int, smax: int, k: int) -> str:
    if which in ("B", "w", "C"):
        cells = {"B": B, "w": w, "C": C}
        return "\n".join(
            _grid(f"{name}(r,s) for r = 0..{rmax}, s = 0..{smax}", rmax, smax,
                  cells[name])
            for name in (("B", "w") if which == "B" else (which,))
        )
    if which == "Bk":
        kw = KGroupWeights(k)
        lines = [f"B_k(r,1) and w_k(r,1) for k = {k}", ""]
        lines.append("r".ljust(5) + "B(r,1)".ljust(9) + "w(r,1)".ljust(9))
        for r in range(rmax + 1):
            lines.append(
                str(r).ljust(5) + _fmt_cell(kw.B(r, 1)).ljust(9)
                + _fmt_cell(kw.w(r, 1)).ljust(9)
            )
        return "\n".join(line.rstrip() for line in lines) + "\n"
    if which == "maxh":

        def cell(r, s):
            if s == 0:
                return Fraction(1)
            if r < s:
                return Fraction(0)
            return maxh(r, s, k)

        return _grid(
            f"MaxH(r,s) for k = {k}, r = 0..{rmax}, s = 0..{smax}",
            rmax, smax, cell,
        )
    raise _CliError(f"unknown table {which!r}")


# ---------------------------------------------------------------------------
# command handlers


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None


def _emit(text: str, out_path):
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    inst = parse_instance(_read(args.instance))
    name = args.protocol
    if name in _FIXED_CRITERION and args.criterion:
        raise _CliError(
            f"{name} decides its own criterion, {_FIXED_CRITERION[name]};"
            " drop --criterion"
        )
    if name not in ("rwav2",) and args.first_group is not None:
        raise _CliError("--first-group applies to rwav2 only")
    if name != "cwav2" and args.seed is not None:
        raise _CliError("--seed applies to cwav2 only")

    crits = None
    best_c = None
    if name in ("rwav2", "cwav2"):
        if not args.criterion:
            raise _CliError(f"{name} needs --criterion")
        crits = fairness.parse_criteria(args.criterion, inst.k)
    elif name in ("rwav2-enhanced", "rwavk"):
        if name == "rwavk" and not args.criterion:
            raise _CliError("rwavk needs --criterion 1-of-best-c")
        if args.criterion:
            crit = fairness.parse_criterion(args.criterion)
            if not isinstance(crit, fairness.OneOfBestC):
                raise _CliError(f"{name} needs a 1-of-best-c criterion")
            best_c = crit.c
        else:
            best_c = 2

    if args.binarize:
        if name in ("line2", "linek", "best-k"):
            raise _CliError(f"--binarize does not apply to {name}")
        if best_c is not None:
            c = best_c
        elif name == "local-search":
            c = 2
        elif (
            crits
            and all(isinstance(cr, fairness.OneOfBestC) for cr in crits)
            and len({cr.c for cr in crits}) == 1
        ):
            c = crits[0].c
        else:
            raise _CliError(
                "--binarize needs a single 1-of-best-c criterion to pick"
                " the c best goods"
            )
        inst = binarize_instance(inst, c)

    if name == "rwav2":
        first = (args.first_group or 1) - 1
        result = protocols.rwav2(inst, crits, first_group=first)
    elif name == "cwav2":
        if args.seed is None:
            raise _CliError("cwav2 needs --seed")
        result = protocols.cwav2(inst, crits, seed=args.seed)
    elif name == "rwav2-enhanced":
        result = protocols.rwav2_enhanced(inst, c=best_c)
    elif name == "rwavk":
        result = protocols.rwavk(inst, c=best_c)
    elif name == "local-search":
        result = protocols.identical_local_search(inst)
    elif name == "line2":
        result = protocols.line2(inst)
    elif name == "linek":
        result = protocols.linek(inst)
    elif name == "best-k":
        result = protocols.best_k_protocol(inst)
    else:  # pragma: no cover - argparse choices guard this
        raise _CliError(f"unknown protocol {name!r}")

    doc = {"protocol": result.protocol,
           "criteria": [c.name for c in result.criteria]}
    if name == "rwav2":
        doc["first_group"] = args.first_group or 1
    if name == "cwav2":
        doc["seed"] = args.seed
    doc["allocation"] = allocation_doc(result.allocation, inst)
    doc.update(result.report.to_doc())
    doc["guarantees"] = [_guarantee_doc(x) for x in result.guarantees]
    if result.expected_guarantees is not None:
        doc["expected_guarantees"] = [
            _guarantee_doc(x) for x in result.expected_guarantees
        ]
    machine = json.dumps(doc, indent=2) + "\n"
    if args.out or not args.trace:  # with --trace, the document needs --out
        _emit(machine, args.out)
    if args.trace:
        sys.stdout.write(_render_trace(result, inst))
    return 0


def _cmd_check(args) -> int:
    inst = parse_instance(_read(args.instance))
    alloc = parse_allocation(_read(args.allocation), inst)
    crits = fairness.parse_criteria(args.criterion, inst.k)
    report = fairness.democratic_report(inst, alloc, crits)
    doc = {
        "criteria": [c.name for c in crits],
        "allocation": allocation_doc(alloc, inst),
    }
    doc.update(report.to_doc())
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_brute(args) -> int:
    if args.workers < 1:
        raise _CliError("--workers must be at least 1")
    if args.workers > MAX_WORKERS:
        raise _CliError(f"--workers must be at most {MAX_WORKERS}")
    if args.cap < 1:
        raise _CliError("--cap must be at least 1")
    if args.spec:
        spec = oracles.parse_spec(args.spec)
        oracles.check_space(spec, args.cap)
        inst = oracles.generate(spec)
        source = {"spec": oracles.spec_name(spec)}
    else:
        inst = parse_instance(_read(args.instance))
        source = {"instance": args.instance}
    crits = fairness.parse_criteria(args.criterion, inst.k)
    doc = dict(source)
    doc["criteria"] = [c.name for c in crits]
    if args.h is not None:
        target = parse_rational(args.h)
        res = oracles.exists_h(inst, crits, target, cap=args.cap)
        doc["h"] = rational_doc(target)
        doc["found"] = res.found
        doc["witness"] = (
            allocation_doc(res.witness, inst) if res.witness is not None else None
        )
        doc["allocations_examined"] = res.allocations_examined
    else:
        res = oracles.max_h(inst, crits, cap=args.cap, workers=args.workers)
        doc["best_h"] = rational_doc(res.best_h)
        doc["witness"] = allocation_doc(res.witness, inst)
        doc["allocations_examined"] = res.allocations_examined
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_table(args) -> int:
    if args.rmax < 0 or args.smax < 0:
        raise _CliError("--rmax and --smax must be nonnegative")
    if args.k < 2:
        raise _CliError("--k must be at least 2")
    cells = (args.rmax + 1) * (args.smax + 1)
    if args.which != "Bk" and cells > MAX_TABLE_CELLS:
        raise CapExceededError(
            f"table of {cells} cells exceeds the cap of {MAX_TABLE_CELLS}"
        )
    if args.which in ("Bk", "maxh") and args.rmax > MAX_TABLE_RMAX:
        raise CapExceededError(
            f"--rmax {args.rmax} exceeds the cap of {MAX_TABLE_RMAX}"
            f" for --which {args.which}"
        )
    _emit(_render_table(args.which, args.rmax, args.smax, args.k), args.out)
    return 0


def _cmd_gen(args) -> int:
    spec = oracles.parse_spec(args.spec)
    inst = oracles.generate(spec)
    _emit(serialize_instance(inst) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupfair",
        description="Democratically fair allocation of indivisible goods"
        " among groups: protocols, checkers, exact tables, and brute-force"
        " oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an allocation protocol")
    run.add_argument(
        "--protocol",
        required=True,
        choices=[
            "rwav2", "rwav2-enhanced", "cwav2", "local-search",
            "line2", "linek", "rwavk", "best-k",
        ],
    )
    run.add_argument("--instance", required=True, help="instance JSON path")
    run.add_argument(
        "--criterion",
        help="fairness criterion; comma-separated list for per-group targets",
    )
    run.add_argument(
        "--first-group", type=int, choices=(1, 2), default=None,
        help="which group picks first in rwav2 (default 1)",
    )
    run.add_argument("--seed", type=int, help="coin seed for cwav2")
    run.add_argument(
        "--trace", action="store_true",
        help="print the step-by-step audit trail instead of JSON",
    )
    run.add_argument(
        "--binarize", action="store_true",
        help="convert agents to binary over their c best goods first"
        " (c from the 1-of-best-c criterion)",
    )
    run.add_argument("--out", help="write the machine document here")
    run.set_defaults(handler=_cmd_run)

    check = sub.add_parser("check", help="check an allocation against a criterion")
    check.add_argument("--instance", required=True)
    check.add_argument("--allocation", required=True)
    check.add_argument("--criterion", required=True)
    check.add_argument("--out")
    check.set_defaults(handler=_cmd_check)

    brute = sub.add_parser(
        "brute", help="exhaustively maximize the democratic fraction"
    )
    src = brute.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", help="instance JSON path")
    src.add_argument("--spec", help="generator spec, e.g. circle:k=3")
    brute.add_argument("--criterion", required=True)
    brute.add_argument(
        "--h", help="decision mode: is some allocation h-democratic fair?"
    )
    brute.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="allocation-space cap (default 2^24)")
    brute.add_argument("--workers", type=int, default=1,
                       help="threads that score chunks (max-h mode only)")
    brute.add_argument("--out")
    brute.set_defaults(handler=_cmd_brute)

    table = sub.add_parser("table", help="print budget/weight tables")
    table.add_argument(
        "--which", required=True, choices=["B", "w", "C", "Bk", "maxh"]
    )
    table.add_argument("--rmax", type=int, default=10)
    table.add_argument("--smax", type=int, default=6)
    table.add_argument("--k", type=int, default=2)
    table.add_argument("--out")
    table.set_defaults(handler=_cmd_table)

    gen = sub.add_parser("gen", help="generate an adversarial instance")
    gen.add_argument("--spec", required=True)
    gen.add_argument("--out")
    gen.set_defaults(handler=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; keep main() returning
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (_CliError, FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
