"""Command-line interface: run protocols, check fairness, brute-force
optima, print weight tables, and generate adversarial instances.

Machine output is deterministic JSON (same argv + files + seed produce
byte-identical bytes); ``--trace`` renders the step-by-step audit trail of
a protocol run in a stable plain-text layout.

Exit codes: 0 success, 2 validation/usage error, 3 enumeration, table,
member or wanted-goods cap exceeded.  A warning raised during a command
prints as one ``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import warnings
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

from .budgets import B, C, KGroupWeights, maxh, w
from .errors import CapExceededError, quoted

__all__ = ["main"]


def _lazy_submodule(name: str):
    """``groupfair.<name>``, registered in ``sys.modules`` and on the
    package as an import would, but compiled and run only on its first
    attribute access, so each command loads only the modules it uses.
    ``model``, ``fairness``, ``protocols`` and ``oracles`` come this way;
    the CLI imports only ``errors`` and ``budgets`` up front, and
    ``--help`` and ``table`` load nothing more.

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


model = _lazy_submodule("model")
fairness = _lazy_submodule("fairness")
protocols = _lazy_submodule("protocols")
oracles = _lazy_submodule("oracles")


def __getattr__(name: str):
    # ``cli.parse_instance`` was bound here while this module imported
    # ``model`` eagerly, and bench/test_bench.py still reads it; it resolves
    # through ``model`` on every read, so a wrapper set there shows here too
    if name == "parse_instance":
        return model.parse_instance
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: ``run --protocol``'s choices, in ``--help`` order.  Each row gives the
#: criterion the protocol fixes itself, or None when ``--criterion`` names
#: it (one 1-of-best-c criterion when the row has a ``c``, else one per
#: group); the ``c`` that ``--binarize`` falls back to; and the call, which
#: takes the instance and any of ``crits``, ``c`` and ``args`` by keyword.
_PROTOCOLS = {
    "rwav2": (None, None, lambda inst, crits, args, **_: protocols.rwav2(
        inst, crits, first_group=(args.first_group or 1) - 1)),
    "rwav2-enhanced": (None, 2, lambda inst, c, **_:
                       protocols.rwav2_enhanced(inst, c=c)),
    "cwav2": (None, None, lambda inst, crits, args, **_: protocols.cwav2(
        inst, crits, seed=args.seed)),
    "local-search": ("1-of-best-2 (built in)", 2,
                     lambda inst, **_: protocols.identical_local_search(inst)),
    "line2": ("EF1 (built in)", None, lambda inst, **_: protocols.line2(inst)),
    "linek": ("PROP-(k-1) (built in)", None, lambda inst, **_: protocols.linek(inst)),
    "rwavk": (None, 2, lambda inst, c, **_: protocols.rwavk(inst, c=c)),
    "best-k": ("1-of-best-k (built in)", None,
               lambda inst, **_: protocols.best_k_protocol(inst)),
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


# ---------------------------------------------------------------------------
# formatting helpers


def _fmt_cell(x) -> str:
    """Three-decimal table cell (half-up); an exact integer prints bare, a
    float never does, since it may be rounded."""
    if isinstance(x, float):
        f = Fraction(repr(x))
    elif (f := Fraction(x)).denominator == 1:
        return str(f.numerator)
    d = Decimal(f.numerator) / Decimal(f.denominator)
    return str(d.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _guarantee_doc(x):
    if isinstance(x, float):
        return x
    return model.rational_doc(Fraction(x))


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
            # B is 1 - 2**-(r/(k-1)), exact when k - 1 divides r; w is 0 at r = 0
            b = 1 - Fraction(1, 1 << r // (k - 1)) if r % (k - 1) == 0 else kw.B(r, 1)
            lines.append(
                str(r).ljust(5) + _fmt_cell(b).ljust(9)
                + _fmt_cell(kw.w(r, 1) if r else 0).ljust(9)
            )
        return "\n".join(line.rstrip() for line in lines) + "\n"
    return _grid(  # maxh, the last of the parser's choices
        f"MaxH(r,s) for k = {k}, r = 0..{rmax}, s = 0..{smax}",
        rmax, smax, lambda r, s: maxh(r, s, k),
    )


# ---------------------------------------------------------------------------
# command handlers


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _emit(text: str, out_path):
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    inst = model.parse_instance(_read(args.instance))
    name = args.protocol
    fixed, c, call = _PROTOCOLS[name]
    if fixed and args.criterion:
        raise ValueError(
            f"{name} decides its own criterion, {fixed}; drop --criterion"
        )
    if name != "rwav2" and args.first_group is not None:
        raise ValueError("--first-group applies to rwav2 only")
    if name != "cwav2" and args.seed is not None:
        raise ValueError("--seed applies to cwav2 only")

    crits = None
    if fixed is None and c is None:  # per-group criteria
        if not args.criterion:
            raise ValueError(f"{name} needs --criterion")
        crits = fairness.parse_criteria(args.criterion, inst.k)
    elif fixed is None:  # one 1-of-best-c criterion, or the fallback c
        if name == "rwavk" and not args.criterion:
            raise ValueError("rwavk needs --criterion 1-of-best-c")
        if args.criterion:
            crit = fairness.parse_criterion(args.criterion)
            if not isinstance(crit, fairness.OneOfBestC):
                raise ValueError(f"{name} needs a 1-of-best-c criterion")
            c = crit.c

    if args.binarize:
        if fixed and c is None:
            raise ValueError(f"--binarize does not apply to {name}")
        if (
            crits
            and all(isinstance(cr, fairness.OneOfBestC) for cr in crits)
            and len({cr.c for cr in crits}) == 1
        ):
            c = crits[0].c
        if c is None:
            raise ValueError(
                "--binarize needs a single 1-of-best-c criterion to pick"
                " the c best goods"
            )
        inst = model.binarize_instance(inst, c)

    if name == "cwav2" and args.seed is None:
        raise ValueError("cwav2 needs --seed")
    result = call(inst, crits=crits, c=c, args=args)

    doc = {"protocol": result.protocol,
           "criteria": [cr.name for cr in result.criteria]}
    if name == "rwav2":
        doc["first_group"] = args.first_group or 1
    if name == "cwav2":
        doc["seed"] = args.seed
    doc["allocation"] = model.allocation_doc(result.allocation, inst)
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
        sys.stdout.write(protocols._render_trace(result, inst))
    return 0


def _cmd_check(args) -> int:
    inst = model.parse_instance(_read(args.instance))
    alloc = model.parse_allocation(_read(args.allocation), inst)
    crits = fairness.parse_criteria(args.criterion, inst.k)
    report = fairness.democratic_report(inst, alloc, crits)
    doc = {
        "criteria": [c.name for c in crits],
        "allocation": model.allocation_doc(alloc, inst),
    }
    doc.update(report.to_doc())
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_brute(args) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if args.workers > MAX_WORKERS:
        raise ValueError(f"--workers must be at most {MAX_WORKERS}")
    cap = oracles.DEFAULT_CAP if args.cap is None else args.cap
    if cap < 1:
        raise ValueError("--cap must be at least 1")
    if args.spec:
        spec = oracles.parse_spec(args.spec)
        oracles.check_space(spec, cap)
        inst = oracles.generate(spec)
        source = {"spec": oracles.spec_name(spec)}
    else:
        inst = model.parse_instance(_read(args.instance))
        source = {"instance": args.instance}
    crits = fairness.parse_criteria(args.criterion, inst.k)
    doc = dict(source)
    doc["criteria"] = [c.name for c in crits]
    if args.h is not None:
        target = model.parse_rational(args.h)
        res = oracles.exists_h(inst, crits, target, cap=cap)
        doc["h"] = model.rational_doc(target)
        doc["found"] = res.found
    else:
        res = oracles.max_h(inst, crits, cap=cap, workers=args.workers)
        doc["best_h"] = model.rational_doc(res.best_h)
    doc["witness"] = (
        model.allocation_doc(res.witness, inst) if res.witness is not None else None
    )
    doc["allocations_examined"] = res.allocations_examined
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_table(args) -> int:
    if args.rmax < 0 or args.smax < 0:
        raise ValueError("--rmax and --smax must be nonnegative")
    if args.k < 2:
        raise ValueError("--k must be at least 2")
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
    _emit(model.serialize_instance(inst) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _int(text: str) -> int:
    """``int`` for an option, with argparse's message quoting at most a
    prefix of ``text``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None


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
        choices=list(_PROTOCOLS),
    )
    run.add_argument("--instance", required=True, help="instance JSON path")
    run.add_argument(
        "--criterion",
        help="fairness criterion; comma-separated list for per-group targets",
    )
    run.add_argument(
        "--first-group", type=_int, choices=(1, 2), default=None,
        help="which group picks first in rwav2 (default 1)",
    )
    run.add_argument("--seed", type=_int, help="coin seed for cwav2")
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
    brute.add_argument("--cap", type=_int, default=None,
                       help="allocation-space cap (default 2^24)")
    brute.add_argument("--workers", type=_int, default=1,
                       help="threads that score chunks (max-h mode only)")
    brute.add_argument("--out")
    brute.set_defaults(handler=_cmd_brute)

    table = sub.add_parser("table", help="print budget/weight tables")
    table.add_argument(
        "--which", required=True, choices=["B", "w", "C", "Bk", "maxh"]
    )
    table.add_argument("--rmax", type=_int, default=10)
    table.add_argument("--smax", type=_int, default=6)
    table.add_argument("--k", type=_int, default=2)
    table.add_argument("--out")
    table.set_defaults(handler=_cmd_table)

    gen = sub.add_parser("gen", help="generate an adversarial instance")
    gen.add_argument("--spec", required=True)
    gen.add_argument("--out")
    gen.set_defaults(handler=_cmd_gen)

    return parser


def _show_warning(message, *_):
    """A warning raised during a command, as one ``warning:`` line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; keep main() returning
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.handler(args)
        except CapExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:  # a FormatError too
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
