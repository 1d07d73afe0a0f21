"""The benchmark's three workloads: their inputs, CLI jobs and output checks.

Each workload is a fixed list of ``groupfair`` CLI jobs over inputs made by
:mod:`inputs` from the workload seed.  Why these three:

* ``picking`` -- ``run`` of the weighted-approval protocols on large binary
  instances.  The per-turn re-summing of member weights dominates; the
  oracles never run.
* ``oracle`` -- ``brute`` only.  Nearly all the time is enumeration, decode
  and scoring; it is the only workload where numpy does real work.
* ``audit`` -- nineteen short calls (``check``, small ``run``s, ``gen``,
  ``table``).  Interpreter start-up and imports dominate, and it
  reads allocations where ``picking`` writes them.

Each job lists the spans the traced run must record for it, so a refactor
that moves a name fails the traced run instead of zeroing a layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
from groupfair.fairness import democratic_report, parse_criteria
from groupfair.model import binarize_instance, parse_allocation, parse_instance
from groupfair.oracles import generate, max_h, parse_spec

WORKLOADS = ("picking", "oracle", "audit")

#: The seed whose stdout digests are pinned in ``digests.json``.
PINNED_SEED = 1

#: Protocols whose document carries a per-group guarantee that the run
#: must meet (cwav2 only promises an expectation).
GUARANTEED = {"rwav2", "rwavk", "best-k", "line2", "linek", "local-search",
              "rwav2-enhanced"}


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``argv`` follows ``groupfair``; paths in it are
    relative to the checkout root.  ``kind`` selects the output check;
    ``fixed`` marks jobs whose stdout does not depend on the seed."""

    id: str
    argv: tuple
    kind: str
    spans: tuple
    fixed: bool = False


def _write(work: Path, name: str, doc: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(inputs.dump(doc))
    return path.as_posix()


def _run(jid, path, protocol, *extra, spans=()):
    return Job(
        jid,
        ("run", "--protocol", protocol, "--instance", path, *extra),
        "run",
        ("cli.main", "model.parse_instance", "fairness.democratic_report",
         *spans),
    )


def _check(jid, inst, alloc, criterion):
    return Job(
        jid,
        ("check", "--instance", inst, "--allocation", alloc,
         "--criterion", criterion),
        "check",
        ("cli.main", "model.parse_instance", "model.parse_allocation",
         "fairness.democratic_report"),
    )


def _brute(jid, path, criterion, *extra, spans):
    return Job(
        jid,
        ("brute", "--instance", path, "--criterion", criterion, *extra),
        "brute",
        ("cli.main", "model.parse_instance", *spans),
    )


def _picking(seed: int, work: Path) -> list:
    rng = inputs.rng_for
    p2 = _write(work, "p2", inputs.binary_instance(rng(seed, "p2"), 2, 60, 500, 0.3))
    p2t = _write(work, "p2t", inputs.binary_instance(rng(seed, "p2t"), 2, 30, 200, 0.3))
    # At density 0.2 no good is wanted by a third of a group's binarized
    # members, so best-k always takes the same branch (rwavk on all three
    # groups) whatever the seed.
    p3 = _write(work, "p3", inputs.binary_instance(rng(seed, "p3"), 3, 60, 500, 0.2))
    trace_doc = (work / "rwav2-trace.out.json").as_posix()
    return [
        _run("rwav2", p2, "rwav2", "--criterion", "ef-1",
             spans=("protocols.rwav2",)),
        _run("cwav2", p2, "cwav2", "--criterion", "prop-1", "--seed", str(seed),
             spans=("protocols.cwav2",)),
        Job(
            "rwav2-trace",
            ("run", "--protocol", "rwav2", "--instance", p2t, "--criterion",
             "ef-1", "--trace", "--out", trace_doc),
            "trace",
            ("cli.main", "model.parse_instance", "fairness.democratic_report",
             "protocols.rwav2"),
        ),
        _run("rwavk", p3, "rwavk", "--criterion", "1-of-best-3",
             spans=("protocols.rwavk",)),
        _run("best-k", p3, "best-k",
             spans=("protocols.best_k_protocol", "model.binarize_instance")),
    ]


def _oracle(seed: int, work: Path) -> list:
    rng = inputs.rng_for
    b20 = _write(work, "b20", inputs.binary_instance(rng(seed, "b20"), 2, 20, 30, 0.3))
    # The short-circuit job stops at the first witness, whose position
    # varies with the seed over the whole space; 2^18 keeps that variation
    # small against the rest of the pass.
    b18_doc = inputs.binary_instance(rng(seed, "b18"), 2, 18, 30, 0.3)
    b18 = _write(work, "b18", b18_doc)
    best = max_h(parse_instance(json.dumps(b18_doc)),
                 parse_criteria("1-out-of-2-mms", 2)).best_h
    a8 = _write(work, "a8", inputs.additive_instance(rng(seed, "a8"), 3, 8, 20, 9))
    return [
        _brute("max-h-binary", b20, "1-out-of-2-mms", spans=("oracles.max_h",)),
        _brute("exists-h-binary", b18, "1-out-of-2-mms", "--h",
               f"{best.numerator}/{best.denominator}",
               spans=("oracles.exists_h",)),
        _brute("max-h-ef1", a8, "ef-1", spans=("oracles.max_h",)),
        _brute("max-h-mms", a8, "mms",
               spans=("oracles.max_h", "fairness.mms_share")),
    ]


_GEN_SPECS = (
    "three-good-cycle",
    "all-subsets:r=3,s=2,k=2,m=3",
    "circle:k=3",
    "additive-third",
    "efc-limit:c=1,l=2",
)

_TABLES = (
    ("--which", "B"),
    ("--which", "maxh", "--k", "3"),
)


def _audit(seed: int, work: Path) -> list:
    rng = inputs.rng_for
    jobs = []
    sized = (("tiny", 6, 4, 0.5), ("large", 60, 2000, 0.3))
    for name, m, n, density in sized:
        doc = inputs.binary_instance(rng(seed, name), 2, m, n, density)
        inst = _write(work, name, doc)
        alloc = _write(work, f"{name}-alloc",
                       inputs.allocation(rng(seed, f"{name}-alloc"), doc))
        for criterion in ("ef-1", "prop-1", "1-out-of-2-mms"):
            jobs.append(_check(f"check-{name}-{criterion}", inst, alloc, criterion))
    doc = inputs.additive_instance(rng(seed, "mms12"), 2, 12, 10, 9)
    inst = _write(work, "mms12", doc)
    alloc = _write(work, "mms12-alloc",
                   inputs.allocation(rng(seed, "mms12-alloc"), doc))
    mms = _check("check-mms12-mms", inst, alloc, "mms")
    jobs.append(Job(mms.id, mms.argv, mms.kind, (*mms.spans, "fairness.mms_share")))

    line2 = _write(work, "line2", inputs.additive_instance(rng(seed, "line2"), 2, 6, 5, 9))
    linek = _write(work, "linek", inputs.additive_instance(rng(seed, "linek"), 3, 6, 4, 9))
    ident = _write(work, "ident",
                   inputs.identical_binary_instance(rng(seed, "ident"), 6, 6, 0.5))
    enh = _write(work, "enh", inputs.binary_instance(rng(seed, "enh"), 2, 5, 6, 0.5))
    enh_add = _write(work, "enh-add",
                     inputs.additive_instance(rng(seed, "enh-add"), 2, 6, 5, 9))
    jobs += [
        _run("run-line2", line2, "line2", spans=("protocols.line2",)),
        _run("run-linek", linek, "linek", spans=("protocols.linek",)),
        _run("run-local-search", ident, "local-search",
             spans=("protocols.identical_local_search",)),
        _run("run-rwav2-enhanced", enh, "rwav2-enhanced",
             spans=("protocols.rwav2_enhanced",)),
        _run("run-rwav2-enhanced-binarize", enh_add, "rwav2-enhanced",
             "--criterion", "1-of-best-2", "--binarize",
             spans=("protocols.rwav2_enhanced", "model.binarize_instance")),
    ]
    for spec in _GEN_SPECS:
        jobs.append(Job(f"gen-{spec}", ("gen", "--spec", spec), "gen",
                        ("cli.main", "oracles.generate",
                         "model.serialize_instance"), fixed=True))
    for args in _TABLES:
        spans = ("cli.main", "budgets.maxh") if "maxh" in args else ("cli.main",)
        jobs.append(Job(f"table-{'-'.join(args[1::2])}", ("table", *args),
                        "table", spans, fixed=True))
    return jobs


_BUILDERS = {"picking": _picking, "oracle": _oracle, "audit": _audit}


def build(workload: str, seed: int, work: Path) -> list:
    """Write the workload's inputs under ``work`` and return its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, work)


# ---------------------------------------------------------------------------
# output checks


class OutputError(Exception):
    """A job's output failed its check."""


def _instance(path: str, cache: dict):
    if path not in cache:
        cache[path] = parse_instance(Path(path).read_text())
    return cache[path]


def _arg(argv: tuple, flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _allocation(doc: dict, inst):
    return parse_allocation(json.dumps({"bundles": doc["bundles"]}), inst)


def _same_report(doc: dict, report, what: str):
    expected = report.to_doc()
    for key in ("happy", "h", "verdicts"):
        if doc[key] != expected[key]:
            raise OutputError(f"{what}: {key} differs from democratic_report")


def _check_run(job: Job, doc: dict, cache: dict):
    inst = _instance(_arg(job.argv, "--instance"), cache)
    if "--binarize" in job.argv:
        inst = binarize_instance(inst, parse_criteria(
            _arg(job.argv, "--criterion"), inst.k)[0].c)
    alloc = _allocation(doc["allocation"], inst)
    crits = parse_criteria(",".join(doc["criteria"]), inst.k)
    report = democratic_report(inst, alloc, crits)
    _same_report(doc, report, "run")
    if doc["protocol"] in GUARANTEED:
        for g, (frac, bound) in enumerate(zip(report.fractions, doc["guarantees"])):
            if frac < Fraction(bound):
                raise OutputError(
                    f"group {g + 1} happy fraction {frac} below guarantee {bound}")


def _check_check(job: Job, doc: dict, cache: dict):
    inst = _instance(_arg(job.argv, "--instance"), cache)
    alloc_doc = json.loads(Path(_arg(job.argv, "--allocation")).read_text())
    if doc["allocation"] != alloc_doc:
        raise OutputError("check: echoed allocation differs from the input")
    report = democratic_report(inst, _allocation(alloc_doc, inst),
                               parse_criteria(_arg(job.argv, "--criterion"), inst.k))
    _same_report(doc, report, "check")


def _check_brute(job: Job, doc: dict, cache: dict):
    inst = _instance(_arg(job.argv, "--instance"), cache)
    crits = parse_criteria(_arg(job.argv, "--criterion"), inst.k)
    space = inst.k ** inst.m
    if doc["witness"] is None:
        raise OutputError("brute: no witness")
    h = democratic_report(inst, _allocation(doc["witness"], inst), crits).h
    if "--h" in job.argv:
        if not doc["found"] or h < Fraction(_arg(job.argv, "--h")):
            raise OutputError(f"brute --h: witness reaches only h={h}")
        if not 1 <= doc["allocations_examined"] <= space:
            raise OutputError("brute --h: examined count out of range")
    elif h != Fraction(doc["best_h"]):
        raise OutputError(f"brute: witness h={h} != best_h={doc['best_h']}")
    elif doc["allocations_examined"] != space:
        raise OutputError("brute: max_h did not examine the whole space")


def _check_gen(job: Job, stdout: bytes, cache: dict):
    generated = generate(parse_spec(_arg(job.argv, "--spec")))
    parsed = parse_instance(stdout.decode())
    if parsed != generated:
        raise OutputError("gen: output does not parse back to the generated instance")


def check_output(job: Job, stdout: bytes, cache: dict):
    """Check one job's stdout at any seed; raise :class:`OutputError`.

    ``cache`` holds parsed instances across the jobs of one run.
    """
    if job.kind == "table":
        if not stdout.strip():
            raise OutputError("table: empty output")
        return
    if job.kind == "gen":
        _check_gen(job, stdout, cache)
        return
    if job.kind == "trace":
        if b"Final allocation:" not in stdout:
            raise OutputError("trace: no final allocation block")
        doc = json.loads(Path(_arg(job.argv, "--out")).read_text())
        _check_run(job, doc, cache)
        return
    doc = json.loads(stdout)
    {"run": _check_run, "check": _check_check, "brute": _check_brute}[job.kind](
        job, doc, cache)
