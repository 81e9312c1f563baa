"""Seeded inputs, operations and correctness checks for each workload.

Every workload draws its inputs from ``random.Random(seed)`` in a fixed
order, so one seed always yields the same instances.  Instances cycle
through a few size classes in a fixed order, so every run sees the same
mix of sizes whatever its seed.  The program receives only the generated
``ProductSubgroup`` values (or, for ``cli``, text files rendered here).

``Workload.run`` is the timed op; ``Workload.check`` raises ``CheckFailed``
when the op's output contradicts a known answer, and otherwise returns
the report bytes, which feed the run's digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from math import gcd

from groupcodes import cli, control
from groupcodes.families import block_family, chain_family
from groupcodes.finabel import FiniteAbelianGroup, span
from groupcodes.seqspace import CoordSchema, ProductSubgroup, SeqElement, subgroup_order

ORACLE_CAP = 2 * 10**4
REPRODUCE_IDS = ("ex-3.5", "ex-4.6", "ex-5-dense", "thm-7.1")
PROPERTIES = ("weakly_controllable", "controllable", "uniformly_controllable", "strongly_controllable")


class CheckFailed(Exception):
    """An op's output contradicts a known answer."""


@dataclass
class Instance:
    """One op's input: a subgroup or a command line, plus what to check."""

    label: str
    h: ProductSubgroup | None = None
    argv: tuple[str, ...] = ()
    known: dict = field(default_factory=dict)


def canonical_bytes(report: dict) -> bytes:
    """The bytes ``groupcodes report`` prints for this mapping."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def _verdicts(report: dict) -> dict:
    return {v["property"]: v for v in report["verdicts"]}


def check_known(report: dict, known: dict) -> None:
    """Compare a report with the answers its family is known to have."""
    verdicts = _verdicts(report)
    for prop in known.get("holds", ()):
        if not verdicts[prop]["holds"]:
            raise CheckFailed(f"{prop} should hold")
    if "defect" in known and report["defect_profile"]["defect"] != known["defect"]:
        raise CheckFailed(f"defect {report['defect_profile']['defect']}, expected {known['defect']}")
    if "least_gap" in known and verdicts["strongly_controllable"]["k"] != known["least_gap"]:
        raise CheckFailed(f"least gap {verdicts['strongly_controllable']['k']}, expected {known['least_gap']}")


# ---------------------------------------------------------------------------
# generators


def chain_instance(rng: random.Random, depth: int, rank: int | None = None) -> Instance:
    """Strictly ascending chain of ``depth`` subgroups in a group of rank ``rank``.

    The rank defaults to ``depth``.  The coordinate orders cycle through 2,
    3, 4 and are then shuffled.  Generator ``k`` is 1 at its pivot
    coordinate, 0 at the earlier pivots, and on the later pivots and the
    coordinates that are no pivot a value that its pivot order kills, so it
    has the pivot's order and lies outside the span of the earlier generators.
    """
    rank = depth if rank is None else rank
    orders = [(2, 3, 4)[i % 3] for i in range(rank)]
    rng.shuffle(orders)
    m = FiniteAbelianGroup(tuple(orders))
    pivots = rng.sample(range(rank), depth)
    free = [j for j in range(rank) if j not in pivots]
    gens, chain = [], []
    for k, p in enumerate(pivots):
        v = [0] * rank
        v[p] = 1
        for j in pivots[k + 1 :] + free:
            step = orders[j] // gcd(orders[j], orders[p])
            v[j] = step * rng.randrange(orders[j] // step)
        gens.append(m.element(v))
        chain.append(span(m, gens))
    return Instance(
        f"chain depth {depth} orders {m.orders}",
        h=chain_family(m, chain),
        known={"holds": ("controllable",), "defect": depth - 1},
    )


def block_instance(p: int, sizes: tuple[int, ...]) -> Instance:
    """Blocks of the given sizes over Z/p."""
    return Instance(
        f"block p={p} sizes {list(sizes)}",
        h=block_family(p, list(sizes)),
        known={"holds": ("uniformly_controllable",), "least_gap": max(sizes) - 1},
    )


def random_subgroup(rng: random.Random, gens: int, prefix: int, period: int) -> ProductSubgroup:
    """Random values over mixed cyclic orders 2 to 5, in a fixed shape.

    One prefix coordinate and the tail each get a group of rank 1 or 2.
    Every generator has ``prefix`` explicit values; every other generator
    then repeats a random block of length ``period``, the rest end in zero.
    """

    def group() -> FiniteAbelianGroup:
        return FiniteAbelianGroup(tuple(rng.choice((2, 3, 4, 5)) for _ in range(rng.randint(1, 2))))

    def value(g: FiniteAbelianGroup):
        return g.element(tuple(rng.randrange(o) for o in g.orders))

    schema = CoordSchema((group(),), group())
    out = []
    for i in range(gens):
        vals = tuple(value(schema.group_at(c)) for c in range(prefix))
        block = tuple(value(schema.tail) for _ in range(period)) if i % 2 == 0 else (schema.tail.zero(),)
        out.append(SeqElement(schema, vals, block))
    return ProductSubgroup(schema, tuple(out))


def render_subgroup(h: ProductSubgroup) -> str:
    """The subgroup in the ``groupcodes`` text input format."""

    def val(v) -> str:
        return ",".join(map(str, v.coords))

    lines = []
    if h.schema.prefix:
        lines.append("prefix: " + " ".join(",".join(map(str, g.orders)) for g in h.schema.prefix))
    lines.append("tail: " + ",".join(map(str, h.schema.tail.orders)))
    for g in h.gens:
        head = " ".join(val(v) for v in g.prefix_vals)
        lines.append(f"gen: {head} | {' '.join(val(v) for v in g.period)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Generator, op and check of one workload.

    Instances cycle through ``classes``; ``make(rng, cls)`` draws one
    instance of a class, counting in ``excluded`` the draws whose
    enumeration would exceed the oracle cap and in ``outside_band`` those
    outside the wanted size band.  ``run`` is the timed op; ``check``
    validates its result and returns the report bytes.
    """

    name = ""
    classes: tuple = ()

    @property
    def round_len(self) -> int:
        """Ops in one balanced round; a timed run ends only on a whole round."""
        return len(self.classes)

    def __init__(self, seed: int, smoke: bool, root: str, scratch: str):
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.pool: list[Instance] = []
        self.excluded = 0
        self.outside_band = 0

    def instance(self, i: int) -> Instance:
        """The ``i``-th input, drawn on first use."""
        while len(self.pool) <= i:
            self.pool.append(self.make(self.rng, self.classes[len(self.pool) % len(self.classes)]))
        return self.pool[i]

    def draw_subgroup(self, rng: random.Random, shape: tuple[int, int, int], band: tuple[int, int]) -> ProductSubgroup:
        """A random subgroup whose order lies in ``band``, the top of the band at most the oracle cap."""
        while True:
            h = random_subgroup(rng, *shape)
            order = subgroup_order(h)
            if order > ORACLE_CAP:
                self.excluded += 1
            elif not band[0] <= order <= band[1]:
                self.outside_band += 1
            else:
                return h

    def make(self, rng: random.Random, cls) -> Instance:
        raise NotImplementedError

    def run(self, inst: Instance):
        return cli.build_report(inst.h)

    def check(self, inst: Instance, report) -> bytes:
        check_known(report, inst.known)
        return canonical_bytes(report)


class ChainWorkload(Workload):
    """Chains of depth 4 to 6 in groups of rank ``depth`` to ``depth + 2``.

    The (depth, rank) classes grade the cost in steps smaller than the
    spread between random instances of one class, so the median op lies in
    a continuous spread of costs rather than in one narrow class.
    """

    name = "chain"

    @property
    def classes(self):
        return ((2, 2), (3, 3)) if self.smoke else ((4, 5), (5, 5), (5, 6), (5, 7), (6, 6))

    def make(self, rng, cls):
        return chain_instance(rng, *cls)


class BlockWorkload(Workload):
    """Every modulus with every block-size list, once per cycle, in a seeded order.

    ``block_family`` depends only on ``p`` and the sizes, so each cycle holds
    the same instances and the seed only orders them; random sizes would make
    the median depend on the seed more than on the program.  The size lists
    grade the cost in small steps over about 1 : 4, so the median op lies in
    a spread of costs rather than among a few equal instances, and a machine
    that slows for part of a run moves the median as smoothly as the mean.
    A cycle is dealt in rounds that each hold every size list once, with the
    moduli rotated between rounds, so every whole round weighs the costs alike.
    """

    name = "block"
    moduli = (2, 3, 5)

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            sizes_lists = [(3, 4)]
        else:
            sizes_lists = [(5, b) for b in range(8, 17)] + [(4, 4, b) for b in (8, 10, 12)]
        shifts = [self.rng.randrange(len(self.moduli)) for _ in sizes_lists]
        self.classes = []
        for r in range(len(self.moduli)):
            rnd = [(self.moduli[(s + r) % len(self.moduli)], sizes) for s, sizes in zip(shifts, sizes_lists)]
            self.rng.shuffle(rnd)
            self.classes += rnd

    @property
    def round_len(self) -> int:
        return len(self.classes) // len(self.moduli)

    def make(self, rng, cls):
        return block_instance(*cls)


def verdicts_from_report(h: ProductSubgroup, report: dict) -> list[control.Verdict]:
    """Rebuild each verdict with its certificate or witness from report JSON alone."""
    out = []
    for v, ev in zip(report["verdicts"], report["certificates"]):
        if ev["type"] == "witness":
            orders: tuple[int, ...] = ()
            for i in ev["j"]:
                orders += h.schema.group_at(i).orders
            pattern = FiniteAbelianGroup(orders).element(ev["pattern"])
            evidence = control.Witness(tuple(ev["j"]), pattern, ev["variant"], ev["n"], ev["k"], ev["context"])
        else:
            claims = tuple(
                control.EqualityClaim(
                    tuple(c["j"]), tuple(map(tuple, c["lhs_basis"])), tuple(map(tuple, c["rhs_basis"])), c["n"], c["k"]
                )
                for c in ev["claims"]
            )
            evidence = control.Certificate(ev["kind"], claims, ev["note"])
        out.append(control.Verdict(v["property"], v["holds"], evidence, v["k"]))
    return out


class CertifiedCheckWorkload(Workload):
    """Decide, cross-check every verdict by enumeration, replay every certificate.

    Only subgroups whose order lies in the class's band are kept, so that
    every op enumerates a few thousand elements; draws above the oracle cap
    and draws outside the band are counted as excluded.  The op cost grows
    with the order, so the instances cycle through three order bands: every
    run then holds the same mix of sizes, whatever its seed.
    """

    name = "certified_check"

    @property
    def classes(self):
        return ((100, 1000),) if self.smoke else ((2000, 2999), (3000, 3999), (4000, 5000))

    def make(self, rng, band):
        shape = (3, 3, 1) if self.smoke else (4, 4, 2)
        return Instance(f"random subgroup of order {band[0]} to {band[1]}", h=self.draw_subgroup(rng, shape, band))

    def run(self, inst):
        h = inst.h
        report = cli.build_report(h)
        oracle = control.WindowOracle(h, cap=ORACLE_CAP)
        expected = {
            "weakly_controllable": oracle.weakly_controllable(),
            "controllable": oracle.controllable(),
            "uniformly_controllable": oracle.uniformly_controllable(),
            "strongly_controllable": oracle.strong_index() is not None,
        }
        replayed = [control.verify_verdict(h, v) for v in verdicts_from_report(h, report)]
        return report, expected, replayed

    def check(self, inst, result):
        report, expected, replayed = result
        for prop, v in _verdicts(report).items():
            if v["holds"] != expected[prop]:
                raise CheckFailed(f"{prop}: engine {v['holds']}, enumeration {expected[prop]}")
        if not all(replayed) or len(replayed) != len(PROPERTIES):
            raise CheckFailed("a certificate does not replay")
        return canonical_bytes(report)


class CliWorkload(Workload):
    """One ``python -m groupcodes`` process per op.

    The cycle runs ``report`` on a chain, ``check --cap`` on a random
    subgroup, ``report`` on a block family and one ``reproduce --id``, so
    each packaged experiment comes up once every sixteen ops.
    """

    name = "cli"
    classes = tuple((kind, exp) for exp in REPRODUCE_IDS for kind in ("chain", "check", "block", "reproduce"))

    def __init__(self, *args):
        super().__init__(*args)
        self.golden = {}
        for exp in REPRODUCE_IDS:
            with open(os.path.join(self.root, "tests", "golden", f"{exp}.json"), "rb") as fh:
                self.golden[exp] = fh.read()
        self.inputs = os.path.join(self.scratch, f"cli-inputs-{self.seed}{'-smoke' if self.smoke else ''}")
        os.makedirs(self.inputs, exist_ok=True)
        self.children_peak_kb = 0
        self.launcher: list[str] | None = None

    def make(self, rng, cls):
        kind, exp = cls
        if kind == "reproduce":
            return Instance(f"reproduce {exp}", argv=("reproduce", "--id", exp, "--format", "json"), known={"golden": exp})
        if kind == "chain":
            inst = chain_instance(rng, 3)
            argv: tuple[str, ...] = ("report",)
        elif kind == "block":
            inst = block_instance(rng.choice((2, 3, 5)), (3, 4))
            argv = ("report",)
        else:
            inst = Instance("random subgroup", h=self.draw_subgroup(rng, (3, 3, 1), (1, 2000)))
            argv = ("check", "--cap", str(ORACLE_CAP), "--format", "json")
        path = os.path.join(self.inputs, f"{len(self.pool):05d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_subgroup(inst.h))
        return Instance(f"{argv[0]} {inst.label}", argv=argv + ("--input", path), known=inst.known)

    def run(self, inst):
        cmd = (self.launcher or [sys.executable, "-m", "groupcodes"]) + list(inst.argv)
        return run_child(cmd, self.root)

    def check(self, inst, result):
        out, code, maxrss_kb = result
        self.children_peak_kb = max(self.children_peak_kb, maxrss_kb)
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        if "golden" in inst.known:
            if out != self.golden[inst.known["golden"]]:
                raise CheckFailed("output differs from the frozen report")
        else:
            check_known(json.loads(out), inst.known)
        return out


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], root: str) -> tuple[bytes, int, int]:
    """Run a child to completion; return its stdout, exit code and peak RSS in KB."""
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ChainWorkload, BlockWorkload, CertifiedCheckWorkload, CliWorkload)
}

# The reference corpus: the first few smoke-size ops at seed 0.  Its digest
# is frozen in reference.json; any change to a verdict or certificate byte
# changes it.
REFERENCE_SEED = 0
REFERENCE_OPS = 4


def reference_digest(name: str, root: str, scratch: str) -> str:
    """SHA-256 over the reference corpus reports, computed in this process."""
    wl = WORKLOADS[name](REFERENCE_SEED, True, root, scratch)
    digest = hashlib.sha256()
    for i in range(REFERENCE_OPS):
        inst = wl.instance(i)
        if isinstance(wl, CliWorkload):
            digest.update(in_process_cli(inst.argv))
        else:
            digest.update(wl.check(inst, wl.run(inst)))
    return digest.hexdigest()


def in_process_cli(argv: tuple[str, ...]) -> bytes:
    out = io.StringIO()
    if cli.main(list(argv), out) != 0:
        raise CheckFailed(f"groupcodes {' '.join(argv)} failed")
    return out.getvalue().encode()
