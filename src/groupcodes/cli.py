"""Command line front end.

Subgroups are described in a small line-oriented text format:

    # comment lines and blank lines are ignored
    prefix: 2,4 2,4
    tail: 2
    gen: 1,0 0,2 | 1
    gen: 1,2

``prefix:`` (optional) lists one coordinate group per token, each token a
comma-joined list of cyclic orders.  ``tail:`` (required, once) gives the
group shared by all later coordinates.  Each ``gen:`` line lists explicit
values, one token per coordinate from 0 on; an optional ``|`` separates
them from the repeating block, whose values lie in the tail group.  With
no ``|`` the generator has finite support.

Exit codes: 0 success, 1 a reproduction claim failed, 2 malformed input,
3 enumeration cap or memory exceeded, 4 internal inconsistency, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from . import __version__, families, structure, torus
from .control import (
    STRONGLY_CONTROLLABLE,
    Analysis,
    Certificate,
    DefectProfile,
    Verdict,
    Witness,
    WindowOracle,
    as_weak,
    hierarchy_consistent,
    is_weakly_controllable_discrete,
    uniformity_defect,
    verify_verdict,
)
from .errors import (
    CapExceeded,
    ChainNotStrict,
    InternalInconsistency,
    ParseError,
    PreconditionFailed,
    SchemaMismatch,
)
from .finabel import FiniteAbelianGroup, invariant_factors, subgroup_equal
from .seqspace import (
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    intersect_directsum,
    project,
    subgroup_order,
)

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INCONSISTENT = 4
EXIT_IO = 5

# Pieces are written in blocks of this many: memory stays flat and an unbuffered stdout is not written piece by piece.
LINES_PER_WRITE = 4096


# ---------------------------------------------------------------------------
# input format


def _decimal(text: str) -> int | None:
    """The value of a non-empty run of decimal digits, or None.

    ``str.isdigit`` also holds for digits such as ``'²'`` that ``int``
    rejects; ``int`` also rejects runs longer than its digit limit.
    """
    try:
        return int(text) if text.isdigit() else None
    except ValueError:
        return None


def _parse_group(token: str, where: str) -> FiniteAbelianGroup:
    orders = []
    for part in token.split(","):
        part = part.strip()
        order = _decimal(part)
        if order is None or order < 1:
            raise ParseError(f"{where}: bad cyclic order {part!r}")
        orders.append(order)
    if not orders:
        raise ParseError(f"{where}: empty group description")
    return FiniteAbelianGroup(tuple(orders))


def _parse_value(token: str, group: FiniteAbelianGroup, where: str) -> Any:
    parts = token.split(",")
    if len(parts) != group.n:
        raise ParseError(
            f"{where}: value {token!r} has {len(parts)} residues, the coordinate group has {group.n}"
        )
    coords = []
    for part in parts:
        part = part.strip()
        negative = part.startswith("-")
        residue = _decimal(part[1:] if negative else part)
        if residue is None:
            raise ParseError(f"{where}: bad residue {part!r}")
        coords.append(-residue if negative else residue)
    return group.element(tuple(coords))


def parse_subgroup(text: str) -> ProductSubgroup:
    """Parse the line-oriented subgroup format; raise ParseError on any flaw."""
    prefix_groups: tuple[FiniteAbelianGroup, ...] | None = None
    tail: FiniteAbelianGroup | None = None
    gen_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        rest = rest.strip()
        if key == "prefix":
            if prefix_groups is not None:
                raise ParseError(f"line {lineno}: duplicate prefix declaration")
            if tail is not None or gen_lines:
                raise ParseError(f"line {lineno}: prefix must come first")
            prefix_groups = tuple(
                _parse_group(tok, f"line {lineno}") for tok in rest.split()
            )
        elif key == "tail":
            if tail is not None:
                raise ParseError(f"line {lineno}: duplicate tail declaration")
            if gen_lines:
                raise ParseError(f"line {lineno}: tail must precede generators")
            if not rest:
                raise ParseError(f"line {lineno}: tail group is missing")
            tail = _parse_group(rest, f"line {lineno}")
        elif key == "gen":
            gen_lines.append((lineno, rest))
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    if tail is None:
        raise ParseError("no tail group declared")
    schema = CoordSchema(prefix_groups or (), tail)
    gens = []
    for lineno, rest in gen_lines:
        where = f"line {lineno}"
        head, bar, block = rest.partition("|")
        vals = []
        for i, tok in enumerate(head.split()):
            vals.append(_parse_value(tok, schema.group_at(i), where))
        if bar:
            period_tokens = block.split()
            if not period_tokens:
                raise ParseError(f"{where}: '|' requires a repeating block")
            period = tuple(_parse_value(tok, tail, where) for tok in period_tokens)
        else:
            period = (tail.zero(),)
        if len(vals) < schema.w0:
            vals.extend(schema.group_at(i).zero() for i in range(len(vals), schema.w0))
        try:
            gens.append(SeqElement(schema, tuple(vals), period))
        except SchemaMismatch as exc:
            raise ParseError(f"{where}: {exc}") from exc
    return ProductSubgroup(schema, tuple(gens))


def render_subgroup(h: ProductSubgroup) -> str:
    """Inverse of parse_subgroup on canonical representations."""
    lines = []
    if h.schema.prefix:
        lines.append(
            "prefix: " + " ".join(",".join(map(str, g.orders)) for g in h.schema.prefix)
        )
    lines.append("tail: " + ",".join(map(str, h.schema.tail.orders)))
    for g in h.gens:
        head = " ".join(",".join(map(str, v.coords)) for v in g.prefix_vals)
        block = " ".join(",".join(map(str, v.coords)) for v in g.period)
        if all(v.is_zero() for v in g.period):
            lines.append(("gen: " + head).rstrip())
        else:
            lines.append("gen: " + (head + " | " if head else "| ") + block)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report JSON

REPORT_FIELDS = (
    "engine_version",
    "schema",
    "subgroup",
    "truncation_params",
    "verdicts",
    "certificates",
    "defect_profile",
    "invariant_factors",
)


def _element_json(e: SeqElement) -> dict:
    return {
        "prefix": [list(v.coords) for v in e.prefix_vals],
        "period": [list(v.coords) for v in e.period],
    }


def _evidence_json(ev: Certificate | Witness) -> dict:
    """The evidence as a JSON-ready mapping; claim tuples pass through, as ``json`` writes tuples as arrays."""
    if isinstance(ev, Witness):
        return {
            "type": "witness",
            "j": list(ev.j),
            "pattern": list(ev.h_proj.coords),
            "variant": ev.variant,
            "n": ev.n,
            "k": ev.k,
            "context": ev.context,
        }
    return {
        "type": "certificate",
        "kind": ev.kind,
        "note": ev.note,
        "claims": [
            {"j": c.j, "lhs_basis": c.lhs_basis, "rhs_basis": c.rhs_basis, "n": c.n, "k": c.k} for c in ev.claims
        ],
    }


def _profile_json(profile: DefectProfile) -> dict:
    table = [[k, order] for k, order in profile.table]
    return {"j": list(profile.j), "defect": profile.defect, "table": table}


def _verdict_json(v: Verdict) -> dict:
    return {"property": v.property, "holds": v.holds, "k": v.k}


def build_report(h: ProductSubgroup, kmax: int | None = None) -> dict:
    """All hierarchy verdicts plus structural data, as one JSON-ready mapping."""
    a = Analysis(h)
    controllable = a.controllable()
    verdicts = [
        as_weak(controllable),
        controllable,
        a.uniformly_controllable(),
        a.strongly_controllable(kmax),
    ]
    if not hierarchy_consistent({v.property: v.holds for v in verdicts}):
        raise InternalInconsistency("computed verdicts violate the implication chain")
    # The weak verdict carries the controllable verdict's evidence object; it is rendered once.
    certificates = [_evidence_json(v.evidence) for v in verdicts[1:]]
    report = {
        "engine_version": __version__,
        "schema": {
            "prefix": [list(g.orders) for g in h.schema.prefix],
            "tail": list(h.schema.tail.orders),
        },
        "subgroup": {"gens": [_element_json(g) for g in h.gens]},
        "truncation_params": {"window": a.w, "period": a.l},
        "verdicts": [_verdict_json(v) for v in verdicts],
        "certificates": certificates[:1] + certificates,
        "defect_profile": _profile_json(a.uniformity_defect((0,))),
        "invariant_factors": invariant_factors(a.window),
    }
    validate_report(report)
    return report


def _json_pieces(obj: Any) -> Iterator[str]:
    """Canonical JSON as it is encoded: sorted keys, two-space indent, trailing newline.

    With ``indent`` set, ``json.dumps`` joins the pieces of this same encoder.
    """
    return itertools.chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj), ("\n",))


def render_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return "".join(_json_pieces(obj))


def validate_report(obj: Any) -> None:
    """Reject mappings that are not well-formed reports."""
    if not isinstance(obj, dict):
        raise ParseError("report must be a JSON object")
    unknown = set(obj) - set(REPORT_FIELDS)
    if unknown:
        raise ParseError(f"unknown report fields: {sorted(unknown)}")
    missing = set(REPORT_FIELDS) - set(obj)
    if missing:
        raise ParseError(f"missing report fields: {sorted(missing)}")
    if not isinstance(obj["verdicts"], list) or not obj["verdicts"]:
        raise ParseError("a report must carry at least one verdict")
    if not isinstance(obj["certificates"], list) or len(obj["certificates"]) != len(obj["verdicts"]):
        raise ParseError("certificates must be a list with one entry per verdict")
    for v in obj["verdicts"]:
        if not isinstance(v, dict) or set(v) != {"property", "holds", "k"}:
            raise ParseError("verdict entries carry exactly property, holds, k")


def parse_report(text: str) -> dict:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and over-long integers
        raise ParseError(f"bad JSON: {exc}") from exc
    validate_report(obj)
    return obj


# ---------------------------------------------------------------------------
# reproduction registry


class _Claims:
    """Collects named pass/fail checks and renders them uniformly."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def check(self, name: str, expected: Any, actual: Any) -> None:
        self.rows.append(
            {
                "name": name,
                "expected": _plain(expected),
                "actual": _plain(actual),
                "pass": expected == actual,
            }
        )

    @property
    def ok(self) -> bool:
        return all(r["pass"] for r in self.rows)


def _plain(value: Any) -> Any:
    from fractions import Fraction

    if isinstance(value, Fraction):
        return torus.qz_str(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _reproduce_chain_growth(claims: _Claims) -> None:
    """Ascending chains over powers of Z/2: controllable, defect one below depth."""
    for depth in range(2, 7):
        m, chain = families.z2_power_chain(depth)
        a = Analysis(families.chain_family(m, chain))
        claims.check(f"depth {depth}: controllable", True, a.controllable().holds)
        claims.check(f"depth {depth}: defect at coordinate 0", depth - 1, a.uniformity_defect((0,)).defect)
        window = range(a.w + a.l)
        faces = all(subgroup_equal(a.part(k), project(families.chain_layer_sum(m, chain, k), window)) for k in range(depth))
        claims.check(f"depth {depth}: finite-faces identity", True, faces)


def _reproduce_torus(claims: _Claims) -> None:
    """Torus steps at odd prime reciprocals plus the constant one half."""
    from fractions import Fraction

    tsub = families.torsion_torus_example(4)
    half = torus.qz(1, 2)
    claims.check("1/2 outside the span of the steps", False, torus.in_span(half, tsub.y))
    for g, tag in zip(tsub.gens, tsub.tags):
        claims.check(f"closure differences hold for {tag}", (True, None), torus.closure_diff_check(g, tsub.y))
    verdict = torus.noncontrollability_witness(tsub, half)
    claims.check("witness verdict: not controllable", False, verdict.holds)
    ps, _q = torus.to_product_subgroup(tsub)
    claims.check("witness re-verifies", True, verify_verdict(ps, verdict))
    claims.check("step orders are odd", True, all(torus.qz_order(v) % 2 == 1 for v in tsub.y))
    claims.check("constant value has even order", 2, torus.qz_order(half))
    claims.check(
        "closest step multiple to 1/2 on coordinate 0 within 1/10",
        [2, 3],
        list(torus.approximate_constant(half, tsub.y, (0,), Fraction(1, 10)) or ()),
    )


def _reproduce_dense(claims: _Claims) -> None:
    """Residue-class family: trivial finite-support part, full finite faces."""
    group = FiniteAbelianGroup((2,))
    h = families.dense_trivial_sum_family(group, 3, 12)
    dsum = intersect_directsum(h)
    claims.check("finite-support part is trivial", 1, subgroup_order(dsum))
    for j in range(12):
        claims.check(f"projection onto coordinate {j} is full", group.order(), project(h, (j,)).order())
    face = project(h, (0, 1, 2))
    claims.check("restriction to the first cycle is full", group.order() ** 3, face.order())
    claims.check("weakly controllable", False, is_weakly_controllable_discrete(h).holds)


def _reproduce_blocks(claims: _Claims) -> None:
    """Two blocks over Z/2: uniform but not k-controllable below the block size."""
    h = families.block_family(2, (2, 3))
    a = Analysis(h)
    claims.check("uniformly controllable", True, a.uniformly_controllable().holds)
    for k in range(2):
        claims.check(f"{k}-controllable", False, a.k_controllable(k).holds)
    idx = a.least_gap()
    claims.check("least working gap", 2, idx)
    oracle = WindowOracle(h)
    claims.check("least working gap, by enumeration", oracle.strong_index(), idx)


REPRODUCE_IDS: dict[str, Callable[[_Claims], None]] = {
    "ex-3.5": _reproduce_chain_growth,
    "ex-4.6": _reproduce_torus,
    "ex-5-dense": _reproduce_dense,
    "thm-7.1": _reproduce_blocks,
}


def run_reproduce(exp_id: str) -> dict:
    if exp_id not in REPRODUCE_IDS:
        raise ParseError(
            f"unknown experiment id {exp_id!r}; known ids: {', '.join(sorted(REPRODUCE_IDS))}"
        )
    claims = _Claims()
    REPRODUCE_IDS[exp_id](claims)
    return {
        "id": exp_id,
        "engine_version": __version__,
        "claims": claims.rows,
        "overall": claims.ok,
    }


# ---------------------------------------------------------------------------
# subcommands


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_chunks(pieces: Iterable[str], path: str | None, out: TextIO) -> None:
    """Write the pieces as they are produced, ``LINES_PER_WRITE`` to a write, to ``out`` or the file ``path``."""
    pieces = iter(pieces)
    with contextlib.nullcontext(out) if path is None else open(path, "w", encoding="utf-8") as fh:
        while block := list(itertools.islice(pieces, LINES_PER_WRITE)):
            fh.write("".join(block))


def _write_format(args: argparse.Namespace, out: TextIO, payload: Any, lines: Iterable[str]) -> int:
    """Write ``payload`` as canonical JSON when ``--format json``, else the text ``lines``, each ended by a newline."""
    pieces = _json_pieces(payload) if args.format == "json" else (line + "\n" for line in lines)
    _write_chunks(pieces, args.out, out)
    return EXIT_OK


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def cmd_check(args: argparse.Namespace, out: TextIO) -> int:
    h = parse_subgroup(_read_input(args.input))
    report = build_report(h, kmax=args.kmax)
    if args.cap is not None:
        _cross_check(h, report, args.cap)
    window = report["truncation_params"]
    lines = [f"window: explicit {window['window']}, repeating block {window['period']}"]
    for v in report["verdicts"]:
        extra = f" (least gap {v['k']})" if v["property"] == STRONGLY_CONTROLLABLE and v["k"] is not None else ""
        lines.append(f"{v['property']}: {_yesno(v['holds'])}{extra}")
    lines.append(f"invariant factors: {report['invariant_factors']}")
    return _write_format(args, out, report, lines)


def _cross_check(h: ProductSubgroup, report: dict, cap: int) -> None:
    """Re-derive every verdict by capped enumeration; disagreement is a bug."""
    oracle = WindowOracle(h, cap=cap)
    expected = {
        "weakly_controllable": oracle.weakly_controllable(),
        "controllable": oracle.controllable(),
        "uniformly_controllable": oracle.uniformly_controllable(),
        "strongly_controllable": oracle.strong_index() is not None,
    }
    for v in report["verdicts"]:
        if v["property"] in expected and v["holds"] != expected[v["property"]]:
            raise InternalInconsistency(
                f"{v['property']}: engine says {v['holds']}, enumeration says the opposite"
            )


def _coords_arg(text: str) -> tuple[int, ...]:
    try:
        coords = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad coordinate list {text!r}") from exc
    if not coords or any(c < 0 for c in coords):
        raise ParseError(f"bad coordinate list {text!r}")
    return coords


def _depths_arg(text: str) -> range:
    lo, sep, hi = text.partition("..")
    first, last = _decimal(lo), _decimal(hi)
    if not sep or first is None or last is None or first > last:
        raise ParseError(f"bad depth range {text!r}; expected e.g. 2..6")
    return range(first, last + 1)


def _non_negative_arg(flag: str, what: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise ParseError(f"bad {what} {text!r}; expected an integer") from exc
        if value < 0:
            raise ParseError(f"bad {what} {value}; {flag} must be non-negative")
        return value

    return parse


_gap_bound_arg = _non_negative_arg("--kmax", "gap bound")


def _profile_csv(rows: Iterable[tuple[Any, int, int, Any]]) -> Iterator[str]:
    yield "parameter,k,image_order,defect"
    for parameter, k, image_order, defect in rows:
        yield f"{parameter},{k},{image_order},{'' if defect is None else defect}"


def _profile_rows(parameter: Any, profile: DefectProfile) -> Iterator[tuple[Any, int, int, Any]]:
    return ((parameter, k, order, profile.defect) for k, order in profile.table)


def cmd_defect(args: argparse.Namespace, out: TextIO) -> int:
    if args.family:
        if args.depths is None:
            raise ParseError("--family requires --depths a..b")
        rows = families.defect_growth(args.family, _depths_arg(args.depths), _coords_arg(args.coords))
        payload = [
            {"parameter": r.parameter, "defect": r.profile.defect, "table": r.profile.table,
             "controllable": r.controllable, "least_gap": r.strong}
            for r in rows
        ]
        if args.format == "csv":
            lines = _profile_csv(row for r in rows for row in _profile_rows(r.parameter, r.profile))
        else:
            lines = (
                f"parameter {r.parameter}: defect {r.profile.defect}, "
                f"controllable {_yesno(r.controllable)}, least gap {r.strong}"
                for r in rows
            )
        return _write_format(args, out, payload, lines)
    h = parse_subgroup(_read_input(args.input))
    coords = _coords_arg(args.coords)
    profile = uniformity_defect(h, coords)
    if args.format == "csv":
        lines = _profile_csv(_profile_rows(";".join(map(str, coords)), profile))
    else:
        lines = [
            f"coordinates: {list(coords)}",
            *(f"window [0, {k}]: image order {order}" for k, order in profile.table),
            f"defect: {'exceeds the effective window' if profile.exceeds_window else profile.defect}",
        ]
    return _write_format(args, out, _profile_json(profile), lines)


def cmd_kcontrol(args: argparse.Namespace, out: TextIO) -> int:
    a = Analysis(parse_subgroup(_read_input(args.input)))
    kmax = (a.w + a.l) if args.kmax is None else args.kmax
    gap, idx = a.least_gap(), a.least_gap(kmax)
    holds = ((k, gap is not None and k >= gap) for k in range(kmax + 1))
    if args.format == "json":
        # The bytes of render_json({"kmax": .., "least_gap": .., "results": [{"holds": .., "k": ..}, ..]}).
        head = f'{{\n  "kmax": {kmax},\n  "least_gap": {"null" if idx is None else idx},\n  "results": ['
        lines = (
            f'{"," if k else ""}\n    {{\n      "holds": {"true" if ok else "false"},\n      "k": {k}\n    }}'
            for k, ok in holds
        )
        last = "\n  ]\n}\n"
    else:
        head, last = "", f"least working gap: {'none up to ' + str(kmax) if idx is None else idx}\n"
        lines = (f"gap {k}: {_yesno(ok)}\n" for k, ok in holds)
    _write_chunks(itertools.chain((head,), lines, (last,)), args.out, out)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace, out: TextIO) -> int:
    h = parse_subgroup(_read_input(args.input))
    report = structure.decompose(h)
    payload = {"window": list(report.window), "invariant_factors": list(report.factors), "order": report.order}
    lines = [
        f"window: explicit {report.window[0]}, repeating block {report.window[1]}",
        f"order: {report.order}",
        f"invariant factors: {list(report.factors)}",
    ]
    return _write_format(args, out, payload, lines)


def cmd_reproduce(args: argparse.Namespace, out: TextIO) -> int:
    result = run_reproduce(args.id)
    lines = []
    for row in result["claims"]:
        detail = "" if row["pass"] else f" (expected {row['expected']!r}, got {row['actual']!r})"
        lines.append(f"{'PASS' if row['pass'] else 'FAIL'} {result['id']}: {row['name']}{detail}")
    lines.append(f"{result['id']}: {'all claims hold' if result['overall'] else 'CLAIMS FAILED'}")
    _write_format(args, out, result, lines)
    return EXIT_OK if result["overall"] else EXIT_CLAIM_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcodes",
        description="Decide the controllability hierarchy for finitely generated sequence subgroups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("--input", "-i", help="input file (default: stdin)")
        p.add_argument("--format", "-f", choices=list(formats), default=formats[0])
        p.add_argument("--out", "-o", help="write output to this file")

    p = sub.add_parser("check", help="compute every hierarchy verdict")
    common(p, ("human", "json"))
    p.add_argument("--kmax", type=_gap_bound_arg, help="largest gap to try for the least index")
    p.add_argument(
        "--cap",
        type=_non_negative_arg("--cap", "enumeration cap"),
        help="also cross-check all verdicts by enumeration, up to this many elements",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("defect", help="support-window profile of a projection")
    common(p, ("human", "json", "csv"))
    p.add_argument("--coords", default="0", help="comma-joined coordinates (default 0)")
    p.add_argument("--family", choices=("chain", "block"), help="tabulate a growth family instead")
    p.add_argument("--depths", help="parameter range a..b for --family")
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("kcontrol", help="gap-by-gap splice check")
    common(p, ("human", "json"))
    p.add_argument("--kmax", type=_gap_bound_arg, help="largest gap to test (default: window size)")
    p.set_defaults(func=cmd_kcontrol)

    p = sub.add_parser("decompose", help="invariant factors of the window image")
    common(p, ("human", "json"))
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("report", help="full canonical JSON report")
    common(p, ("json",))
    p.add_argument("--kmax", type=_gap_bound_arg, help="largest gap to try for the least index")
    p.set_defaults(func=cmd_check, cap=None)

    p = sub.add_parser("reproduce", help="re-run a packaged experiment")
    common(p, ("human", "json"))
    p.add_argument("--id", required=True, help=f"one of: {', '.join(sorted(REPRODUCE_IDS))}")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        # Argument types raise ParseError, which argparse passes through.
        args = parser.parse_args(argv)
        # argparse strips the "--" of "--opt=--" and leaves an empty list as the value.
        empty = next((name for name, value in vars(args).items() if isinstance(value, list)), None)
        if empty is not None:
            raise ParseError(f"--{empty} needs a value")
        return args.func(args, out)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}; try a smaller instance", file=sys.stderr)
        return EXIT_CAP
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ParseError, ChainNotStrict, PreconditionFailed, SchemaMismatch, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
