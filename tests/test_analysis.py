"""Identities the one-pass analysis relies on, as properties of random subgroups."""

import ast
import inspect
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import groupcodes
from groupcodes import control, finabel, intlinalg
from groupcodes.cli import build_report
from groupcodes.control import (
    Analysis,
    DefectProfile,
    WindowOracle,
    _basis_rows,
    _splice_spans,
    controllable_at,
    is_k_controllable,
    strong_index,
    uniformity_defect,
    verify_verdict,
)
from groupcodes.errors import CapExceeded
from groupcodes.families import block_family, z2_power_example
from groupcodes.finabel import FiniteAbelianGroup, invariant_factors, subgroup_equal
from groupcodes.intlinalg import snf
from groupcodes.seqspace import (
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    constant,
    effective_window,
    enumerate_elements,
    intersect_directsum,
    intersect_sum_window,
    project,
    subgroup_order,
    uniform_schema,
    window_subgroup,
)
from test_finabel import presentation
from test_report_digest import corpus, random_subgroups

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

groups = st.lists(st.sampled_from((2, 3, 4, 6)), min_size=1, max_size=2).map(
    lambda orders: FiniteAbelianGroup(tuple(orders))
)


@st.composite
def product_subgroups(draw):
    """Up to three generators over an optional prefix of up to two groups; may be empty."""
    schema = CoordSchema(tuple(draw(st.lists(groups, max_size=2))), draw(groups))

    def value(g):
        return g.element(tuple(draw(st.integers(0, o - 1)) for o in g.orders))

    gens = []
    for _ in range(draw(st.integers(0, 3))):
        plen = draw(st.integers(schema.w0, schema.w0 + 3))
        vals = tuple(value(schema.group_at(i)) for i in range(plen))
        if draw(st.booleans()):
            period = tuple(value(schema.tail) for _ in range(draw(st.integers(1, 2))))
        else:
            period = (schema.tail.zero(),)
        gens.append(SeqElement(schema, vals, period))
    return ProductSubgroup(schema, tuple(gens))


@PROPERTY
@given(product_subgroups())
def test_widest_window_part_is_finite_support_part(h):
    w, l = effective_window(h)
    assert intersect_directsum(h).gens == intersect_sum_window(h, range(w + l + 1)).gens


@PROPERTY
@given(product_subgroups())
def test_segment_defects_never_decrease(h):
    w, l = effective_window(h)
    unreached = w + l + 1
    defects = [uniformity_defect(h, range(n + 1)).defect for n in range(w + l)]
    ranks = [unreached if d is None else d for d in defects]
    assert ranks == sorted(ranks)


@PROPERTY
@given(product_subgroups())
def test_k_controllability_monotone_and_least_gap(h):
    w, l = effective_window(h)
    holds = [is_k_controllable(h, k).holds for k in range(w + l + 2)]
    assert holds == sorted(holds)
    oracle = _oracle(h, 3000)
    for k_max in [None, -1, *range(w + l + 2)]:
        bound = w + l if k_max is None else k_max
        first = next((k for k in range(bound + 1) if holds[k]), None)
        assert oracle.strong_index(k_max) == strong_index(h, k_max) == first


@PROPERTY
@given(product_subgroups())
def test_splice_check_is_read_off_segment_defects(h):
    # cut n >= 1 splices with gap k exactly when d(n), the defect of [0, n - 1], is at most n + k - 1
    w, l = effective_window(h)
    defects = [uniformity_defect(h, range(n)).defect for n in range(1, w + l + 1)]
    for n in range(w + l + 1):
        d = defects[n - 1] if n else None
        for k in range(w + l + 2):
            expected = n == 0 or (d is not None and d <= n + k - 1)
            assert subgroup_equal(*_splice_spans(h, n, k)[:2]) == expected
    for k in range(w + l + 2):
        assert verify_verdict(h, is_k_controllable(h, k))


def _decided(report):
    return {key: value for key, value in report.items() if key != "subgroup"}


@PROPERTY
@given(product_subgroups(), st.randoms(use_true_random=False))
def test_report_invariant_under_generator_presentation(h, rng):
    base = _decided(build_report(h))
    if not h.gens:
        return
    shuffled = list(h.gens)
    rng.shuffle(shuffled)
    assert _decided(build_report(ProductSubgroup(h.schema, tuple(shuffled)))) == base
    doubled = h.gens + (rng.choice(h.gens),)
    assert _decided(build_report(ProductSubgroup(h.schema, doubled))) == base


@PROPERTY
@given(product_subgroups(), st.randoms(use_true_random=False), st.integers(2, 5))
def test_report_invariant_under_derived_generators(h, rng, c):
    if not h.gens:
        return
    base = _decided(build_report(h))
    x, y = rng.choice(h.gens), rng.choice(h.gens)
    assert _decided(build_report(ProductSubgroup(h.schema, h.gens + (x + y,)))) == base
    assert _decided(build_report(ProductSubgroup(h.schema, h.gens + (x.scale(c),)))) == base


@PROPERTY
@given(product_subgroups())
def test_echelon_parts_match_intersect_sum_window(h):
    w, l = effective_window(h)
    a = Analysis(h)
    targets = [tuple(range(n)) for n in range(1, w + l + 1)] + [(0,)]
    for k in range(w + l + 2):
        part = intersect_sum_window(h, range(k + 1))
        assert a.part(k) == project(part, range(w + l))
        for coords in targets:
            assert a._project(k, coords) == project(part, coords)
    for coords in [(w + l,), (0, w + l + 1), tuple(range(w, w + 2 * l + 1)), (3 * (w + l) + 1,)]:
        assert a._project(None, coords) == project(h, coords)
    assert a.window == window_subgroup(h)[0]


@PROPERTY
@given(product_subgroups())
def test_projection_memo_is_keyed_on_folded_coordinates(h):
    a = Analysis(h)
    for i in range(a.w, a.w + 2 * a.l):
        assert a._project(None, (i,)) is a._project(None, (i + a.l,))
        assert a._project(0, tuple(range(i, i + a.l))) is a._project(0, tuple(range(i + a.l, i + 2 * a.l)))


def _trivial_window(a):
    return all(a.part(k).order() == 1 for k in range(a.w + a.l + 2))


def test_constant_generator_has_empty_explicit_window():
    schema = uniform_schema(FiniteAbelianGroup((2,)))
    h = ProductSubgroup(schema, (constant(schema, schema.tail.element((1,))),))
    a = Analysis(h)
    assert (a.w, a.l) == (0, 1)
    assert _trivial_window(a)
    assert a._project(None, (0, 5)).order() == 2
    assert a.segment_defects == (None,)
    assert not a.controllable().holds and verify_verdict(h, a.controllable())
    assert not a.uniformly_controllable().holds and a.least_gap() is None


@pytest.mark.parametrize("prefix", [(), (FiniteAbelianGroup((3,)), FiniteAbelianGroup((2, 4)))])
def test_empty_generator_set(prefix):
    h = ProductSubgroup(CoordSchema(prefix, FiniteAbelianGroup((2,))), ())
    a = Analysis(h)
    assert (a.w, a.l) == (len(prefix), 1)
    assert _trivial_window(a) and a.window.order() == 1
    assert a.segment_defects == (0,) * (a.w + a.l)
    assert a.controllable().holds and a.uniformly_controllable().holds and a.least_gap() == 0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(product_subgroups())
def test_engine_agrees_with_enumeration(h):
    try:
        oracle = WindowOracle(h, cap=3000)
    except CapExceeded:
        assume(False)
    a = Analysis(h)
    defects = a.segment_defects
    for n in range(1, a.w + a.l + 1):
        assert (defects[n - 1] if n <= len(defects) else None) == oracle.defect(range(n))
    # No gap exceeds W + L, so the default bound cuts none off.
    assert a.least_gap() == a.least_gap(10**9) == oracle.strong_index()
    assert a.controllable().holds == oracle.controllable()


def _oracle(h, cap):
    try:
        return WindowOracle(h, cap=cap)
    except CapExceeded:
        assume(False)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(product_subgroups())
def test_lower_rungs_are_one_fact(h):
    # H lies in the direct sum of the G_i exactly when every generator's block is zero.
    a = Analysis(h)
    finite_support = all(v.is_zero() for g in h.gens for v in g.period)
    assert a.controllable().holds == a.uniformly_controllable().holds == finite_support
    oracle = _oracle(h, 3000)
    assert oracle.controllable() == oracle.uniformly_controllable() == finite_support


def test_verdicts_read_the_defect_scan_not_the_subgroup():
    # Every verdict reads the echelon form built in __init__; no method encodes H again.
    (cls,) = ast.parse(inspect.getsource(Analysis)).body
    methods = {m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)}

    def names(node):
        nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
        return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}

    encoders = {"h", "_splice_spans", "restrict", "project", "span"}
    assert sorted(f"{m}.{x}" for m, node in methods.items() if m != "__init__" for x in names(node) & encoders) == []
    assert "h" not in {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)}
    assert "controllable_at" not in names(methods["controllable"])
    # Defects read the pivots of one insertion pass, not canonicalised parts or projections.
    rebuilders = {"uniformity_defect", "part", "_project", "subgroup_equal", "echelon_mod"}
    assert not names(methods["segment_defects"]) & rebuilders
    assert not names(methods["uniformity_defect"]) & rebuilders
    assert [a.arg for a in methods["uniformity_defect"].args.args] == ["self", "j"]
    # One extended-gcd insertion step serves every echelon form.
    package = Path(groupcodes.__file__).parent
    calls = [
        node
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_xgcd"
    ]
    assert len(calls) == 1


@pytest.mark.parametrize("h", [z2_power_example(4), block_family(2, (3, 4))], ids=["chain", "block"])
def test_defect_tables_run_no_echelon(h, monkeypatch):
    calls, echelon_mod = [], intlinalg.echelon_mod

    def counted(gens, orders):
        calls.append(len(orders))
        return echelon_mod(gens, orders)

    for module in (intlinalg, finabel, control):
        monkeypatch.setattr(module, "echelon_mod", counted)
    a = Analysis(h)
    a.window
    assert calls
    calls.clear()
    a.segment_defects
    a.uniformity_defect((0,))
    assert calls == []


@PROPERTY
@given(product_subgroups())
def test_oracle_answers_every_gap(h):
    oracle = _oracle(h, 3000)
    w, l = effective_window(h)
    a = Analysis(h)
    for k in range(2 * (w + l) + 2):
        holds = a.k_controllable(k).holds
        assert oracle.k_controllable(k) == holds


@PROPERTY
@given(product_subgroups())
def test_oracle_splices_as_the_definition_on_a_long_horizon(h):
    # Each element listed on [0, T) with T = 5 (W + L) + 2, which leaves a
    # whole block after every future start and reconnection point used below.
    oracle = _oracle(h, 60)
    w, l = effective_window(h)
    horizon = 5 * (w + l) + 2
    elems = [tuple(e.value_at(i).coords for i in range(horizon)) for e in enumerate_elements(h)]
    assert len(elems) == len(oracle.elements)

    def joint(n, m):
        return {(x[:n], x[m:]) for x in elems}

    def splices(n, m):
        pairs = joint(n, m)
        return pairs == {(p, f) for p, _ in pairs for _, f in pairs}

    cuts = range(w + l + 1)
    for k in range(2 * (w + l) + 2):
        assert oracle.k_controllable(k) == all(splices(n, n + k) for n in cuts)
    points = {n: range(n, horizon - l + 1) for n in cuts}
    assert oracle.uniform_splice() == all(any(splices(n, m) for m in points[n]) for n in cuts)
    pairwise = all(
        any((x[:n], y[m:]) in joint(n, m) for m in points[n]) for n in cuts for x in elems for y in elems
    )
    assert oracle.controllable_splice() == pairwise


class SliceOracle:
    """The enumeration oracle on sets of slice tuples, as first written: the reference for ``WindowOracle``.

    Elements are closed under the generators step by step; every query
    compares sets of value tuples or of pairs of slices.
    """

    def __init__(self, h, cap):
        self.w, self.l = w, l = effective_window(h)
        groups = [h.schema.group_at(i) for i in range(w + l)]
        orders = [o for g in groups for o in g.orders]
        self.offsets = list(accumulate((g.n for g in groups), initial=0))
        elems = {(0,) * len(orders)}
        for g in h.gens:
            step = tuple(c for i in range(w + l) for c in g.value_at(i).coords)
            new = elems
            while new:
                new = {tuple((a + b) % o for a, b, o in zip(x, step, orders)) for x in new} - elems
                elems |= new
                if len(elems) > cap:
                    raise CapExceeded(cap + 1, cap)
        self.elements = sorted(elems)

    def _from(self, n):
        return self.offsets[min(n, self.w)]

    def patterns(self, coords, within=None):
        w, l = self.w, self.l
        cols = []
        for i in coords:
            i = i if i < w + l else w + (i - w) % l
            cols.extend(range(self.offsets[i], self.offsets[i + 1]))
        pool = self.elements
        if within is not None:
            start = self._from(within + 1)
            pool = [x for x in pool if not any(x[start:])]
        return {tuple(x[c] for c in cols) for x in pool}

    def controllable_at(self, j):
        coords = sorted(set(j))
        return self.patterns(coords) == self.patterns(coords, within=self.w - 1)

    def defect(self, j):
        coords = sorted(set(j))
        target = self.patterns(coords)
        return next((k for k in range(self.w + self.l + 1) if self.patterns(coords, within=k) == target), None)

    def _splices(self, n, m):
        cut, start = self.offsets[n], self._from(m)
        return {(x[:cut], x[start:]) for x in self.elements}

    def _joins(self, n, m):
        joint = self._splices(n, m)
        return len(joint) == len({p for p, _ in joint}) * len({f for _, f in joint})

    def k_controllable(self, k):
        return all(self._joins(n, n + k) for n in range(self.w + self.l + 1))

    def strong_index(self, k_max=None):
        bound = self.w if k_max is None else min(k_max, self.w)
        return next((k for k in range(bound + 1) if self.k_controllable(k)), None)

    def uniform_splice(self):
        cuts = range(self.w + self.l + 1)
        return all(any(self._joins(n, m) for m in range(n, max(n, self.w) + 1)) for n in cuts)


def test_oracle_answers_as_the_slice_reference():
    checked = 0
    for h in random_subgroups(7, 300) + corpus():
        try:
            ref = SliceOracle(h, cap=3000)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                WindowOracle(h, cap=3000)
            continue
        oracle = WindowOracle(h, cap=3000)
        assert sorted(oracle.elements) == ref.elements
        w, l = ref.w, ref.l
        # Unsorted, repeated and folded coordinates as well as the segments.
        for j in [range(n) for n in range(1, w + l + 1)] + [(w,), (0, w + l), (w + l + 3, 1, 1)]:
            for within in (None, w - 1):
                assert oracle.patterns(sorted(set(j)), within) == ref.patterns(sorted(set(j)), within)
            assert oracle.defect(j) == ref.defect(j)
            assert oracle.controllable_at(j) == ref.controllable_at(j)
        assert [oracle.k_controllable(k) for k in range(2 * (w + l) + 2)] == [
            ref.k_controllable(k) for k in range(2 * (w + l) + 2)
        ]
        # Every bound from W on answers as W does.
        assert [oracle.strong_index(k) for k in range(w + 2)] == [ref.strong_index(k) for k in range(w + 2)]
        assert oracle.strong_index() == ref.strong_index()
        assert oracle.uniform_splice() == ref.uniform_splice()
        assert oracle.weakly_controllable() == oracle.controllable() == ref.controllable_at(range(w + l))
        assert oracle.uniformly_controllable() == (ref.defect(range(w + l)) is not None)
        checked += 1
    assert checked >= 300


@PROPERTY
@given(product_subgroups())
@example(ProductSubgroup(uniform_schema(FiniteAbelianGroup((2,))), ()))
def test_oracle_cap_is_the_subgroup_order(h):
    order = subgroup_order(h)
    assume(order <= 3000)
    assert len(WindowOracle(h, cap=order).elements) == order
    with pytest.raises(CapExceeded) as exc:
        WindowOracle(h, cap=order - 1)
    assert str(exc.value) == f"enumeration needs {order} elements, cap is {order - 1}"
    # The zero element counts, so a cap below 1 refuses every subgroup.
    for cap in (0, -1):
        with pytest.raises(CapExceeded, match=f"^enumeration needs 1 elements, cap is {cap}$"):
            WindowOracle(h, cap=cap)


@PROPERTY
@given(product_subgroups())
def test_verdicts_at_one_coordinate_set_replay(h):
    w, l = effective_window(h)
    for j in [range(n) for n in range(1, w + l + 1)] + [(w,), (0, w + l)]:
        assert verify_verdict(h, controllable_at(h, j))


@PROPERTY
@given(product_subgroups())
def test_segment_bases_are_blocks_of_the_window_basis(h):
    a = Analysis(h)
    for n in range(a.w + a.l + 1):
        assert a._segment(n) == _basis_rows(a._project(None, tuple(range(n))))


@PROPERTY
@given(product_subgroups())
def test_future_sweep_gives_the_canonical_futures(h):
    a = Analysis(h)
    w, l = a.w, a.l
    for k in range(w + 2 * l + 1):
        futures = a._futures(k)
        for m in range(k, w + 2 * l + 1):
            expected = project(h, range(m, w + l) if m <= w else range(m, m + l))
            assert next(futures) == _basis_rows(expected)


@pytest.mark.parametrize(
    "h", [block_family(2, (2,) * 12), block_family(2, (4, 16)), z2_power_example(4)], ids=["gap-1", "block", "chain"]
)
def test_holding_k_controllable_runs_at_most_one_echelon(h, monkeypatch):
    calls, echelon_mod = [], intlinalg.echelon_mod

    def counted(gens, orders):
        calls.append(len(orders))
        return echelon_mod(gens, orders)

    for module in (intlinalg, finabel, control):
        monkeypatch.setattr(module, "echelon_mod", counted)
    gap, w, l = Analysis(h).least_gap(), *effective_window(h)
    for k in range(gap, w + l + 2):
        a = Analysis(h)
        a.window
        calls.clear()
        assert a.k_controllable(k).holds
        assert len(calls) <= 1, (k, calls)


def _window_images(h, j):
    """Projections onto ``j`` of the parts supported on ``[0, k]``, ``k = 0..W+L``, and of ``h``, by seqspace."""
    w, l = effective_window(h)
    return [project(intersect_sum_window(h, range(k + 1)), j) for k in range(w + l + 1)], project(h, j)


@PROPERTY
@given(product_subgroups())
def test_segment_defects_are_the_uniformity_defects_of_segments(h):
    expected = []
    for n in range(1, sum(effective_window(h)) + 1):
        images, target = _window_images(h, range(n))
        expected.append(images.index(target) if target in images else None)
    cut = expected.index(None) + 1 if None in expected else len(expected)
    assert list(Analysis(h).segment_defects) == expected[:cut]


@PROPERTY
@given(product_subgroups())
def test_uniformity_defect_tables_match_the_window_images(h):
    w, l = effective_window(h)
    for j in [*(tuple(range(n)) for n in range(1, w + l + 1)), (w,), (0, w + l), (w, w + l), ()]:
        images, target = _window_images(h, j)
        defect = images.index(target) if target in images else None
        tried = images if defect is None else images[: defect + 1]
        profile = uniformity_defect(h, j)
        assert profile == DefectProfile(j, defect, tuple((k, image.order()) for k, image in enumerate(tried)))
    with pytest.raises(IndexError):
        uniformity_defect(h, (-1, 0))


@PROPERTY
@given(product_subgroups())
def test_invariant_factors_match_smith_form_of_presentation(h):
    a = Analysis(h)
    for s in [a.window] + [a.part(k) for k in range(a.w + 1)]:
        d = snf(presentation(s)).d
        assert invariant_factors(s) == [d[i, i] for i in range(s.parent.n) if d[i, i] > 1]
