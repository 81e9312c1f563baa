"""Identities the one-pass analysis relies on, as properties of random subgroups."""

from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.cli import build_report
from groupcodes.control import _splice_spans, is_k_controllable, strong_index, uniformity_defect, verify_verdict
from groupcodes.finabel import FiniteAbelianGroup, subgroup_equal
from groupcodes.seqspace import (
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    effective_window,
    intersect_directsum,
    intersect_sum_window,
)

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
    first = holds.index(True) if True in holds[: w + l + 1] else None
    assert strong_index(h) == first
    for k_max in range(w + l + 1):
        assert strong_index(h, k_max) == (first if first is not None and first <= k_max else None)


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
