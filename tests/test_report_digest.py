"""A frozen digest of report bytes over a seeded corpus.

Every report, certificate and verdict byte is meant to stay the same across
refactors of the engine.  The corpus mixes seeded random subgroups (some
with an empty explicit window) with the paper's families; each is reported
at three gap bounds and the SHA-256 of all the rendered JSON is compared
with a constant.  A change that alters any report byte changes the digest.
"""

import hashlib
import random

from groupcodes.cli import build_report, render_json
from groupcodes.families import block_family, dense_trivial_sum_family, z2_power_example
from groupcodes.finabel import FiniteAbelianGroup
from groupcodes.seqspace import CoordSchema, ProductSubgroup, SeqElement, effective_window

DIGEST = "b60984327888154fa3df98b67613b1138c5272cd38b4cc993c4312165bdf59e7"
KMAX = (None, 0, 1)


def _group(rng):
    return FiniteAbelianGroup(tuple(rng.choice((2, 3, 4, 5, 6, 9)) for _ in range(rng.randrange(1, 3))))


def _value(rng, g):
    return g.element(tuple(rng.randrange(o) for o in g.orders))


def random_subgroups(seed, count):
    """Up to three generators over a prefix of up to two groups; in every eighth draw without a prefix they are purely periodic."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        schema = CoordSchema(tuple(_group(rng) for _ in range(rng.randrange(3))), _group(rng))
        gens = []
        for _ in range(rng.randrange(4)):
            plen = 0 if i % 8 == 0 and not schema.w0 else rng.randrange(schema.w0, schema.w0 + 4)
            vals = tuple(_value(rng, schema.group_at(t)) for t in range(plen))
            if rng.random() < 0.5:
                period = tuple(_value(rng, schema.tail) for _ in range(rng.randrange(1, 3)))
            else:
                period = (schema.tail.zero(),)
            gens.append(SeqElement(schema, vals, period))
        out.append(ProductSubgroup(schema, tuple(gens)))
    return out


def corpus():
    families = [z2_power_example(d) for d in range(1, 7)]
    families += [block_family(p, sizes) for p in (2, 3) for sizes in ((1,), (2, 3), (3, 1, 4), (5, 5))]
    families.append(dense_trivial_sum_family(FiniteAbelianGroup((2, 3)), 3, 3))
    return random_subgroups(20261019, 160) + families


def test_corpus_includes_an_empty_window():
    assert any(effective_window(h)[0] == 0 for h in random_subgroups(20261019, 160))


# Report SHA-256 of one gap-1 family and one two-block family, each on its own.
FAMILY_DIGESTS = {
    (2, (2,) * 12): "b057391ac223ac02376fe857358e4d65f2457027d6b6671cee9cc2b4e5e78b7b",
    (2, (4, 16)): "758fdcd1116bb103e170504aab7860d3bac96d30d11614e9257c00d5538325e7",
}


def test_family_reports_match_their_frozen_digests():
    for (p, sizes), expected in FAMILY_DIGESTS.items():
        assert hashlib.sha256(render_json(build_report(block_family(p, sizes))).encode()).hexdigest() == expected


def test_report_bytes_match_the_frozen_digest():
    digest = hashlib.sha256()
    for h in corpus():
        for kmax in KMAX:
            digest.update(render_json(build_report(h, kmax)).encode())
    assert digest.hexdigest() == DIGEST
