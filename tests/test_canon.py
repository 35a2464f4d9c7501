"""Frobenius orbits, frame normalization, canonical forms."""

import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from hyperfocus.arcs import (
    LineMeetsArc,
    additive_closure,
    classify_focus,
    focus_count,
    make_arc,
    stacks_by_size,
    translation_arc,
)
from hyperfocus import canon
from hyperfocus.canon import (
    arc_digest,
    canonical_form,
    canonical_forms,
    digest,
    frobenius_orbit_reps,
    serialize_arc,
)
from hyperfocus.field import make_field, tables
from hyperfocus.plane import (
    LINE_AT_INFINITY,
    DegenerateFrame,
    all_points,
)

from oracles import (
    affine_ordinates_oracle,
    apply_point,
    arc_accepts,
    canonical_form_oracle,
    extend_arc,
    frobenius_point,
    incident,
    moved_arc,
    normalize_frame,
    random_z0_collineation,
    scale,
)

QUAD = ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))
K12_RESULTS = Path(__file__).resolve().parent.parent / "results" / "k12.jsonl"


def test_orbit_reps_q32(gf32):
    reps = frobenius_orbit_reps(gf32)
    assert reps == [1, 2, 8, 5, 20, 7, 31]
    assert [gf32.dlog(a) for a in reps] == [0, 1, 3, 5, 7, 11, 15]
    assert frobenius_orbit_reps(gf32, frozenset({0, 1})) == [2, 8, 5, 20, 7, 31]


def test_orbit_reps_q8(gf8):
    assert frobenius_orbit_reps(gf8) == [1, 2, 3]


def test_orbit_reps_zero_included(gf8):
    reps = frobenius_orbit_reps(gf8, frozenset())
    assert reps[0] == 0
    assert reps[1:] == [1, 2, 3]


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7, 8])
def test_orbit_reps_partition(s):
    """Orbits of the representatives partition F_q minus the exclusions,
    and each representative has the smallest log in its orbit."""
    gf = make_field(s)
    reps = frobenius_orbit_reps(gf)
    seen = set()
    for a in reps:
        orbit = set()
        b = a
        while b not in orbit:
            orbit.add(b)
            b = gf.mul(b, b)
        assert not orbit & seen
        assert min(gf.dlog(x) for x in orbit) == gf.dlog(a)
        seen |= orbit
    assert seen == set(range(1, gf.q))


def test_serialize_arc_shape(gf32, gf8):
    arc = make_arc(gf32, QUAD)
    blob = serialize_arc(gf32, arc)
    assert len(blob) == 4 * 3  # one byte per coordinate for s <= 8
    assert blob == bytes([0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1])
    gf512 = make_field(9)
    arc9 = make_arc(gf512, QUAD)
    assert len(serialize_arc(gf512, arc9)) == 4 * 3 * 2


@pytest.mark.parametrize("qname", ["gf8", "gf32"])
def test_affine_ordinates_match_scalar_oracle(qname, request):
    """`_affine_ordinates` divides by numpy dot products and agrees with
    the per-point scalar map, as arrays of field elements: at q = 8 for
    every line and all the points off it, at q = 32 for seeded random
    lines and points, one arc at a time and as a stack of two.  Given
    every point, it and the oracle name the same first point on the line
    in LineMeetsArc; fewer than three points are too few."""
    gf = request.getfixturevalue(qname)
    rng = random.Random(gf.q)
    pts = list(all_points(gf))
    lines = pts if gf.q == 8 else rng.sample(pts, 40)
    for m in lines:
        off = [p for p in pts if not incident(gf, p, m)]
        if gf.q == 32:
            off = rng.sample(off, 60)
        x, y, first = canon._affine_ordinates(gf, np.array(off), m)
        assert x.dtype == y.dtype == tables(gf).log.dtype
        assert first == len(off)
        want = affine_ordinates_oracle(gf, off, m)
        assert list(zip(x.tolist(), y.tolist())) == want
        moved = rng.sample(off, len(off))
        x2, y2, first2 = canon._affine_ordinates(gf, np.array([off, moved]), m)
        assert first2.tolist() == [len(off)] * 2
        assert list(zip(x2[1].tolist(), y2[1].tolist())) == [want[off.index(p)] for p in moved]
        shuffled = tuple(rng.sample(pts, len(pts)))
        with pytest.raises(LineMeetsArc) as want:
            affine_ordinates_oracle(gf, shuffled, m)
        _, _, first = canon._affine_ordinates(gf, np.array(shuffled), m)
        with pytest.raises(LineMeetsArc, match=re.escape(str(want.value))):
            canon._check_arc(shuffled, m, int(first))
        with pytest.raises(ValueError, match="arc too small for a triple"):
            canon._check_arc(tuple(off[:2]), m, 2)


def test_normalize_frame_reference_position(gf8):
    group = additive_closure(gf8, [(1, 1), (2, 4), (4, 6)])
    arc = translation_arc(gf8, group)
    triple = (arc[3], arc[1], arc[2])
    t, image = normalize_frame(gf8, arc, LINE_AT_INFINITY, triple)
    assert apply_point(gf8, t, triple[0]) == (1, 0, 1)
    assert apply_point(gf8, t, triple[1]) == (0, 1, 1)
    assert apply_point(gf8, t, triple[2]) == (0, 0, 1)
    assert all(p[2] == 1 for p in image)
    assert len(image) == len(arc)
    kind, n = classify_focus(gf8, image, LINE_AT_INFINITY)
    assert (kind, n) == classify_focus(gf8, arc, LINE_AT_INFINITY)


def test_normalize_frame_rejects_line_points(gf8):
    arc = make_arc(gf8, QUAD)
    with pytest.raises(LineMeetsArc):
        normalize_frame(
            gf8, arc, LINE_AT_INFINITY, ((1, 0, 0), (0, 0, 1), (0, 1, 1))
        )


def test_canonical_form_invariance(gf8):
    """The form survives every line-stabilizing projectivity and every
    Frobenius twist."""
    group = additive_closure(gf8, [(1, 1), (2, 4), (4, 6)])
    arc = translation_arc(gf8, group)
    base = canonical_form(gf8, arc)
    rng = random.Random(29)
    for _ in range(8):
        t = random_z0_collineation(gf8, rng)
        i = rng.randrange(gf8.s)
        moved = make_arc(
            gf8,
            [frobenius_point(gf8, apply_point(gf8, t, p), i) for p in arc],
        )
        assert canonical_form(gf8, moved) == base
        assert arc_digest(gf8, moved) == arc_digest(gf8, arc)


def test_canonical_form_separates_focus_counts(gf8):
    """Arcs with different focus counts can never share a form."""
    group = additive_closure(gf8, [(1, 1), (2, 4), (4, 6)])
    hyper = translation_arc(gf8, group)  # |F| = 7
    rng = random.Random(31)
    pts = list(all_points(gf8))
    other = None
    while other is None:
        arc = ()
        for p in rng.sample(pts, len(pts)):
            if len(arc) == 8:
                break
            if p[2] == 1 and arc_accepts(gf8, arc, p):
                arc = extend_arc(gf8, arc, p)
        if len(arc) == 8 and focus_count(gf8, arc, LINE_AT_INFINITY) > 7:
            other = arc
    assert canonical_form(gf8, hyper) != canonical_form(gf8, other)
    assert arc_digest(gf8, hyper) != arc_digest(gf8, other)


def test_equivalence_classes(gf8):
    """Grouped by canonical form, taken per size-group stack as `classify`
    takes them, a translation arc and its image under a collineation
    fixing Z = 0 share a class and a 4-arc is alone in another."""
    group = additive_closure(gf8, [(1, 1), (2, 4), (4, 6)])
    arc = translation_arc(gf8, group)
    rng = random.Random(37)
    t = random_z0_collineation(gf8, rng)
    moved = make_arc(gf8, [apply_point(gf8, t, p) for p in arc])
    quad = make_arc(gf8, QUAD)
    groups = {}
    for idx, stack in stacks_by_size([arc, moved, quad]):
        for i, form in zip(idx, canonical_forms(gf8, stack)):
            groups.setdefault(form, []).append(i)
    classes = [(digest(form), groups[form]) for form in sorted(groups)]
    assert len(classes) == 2
    grouping = sorted(idx for _, idx in classes)
    assert grouping == [[0, 1], [2]]
    for dig, _ in classes:
        assert len(dig) == 16 and int(dig, 16) >= 0


def test_digest_shape():
    d = digest(b"anything")
    assert len(d) == 16
    assert d == digest(b"anything")
    assert d != digest(b"anything else")


# --- the batched kernel against the per-triple oracle -----------------------


def _k12_records():
    return [json.loads(line) for line in K12_RESULTS.read_text().splitlines()]


def _affine_hyperoval(gf):
    """The conic X^2 + XY + aY^2 = Z^2 (t^2 + t + a irreducible) plus its
    nucleus (0, 0, 1): a (q+2)-arc missing Z = 0."""
    roots = {gf.mul(t, t) ^ t for t in gf.elements()}
    a = next(a for a in gf.elements() if a not in roots)
    pts = [
        (x, y, 1)
        for x in gf.elements()
        for y in gf.elements()
        if gf.mul(x, x) ^ gf.mul(x, y) ^ gf.mul(a, gf.mul(y, y)) == 1
    ]
    return make_arc(gf, pts + [(0, 0, 1)])


def _random_affine_arc(gf, rng, size):
    """A greedy random arc of affine points, or a random part of an affine
    hyperoval when greedy growth stalls below the size."""
    affine = [p for p in all_points(gf) if p[2] == 1]
    for _ in range(10):
        arc = ()
        for p in rng.sample(affine, len(affine)):
            if arc_accepts(gf, arc, p):
                arc = extend_arc(gf, arc, p)
                if len(arc) == size:
                    return arc
    return make_arc(gf, rng.sample(_affine_hyperoval(gf), size))


def test_kernel_matches_oracle_on_k12_records(gf32):
    for rec in random.Random(41).sample(_k12_records(), 6):
        arc = make_arc(gf32, rec["points"])
        assert canonical_form(gf32, arc) == canonical_form_oracle(gf32, arc)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_kernel_matches_oracle_on_random_arcs(s):
    gf = make_field(s)
    rng = random.Random(43 + s)
    for size in range(3, gf.q + 2):
        arc = _random_affine_arc(gf, rng, size)
        assert canonical_form(gf, arc) == canonical_form_oracle(gf, arc), size


def test_kernel_matches_oracle_off_z0(gf8):
    """On the exterior line X + Z = 0: the image of an affine hyperoval
    under (x, y, z) -> (x, y, x + z), which sends Z = 0 to that line."""
    oval = _affine_hyperoval(gf8)
    moved = make_arc(gf8, [scale(gf8, (x, y, x ^ z)) for x, y, z in oval])
    line = (1, 0, 1)
    form = canonical_form(gf8, moved, line)
    assert form == canonical_form_oracle(gf8, moved, line)
    assert form == canonical_form(gf8, oval)


def test_canonical_form_errors(gf8):
    with pytest.raises(LineMeetsArc):
        canonical_form(gf8, QUAD + ((1, 1, 0),))
    with pytest.raises(LineMeetsArc):
        canonical_form(gf8, QUAD, (1, 0, 1))
    with pytest.raises(DegenerateFrame):
        canonical_form(gf8, QUAD + ((0, 3, 1),))
    with pytest.raises(ValueError):
        canonical_form(gf8, QUAD[:2])


def test_stored_digests_match(gf32):
    """Every digest in results/k12.jsonl is its own record's fresh digest."""
    for rec in _k12_records():
        assert arc_digest(gf32, make_arc(gf32, rec["points"])) == rec["digest"]


# --- one kernel per class ----------------------------------------------------


def _class_pool(gf, rng, sizes, per_size=4, images=2):
    """Up to `per_size` pairwise inequivalent random arcs of each size,
    each with `images` collineation images under nontrivial Frobenius
    powers, shuffled."""
    pool = []
    for size in sizes:
        reps = {}
        for _ in range(6 * per_size):
            arc = _random_affine_arc(gf, rng, size)
            reps.setdefault(canonical_form(gf, arc), arc)
            if len(reps) == per_size:
                break
        for arc in reps.values():
            pool.append(arc)
            for j in range(images):
                pool.append(moved_arc(gf, arc, rng, 1 + j % (gf.s - 1)))
    rng.shuffle(pool)
    return pool


# q = 4 has two classes of 4-arcs and one of every other size
@pytest.mark.parametrize(
    "s, sizes, classes", [(2, (3, 4, 5, 6), 2), (3, (4, 5, 6, 7), 3), (4, (4, 5, 6), 4)]
)
def test_canonical_forms_match_kernel_on_shuffled_pools(s, sizes, classes, kernel_calls):
    """Several classes of one size, and of several sizes in one batch,
    each with Frobenius-twisted collineation images: the batch gives the
    per-arc kernel's forms, runs the kernel once per class, and agrees
    with the oracle on a sample."""
    gf = make_field(s)
    rng = random.Random(50 + s)
    pool = _class_pool(gf, rng, sizes)
    per_size = [_class_pool(gf, rng, (size,)) for size in sizes]
    assert max(len({canonical_form(gf, a) for a in p}) for p in per_size) >= classes
    for batch in per_size + [pool]:
        want = [canonical_form(gf, arc) for arc in batch]
        del kernel_calls[:]
        assert canonical_forms(gf, batch) == want
        assert len(kernel_calls) == len(set(want))
    for arc in rng.sample(pool, 4):
        assert canonical_forms(gf, [arc]) == [canonical_form_oracle(gf, arc)]


def test_canonical_forms_off_z0(gf8):
    """Equivalence on another exterior line, X + Z = 0."""
    rng = random.Random(61)
    arcs = _class_pool(gf8, rng, (6,), per_size=3)

    def off(arc):
        return make_arc(gf8, [scale(gf8, (x, y, x ^ z)) for x, y, z in arc])

    assert canonical_forms(gf8, [off(a) for a in arcs], (1, 0, 1)) == [
        canonical_form(gf8, a) for a in arcs
    ]


def test_canonical_forms_one_kernel_for_k12_records(gf32, kernel_calls):
    """The 60 stored 12-arcs are one class: in any order they take one
    kernel run, and every form is its record's digest."""
    recs = _k12_records()
    random.Random(67).shuffle(recs)
    forms = canonical_forms(gf32, [make_arc(gf32, r["points"]) for r in recs])
    assert [digest(f) for f in forms] == [r["digest"] for r in recs]
    assert kernel_calls == [12]


def test_canonical_forms_errors_in_a_batch(gf8):
    """A batch raises what canonical_form raises on its bad member, also
    when earlier arcs of the same size have filled the lookup."""
    rng = random.Random(71)
    good = _class_pool(gf8, rng, (5,), per_size=3, images=1)
    cases = [
        (LineMeetsArc, QUAD + ((1, 1, 0),)),
        (DegenerateFrame, QUAD + ((0, 3, 1),)),  # collinear, not in the first triple
        (DegenerateFrame, ((0, 0, 1), (0, 1, 1), (0, 3, 1), (1, 0, 1), (1, 1, 1))),
        (ValueError, QUAD[:2]),
    ]
    for exc, bad in cases:
        with pytest.raises(exc):
            canonical_form(gf8, bad)
        with pytest.raises(exc):
            canonical_forms(gf8, good + [bad] + good)
    with pytest.raises(LineMeetsArc):
        canonical_forms(gf8, [QUAD, QUAD], (1, 0, 1))


def test_rejected_point_named_alike_for_lists_and_arrays(gf8):
    """A point on the line is named as a tuple of ints whether the arcs
    come as tuples, as lists or as an (n, k, 3) array: one exception type
    and one text for all three."""
    arcs = [QUAD, QUAD[1:] + ((1, 0, 0),)]
    got = set()
    for given in (arcs, [list(map(list, arc)) for arc in arcs], np.array(arcs)):
        with pytest.raises(ValueError) as exc:
            canonical_forms(gf8, given)
        got.add((type(exc.value), str(exc.value)))
    assert got == {(LineMeetsArc, "(1, 0, 0) lies on the line (0, 0, 1)")}


def test_canonical_forms_empty(gf8):
    assert canonical_forms(gf8, []) == []


def _forms_or_error(gf, arcs, line, forms=canonical_forms):
    """The forms of the list, or the type and message of what it raises."""
    try:
        return forms(gf, arcs, line)
    except ValueError as exc:
        return type(exc), str(exc)


def _one_at_a_time(gf, arcs, line):
    return [canonical_form(gf, arc, line) for arc in arcs]


@pytest.fixture(scope="module")
def mixed_list(gf32):
    """Arcs of sizes 12, 6 and 4 at q = 32 on the line X + Z = 0, moved
    there from Z = 0 by (x, y, z) -> (x, y, x + z): three collineation
    images (Frobenius powers 0, 1 and 3) of each of two stored 12-arcs,
    two 6-subsets and two 4-subsets of one of them, shuffled; and five
    arcs canonical_form rejects."""
    rng = random.Random(73)
    k12 = make_arc(gf32, _k12_records()[5]["points"])
    reps = [
        make_arc(gf32, _k12_records()[0]["points"]), k12,
        k12[:6], k12[3:9], k12[:4], k12[2:4] + k12[9:11],
    ]
    good = [moved_arc(gf32, arc, rng, j) for arc in reps for j in (0, 1, 3)]
    rng.shuffle(good)

    def off(arc):
        return tuple(scale(gf32, (x, y, x ^ z)) for x, y, z in arc)

    good = [off(arc) for arc in good]
    bad = [
        (LineMeetsArc, good[0][:3] + ((1, 5, 1),) + good[0][4:]),  # on X + Z = 0
        (DegenerateFrame, ((0, 0, 1), (0, 1, 1), (0, 9, 1), (2, 0, 1), (3, 3, 1), (4, 7, 1))),
        (DegenerateFrame, ((0, 0, 1), (2, 3, 1), (3, 7, 1), (0, 1, 1), (0, 2, 1), (4, 4, 1))),
        (DegenerateFrame, ((0, 0, 1), (2, 3, 1), (3, 7, 1), (2, 3, 1))),  # a point twice
        (ValueError, ((0, 0, 1), (2, 2, 1))),
    ]
    return good, bad


def test_canonical_forms_mixed_list_matches_one_at_a_time(gf32, mixed_list):
    """On a list of three sizes and several classes per size, off Z = 0,
    canonical_forms gives canonical_form's forms; with rejected arcs
    placed among them in several orders, it raises the type and message
    canonical_form raises on the first of them in the list."""
    line = (1, 0, 1)
    good, bad = mixed_list
    want = _one_at_a_time(gf32, good, line)
    assert canonical_forms(gf32, good, line) == want
    assert {len(arc) for arc in good} == {4, 6, 12}
    for size in (4, 6):  # the 12-arcs are one class
        assert len({f for f, arc in zip(want, good) if len(arc) == size}) == 2
    for exc, arc in bad:
        assert _forms_or_error(gf32, [arc], line, _one_at_a_time)[0] is exc
    rng = random.Random(74)
    for _ in range(12):
        arcs = list(good)
        for _, arc in rng.sample(bad, rng.randrange(1, len(bad) + 1)):
            arcs.insert(rng.randrange(len(arcs) + 1), arc)
        first = _forms_or_error(gf32, arcs, line, _one_at_a_time)
        assert isinstance(first, tuple)
        assert _forms_or_error(gf32, arcs, line) == first


def test_canonical_forms_one_kernel_per_class_one_probe_per_size(
    gf32, mixed_list, kernel_calls, monkeypatch
):
    """The full kernel runs once per class of the list, and the probe rows
    of each size group come from one _affine_ordinates and one
    _normalized_images call over the whole group."""
    good, _ = mixed_list
    calls = {"ordinates": [], "images": []}
    ordinates, images = canon._affine_ordinates, canon._normalized_images

    def spy_ordinates(gf, pts, line):
        calls["ordinates"].append(pts.shape)
        return ordinates(gf, pts, line)

    def spy_images(gf, tab, x, y, *triples):
        if x.ndim == 2:  # a stack of arcs, not one arc's kernel block
            calls["images"].append(x.shape)
        return images(gf, tab, x, y, *triples)

    monkeypatch.setattr(canon, "_affine_ordinates", spy_ordinates)
    monkeypatch.setattr(canon, "_normalized_images", spy_images)
    forms = canonical_forms(gf32, good, (1, 0, 1))
    assert sorted(kernel_calls) == sorted(
        len(arc) for form, arc in dict(zip(forms, good)).items()
    )
    counts = {n: sum(len(arc) == n for arc in good) for n in (4, 6, 12)}
    assert sorted(calls["ordinates"]) == sorted((m, n, 3) for n, m in counts.items())
    assert sorted(calls["images"]) == sorted((m, n) for n, m in counts.items())
