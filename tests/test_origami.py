"""Folded-geometry loop tracing tests.

Expected homology matrices for the catalog entries were derived by hand
from the chart data (exact affine maps over the rationals) and frozen
here; the tracer must reproduce them by exact integer equality.
"""
import functools
import json
import random
import sys
import threading
from fractions import Fraction

import pytest

from qorigami import mcg, origami
from qorigami.origami import (
    AffineMap, FoldGeometry, LoopPath, OrigamiError, Protocol, ProtocolStep,
    builtin_protocol, catalog_names, check_transversal, compose_protocols,
    fold, fold_base_path, format_cycles, genon4_geometry, parse_cycles,
    reflection, square_torus, trace_loops, twofold_square, unfold_class,
    verify_protocol,
)


# -- affine maps and cycle notation ---------------------------------------


class TestAffineMap:
    def test_compose_and_inverse(self):
        m = AffineMap.make(0, 1, 1, 0, Fraction(1, 2), 0)
        assert m.after(m.inverse()) == origami.IDENTITY
        p = (Fraction(1, 3), Fraction(1, 7))
        assert m.inverse().apply(m.apply(p)) == p

    def test_reflection_is_involution(self):
        m = reflection(1, 0, -1, 1)
        assert m.after(m) == origami.IDENTITY
        assert m.linear_det() == -1
        assert m.apply((Fraction(1, 2), Fraction(1, 2))) == (
            Fraction(1, 2), Fraction(1, 2))

    def test_reflection_fixes_axis_points(self):
        m = reflection(Fraction(1, 2), 0, 0, 1)
        assert m.apply((Fraction(1, 2), Fraction(3, 4))) == (
            Fraction(1, 2), Fraction(3, 4))
        assert m.apply((0, 0)) == (1, 0)


class TestCycles:
    def test_parse_comma_and_digit_forms(self):
        assert parse_cycles("(1,4)(3,2)", 4) == parse_cycles("(14)(32)", 4)
        perm = parse_cycles("(1,4)(2,3)", 4)
        assert perm == {1: 4, 2: 3, 3: 2, 4: 1}

    def test_format_normalizes(self):
        perm = parse_cycles("(4,1)(3,2)", 4)
        assert format_cycles(perm) == "(1,4)(2,3)"
        assert format_cycles({1: 1, 2: 2}) == "()"

    def test_rejects_overlapping_cycles(self):
        with pytest.raises(OrigamiError):
            parse_cycles("(1,2)(2,3)", 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(OrigamiError):
            parse_cycles("(1,5)", 4)


# -- folding --------------------------------------------------------------


class TestFold:
    def test_single_fold_halves_and_doubles(self):
        g = fold(square_torus(), "antidiagonal")
        assert g.layers == 2
        assert g.chart(1) == origami.IDENTITY
        assert g.chart(2).linear() == ((0, -1), (-1, 0))
        assert g.orientation == (1, -1)

    def test_crease_pairing_after_one_fold(self):
        g = fold(square_torus(), "antidiagonal")
        pairings = dict(g.boundary_pairings)
        assert "(1,2)" in pairings.values()

    def test_three_folds_reach_eight_layers(self):
        g = origami.eightfold_square()
        assert g.layers == 8
        assert len(g.footprint) == 3
        dets = [c.linear_det() for c in g.charts]
        assert all(d in (1, -1) for d in dets)

    def test_glued_edge_pairing_of_eight_layers(self):
        g = origami.eightfold_square()
        pairings = dict(g.boundary_pairings)
        assert "(1,6)(2,5)(3,8)(4,7)" in pairings.values()

    def test_crease_pairings_of_eight_layers(self):
        g = origami.eightfold_square()
        values = set(dict(g.boundary_pairings).values())
        assert "(1,8)(2,7)(3,6)(4,5)" in values

    def test_fold_rejects_asymmetric_axis(self):
        g = fold(square_torus(), "antidiagonal")
        with pytest.raises(OrigamiError):
            fold(g, "horizontal_half")

    def test_unknown_axis(self):
        with pytest.raises(OrigamiError):
            fold(square_torus(), "sideways")


# -- catalog verification -------------------------------------------------

EXPECTED_TRACES = {
    "fig2_fold2_RaS": ((0, -1), (-1, 0)),
    "appB_8layer_RaS": ((0, -1), (-1, 0)),
    "appB_8layer_S": ((0, 1), (-1, 0)),
    "fig3_genon4_RaS": ((0, -1), (-1, 0)),
    "appE_4layer_RaS": ((0, -1), (-1, 0)),
    "appE_4layer_RbS": ((0, 1), (1, 0)),
    "appD_4layer_C": ((-1, 0), (0, -1)),
    "appD_bilayer_C": ((-1, 0), (0, -1)),
    "appC_hexagon_TRb": ((1, 0), (1, -1)),
    "appC_hexagon_RbS": ((0, 1), (1, 0)),
    "appC_hexagon_RaS": ((0, -1), (-1, 0)),
    "appE_12layer_TRb": ((1, 0), (1, -1)),
    "appE_12layer_RbS": ((0, 1), (1, 0)),
    "appE_12layer_RaS": ((0, -1), (-1, 0)),
    "appE_12layer_C": ((-1, 0), (0, -1)),
}


class TestCatalog:
    def test_names_cover_expected_entries(self):
        names = catalog_names()
        for name in EXPECTED_TRACES:
            assert name in names
        assert "fig3b_16layer_S" in names

    @pytest.mark.parametrize("name", sorted(EXPECTED_TRACES))
    def test_entry_verifies_exactly(self, name):
        entry = builtin_protocol(name)
        report = verify_protocol(entry)
        assert not report["skipped"]
        assert report["transversal"] is True
        assert report["closed"] is True
        assert report["trace"] == EXPECTED_TRACES[name]
        assert report["match"] is True

    def test_rng_is_ignored(self):
        entry = builtin_protocol("appB_8layer_S")
        assert verify_protocol(entry, rng=random.Random(1)) == \
            verify_protocol(entry)

    def test_stub_entry_is_skipped(self):
        report = verify_protocol(builtin_protocol("fig3b_16layer_S"))
        assert report["skipped"]
        assert "reason" in report

    def test_unknown_entry(self):
        with pytest.raises(OrigamiError):
            builtin_protocol("no_such_protocol")

    def test_expected_words_match_traces(self):
        for name in EXPECTED_TRACES:
            entry = builtin_protocol(name)
            assert entry.expected_matrix().entries() == EXPECTED_TRACES[name]

    def test_verify_checks_closure_once(self, monkeypatch):
        # One pass unfolds each of the six probe images once; it checks
        # closure, and alpha's and beta's classes are the trace.
        calls = []
        unfold = origami.unfold_class

        def counted(g, path):
            calls.append(path)
            return unfold(g, path)

        monkeypatch.setattr(origami, "unfold_class", counted)
        entry = builtin_protocol("appB_8layer_S")
        report = verify_protocol(entry)
        assert report["closed"] is True
        assert len(calls) == 6
        assert [path.ends for path in calls] == [
            probe.ends for probe in entry.geometry._probes]

    def test_probe_paths_are_built_once_per_geometry(self, monkeypatch):
        entry = builtin_protocol("appE_4layer_RbS")
        verify_protocol(entry)
        calls = []
        build = origami.fold_base_path

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(origami, "fold_base_path", counted)
        warm = verify_protocol(entry)
        assert calls == []
        clone = Protocol.from_json(entry.to_json())
        assert verify_protocol(clone) == warm
        assert len(calls) == 6
        assert all(args[0] is clone.geometry for args in calls)

    def test_probe_paths_of_the_least_recently_traced_are_evicted(
            self, monkeypatch):
        monkeypatch.setattr(origami, "_KEPT_GEOMETRIES", 3)
        text = builtin_protocol("fig2_fold2_RaS").to_json()
        first, recent = (Protocol.from_json(text) for _ in range(2))
        verify_protocol(first)
        verify_protocol(recent)
        calls = []
        build = origami.fold_base_path

        def counted(*args, **kwargs):
            calls.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(origami, "fold_base_path", counted)
        others = [Protocol.from_json(text) for _ in range(3)]
        for other in others:
            verify_protocol(recent)
            verify_protocol(other)
        assert len(calls) == 18
        assert len(origami._kept_store) == 3
        # `first` was used least recently, so it builds its probes again;
        # `recent` was used every time and still has them.
        warm = verify_protocol(recent)
        assert len(calls) == 18
        assert verify_protocol(first) == warm
        assert calls[18:] == [first.geometry] * 6
        assert len(origami._kept_store) == 3

    def test_threads_share_the_store(self, monkeypatch):
        monkeypatch.setattr(origami, "_KEPT_GEOMETRIES", 2)
        entry = builtin_protocol("appD_bilayer_C")
        text, expected = entry.to_json(), verify_protocol(entry)
        clones = [Protocol.from_json(text) for _ in range(4)]
        errors = []

        def work():
            try:
                for _ in range(3):
                    for clone in clones:
                        assert verify_protocol(clone) == expected
            except Exception as err:  # reported by the assertion below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(origami._kept_store) <= 2

    def test_tracing_leaves_the_geometry_unchanged(self):
        clone = Protocol.from_json(builtin_protocol("appD_4layer_C").to_json())
        fields = dict(vars(clone.geometry))
        verify_protocol(clone)
        assert vars(clone.geometry) == fields

    def test_clone_of_every_entry_verifies_as_the_entry(self):
        for name in catalog_names():
            entry = builtin_protocol(name)
            if entry.is_stub:
                continue
            clone = Protocol.from_json(entry.to_json())
            assert verify_protocol(clone) == verify_protocol(entry), name


class TestComposition:
    def test_ts_word_on_twelve_layers(self):
        trb = builtin_protocol("appE_12layer_TRb")
        rbs = builtin_protocol("appE_12layer_RbS")
        comp = compose_protocols(trb, rbs)
        traced = trace_loops(comp.steps, comp.geometry)
        assert traced.entries() == comp.expected_matrix().entries()
        assert traced.entries() == ((0, 1), (-1, 1))

    def test_ts_times_c_word_on_twelve_layers(self):
        trb = builtin_protocol("appE_12layer_TRb")
        ras = builtin_protocol("appE_12layer_RaS")
        comp = compose_protocols(trb, ras)
        traced = trace_loops(comp.steps, comp.geometry)
        assert traced.entries() == comp.expected_matrix().entries()

    def test_eight_layer_pair_homomorphism(self):
        ras = builtin_protocol("appB_8layer_RaS")
        comp = compose_protocols(ras, ras)
        traced = trace_loops(comp.steps, comp.geometry)
        expected = ras.expected_matrix() @ ras.expected_matrix()
        assert traced.entries() == expected.entries()

    def test_rejects_mismatched_geometries(self):
        with pytest.raises(OrigamiError):
            compose_protocols(builtin_protocol("appB_8layer_RaS"),
                              builtin_protocol("fig3_genon4_RaS"))


# -- transversality and closure -------------------------------------------


class TestTransversalAndClosure:
    def test_layer_perm_steps_are_transversal(self):
        entry = builtin_protocol("appB_8layer_S")
        assert check_transversal(entry.steps, entry.geometry) is True

    def test_point_map_step_is_not_transversal(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,2)", 4), kind="point_map")
        assert check_transversal([step], g) is False

    def test_wrong_layer_count_rejected(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,2)", 2))
        with pytest.raises(OrigamiError):
            check_transversal([step], g)

    def test_empty_protocol_is_closed(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        assert _image_classes(g, []) == [(1, 0), (0, 1)] * 3
        assert trace_loops([], g).entries() == ((1, 0), (0, 1))

    def test_region_restricted_half_step_is_not_closed(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,4)(2,3)", 4),
                            region="delta")
        assert None in _image_classes(g, [step])

    def test_trace_refuses_open_protocol(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,4)(2,3)", 4),
                            region="delta")
        with pytest.raises(OrigamiError):
            trace_loops([step], g)

    def test_non_involutive_global_swap_breaks_closure(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,2)", 4))
        assert None in _image_classes(g, [step])
        with pytest.raises(OrigamiError, match="not closed"):
            trace_loops([step], g)


def _image_classes(g, steps):
    """Class of each probe image under the steps; None where one does not
    close, so the protocol is closed iff None is absent."""
    return [unfold_class(g, origami.apply_protocol(g, steps, probe))
            for probe in g._probes]


# -- tracing details ------------------------------------------------------


class TestTracing:
    def test_identity_trace(self):
        g = builtin_protocol("fig2_fold2_RaS").geometry
        alpha, beta = g._probes[:2]
        assert unfold_class(g, alpha) == (1, 0)
        assert unfold_class(g, beta) == (0, 1)

    def test_determinant_tracks_mirror_parity(self):
        # A segment on layer l ends on layer sigma(l) of the net
        # permutation, so the traced map flips orientation iff the two
        # layers' charts differ in orientation.
        for name in EXPECTED_TRACES:
            entry = builtin_protocol(name)
            traced = trace_loops(entry.steps, entry.geometry)
            orient = entry.geometry.orientation
            sigma = {l: l for l in range(1, entry.geometry.layers + 1)}
            for step in entry.steps:
                sigma = {l: step.perm[m] for l, m in sigma.items()}
            for l, m in sigma.items():
                assert traced.det() == orient[l - 1] * orient[m - 1], (
                    name, l)

    def test_unfold_fold_duality_single_fold(self):
        g = builtin_protocol("fig2_fold2_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,2)", 2))
        traced = trace_loops([step], g)
        mirror = g.chart(2)
        assert traced.entries() == tuple(
            tuple(int(x) for x in row) for row in mirror.linear())

    def test_zero_winding_detour_adds_nothing_to_class(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        alpha = g._probes[0]
        segs = list(alpha.segments)
        s, e, l = segs[3]
        decorated = LoopPath(tuple(segs[:4] + [(e, s, l), (s, e, l)]
                                   + segs[4:]))
        assert unfold_class(g, decorated) == unfold_class(g, alpha)

    def test_two_zero_winding_detours_add_nothing_to_class(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        alpha = g._probes[0]
        segs = list(alpha.segments)
        assert len(segs) == 4
        s, e, l = segs[1]
        detour = [(e, s, l), (s, e, l)]
        s2, e2, l2 = segs[2]
        detour2 = [(e2, s2, l2), (s2, e2, l2)]
        decorated = LoopPath(tuple(
            segs[:2] + detour + segs[2:3] + detour2 + segs[3:]))
        assert unfold_class(g, decorated) == (1, 0)

    def test_loop_path_round_trips_its_segments(self):
        for name in ("appE_12layer_C", "fig3_genon4_RaS", "appC_hexagon_RaS"):
            for probe in builtin_protocol(name).geometry._probes:
                segments = probe.segments
                assert all(isinstance(c, Fraction)
                           for s, e, _ in segments for c in (*s, *e))
                assert LoopPath(segments).segments == segments
                assert LoopPath(segments) == probe


def _fraction_relabel(g, steps, segments):
    """Layer relabelling in Fractions: a region step moves a segment when
    its midpoint lies in the region."""
    for step in steps:
        poly = g.region_polygon(step.region)
        segments = tuple(
            (s, e, step.perm[l] if step.region == "ALL"
             or origami._point_in_convex(((s[0] + e[0]) / 2,
                                          (s[1] + e[1]) / 2), poly) else l)
            for s, e, l in segments)
    return segments


def _fraction_glue(g, segments):
    """Oracle for unfold_class: apply each segment's chart in Fractions
    and glue by integer translations; None if the image does not close."""
    start = cur = None
    for s, e, layer in segments:
        chart = g.chart(layer)
        ps, pe = chart.apply(s), chart.apply(e)
        if cur is None:
            start, cur = ps, pe
            continue
        tx, ty = cur[0] - ps[0], cur[1] - ps[1]
        if tx.denominator != 1 or ty.denominator != 1:
            return None
        cur = (pe[0] + tx, pe[1] + ty)
    dx, dy = cur[0] - start[0], cur[1] - start[1]
    if dx.denominator != 1 or dy.denominator != 1:
        return None
    return (int(dx), int(dy))


def _oracle_case(label):
    """(geometry, steps): a ready catalog entry, or the genon-4 geometry
    under a delta or nabla step taken once or twice."""
    if label in EXPECTED_TRACES:
        entry = builtin_protocol(label)
        return entry.geometry, entry.steps
    region, times = label.split("x")
    step = ProtocolStep(perm=parse_cycles("(1,4)(2,3)", 4), region=region)
    return (builtin_protocol("fig3_genon4_RaS").geometry,
            (step,) * int(times))


@pytest.mark.parametrize("label", sorted(EXPECTED_TRACES) + [
    "deltax1", "deltax2", "nablax1", "nablax2"])
def test_integer_glue_matches_fraction_oracle(label):
    g, steps = _oracle_case(label)
    classes = []
    for probe in g._probes:
        image = origami.apply_protocol(g, steps, probe)
        expected = _fraction_relabel(g, steps, probe.segments)
        assert image.segments == expected
        assert image.ends is probe.ends
        classes.append(unfold_class(g, image))
        assert classes[-1] == _fraction_glue(g, expected), label
    if label.endswith("x1"):
        assert None in classes
    else:
        assert None not in classes


def test_open_path_has_no_class():
    g = builtin_protocol("fig3_genon4_RaS").geometry
    for probe in g._probes:
        half = probe.segments[:len(probe.segments) // 2]
        assert _fraction_glue(g, half) is None
        assert unfold_class(g, LoopPath(half)) is None


def _fraction_fold(g, points, subdivisions=60):
    """The Fraction builder that fold_base_path replaced, as an oracle:
    each subsegment is moved by the lattice shift that locate gives its
    midpoint, then folded by the inverse chart in Fractions."""
    segments = []
    for p0, p1 in zip(points, points[1:]):
        for k in range(subdivisions):
            t_mid = Fraction(2 * k + 1, 2 * subdivisions)
            mid = (p0[0] + (p1[0] - p0[0]) * t_mid,
                   p0[1] + (p1[1] - p0[1]) * t_mid)
            wrapped = (mid[0] % 1, mid[1] % 1)
            layer, (tx, ty) = g.locate(wrapped)
            inv = g.chart(layer).inverse()
            offset = ((wrapped[0] + tx) - mid[0], (wrapped[1] + ty) - mid[1])
            start, end = (
                inv.apply((p0[0] + (p1[0] - p0[0]) * t + offset[0],
                           p0[1] + (p1[1] - p0[1]) * t + offset[1]))
                for t in (Fraction(k, subdivisions),
                          Fraction(k + 1, subdivisions)))
            segments.append((start, end, layer))
    return LoopPath(tuple(segments))


def _mid(s, e):
    return ((s[0] + e[0]) / 2, (s[1] + e[1]) / 2)


def _memberships(g, s, e):
    """Which regions of g hold the midpoint of the segment s -> e, tested
    in Fractions."""
    return tuple(origami._point_in_convex(_mid(s, e), poly)
                 for poly in g.regions.values())


def _fraction_runs(g, path, subdivisions=60):
    """Merge the oracle's subsegments into maximal runs: neighbours on one
    polyline edge, of one layer, that meet end to start and whose
    midpoints every region of g holds alike."""
    runs = []
    for i, (s, e, layer) in enumerate(path.segments):
        key = (i // subdivisions, layer, _memberships(g, s, e))
        if runs and runs[-1][2] == key and runs[-1][1] == s:
            runs[-1][1] = e
        else:
            runs.append([s, e, key])
    return LoopPath(tuple((s, e, key[1]) for s, e, key in runs))


_POLYLINES = {
    "diagonal": ([(0, 0), (Fraction(1, 3), Fraction(2, 5)), (1, 1)], 60),
    "outside_unit_square": ([(Fraction(-1, 2), Fraction(1, 3)),
                             (Fraction(3, 2), Fraction(1, 3))], 60),
    "coarse": ([(Fraction(1, 9), 0), (Fraction(1, 9), 1), (1, 1)], 7),
}


@pytest.mark.parametrize("name", [
    "appB_8layer_S", "appC_hexagon_RaS", "appC_hexagon_RbS",
    "appD_bilayer_C", "appE_12layer_C", "fig2_fold2_RaS",
    "fig3_genon4_RaS"])
def test_integer_fold_matches_fraction_oracle(name):
    g = builtin_protocol(name).geometry
    for off in (Fraction(1, 7), Fraction(2, 7), Fraction(5, 11)):
        for points in ([(0, off), (1, off)], [(off, 0), (off, 1)]):
            path = fold_base_path(g, points)
            assert path == _fraction_runs(g, _fraction_fold(g, points))
    for points, subdivisions in _POLYLINES.values():
        path = fold_base_path(g, points, subdivisions)
        expected = _fraction_runs(
            g, _fraction_fold(g, points, subdivisions), subdivisions)
        assert path == expected
        assert path.segments == expected.segments


@pytest.mark.parametrize("name", sorted(EXPECTED_TRACES))
def test_probe_runs_are_maximal(name):
    # Each probe is one straight base edge, so two neighbouring runs could
    # merge iff they share a layer, meet end to start, and every region
    # holds their midpoints alike.
    g = builtin_protocol(name).geometry
    for probe in g._probes:
        segments = probe.segments
        assert 2 <= len(segments) <= 6
        for (s1, e1, l1), (s2, e2, l2) in zip(segments, segments[1:]):
            assert not (l1 == l2 and e1 == s2 and _memberships(
                g, s1, e1) == _memberships(g, s2, e2)), (name, s2)


_PROBE_POINTS = [points for off in (Fraction(1, 7), Fraction(2, 7),
                                    Fraction(5, 11))
                 for points in ([(0, off), (1, off)], [(off, 0), (off, 1)])]


def _with_regions(regions):
    """The four-layer genon geometry with the given regions in place of
    its own."""
    g = genon4_geometry()
    return FoldGeometry(
        base=g.base, layers=g.layers, charts=g.charts, footprint=g.footprint,
        regions=regions, boundary_pairings=g.boundary_pairings,
        branch_cuts=g.branch_cuts, metadata=g.metadata)


@functools.cache
def _genon4_subsegments():
    """The oracle's 60 subsegments of each probe on the genon charts."""
    g = genon4_geometry()
    return [_fraction_fold(g, points).segments for points in _PROBE_POINTS]


def _assert_classes_match_subsegments(g, steps):
    """Each probe's runs under the steps, on a geometry with the genon
    charts, have the class of its 60 subsegments relabelled one by one in
    Fractions, and trace_loops raises exactly when one of those classes
    is None."""
    runs = _image_classes(g, steps)
    subsegments = [_fraction_glue(g, _fraction_relabel(g, steps, segments))
                   for segments in _genon4_subsegments()]
    assert runs == subsegments
    if None in subsegments:
        with pytest.raises(OrigamiError, match="not closed"):
            trace_loops(steps, g)
    else:
        assert trace_loops(steps, g).entries() == (
            (runs[0][0], runs[1][0]), (runs[0][1], runs[1][1]))
    return runs


def _random_convex(rng):
    """The convex hull of three to five random points on a small grid
    around the genon footprint, or None if it has zero area."""
    den = rng.choice((4, 6, 7, 12, 14, 60))
    pts = sorted({(Fraction(rng.randrange(-1, den + 2), den),
                   Fraction(rng.randrange(-1, den // 2 + 2), den))
                  for _ in range(rng.randrange(3, 6))})

    def chain(points):
        out = []
        for p in points:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    return tuple(hull) if len(hull) >= 3 else None


def test_runs_relabel_as_their_subsegments_under_random_regions():
    rng = random.Random(2024)
    perms = ("(1,4)(2,3)", "(1,2)(3,4)", "(1,3)(2,4)", "(1,2)", "(1,3,2,4)")
    cases = closed = 0
    while cases < 60:
        regions = dict(genon4_geometry().regions)
        for i in range(rng.randrange(1, 4)):
            poly = _random_convex(rng)
            if poly is not None:
                regions[f"r{i}"] = poly
        g = _with_regions(regions)
        names = sorted(regions) + ["ALL"]
        steps = [ProtocolStep(perm=parse_cycles(rng.choice(perms), 4),
                              region=rng.choice(names))
                 for _ in range(rng.randrange(1, 4))]
        closed += None not in _assert_classes_match_subsegments(g, steps)
        cases += 1
    assert 0 < closed < cases


def test_region_between_two_midpoints_does_not_relabel_a_run():
    # The spike touches alpha's line y = 1/7 only at x = 1/2, the middle
    # of alpha's run on layer 1 and a subsegment end, not a midpoint.
    half = Fraction(1, 2)
    spike = ((half, Fraction(1, 7)), (Fraction(2, 5), Fraction(0)),
             (Fraction(3, 5), Fraction(0)))
    g = _with_regions({"spike": spike})
    step = ProtocolStep(perm=parse_cycles("(1,4)(2,3)", 4), region="spike")
    runs = _assert_classes_match_subsegments(g, [step])
    assert runs[0] == (1, 0)
    plain = _with_regions({})._probes[0]
    assert len(g._probes[0].layers) == len(plain.layers) + 1


def test_locate_takes_integers_over_a_denominator():
    rng = random.Random(19)
    for name in ("appE_12layer_C", "fig3_genon4_RaS", "appC_hexagon_RaS"):
        g = builtin_protocol(name).geometry
        for _ in range(40):
            q = rng.choice((2, 6, 12, 120, 840))
            p = (rng.randrange(q), rng.randrange(q))
            assert g.locate(p, q) == g.locate(
                (Fraction(p[0], q), Fraction(p[1], q))), (name, p, q)


def test_uncovered_point_and_singular_chart_raise():
    corner = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)),
              (Fraction(0), Fraction(1, 2)))
    g = FoldGeometry(base="square_torus", layers=1,
                     charts=(AffineMap.make(1, 0, 0, 1),), footprint=corner)
    with pytest.raises(OrigamiError, match="not covered by any chart"):
        fold_base_path(g, [(0, Fraction(3, 4)), (1, Fraction(3, 4))])
    flat = FoldGeometry(base="square_torus", layers=1,
                        charts=(AffineMap.make(1, 1, 1, 1),),
                        footprint=square_torus().footprint)
    with pytest.raises(OrigamiError, match="singular"):
        fold_base_path(flat, [(0, Fraction(1, 7)), (1, Fraction(1, 7))])


# -- serialization --------------------------------------------------------


class TestSerialization:
    def test_protocol_round_trip(self):
        entry = builtin_protocol("appB_8layer_S")
        clone = Protocol.from_json(entry.to_json())
        assert clone.steps == entry.steps
        assert clone.expected == entry.expected
        assert clone.geometry == entry.geometry

    def test_geometry_round_trip(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        clone = FoldGeometry.from_json(g.to_json())
        assert clone == g

    def test_json_is_stable(self):
        entry = builtin_protocol("appC_hexagon_RaS")
        assert entry.to_json() == entry.to_json()
        doc = json.loads(entry.to_json())
        assert list(doc) == sorted(doc)

    @pytest.mark.parametrize("mangle", [
        lambda text: text[:-1],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "steps"}),
        lambda text: json.dumps(dict(json.loads(text), steps=5)),
    ], ids=["bad_json", "missing_key", "wrong_type"])
    def test_malformed_protocol_document(self, mangle):
        text = builtin_protocol("appB_8layer_S").to_json()
        with pytest.raises(OrigamiError):
            Protocol.from_json(mangle(text))

    @pytest.mark.parametrize("mangle", [
        lambda text: text[:-1],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "charts"}),
        lambda text: json.dumps(dict(json.loads(text), charts=[["x"]])),
    ], ids=["bad_json", "missing_key", "bad_chart"])
    def test_malformed_geometry_document(self, mangle):
        text = builtin_protocol("fig3_genon4_RaS").geometry.to_json()
        with pytest.raises(OrigamiError):
            FoldGeometry.from_json(mangle(text))

    @pytest.mark.parametrize("poly, message", [
        pytest.param([["0", "0"], ["1/2", "0"], ["1/2", "1/4"],
                      ["1/4", "1/4"], ["1/4", "1/2"], ["0", "1/2"]],
                     "not convex", id="L_shape"),
        pytest.param([["0", "0"], ["2", "0"], ["1", "3"], ["-1", "2"],
                      ["3", "2"]], "not convex", id="pentagram"),
        pytest.param([["0", "0"], ["1/2", "0"]], "fewer than 3",
                     id="two_vertices"),
        pytest.param([["0", "0"], ["1/4", "0"], ["1/2", "0"]], "zero area",
                     id="collinear"),
    ])
    def test_region_must_be_convex(self, poly, message):
        doc = json.loads(builtin_protocol("fig3_genon4_RaS").to_json())
        doc["geometry"]["regions"]["bad"] = poly
        with pytest.raises(OrigamiError, match=f"region 'bad' .*{message}"):
            Protocol.from_json(json.dumps(doc))
        with pytest.raises(OrigamiError, match=f"region 'bad' .*{message}"):
            FoldGeometry.from_json(json.dumps(doc["geometry"]))

    def test_parsed_documents_share_their_strings(self):
        text = compose_protocols(builtin_protocol("appE_4layer_RbS"),
                                 builtin_protocol("appD_4layer_C")).to_json()
        one, two = Protocol.from_json(text), Protocol.from_json(text)
        assert one.name is two.name
        assert one.expected[0] is two.expected[0]
        assert one.steps[0].region is two.steps[0].region
        assert one.steps[0].kind is two.steps[0].kind
        assert (one.metadata["composed_from"][0]
                is two.metadata["composed_from"][0])
        geometries = (one.geometry, two.geometry,
                      FoldGeometry.from_json(one.geometry.to_json()))
        for g in geometries[1:]:
            first = geometries[0]
            assert g.base is first.base
            assert all(a is b for a, b in zip(g.regions, first.regions))
            assert all(a is b for pa, pb in zip(g.boundary_pairings,
                                                first.boundary_pairings)
                       for a, b in zip(pa, pb))
            assert g.metadata["layer_order"] is first.metadata["layer_order"]

    def test_round_tripped_protocol_traces_identically(self):
        entry = builtin_protocol("appE_4layer_RbS")
        clone = Protocol.from_json(entry.to_json())
        traced = trace_loops(clone.steps, clone.geometry)
        assert traced.entries() == EXPECTED_TRACES["appE_4layer_RbS"]


# -- geometry invariants --------------------------------------------------


class TestGeometryInvariants:
    def test_charts_tile_without_overlap_on_samples(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        rng = random.Random(11)
        for _ in range(40):
            p = (Fraction(rng.randrange(1, 97), 97),
                 Fraction(rng.randrange(1, 97), 97))
            hit = g.locate(p)
            assert hit is not None

    def test_hexagon_charts_cover_base(self):
        for name in ("appC_hexagon_RbS", "appC_hexagon_RaS"):
            g = builtin_protocol(name).geometry
            rng = random.Random(13)
            for _ in range(25):
                p = (Fraction(rng.randrange(1, 89), 89),
                     Fraction(rng.randrange(1, 89), 89))
                assert g.locate(p) is not None

    def test_locate_matches_inverse_chart_test(self):
        # Small denominators put many points on chart edges and vertices,
        # where the first covering (layer, shift) depends on boundary rules.
        def reference(g, p):
            for layer in range(1, g.layers + 1):
                inv = g.chart(layer).inverse()
                for tx in origami._OFFSETS:
                    for ty in origami._OFFSETS:
                        v = inv.apply((p[0] + tx, p[1] + ty))
                        if g.contains(v):
                            return (layer, (tx, ty))
            return None

        rng = random.Random(17)
        for name in ("appB_8layer_S", "appC_hexagon_RaS", "appD_bilayer_C",
                     "appE_12layer_C", "fig2_fold2_RaS", "fig3_genon4_RaS"):
            g = builtin_protocol(name).geometry
            for _ in range(60):
                den = rng.choice((2, 3, 4, 6, 8, 12, 97))
                p = (Fraction(rng.randrange(den), den),
                     Fraction(rng.randrange(den), den))
                assert g.locate(p) == reference(g, p), (name, p)

    def test_clockwise_regions_act_as_counterclockwise_ones(self):
        g = genon4_geometry()
        reversed_g = _with_regions({name: poly[::-1]
                                    for name, poly in g.regions.items()})
        assert reversed_g._probes == g._probes
        for region in ("delta", "nabla"):
            step = ProtocolStep(perm=parse_cycles("(1,4)(2,3)", 4),
                                region=region)
            assert (_image_classes(reversed_g, [step])
                    == _image_classes(g, [step]))

    def test_orientation_flags_split_evenly(self):
        for name in ("appB_8layer_S", "appE_12layer_C", "appD_4layer_C"):
            g = builtin_protocol(name).geometry
            orient = g.orientation
            assert orient.count(1) == orient.count(-1)

    def test_branch_cut_pairings_are_involutions(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        for _, pairing in g.branch_cuts:
            perm = parse_cycles(pairing, g.layers)
            assert all(perm[perm[l]] == l for l in perm)

    def test_sheet_exchange_matches_central_element(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,3)(2,4)", 4))
        traced = trace_loops([step], g)
        assert traced.entries() == mcg.word_to_matrix(["C"]).entries()
