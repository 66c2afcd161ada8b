"""Folded-geometry loop tracing tests.

Expected homology matrices for the catalog entries were derived by hand
from the chart data (exact affine maps over the rationals) and frozen
here; the tracer must reproduce them by exact integer equality.
"""
import json
import random
from fractions import Fraction

import pytest

from qorigami import mcg, origami
from qorigami.origami import (
    AffineMap, FoldGeometry, LoopPath, OrigamiError, Protocol, ProtocolStep,
    RewriteBudgetError, builtin_protocol, catalog_names, check_closure,
    check_transversal, compose_protocols, cycle_decomposition, fold,
    fold_base_path, format_cycles, parse_cycles, reference_loops,
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
        calls = []
        check = origami.check_closure

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(origami, "check_closure", counted)
        report = verify_protocol(builtin_protocol("appB_8layer_S"))
        assert report["closed"] is True
        assert len(calls) == 1

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


class TestCycleDecomposition:
    def test_two_step_product(self):
        entry = builtin_protocol("appB_8layer_S")
        assert cycle_decomposition(entry.steps) == [
            (1, 7, 3, 5), (2, 6, 4, 8)]

    def test_identity_protocol(self):
        assert cycle_decomposition(()) == []

    def test_involution(self):
        entry = builtin_protocol("fig3_genon4_RaS")
        assert cycle_decomposition(entry.steps) == [(1, 4), (2, 3)]

    def test_region_restricted_step_is_rejected(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,4)(2,3)", 4),
                            region="delta")
        with pytest.raises(OrigamiError):
            cycle_decomposition([step])


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
        assert check_closure([], g) is True

    def test_region_restricted_half_step_is_not_closed(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,4)(2,3)", 4),
                            region="delta")
        assert check_closure([step], g) is False

    def test_trace_refuses_open_protocol(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,4)(2,3)", 4),
                            region="delta")
        with pytest.raises(OrigamiError):
            trace_loops([step], g)

    def test_non_involutive_global_swap_breaks_closure(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        step = ProtocolStep(perm=parse_cycles("(1,2)", 4))
        assert check_closure([step], g) is False


# -- tracing details ------------------------------------------------------


class TestTracing:
    def test_identity_trace(self):
        g = builtin_protocol("fig2_fold2_RaS").geometry
        alpha, beta = reference_loops(g)
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
        alpha, _ = reference_loops(g)
        segs = list(alpha.segments)
        s, e, l = segs[3]
        decorated = LoopPath(tuple(segs[:4] + [(e, s, l), (s, e, l)]
                                   + segs[4:]))
        assert unfold_class(g, decorated) == unfold_class(g, alpha)

    def test_two_zero_winding_detours_add_nothing_to_class(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        alpha, _ = reference_loops(g)
        segs = list(alpha.segments)
        s, e, l = segs[3]
        detour = [(e, s, l), (s, e, l)]
        s2, e2, l2 = segs[10]
        detour2 = [(e2, s2, l2), (s2, e2, l2)]
        decorated = LoopPath(tuple(
            segs[:4] + detour + segs[4:11] + detour2 + segs[11:]))
        assert unfold_class(g, decorated) == (1, 0)

    def test_rewrite_budget_exhaustion(self):
        g = builtin_protocol("appE_12layer_C").geometry
        with pytest.raises(RewriteBudgetError):
            fold_base_path(g, [(Fraction(0), Fraction(1, 7)),
                               (Fraction(1), Fraction(1, 7))], budget=2)

    def test_zero_budget_raises_on_cold_and_warm_geometry(self):
        steps = builtin_protocol("fig2_fold2_RaS").steps
        g = twofold_square()
        with pytest.raises(RewriteBudgetError):
            trace_loops(steps, g, budget=0)
        trace_loops(steps, g)
        with pytest.raises(RewriteBudgetError):
            trace_loops(steps, g, budget=0)

    def test_reversed_path_negates_class(self):
        g = builtin_protocol("fig3_genon4_RaS").geometry
        alpha, _ = reference_loops(g)
        assert unfold_class(g, alpha.reversed_path()) == (-1, 0)

    def test_loop_path_round_trips_its_segments(self):
        for name in ("appE_12layer_C", "fig3_genon4_RaS", "appC_hexagon_RaS"):
            for probe in builtin_protocol(name).geometry._probes:
                segments = probe.segments
                assert all(isinstance(c, Fraction)
                           for s, e, _ in segments for c in (*s, *e))
                assert LoopPath(segments).segments == segments
                assert LoopPath(segments) == probe
                assert probe.reversed_path().segments == tuple(
                    (e, s, l) for s, e, l in reversed(segments))


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
