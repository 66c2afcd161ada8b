"""Folded multi-layer geometries and Wilson-loop tracing.

A geometry is a folded footprint polygon together with one exact affine
chart per layer mapping the footprint into a base torus (square, hexagon
in lattice coordinates, or a genon double cover presented as a torus
quotient).  Layer-permutation protocols are verified by pushing reference
loops through every step, gluing the unfolded image paths in the universal
cover, and reading off the induced action on the homology basis as an
exact integer matrix.

Partner-layer rewrites are the only rewrite rule: a segment is rewritten
into the partner layer across a crease whenever the folded path crosses
one (chart transitions).  A probe path is stored as maximal runs, one
segment per stretch of one layer, lattice shift and region membership, so
a warm trace costs O(crease crossings) rather than O(subdivisions).
Gluing sums the segments' image displacements in exact integers, so a
zero-winding detour (the double loop around a single genon) adds nothing
to the class.
"""
from __future__ import annotations

import json
import math
import re
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import mcg


class OrigamiError(ValueError):
    """Raised for invalid geometries, protocols, or stuck rewrites."""


# Geometries whose derived tracing data (see _kept) one process keeps:
# probe paths take about 30 KB per geometry, so they are kept for the
# geometries traced last rather than for every geometry a caller holds.
_KEPT_GEOMETRIES = 32
_kept_store: OrderedDict = OrderedDict()  # id -> (geometry, {name: value})
_kept_lock = threading.Lock()


class _kept:
    """A cached_property whose value lives in _kept_store, not on the
    instance: the store keeps the values of the _KEPT_GEOMETRIES
    geometries used last and evicts the least recently used, which
    computes them again when next used.  An entry holds its geometry, so
    no other object can take its id while the entry lives."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        with _kept_lock:
            entry = _kept_store.get(id(obj))
            if entry is None:
                entry = _kept_store[id(obj)] = (obj, {})
                while len(_kept_store) > _KEPT_GEOMETRIES:
                    _kept_store.popitem(last=False)
            else:
                _kept_store.move_to_end(id(obj))
        # Two threads may both compute a missing value; both get one.
        values = entry[1]
        if self.name not in values:
            values[self.name] = self.fn(obj)
        return values[self.name]


@contextmanager
def _document(kind: str):
    """Raise OrigamiError for a malformed JSON document."""
    try:
        yield
    except OrigamiError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as err:
        raise OrigamiError(f"malformed {kind} document: {err!r}") from err


def _interned(value):
    """A parsed JSON value with every string interned, so that the names,
    regions, kinds, pairings and metadata parsed objects keep are shared
    across documents instead of held once per document."""
    if isinstance(value, str):
        return sys.intern(value)
    if isinstance(value, list):
        return [_interned(v) for v in value]
    if isinstance(value, dict):
        return {sys.intern(k): _interned(v) for k, v in value.items()}
    return value


def _load(text: str, kind: str) -> dict:
    """The loader of geometry and protocol documents (see _interned)."""
    with _document(kind):
        return _interned(json.loads(text))


# -- exact affine maps ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class AffineMap:
    """Exact planar map (x, y) -> (a x + b y + e, c x + d y + f)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction = Fraction(0)
    f: Fraction = Fraction(0)

    @classmethod
    def make(cls, a, b, c, d, e=0, f=0) -> "AffineMap":
        return cls(*(v if isinstance(v, Fraction) else Fraction(v)
                     for v in (a, b, c, d, e, f)))

    def apply(self, p):
        return (self.a * p[0] + self.b * p[1] + self.e,
                self.c * p[0] + self.d * p[1] + self.f)

    def after(self, other: "AffineMap") -> "AffineMap":
        return AffineMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.a * other.e + self.b * other.f + self.e,
            self.c * other.e + self.d * other.f + self.f)

    def inverse(self) -> "AffineMap":
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise OrigamiError("singular affine map")
        ia, ib = self.d / det, -self.b / det
        ic, id_ = -self.c / det, self.a / det
        return AffineMap(ia, ib, ic, id_,
                         -(ia * self.e + ib * self.f),
                         -(ic * self.e + id_ * self.f))

    def linear_det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def linear(self):
        return ((self.a, self.b), (self.c, self.d))


IDENTITY = AffineMap.make(1, 0, 0, 1)

_OFFSETS = (0, 1, -1, 2, -2)


def reflection(px, py, dx, dy) -> AffineMap:
    """Reflection across the line through (px, py) with direction (dx, dy)."""
    px, py, dx, dy = Fraction(px), Fraction(py), Fraction(dx), Fraction(dy)
    n = dx * dx + dy * dy
    a = (dx * dx - dy * dy) / n
    b = 2 * dx * dy / n
    lin = AffineMap(a, b, b, -a)
    off = lin.apply((px, py))
    return AffineMap(a, b, b, -a, px - off[0], py - off[1])


# -- cycle notation -------------------------------------------------------


def parse_cycles(text: str, n_layers: int) -> dict:
    """Parse "(1,4)(3,2)" or "(14)(32)" into a permutation of 1..n."""
    perm = {l: l for l in range(1, n_layers + 1)}
    chunks = re.findall(r"\(([^()]*)\)", text.replace(" ", ""))
    if not chunks and text.strip():
        raise OrigamiError(f"cannot parse cycles from {text!r}")
    for chunk in chunks:
        if "," in chunk:
            members = [int(tok) for tok in chunk.split(",") if tok]
        else:
            members = [int(ch) for ch in chunk]
        if len(members) < 2:
            raise OrigamiError(f"cycle {chunk!r} too short")
        if any(not (1 <= m <= n_layers) for m in members):
            raise OrigamiError(f"cycle {chunk!r} outside 1..{n_layers}")
        if len(set(members)) != len(members):
            raise OrigamiError(f"cycle {chunk!r} repeats a layer")
        for i, m in enumerate(members):
            if perm[m] != m:
                raise OrigamiError(f"layer {m} appears in two cycles")
            perm[m] = members[(i + 1) % len(members)]
    return perm


def format_cycles(perm: dict) -> str:
    cycles = cycles_of(perm)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(m) for m in cyc) + ")"
                   for cyc in cycles)


def cycles_of(perm: dict) -> list:
    """Disjoint cycles, each starting at its smallest member, sorted."""
    seen = set()
    cycles = []
    for start in sorted(perm):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = perm[cur]
        cycles.append(tuple(cyc))
    return sorted(cycles)


# -- geometry -------------------------------------------------------------


def _point_in_convex(p, poly) -> bool:
    sign = 0
    n = len(poly)
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
        if cross == 0:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def _edge_rows(pts, den) -> tuple:
    """Integer rows (A, B, C), one per edge of a polygon whose vertices pts
    are integers over den: A X + B Y + C q is den^2 q times the cross
    product that _point_in_convex takes of the edge and the point
    (X/q, Y/q)."""
    return tuple(((y1 - y2) * den, (x2 - x1) * den,
                  (y2 - y1) * x1 - (x2 - x1) * y1)
                 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))


def _region_rows(name: str, poly) -> tuple:
    """Edge rows of a convex region (see _edge_rows), negated for a
    clockwise region, so that a point lies in it, boundary included, iff
    A X + B Y + C q >= 0 on every row.

    The rows' cross products at any point sum to twice the signed area,
    so for a polygon of nonzero area this is _point_in_convex's test.
    Raises OrigamiError for fewer than 3 vertices, zero area, or a vertex
    on the outer side of an edge (a reflex vertex, or a polygon that
    winds more than once).
    """
    if len(poly) < 3:
        raise OrigamiError(f"region {name!r} has fewer than 3 vertices")
    den = math.lcm(*(c.denominator for v in poly for c in v))
    pts = [tuple(c.numerator * (den // c.denominator) for c in v)
           for v in poly]
    rows = _edge_rows(pts, den)
    area = sum(c for _, _, c in rows)
    if area == 0:
        raise OrigamiError(f"region {name!r} has zero area")
    if area < 0:
        rows = tuple((-a, -b, -c) for a, b, c in rows)
    if any(a * x + b * y + c * den < 0 for a, b, c in rows for x, y in pts):
        raise OrigamiError(f"region {name!r} is not convex")
    return rows


def _rows_agree(rows, x, y, q) -> bool:
    """Sign test of _point_in_convex on integer edge rows (see locate)."""
    sign = 0
    for a, b, c in rows:
        cross = a * x + b * y + c * q
        if cross == 0:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def _clip_convex(poly, px, py, nx, ny):
    """Keep the part of the convex polygon with n·(p - p0) <= 0."""
    out = []
    n = len(poly)
    for i in range(n):
        p1, p2 = poly[i], poly[(i + 1) % n]
        v1 = nx * (p1[0] - px) + ny * (p1[1] - py)
        v2 = nx * (p2[0] - px) + ny * (p2[1] - py)
        if v1 <= 0:
            out.append(p1)
        if (v1 < 0 < v2) or (v2 < 0 < v1):
            t = v1 / (v1 - v2)
            out.append((p1[0] + t * (p2[0] - p1[0]),
                        p1[1] + t * (p2[1] - p1[1])))
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup)


@dataclass(frozen=True)
class FoldGeometry:
    """Folded layers over a common footprint, with exact charts."""

    base: str
    layers: int
    charts: tuple
    footprint: tuple
    regions: dict = field(default_factory=dict)
    boundary_pairings: tuple = ()
    branch_cuts: tuple = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.layers != len(self.charts):
            raise OrigamiError("one chart per layer required")
        for name, poly in self.regions.items():
            _region_rows(name, poly)
        for _, pairing in tuple(self.boundary_pairings) + tuple(
                self.branch_cuts):
            perm = parse_cycles(pairing, self.layers)
            if any(perm[perm[l]] != l for l in perm):
                raise OrigamiError(f"pairing {pairing} is not an involution")

    @property
    def orientation(self) -> tuple:
        return tuple(1 if m.linear_det() > 0 else -1 for m in self.charts)

    def chart(self, layer: int) -> AffineMap:
        return self.charts[layer - 1]

    def contains(self, p) -> bool:
        return _point_in_convex(p, self.footprint)

    def region_polygon(self, name: str):
        if name == "ALL":
            return self.footprint
        if name not in self.regions:
            raise OrigamiError(f"unknown region {name!r}")
        return self.regions[name]

    def locate(self, p, q: int = 1):
        """First folded (layer, lattice shift) covering a base point.

        The point is p, or, for q > 1, the integers p over q.  Layers are
        tried in order, and within a layer the shifts in _OFFSETS order;
        a shift covers the point when the chart's inverse maps point +
        shift into the footprint, boundary included.  Shifts that leave
        the bounding box of the layer's sheet are skipped untested.
        """
        if q == 1:
            x, y = Fraction(p[0]), Fraction(p[1])
            q = math.lcm(x.denominator, y.denominator)
            nx = x.numerator * (q // x.denominator)
            ny = y.numerator * (q // y.denominator)
        else:
            nx, ny = p
        for layer, (rows, den, xlo, xhi, ylo, yhi) in enumerate(
                self._sheets, start=1):
            # Shifts t with lo <= (n + q t) / q <= hi, the box over den.
            xd, yd, qd = nx * den, ny * den, q * den
            tx_lo, tx_hi = -((xd - xlo * q) // qd), (xhi * q - xd) // qd
            ty_lo, ty_hi = -((yd - ylo * q) // qd), (yhi * q - yd) // qd
            for tx in _OFFSETS:
                if not tx_lo <= tx <= tx_hi:
                    continue
                sx = nx + q * tx
                for ty in _OFFSETS:
                    if ty_lo <= ty <= ty_hi and _rows_agree(
                            rows, sx, ny + q * ty, q):
                        return (layer, (tx, ty))
        return None

    @_kept
    def _sheets(self):
        """Per layer, (rows, den, xlo, xhi, ylo, yhi): integer edge rows
        (A, B, C) of the chart's footprint, and the bounding box of its
        image, with the image's vertices as integers over den.

        A chart maps the footprint onto a convex polygon in the base, and
        it maps cross products of the footprint's edge test to the same
        products times its determinant.  So p + shift lies in the
        footprint after the inverse chart iff A X + B Y + C q never takes
        both signs over the rows of the image polygon, where (X, Y) =
        q (p + shift) are integers.  This is _point_in_convex in exact
        integer arithmetic, without applying the inverse per candidate.
        """
        k, charts = self._int_charts
        fd = math.lcm(*(c.denominator for v in self.footprint for c in v))
        foot = [tuple(c.numerator * (fd // c.denominator) for c in v)
                for v in self.footprint]
        den = k * fd
        out = []
        for a, b, c, d, e, f in charts:
            pts = [(a * x + b * y + e * fd, c * x + d * y + f * fd)
                   for x, y in foot]
            xs, ys = [x for x, _ in pts], [y for _, y in pts]
            out.append((_edge_rows(pts, den), den, min(xs), max(xs),
                        min(ys), max(ys)))
        return tuple(out)

    @_kept
    def _regions(self):
        """Per region name, its oriented integer rows (see _region_rows)."""
        return {name: _region_rows(name, poly)
                for name, poly in self.regions.items()}

    @_kept
    def _int_charts(self):
        """(den, rows): chart coefficients (a, b, c, d, e, f) times lcd den."""
        coeffs = [(m.a, m.b, m.c, m.d, m.e, m.f) for m in self.charts]
        den = math.lcm(*(v.denominator for row in coeffs for v in row))
        return den, tuple(tuple(int(v * den) for v in row) for row in coeffs)

    @_kept
    def _int_inverses(self):
        """(den, rows): inverse chart coefficients over one positive den.

        A chart (a, b, c, d, e, f) / k has the inverse (k d, -k b, -k c,
        k a, b f - d e, c e - a f) / (a d - b c).
        """
        k, charts = self._int_charts
        rows = []
        for a, b, c, d, e, f in charts:
            det = a * d - b * c
            if det == 0:
                raise OrigamiError("singular affine map")
            rows.append((det, (k * d, -k * b, -k * c, k * a,
                               b * f - d * e, c * e - a * f)))
        den = math.lcm(*(abs(det) for det, _ in rows))
        return den, tuple(tuple(v * (den // det) for v in row)
                          for det, row in rows)

    @_kept
    def _probes(self):
        """Folded probe loops, horizontal and vertical at three offsets,
        each as maximal runs (see fold_base_path); the first two are the
        homology basis loops alpha and beta.  They are built again only
        after the geometry was evicted from _kept_store."""
        probes = []
        for off in (Fraction(1, 7), Fraction(2, 7), Fraction(5, 11)):
            probes.append(fold_base_path(
                self, [(Fraction(0), off), (Fraction(1), off)]))
            probes.append(fold_base_path(
                self, [(off, Fraction(0)), (off, Fraction(1))]))
        return tuple(probes)

    def to_json(self) -> str:
        def frac(x):
            return str(Fraction(x))

        doc = {
            "base": self.base,
            "layers": self.layers,
            "charts": [[frac(m.a), frac(m.b), frac(m.c), frac(m.d),
                        frac(m.e), frac(m.f)] for m in self.charts],
            "footprint": [[frac(x), frac(y)] for x, y in self.footprint],
            "regions": {name: [[frac(x), frac(y)] for x, y in poly]
                        for name, poly in self.regions.items()},
            "boundary_pairings": list(map(list, self.boundary_pairings)),
            "branch_cuts": list(map(list, self.branch_cuts)),
            "metadata": self.metadata,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FoldGeometry":
        return cls._from_doc(_load(text, "geometry"))

    @classmethod
    @_document("geometry")
    def _from_doc(cls, doc: dict) -> "FoldGeometry":
        values = {}  # one Fraction per distinct number in the document

        def frac(v):
            if v not in values:
                values[v] = Fraction(v)
            return values[v]

        charts = tuple(AffineMap.make(*map(frac, row))
                       for row in doc["charts"])
        footprint = tuple((frac(x), frac(y)) for x, y in doc["footprint"])
        regions = {name: tuple((frac(x), frac(y)) for x, y in poly)
                   for name, poly in doc.get("regions", {}).items()}
        return cls(base=doc["base"], layers=doc["layers"], charts=charts,
                   footprint=footprint, regions=regions,
                   boundary_pairings=tuple(map(tuple,
                                               doc["boundary_pairings"])),
                   branch_cuts=tuple(map(tuple, doc["branch_cuts"])),
                   metadata=doc.get("metadata", {}))


@dataclass(frozen=True, slots=True)
class ProtocolStep:
    """One layer permutation, restricted to a region of the footprint."""

    perm: dict
    region: str = "ALL"
    kind: str = "layer_perm"

    def cycles(self) -> str:
        return format_cycles(self.perm)


@dataclass(frozen=True, init=False)
class LoopPath:
    """Directed folded path: per segment, sx, sy, ex, ey in `ends` as
    integers over one denominator q, and its layer in `layers`.  Built
    from, and `segments` returns, ((start, end, layer), ...) tuples of
    exact rationals.  A segment may be one subsegment or a maximal run of
    them (see fold_base_path); tracing treats both alike."""

    q: int
    ends: tuple
    layers: tuple

    def __init__(self, segments):
        coords = [c for s, e, _ in segments for c in (*s, *e)]
        q = math.lcm(*(c.denominator for c in coords))
        ends = tuple(c.numerator * (q // c.denominator) for c in coords)
        layers = tuple(layer for _, _, layer in segments)
        self.__dict__.update(q=q, ends=ends, layers=layers)

    @classmethod
    def _of(cls, q, ends, layers) -> "LoopPath":
        path = object.__new__(cls)
        path.__dict__.update(q=q, ends=ends, layers=layers)
        return path

    @property
    def segments(self) -> tuple:
        q, it = self.q, iter(self.ends)
        return tuple(((Fraction(sx, q), Fraction(sy, q)),
                      (Fraction(ex, q), Fraction(ey, q)), layer)
                     for layer, sx, sy, ex, ey in zip(self.layers,
                                                      it, it, it, it))


# -- geometry builders ----------------------------------------------------


def _edge_pairings(geometry_charts, names):
    """Layer pairings on each named footprint edge: layers whose charts
    agree pointwise (mod lattice) on the edge are crease partners."""
    pairs = []
    n = len(geometry_charts)
    for (name, (p1, p2)) in names:
        matched = []
        mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
        probe = ((p1[0] + mid[0]) / 2, (p1[1] + mid[1]) / 2)
        for i in range(n):
            for j in range(i + 1, n):
                qi = [geometry_charts[i].apply(p) for p in (mid, probe)]
                qj = [geometry_charts[j].apply(p) for p in (mid, probe)]
                deltas = {(a[0] - b[0], a[1] - b[1])
                          for a, b in zip(qi, qj)}
                if len(deltas) == 1:
                    dx, dy = deltas.pop()
                    if dx.denominator == 1 and dy.denominator == 1:
                        matched.append((i + 1, j + 1))
        if matched:
            pairing = "".join(f"({a},{b})" for a, b in sorted(matched))
            pairs.append((name, pairing))
    return tuple(pairs)


def square_torus() -> FoldGeometry:
    square = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    return FoldGeometry(base="square_torus", layers=1, charts=(IDENTITY,),
                        footprint=square)


NAMED_AXES = {
    "antidiagonal": ((1, 0), (-1, 1)),
    "diagonal": ((0, 0), (1, 1)),
    "vertical_half": ((Fraction(1, 2), 0), (0, 1)),
    "horizontal_half": ((0, Fraction(1, 2)), (1, 0)),
}


def _polygon_area(poly) -> Fraction:
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def fold(g: FoldGeometry, axis, keep=None) -> FoldGeometry:
    """Fold across a mirror axis: layers double, reflected copies get new
    labels counted from the top of the stack (layer l pairs with 2L+1-l).

    `keep` optionally picks the surviving half by a point inside it.
    """
    if isinstance(axis, str):
        if axis not in NAMED_AXES:
            raise OrigamiError(f"unknown axis {axis!r}")
        (px, py), (dx, dy) = NAMED_AXES[axis]
    else:
        (px, py), (dx, dy) = axis
    mirror = reflection(px, py, dx, dy)
    image = tuple(mirror.apply(p) for p in g.footprint)
    if sorted(image) != sorted(g.footprint):
        raise OrigamiError("axis is not a symmetry of the footprint")
    nx, ny = Fraction(dy), Fraction(-dx)
    if keep is not None:
        side = nx * (Fraction(keep[0]) - px) + ny * (Fraction(keep[1]) - py)
        if side > 0:
            nx, ny = -nx, -ny
    kept = _clip_convex(g.footprint, Fraction(px), Fraction(py), nx, ny)
    if len(kept) < 3 or 2 * _polygon_area(kept) != _polygon_area(
            g.footprint):
        raise OrigamiError("axis does not bisect the footprint")
    old = g.layers
    charts = list(g.charts) + [None] * old
    for l in range(1, old + 1):
        charts[2 * old - l] = g.chart(l).after(mirror)
    charts = tuple(charts)
    return FoldGeometry(
        base=g.base, layers=2 * old, charts=charts, footprint=kept,
        boundary_pairings=_edge_pairings(charts, _footprint_edges(kept)),
        branch_cuts=g.branch_cuts,
        metadata=dict(g.metadata, folds=g.metadata.get("folds", 0) + 1))


def _footprint_edges(poly):
    names = []
    n = len(poly)
    for i in range(n):
        names.append((f"edge_{i}", (poly[i], poly[(i + 1) % n])))
    return names


def bilayer_genon_geometry() -> FoldGeometry:
    """Planar bilayer with two branch cuts, presented as the torus double
    cover of its quotient: layer 2 is the sheet-exchanging involution."""
    kite = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1)))
    iota = AffineMap.make(-1, 0, 0, -1)
    return FoldGeometry(
        base="planar_bilayer_genons", layers=2, charts=(IDENTITY, iota),
        footprint=kite,
        branch_cuts=(("cut_1", "(1,2)"), ("cut_2", "(1,2)")),
        metadata={"cut_arrangement": "diagonal pair exchanged by the "
                                     "main-diagonal mirror"})


def genon4_geometry() -> FoldGeometry:
    """Bilayer genon system folded along the cut line into four layers.

    Layer labels follow sheet-major order: 1 and 3 are the
    two sheets, 2 and 4 their reflected copies, so the sheet exchange is
    (1,3)(2,4) and the transversal mirror protocols are (1,4)(2,3) and
    (1,2)(3,4).
    """
    tri = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(1, 2), Fraction(1, 2)))
    charts = (IDENTITY,
              AffineMap.make(0, 1, 1, 0),
              AffineMap.make(-1, 0, 0, -1),
              AffineMap.make(0, -1, -1, 0))
    half = Fraction(1, 2)
    regions = {
        "delta": ((Fraction(0), Fraction(0)), (half, Fraction(0)),
                  (half, half)),
        "nabla": ((half, Fraction(0)), (Fraction(1), Fraction(0)),
                  (half, half)),
    }
    geometry = FoldGeometry(
        base="planar_bilayer_genons", layers=4, charts=charts,
        footprint=tri, regions=regions,
        branch_cuts=(("cut_1", "(1,2)(3,4)"), ("cut_2", "(1,4)(2,3)")),
        boundary_pairings=_edge_pairings(charts, _footprint_edges(tri)),
        metadata={"layer_order": "sheet-major, not the accordion order "
                                 "that fold() would assign"})
    return geometry


_HEX_R = AffineMap.make(0, -1, 1, -1)
_HEX_M = AffineMap.make(0, 1, 1, 0)


def _hex_group(kind: str):
    r2 = _HEX_R.after(_HEX_R)
    base = [IDENTITY, _HEX_R, r2]
    mirrors = [_HEX_M, _HEX_M.after(_HEX_R), _HEX_M.after(r2)]
    if kind == "plain":
        return base + mirrors
    neg = AffineMap.make(-1, 0, 0, -1)
    if kind == "negated":
        return base + [neg.after(m) for m in mirrors]
    if kind == "full":
        half = base + mirrors
        return half + [neg.after(g) for g in half]
    raise OrigamiError(f"unknown hexagon chart family {kind!r}")


def hexagon6_geometry(family: str) -> FoldGeometry:
    """Hexagonal torus folded to six layers (lattice coordinates).

    The two mirror families give the two possible foldings: "plain"
    supports the Rb-type mirror protocols, "negated" the Ra-type.
    """
    if family == "plain":
        tri = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
               (Fraction(2, 3), Fraction(1, 3)))
    elif family == "negated":
        tri = ((Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(2, 3)),
               (Fraction(2, 3), Fraction(1, 3)))
    else:
        raise OrigamiError(f"unknown hexagon chart family {family!r}")
    charts = tuple(_hex_group(family))
    return FoldGeometry(
        base="hexagon_torus", layers=6, charts=charts, footprint=tri,
        metadata={"family": family, "footprint": "triangular"})


def hexagon12_geometry() -> FoldGeometry:
    """Hexagonal torus folded to twelve layers, ordered so the Tt-type
    mirror acts as (1,2)(3,4)...(11,12)."""
    tri = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)),
           (Fraction(2, 3), Fraction(1, 3)))
    trb = AffineMap.make(1, 0, 1, -1)
    odd = _hex_group("plain")
    charts = []
    for g in odd:
        charts.append(g)
        charts.append(trb.after(g))
    return FoldGeometry(
        base="hexagon_torus", layers=12, charts=tuple(charts),
        footprint=tri, metadata={"footprint": "triangular"})


def left_multiplication_perm(g: FoldGeometry, w: AffineMap) -> dict:
    """Permutation induced by composing every chart with w on the left."""
    perm = {}
    for l in range(1, g.layers + 1):
        target = w.after(g.chart(l))
        matches = [m for m in range(1, g.layers + 1)
                   if g.chart(m).linear() == target.linear()
                   and (g.chart(m).e - target.e).denominator == 1
                   and (g.chart(m).f - target.f).denominator == 1]
        if len(matches) != 1:
            raise OrigamiError("map does not permute the charts")
        perm[l] = matches[0]
    return perm


# -- loop tracing ---------------------------------------------------------


def fold_base_path(g: FoldGeometry, points,
                   subdivisions: int = 60) -> LoopPath:
    """Clip a base polyline into maximal folded runs with layer labels.

    Each edge of the polyline is cut into `subdivisions` subsegments, and
    each subsegment takes the layer and lattice shift that cover its
    midpoint (locate), so a chart transition between subsegments is a
    partner-layer rewrite.  Consecutive subsegments of one edge form one
    segment, a run, while they share the layer and the shift (so they
    meet end to start in folded coordinates) and every region of the
    geometry gives their midpoints the same membership (_split_runs).
    The work is in integers: base points over m, a multiple of
    2 * subdivisions and of every point's denominator, and folded points
    over q, m times the inverse charts' denominator, reduced at the end
    to the least one, as LoopPath(segments) would.
    """
    if subdivisions < 1:
        return LoopPath(())
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n2 = 2 * subdivisions
    m = n2 * math.lcm(*(c.denominator for p in pts for c in p))
    base = [tuple(c.numerator * (m // c.denominator) for c in p)
            for p in pts]
    den, inverses = g._int_inverses
    regions = tuple(g._regions.values())
    q = den * m
    ends, layers = [], []
    for (x0, y0), (x1, y1) in zip(base, base[1:]):
        # Subsegment k of n runs from half-step 2k to 2k + 2 of (dx, dy),
        # so its midpoint is at the odd half-step s = 2k + 1.
        dx, dy = (x1 - x0) // n2, (y1 - y0) // n2
        chunks = []  # [first s, last s, (layer, shift x, shift y)]
        for s in range(1, n2, 2):
            mx, my = x0 + s * dx, y0 + s * dy
            fx, fy = mx // m, my // m
            hit = g.locate((mx - fx * m, my - fy * m), m)
            if hit is None:
                mid = (Fraction(mx, m), Fraction(my, m))
                raise OrigamiError(f"point {mid} not covered by any chart")
            layer, (tx, ty) = hit
            key = (layer, tx - fx, ty - fy)
            if chunks and chunks[-1][2] == key:
                chunks[-1][1] = s
            else:
                chunks.append([s, s, key])
        for first, last, (layer, ox, oy) in chunks:
            # The lattice shift brings the chunk's midpoints into the
            # sheet, and the inverse chart folds it: half-step s lands on
            # (px + s vx, py + s vy) over q.
            a, b, c, d, e, f = inverses[layer - 1]
            bx, by = x0 + ox * m, y0 + oy * m
            px, py = a * bx + b * by + e * m, c * bx + d * by + f * m
            vx, vy = a * dx + b * dy, c * dx + d * dy
            for s0, s1 in _split_runs(first, last, px, py, vx, vy, q,
                                      regions):
                ends += (px + (s0 - 1) * vx, py + (s0 - 1) * vy,
                         px + (s1 + 1) * vx, py + (s1 + 1) * vy)
                layers.append(layer)
    common = math.gcd(q, *ends)
    return LoopPath._of(q // common, tuple(v // common for v in ends),
                        tuple(layers))


def _split_runs(first, last, px, py, vx, vy, q, regions):
    """Split a chunk, the subsegments with odd midpoint half-steps first
    to last on one straight folded line (see fold_base_path), into runs
    (s0, s1) on which every region's membership is constant.

    A convex region holds the integer half-steps s of one interval: on
    each of its rows, A X + B Y + C q = u + s w >= 0 bounds s on one
    side.  Runs are cut where that interval starts and ends among the
    midpoints.  A run's own midpoint then has the membership of its
    subsegments' midpoints (apply_protocol tests it), except when the run
    has an even count and a region holds its middle half-step but none of
    its midpoints; such a run loses its first subsegment to a run of its
    own, which leaves an odd count whose midpoint is a subsegment's.
    """
    if not regions:
        return ((first, last),)
    spans, cuts = [], {first}
    for rows in regions:
        lo, hi = first, last
        for a, b, c in rows:
            u, w = a * px + b * py + c * q, a * vx + b * vy
            if w > 0:
                lo = max(lo, -(u // w))
            elif w < 0:
                hi = min(hi, u // -w)
            elif u < 0:
                lo, hi = last + 1, first - 1
        spans.append((lo, hi))
        odd_lo, odd_hi = lo | 1, (hi - 1) | 1
        if odd_lo <= odd_hi:
            cuts.update((odd_lo, odd_hi + 2))
    bounds = sorted(s for s in cuts if s <= last) + [last + 2]
    runs = []
    for s0, stop in zip(bounds, bounds[1:]):
        s1, mid = stop - 2, (s0 + stop - 2) // 2
        if any((lo <= mid <= hi) != (lo <= s0 <= hi) for lo, hi in spans):
            runs.append((s0, s0))
            s0 += 2
        runs.append((s0, s1))
    return runs


def apply_protocol(g: FoldGeometry, steps, path: LoopPath) -> LoopPath:
    """Relabel path layers step by step, honoring region restrictions
    (by segment midpoint); the result shares the input's `ends`."""
    layers = path.layers
    for step in steps:
        if step.kind != "layer_perm":
            raise OrigamiError(
                "only layer permutations can act on traced paths")
        if step.region == "ALL":
            layers = tuple(map(step.perm.__getitem__, layers))
            continue
        g.region_polygon(step.region)  # raises for an unknown region
        rows = g._regions[step.region]
        two_q, it = 2 * path.q, iter(path.ends)
        layers = tuple(
            step.perm[layer] if all(
                a * (sx + ex) + b * (sy + ey) + c * two_q >= 0
                for a, b, c in rows) else layer
            for layer, sx, sy, ex, ey in zip(layers, it, it, it, it))
    return LoopPath._of(path.q, path.ends, layers)


def unfold_class(g: FoldGeometry, path: LoopPath):
    """Glue the unfolded path in the universal cover; return (dx, dy).

    Chart images are integers over den * path.q, so the lattice is the
    multiples of that.  Each segment must start congruent, modulo the
    lattice, to where the one before it ends (the first to where the last
    ends); the class is the sum of the image displacements.  Returns None
    if the image is not a closed loop (protocol not closed).
    """
    den, charts = g._int_charts
    q, it = path.q, iter(path.ends)
    lattice = den * q
    images = []
    for layer, sx, sy, ex, ey in zip(path.layers, it, it, it, it):
        a, b, c, d, e, f = charts[layer - 1]
        images.append((a * sx + b * sy + e * q, c * sx + d * sy + f * q,
                       a * ex + b * ey + e * q, c * ex + d * ey + f * q))
    pairs = zip(images[-1:] + images, images)
    if any((sx - ex) % lattice or (sy - ey) % lattice
           for (_, _, ex, ey), (sx, sy, _, _) in pairs):
        return None
    return (sum(ex - sx for sx, _, ex, _ in images) // lattice,
            sum(ey - sy for _, sy, _, ey in images) // lattice)


def check_transversal(steps, g: FoldGeometry) -> bool:
    """True iff every step permutes layers within vertical stacks only."""
    for step in steps:
        if step.kind != "layer_perm":
            return False
        if sorted(step.perm) != list(range(1, g.layers + 1)):
            raise OrigamiError("permutation does not match the layer count")
        if sorted(step.perm.values()) != list(range(1, g.layers + 1)):
            raise OrigamiError("step does not define a permutation")
        g.region_polygon(step.region)
    return True


def trace_loops(steps, g: FoldGeometry):
    """Induced 2x2 integer homology action of a closed protocol.

    One pass unfolds the images of the six probes: the protocol is closed
    iff every image closes (OrigamiError otherwise), and the classes of
    the images of alpha and beta, the first two probes, are the matrix's
    columns.
    """
    if any(step.kind != "layer_perm" for step in steps):
        raise OrigamiError("protocol is not closed; cannot trace loops")
    classes = [unfold_class(g, apply_protocol(g, steps, probe))
               for probe in g._probes]
    if None in classes:
        raise OrigamiError("protocol is not closed; cannot trace loops")
    (a_x, a_y), (b_x, b_y) = classes[:2]
    return mcg.MCGMatrix(a_x, b_x, a_y, b_y)


# -- protocols and the catalog --------------------------------------------


@dataclass(frozen=True)
class Protocol:
    name: str
    geometry: FoldGeometry
    steps: tuple
    expected: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def is_stub(self) -> bool:
        return bool(self.metadata.get("stub"))

    def expected_matrix(self):
        return mcg.word_to_matrix(list(self.expected))

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "geometry": json.loads(self.geometry.to_json()),
            "steps": [{"region": s.region, "perm": s.cycles(),
                       "kind": s.kind} for s in self.steps],
            "expected": list(self.expected),
            "metadata": self.metadata,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    @_document("protocol")
    def from_json(cls, text: str) -> "Protocol":
        doc = _load(text, "protocol")
        geometry = FoldGeometry._from_doc(doc["geometry"])
        steps = tuple(
            ProtocolStep(perm=parse_cycles(s["perm"], geometry.layers),
                         region=s["region"], kind=s.get("kind", "layer_perm"))
            for s in doc["steps"])
        return cls(name=doc["name"], geometry=geometry, steps=steps,
                   expected=tuple(doc["expected"]),
                   metadata=doc.get("metadata", {}))


def compose_protocols(p1: Protocol, p2: Protocol) -> Protocol:
    """Composite protocol: p2 runs first, expected words concatenate."""
    if p1.geometry != p2.geometry:
        raise OrigamiError("protocols live on different geometries")
    return Protocol(
        name=f"{p1.name}*{p2.name}", geometry=p1.geometry,
        steps=tuple(p2.steps) + tuple(p1.steps),
        expected=tuple(p1.expected) + tuple(p2.expected),
        metadata={"composed_from": [p1.name, p2.name]})


def _step(g: FoldGeometry, cycles: str, region: str = "ALL") -> ProtocolStep:
    return ProtocolStep(perm=parse_cycles(cycles, g.layers), region=region)


def twofold_square() -> FoldGeometry:
    """Square torus folded once across the anti-diagonal."""
    return fold(square_torus(), "antidiagonal")


def eightfold_square() -> FoldGeometry:
    """Square torus folded three times into an eight-layer triangle."""
    g = fold(square_torus(), "antidiagonal")
    g = fold(g, "diagonal", keep=(Fraction(1, 2), Fraction(1, 8)))
    return fold(g, "vertical_half")


@cache
def _catalog() -> dict:
    entries = {}
    fold2 = twofold_square()
    entries["fig2_fold2_RaS"] = Protocol(
        "fig2_fold2_RaS", fold2, (_step(fold2, "(1,2)"),), ("Ra", "S"),
        {"note": "single fold across the torus diagonal"})

    fold8 = eightfold_square()
    swap_a = "(1,2)(3,4)(5,6)(7,8)"
    swap_b = "(1,8)(2,5)(3,6)(4,7)"
    entries["appB_8layer_RaS"] = Protocol(
        "appB_8layer_RaS", fold8, (_step(fold8, swap_a),), ("Ra", "S"))
    entries["appB_8layer_S"] = Protocol(
        "appB_8layer_S", fold8,
        (_step(fold8, swap_a), _step(fold8, swap_b)), ("S",),
        {"note": "second swap composes the first into the S move"})

    gen4 = genon4_geometry()
    eq1_note = ("often written as a two-factor per-region product; both "
                "factors describe the same transversal stack operation "
                "seen from the two halves of the unfolded base")
    entries["fig3_genon4_RaS"] = Protocol(
        "fig3_genon4_RaS", gen4, (_step(gen4, "(1,4)(2,3)"),), ("Ra", "S"),
        {"note": eq1_note})
    entries["appE_4layer_RaS"] = Protocol(
        "appE_4layer_RaS", gen4, (_step(gen4, "(1,4)(2,3)"),), ("Ra", "S"),
        {"note": eq1_note})
    entries["appE_4layer_RbS"] = Protocol(
        "appE_4layer_RbS", gen4, (_step(gen4, "(1,2)(3,4)"),), ("Rb", "S"))
    entries["appD_4layer_C"] = Protocol(
        "appD_4layer_C", gen4, (_step(gen4, "(1,3)(2,4)"),), ("C",))

    bilayer = bilayer_genon_geometry()
    entries["appD_bilayer_C"] = Protocol(
        "appD_bilayer_C", bilayer, (_step(bilayer, "(1,2)"),), ("C",))

    hex_words = {
        "TRb": ("negated", AffineMap.make(1, 0, 1, -1), ("T", "Rb")),
        "RbS": ("plain", AffineMap.make(0, 1, 1, 0), ("Rb", "S")),
        "RaS": ("negated", AffineMap.make(0, -1, -1, 0), ("Ra", "S")),
    }
    for label, (family, w, word) in hex_words.items():
        geometry = hexagon6_geometry(family)
        perm = left_multiplication_perm(geometry, w)
        entries[f"appC_hexagon_{label}"] = Protocol(
            f"appC_hexagon_{label}", geometry,
            (ProtocolStep(perm=perm),), word,
            {"family": family})

    hex12 = hexagon12_geometry()
    twelve_words = {
        "TRb": (AffineMap.make(1, 0, 1, -1), ("T", "Rb")),
        "RbS": (AffineMap.make(0, 1, 1, 0), ("Rb", "S")),
        "RaS": (AffineMap.make(0, -1, -1, 0), ("Ra", "S")),
        "C": (AffineMap.make(-1, 0, 0, -1), ("C",)),
    }
    for label, (w, word) in twelve_words.items():
        perm = left_multiplication_perm(hex12, w)
        entries[f"appE_12layer_{label}"] = Protocol(
            f"appE_12layer_{label}", hex12, (ProtocolStep(perm=perm),), word)

    entries["fig3b_16layer_S"] = Protocol(
        "fig3b_16layer_S", eightfold_square(), (), ("S",),
        {"stub": True,
         "reason": "sixteen-layer transversal S construction is stated "
                   "without an explicit protocol"})
    return entries


def catalog_names() -> list:
    return sorted(_catalog())


def builtin_protocol(name: str) -> Protocol:
    """Return the catalog's Protocol for a named entry."""
    entries = _catalog()
    if name not in entries:
        raise OrigamiError(
            f"unknown protocol {name!r}; known: {', '.join(sorted(entries))}")
    return entries[name]


def verify_protocol(entry: Protocol, rng=None) -> dict:
    """Transversality, closure, and exact trace check for one entry.

    check_transversal raises on a step that does not permute the layers,
    and trace_loops, which checks closure in the same pass that traces,
    raises on an open protocol or a step that is not a layer permutation,
    so a returned report always has "transversal" and "closed" True.
    Tracing is deterministic: `rng` is accepted for callers that still
    pass one and is ignored.
    """
    if entry.is_stub:
        return {"name": entry.name, "skipped": True,
                "reason": entry.metadata.get("reason", "stub")}
    transversal = check_transversal(entry.steps, entry.geometry)
    traced = trace_loops(entry.steps, entry.geometry)
    expected = entry.expected_matrix()
    return {
        "name": entry.name,
        "skipped": False,
        "transversal": transversal,
        "closed": True,
        "trace": traced.entries(),
        "expected": expected.entries(),
        "match": traced.entries() == expected.entries(),
    }
