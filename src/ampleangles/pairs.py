"""Log pairs (S, C = sum C_i): boundary bookkeeping and the blow-up calculus.

A pair holds its surface, an ordered labelled boundary, and explicit node
records (one node per transverse intersection point, so the count of
nodes joining components i and j always equals C_i.C_j).  Simple normal
crossings is structural: tangencies are unrepresentable.

Blow-ups come in two flavours of one step (`_blow_up`: proper transforms
of the components through the center, pulled-back tracked curves, the
fiber through the center):
  * smooth-point blow-up: the named component is replaced by its proper
    transform, the exceptional curve stays out of the boundary;
  * node blow-up: both incident components are replaced by proper
    transforms and the exceptional curve joins the boundary (total
    transform), enabling infinitely-near chains through the new nodes.

Contraction (`contract`) is the one inverse step, restricted to the
most recent exceptional basis class E: every class drops its E
coordinate, the pair is rebuilt through `make_pair` (the node a total
transform consumed is put back), and the pushforward identity is
verified exactly.  Since Pic of the blow-up is the pullback of Pic plus
Z.E, the residual angle coefficient on E is read off the E coordinate
of the upstairs log adjoint family, for every incidence pattern alike.

Besides the boundary, a pair tracks the classes of known irreducible
curves produced by its construction (exceptional curves not in the
boundary, proper transforms of rulings through the blow-up centers);
these feed the outer ampleness approximation and minimality tests.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence, Union

from .geometry import (
    UNKNOWN,
    BlowUp,
    DivisorClass,
    Hirzebruch,
    ProjectivePlane,
    Rat,
    SurfaceModel,
    _cached_field,
    _fraction,
    _integer_point,
    _rational,
    blow_up,
    intersect,
    nef_cone,
)


class NodeRecord(namedtuple("NodeRecord", "id incident on_fiber_of")):
    """A transverse intersection point of two distinct boundary components:
    `incident` holds their boundary indices, stored sorted, and
    `on_fiber_of` a ruling tag (F_n-rooted surfaces only) or None."""

    __slots__ = ()

    def __new__(cls, id: str, incident: tuple[int, int], on_fiber_of: Optional[str] = None):
        i, j = incident
        if i == j:
            raise ValueError("SNC boundaries have no self-nodes")
        return tuple.__new__(cls, (id, (j, i) if i > j else incident, on_fiber_of))


class TrackedCurve(namedtuple("TrackedCurve", "kind tag coeffs")):
    """A non-boundary irreducible curve class known from the construction:
    `kind` is "exceptional" or "fiber", `coeffs` a tuple of Fractions."""

    __slots__ = ()


class BlowUpEvent(namedtuple("BlowUpEvent", "exc_label kind target restore_node", defaults=(None,))):
    """One blow-up of a pair's history: `kind` is "smooth" or "node",
    `target` a component label or node id, and `restore_node` the node a
    node blow-up consumed."""

    __slots__ = ()


class AngleVector(namedtuple("AngleVector", "entries")):
    """A tuple of Fraction angles, each in [0, 1]."""

    __slots__ = ()

    def __new__(cls, entries: tuple[Fraction, ...]):
        # a denominator is positive, so 0 <= e <= 1 on the integer ratio; an
        # entry that is not a Fraction passes the exact gate, which refuses a float
        for e in entries:
            n, q = e.as_integer_ratio() if type(e) is Fraction else _rational(e).as_integer_ratio()
            if not 0 <= n <= q:
                raise ValueError("angles must lie in [0, 1]")
        return tuple.__new__(cls, (entries,))


def angles(values: Sequence[Rat]) -> AngleVector:
    """The angle vector of the values, each kept as it is when it is already
    a Fraction; a float or any other inexact value raises TypeError."""
    return AngleVector(tuple([v if isinstance(v, Fraction) else _rational(v) for v in values]))


class LogPair(namedtuple("LogPair", "surface labels classes nodes tracked history", defaults=((), ()))):
    """A surface with a labelled boundary: tuples of labels, of their
    `DivisorClass`es, of `NodeRecord`s, of `TrackedCurve`s and of the
    `BlowUpEvent`s that built it."""

    @property
    def r(self) -> int:
        return len(self.labels)

    def component(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no boundary component labelled {label!r}") from None

    def node(self, node_id: str) -> NodeRecord:
        for nd in self.nodes:
            if nd.id == node_id:
                return nd
        raise ValueError(f"no node with id {node_id!r}")

    def boundary_total(self) -> DivisorClass:
        total = self.classes[0]
        for c in self.classes[1:]:
            total = total + c
        return total

    @_cached_field
    def adjoint_family(self) -> "LogAdjointFamily":
        """The log adjoint family of the pair, built once (see `log_adjoint`)
        from the classes' integer forms (k_i, d_i): over den = lcm(d_i) the
        increments are k_i.(den/d_i) and the constant -K.den less their sum."""
        forms = [c.integer_form for c in self.classes]
        den = lcm(*(d for _, d in forms))
        increments = tuple(tuple(v * (den // d) for v in k) for k, d in forms)
        canonical = self.surface.canonical
        constant = tuple(-v * den - sum(col) for v, col in zip(canonical, zip(*increments)))
        cls = DivisorClass(self.surface, tuple(_fraction(v, den) for v in constant))
        return LogAdjointFamily(cls, self.classes, (den, constant, increments))


def _sorted_nodes(nodes) -> tuple[NodeRecord, ...]:
    # node order carries no meaning; a canonical order makes pairs comparable
    return tuple(sorted(nodes, key=lambda nd: (nd.incident, nd.id)))


def _auto_nodes(labels, meet) -> tuple[NodeRecord, ...]:
    out = []
    for (i, j), k in meet.items():
        if i == j:
            continue
        if k.denominator != 1:
            raise ValueError("cannot autogenerate nodes for non-integral intersections")
        out += [NodeRecord(f"{labels[i]}.{labels[j]}.{m + 1}", (i, j)) for m in range(int(k))]
    return _sorted_nodes(out)


def _intersection_table(surface: SurfaceModel, classes) -> dict[tuple[int, int], Rat]:
    """C_i.C_j for i <= j, each computed once: k_i.(M.k_j) over d_i.d_j on
    the classes' integer forms (k, d) and the lattice matrix M, kept as an
    int when it is integral and as a Fraction only when it is not."""
    forms = [c.integer_form for c in classes]
    duals = [([sum(map(mul, row, k)) for row in surface.intersection_matrix], d) for k, d in forms]
    meet = {}
    for i, (ki, di) in enumerate(forms):
        for j in range(i, len(forms)):
            dual, dj = duals[j]
            num, den = sum(map(mul, ki, dual)), di * dj
            meet[i, j] = num if den == 1 else Fraction(num, den) if num % den else num // den
    return meet


def _check_boundary(surface: SurfaceModel, labels: Sequence[str], forms) -> None:
    """Raise ValueError unless classes of these integer forms (k, d) can be
    the labelled components of one boundary: a class of negative
    self-intersection has a unique member, so it appears at most once, and
    no two components meet negatively.

    Only signs are tested, so numerators are paired, and only those of
    distinct classes, each at its first component: a repeat meets its first
    copy in the class's square, which the first test has seen.  Each
    distinct class's dual M.k is computed once, at its first component; it
    gives the class's square k.(M.k) and its pairings with the later
    classes.  The first offending component, and then pair, is named as a
    scan of all of them would name it."""
    matrix = surface.intersection_matrix
    first = {}  # class -> (its first component, whether its square is negative)
    distinct = []  # (first component, numerators k, dual M.k) of each class, in scan order
    for idx, form in enumerate(forms):
        seen = first.get(form)
        if seen is None:
            k = form[0]
            dual = [sum(map(mul, row, k)) for row in matrix]
            first[form] = idx, sum(map(mul, k, dual)) < 0
            distinct.append((idx, k, dual))
        elif seen[1]:
            raise ValueError(
                "a class with negative self-intersection has a unique member; "
                f"components {labels[seen[0]]!r} and {labels[idx]!r} collide"
            )
    for a, (i, _, dual) in enumerate(distinct):
        for j, kj, _ in distinct[a + 1 :]:
            if sum(map(mul, kj, dual)) < 0:
                raise ValueError(f"components {labels[i]!r}, {labels[j]!r} have negative intersection")


def make_pair(
    surface: SurfaceModel,
    boundary: Sequence[tuple[str, Sequence[Rat]]],
    nodes: Optional[Sequence[NodeRecord]] = None,
    tracked: Sequence[TrackedCurve] = (),
    history: Sequence[BlowUpEvent] = (),
) -> LogPair:
    """Build and validate a log pair from labelled class coordinate vectors."""
    if not boundary:
        raise ValueError("boundary must be non-empty")
    labels = tuple(lab for lab, _ in boundary)
    if len(set(labels)) != len(labels):
        raise ValueError("boundary labels must be distinct")
    classes = tuple(surface.divisor(coeffs) for _, coeffs in boundary)
    _check_boundary(surface, labels, [c.integer_form for c in classes])
    meet = _intersection_table(surface, classes)
    node_tuple = _auto_nodes(labels, meet) if nodes is None else _sorted_nodes(nodes)
    ids = [nd.id for nd in node_tuple]
    if len(set(ids)) != len(ids):
        twice = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"node ids must be distinct; {twice!r} is used twice")
    if nodes is not None:
        for nd in node_tuple:
            if not all(0 <= t < len(labels) for t in nd.incident):
                raise ValueError(f"node {nd.id!r} references a missing component")
            if nd.on_fiber_of is not None and not _is_hirzebruch_rooted(surface):
                raise ValueError("fiber tags only make sense on F_n-rooted surfaces")
        declared = Counter(nd.incident for nd in node_tuple)
        for (i, j), want in meet.items():
            if i != j and want != declared[i, j]:
                raise ValueError(
                    f"components {labels[i]!r}, {labels[j]!r} meet {want} times "
                    f"but {declared[i, j]} nodes are declared"
                )
    return LogPair(surface, labels, classes, node_tuple, tuple(tracked), tuple(history))


def _root(s: SurfaceModel):
    """The provenance of the plane or F_n that s is blown up from."""
    prov = s.provenance
    while isinstance(prov, BlowUp):
        prov = prov.parent.provenance
    return prov


def _is_hirzebruch_rooted(s: SurfaceModel) -> bool:
    return isinstance(_root(s), Hirzebruch)


# ---------------------------------------------------------------------------
# Log adjoint family


class LogAdjointFamily(namedtuple("LogAdjointFamily", "constant increments")):
    """The family  -K - sum (1 - beta_i) C_i  =  constant + sum beta_i C_i.
    A builder that already has the integer form hands it in as `form`."""

    def __new__(cls, constant: DivisorClass, increments: tuple[DivisorClass, ...], form=None):
        self = tuple.__new__(cls, (constant, increments))
        if form is not None:
            self.__dict__["integer_form"] = form  # the cache `integer_form` fills
        return self

    @_cached_field
    def integer_form(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(den, constant, increments): the coefficients as integer numerators
        over den, the least common denominator of all of them."""
        n = self.constant.surface.rank
        classes = (self.constant, *self.increments)
        k, den = _integer_point([c for cls in classes for c in cls.coeffs])
        nums = [tuple(k[i * n : (i + 1) * n]) for i in range(len(classes))]
        return den, nums[0], tuple(nums[1:])

    @_cached_field
    def column_form(self):
        """(den, constant, columns, normals): the integer form with the
        increments transposed into one sparse column per basis coordinate,
        the (i, increment_i) pairs of its nonzero entries, so that d.den
        times the class at beta = k/d is d.constant_j plus the sum of
        increment_i.k_i over column j in coordinate j, next to the surface's
        nef-cone normals.  `angles.reparam` reads it in one pass; the plane
        and F_n only, where `nef_cone` exists."""
        den, constant, increments = self.integer_form
        columns = tuple(tuple([(i, v) for i, v in enumerate(col) if v]) for col in zip(*increments))
        return den, constant, columns, nef_cone(self.constant.surface)


def log_adjoint(p: LogPair) -> LogAdjointFamily:
    return p.adjoint_family


# ---------------------------------------------------------------------------
# Dual graph


def dual_graph(p: LogPair) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertices are boundary components, one edge per node (a multigraph)."""
    return p.r, tuple(nd.incident for nd in p.nodes)


def _degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def _connected_components(n: int, edges) -> list[set[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    comps: dict[int, set[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def is_cycle(p: LogPair) -> bool:
    """True when the dual graph is one cycle (a double edge counts: 2-cycle)."""
    n, edges = dual_graph(p)
    deg = _degrees(n, edges)
    return (
        len(edges) == n
        and all(d == 2 for d in deg)
        and len(_connected_components(n, edges)) == 1
    )


def is_anticanonical(p: LogPair) -> bool:
    return p.boundary_total() == p.surface.minus_k()


# ---------------------------------------------------------------------------
# Blow-ups

_FIBER_SEQ = "fiber"


def _extend(coeffs: tuple[Fraction, ...], last: int) -> tuple[Fraction, ...]:
    return coeffs + (Fraction(last),)


def _track_fiber(
    p: LogPair,
    tracked: list[TrackedCurve],
    incident: Sequence[int],
    fiber_tag: Optional[str],
    exc_label: str,
) -> None:
    """Append or update the fiber transform through a blow-up center.

    Generic-position conventions (outer approximation only): centers on a
    boundary fiber add nothing (that fiber is already in the boundary);
    infinitely-near centers (on an exceptional component) add nothing;
    otherwise the fiber through the center picks up -E, merged into an
    existing tracked fiber when an explicit shared tag says the centers
    are collinear on one fiber.
    """
    if not _is_hirzebruch_rooted(p.surface):
        return
    # root part (0, 1): a fiber or its transform; (0, 0): an exceptional curve
    if any(p.classes[i].coeffs[:2] in ((0, 1), (0, 0)) for i in incident):
        return
    tag = fiber_tag or f"{_FIBER_SEQ}:{exc_label}"
    for pos, tc in enumerate(tracked):
        if tc.tag == tag:
            if tc.kind != "fiber":
                raise ValueError(f"fiber tag {tag!r} names a tracked {tc.kind} curve")
            coeffs = tc.coeffs[:-1] + (tc.coeffs[-1] - 1,)
            tracked[pos] = TrackedCurve("fiber", tag, coeffs)
            return
    # F pulled back to the new surface, minus the new exceptional
    coeffs = [Fraction(0)] * (p.surface.rank + 1)
    coeffs[1] = Fraction(1)
    coeffs[-1] = Fraction(-1)
    tracked.append(TrackedCurve("fiber", tag, tuple(coeffs)))


def _is_tracked(p: LogPair, tag: str) -> bool:
    """Whether a tracked curve of p already carries the tag; `contract`
    resolves a tag to one curve, so tags must stay unique."""
    return any(tc.tag == tag for tc in p.tracked)


def _validate_tracked_fibers(result: LogPair) -> None:
    """Distinct irreducible curves never meet negatively; a violation means a
    declared shared-fiber configuration is geometrically impossible.

    Only signs are tested, and denominators are positive, so the fiber's
    numerators are paired through the lattice matrix with each class's."""
    matrix = result.surface.intersection_matrix
    for tc in result.tracked:
        if tc.kind != "fiber":
            continue
        k, _ = _integer_point(tc.coeffs)
        dual = [sum(map(mul, row, k)) for row in matrix]
        for lab, cls in zip(result.labels, result.classes):
            if sum(map(mul, cls.integer_form[0], dual)) < 0:
                raise ValueError(
                    f"fiber tag {tc.tag!r} puts multiple centers on one fiber, but that "
                    f"fiber would then meet component {lab!r} negatively"
                )


def _blow_up(
    p: LogPair,
    label: str,
    center: str,
    hit: Sequence[int],
    fiber_tag: Optional[str],
    event: BlowUpEvent,
    nodes: Optional[Sequence[NodeRecord]] = None,
) -> LogPair:
    """The blow-up step of both flavours: the hit components become proper
    transforms (pullback - E), the tracked curves are pulled back and the
    fiber through the center is tracked.  With `nodes` (the new node list)
    E joins the boundary; without, E is tracked as an exceptional curve."""
    surface = blow_up(p.surface, label, center)
    classes = tuple(
        surface.divisor(_extend(c.coeffs, -1 if i in hit else 0)) for i, c in enumerate(p.classes)
    )
    tracked = [tc._replace(coeffs=_extend(tc.coeffs, 0)) for tc in p.tracked]
    _track_fiber(p, tracked, hit, fiber_tag, label)
    e = surface.basis_vector(surface.rank - 1)
    if nodes is None:
        labels, nodes = p.labels, p.nodes
        tracked.append(TrackedCurve("exceptional", label, e.coeffs))
    else:
        labels, classes, nodes = p.labels + (label,), classes + (e,), _sorted_nodes(nodes)
    result = LogPair(surface, labels, classes, nodes, tuple(tracked), p.history + (event,))
    _validate_tracked_fibers(result)
    return result


def blow_up_smooth_point(
    p: LogPair, component: Union[int, str], point_tag: str, fiber_tag: Optional[str] = None
) -> LogPair:
    """Blow up a smooth boundary point on the named component.

    The component is replaced by its proper transform (pullback - E); the
    exceptional curve does not join the boundary.
    """
    idx = p.component(component) if isinstance(component, str) else component
    if not 0 <= idx < p.r:
        raise ValueError("component index out of range")
    if any(nd.id == point_tag for nd in p.nodes):
        raise ValueError(f"{point_tag!r} names a node; the smooth locus excludes nodes")
    if point_tag in p.labels:
        raise ValueError(f"boundary label {point_tag!r} already in use")
    if point_tag == fiber_tag or _is_tracked(p, point_tag):
        raise ValueError(f"tracked-curve tag {point_tag!r} already in use")
    if fiber_tag is not None and not _is_hirzebruch_rooted(p.surface):
        raise ValueError("fiber tags only make sense on F_n-rooted surfaces")
    target = p.labels[idx]
    event = BlowUpEvent(point_tag, "smooth", target)
    return _blow_up(p, point_tag, f"smooth:{target}:{point_tag}", [idx], fiber_tag, event)


def blow_up_node(p: LogPair, node_id: str, exc_label: Optional[str] = None) -> LogPair:
    """Blow up a node of the boundary and keep the total transform.

    Both incident components become proper transforms, the exceptional
    curve joins the boundary, and the blown node is replaced by the two
    new transverse intersections with E.  A new node id that another node
    already holds is refused.
    """
    nd = p.node(node_id)
    i, j = nd.incident
    label = exc_label or f"E.{node_id}"
    if label in p.labels:
        raise ValueError(f"boundary label {label!r} already in use")
    if _is_tracked(p, label):
        raise ValueError(f"tracked-curve tag {label!r} already in use")
    nodes = [other for other in p.nodes if other.id != node_id]
    for t in (i, j):
        new_id = f"{p.labels[t]}.{label}.1"
        if any(other.id == new_id for other in nodes):
            raise ValueError(f"node id {new_id!r} already in use")
        nodes.append(NodeRecord(new_id, (t, p.r)))
    event = BlowUpEvent(label, "node", node_id, restore_node=nd)
    return _blow_up(p, label, f"node:{node_id}", [i, j], nd.on_fiber_of, event, nodes)


# ---------------------------------------------------------------------------
# Contraction

AffineForm = tuple[Fraction, tuple[Fraction, ...]]  # (constant, per-angle coefficients)


def contract(p: LogPair, which: Union[int, str]) -> tuple[LogPair, AffineForm]:
    """Contract a (-1)-curve named by boundary index/label or tracked-curve tag.

    Only the most recent exceptional basis class E is contractible (scripts
    unwind in reverse construction order).  Supported incidence patterns:
    disjoint from C, meeting C transversally once, or a boundary component
    meeting exactly two other components once each.  Returns the new pair
    and the residual coefficient rho(beta) with
        adjoint_upstairs(beta) = pullback(adjoint_downstairs(beta')) - rho(beta) E.
    The upstairs basis is (pullback basis, E) and a pulled-back class has E
    coordinate 0, so rho is minus the E coordinate of the upstairs family;
    the pushforward identity, verified exactly, covers every other coordinate.
    """
    if not isinstance(p.surface.provenance, BlowUp):
        raise ValueError("contract requires a blow-up surface")
    k: Optional[int] = None  # the curve's boundary index, when it is a component
    tag: Optional[str] = None  # its tracked tag otherwise
    if isinstance(which, int) or which in p.labels:
        k = p.component(which) if isinstance(which, str) else which
        if not 0 <= k < p.r:
            raise ValueError("boundary index out of range")
        curve = p.classes[k]
    else:
        found = [tc for tc in p.tracked if tc.tag == which]
        if not found:
            raise ValueError(f"{which!r} is neither a boundary label nor a tracked curve")
        tag, curve = which, p.surface.divisor(found[0].coeffs)
    if intersect(curve, curve) != -1:
        raise ValueError("contraction requires a (-1)-curve")
    if curve.integer_form != ((0,) * (p.surface.rank - 1) + (1,), 1):
        raise ValueError(
            "only the most recent exceptional curve is contractible; "
            "unwind blow-ups in reverse order"
        )
    keep = [t for t in range(p.r) if t != k]
    meets = {t: intersect(p.classes[t], curve) for t in keep}
    if any(v not in (0, 1) for v in meets.values()):
        raise ValueError("unsupported incidence pattern: non-transverse meeting")
    hits = [t for t, v in meets.items() if v]
    if k is None and len(hits) > 1:
        raise ValueError("unsupported incidence pattern: meets C more than once")
    if k is not None and len(hits) != 2:
        raise ValueError(
            "unsupported incidence pattern: a boundary (-1)-curve must meet "
            "exactly two other components once each"
        )

    remap = {t: pos for pos, t in enumerate(keep)}
    nodes = [
        NodeRecord(nd.id, (remap[nd.incident[0]], remap[nd.incident[1]]), nd.on_fiber_of)
        for nd in p.nodes
        if k not in nd.incident
    ]
    if k is not None:
        # E met the two hit components once each: put their node back
        last = p.history[-1] if p.history else None
        if last and last.kind == "node" and last.exc_label == p.labels[k] and last.restore_node:
            nodes.append(last.restore_node)
        else:
            i, j = hits
            used = {nd.id for nd in nodes}
            m = 1
            while f"{p.labels[i]}.{p.labels[j]}.{m}" in used:
                m += 1
            nodes.append(NodeRecord(f"{p.labels[i]}.{p.labels[j]}.{m}", (remap[i], remap[j])))
    tracked = []
    for tc in p.tracked:
        coeffs = tc.coeffs[:-1]
        if tc.tag == tag or (tc.kind == "fiber" and not any(coeffs[2:])):
            continue  # the contracted curve, or a fiber transform back to a plain fiber
        tracked.append(tc._replace(coeffs=coeffs))
    result = make_pair(
        p.surface.provenance.parent,
        [(p.labels[t], p.classes[t].coeffs[:-1]) for t in keep],
        nodes=nodes,
        tracked=tracked,
        history=p.history[:-1],
    )

    # the pushforward identity: the upstairs family less its E coordinate
    up, down = log_adjoint(p), log_adjoint(result)
    if down.constant.coeffs != up.constant.coeffs[:-1]:
        raise AssertionError("pushforward identity failed on the constant class")
    if any(d.coeffs != up.increments[t].coeffs[:-1] for d, t in zip(down.increments, keep)):
        raise AssertionError("pushforward identity failed on an increment class")
    return result, (-up.constant.coeffs[-1], tuple(-inc.coeffs[-1] for inc in up.increments))


# ---------------------------------------------------------------------------
# Minimality


def is_minimal(p: LogPair):
    """Absence of (-1)-curves E not in C with E.C = 1, over decidable data.

    Exact for the plane and F_n (the only negative curve is Z_n); on
    blow-ups the tracked curves are searched for a witness and UNKNOWN is
    returned when none certifies failure.
    """
    prov = p.surface.provenance
    if isinstance(prov, ProjectivePlane):
        return True
    if isinstance(prov, Hirzebruch):
        if prov.n != 1:
            return True
        z = p.surface.divisor((1, 0))
        if any(c.coeffs == z.coeffs for c in p.classes):
            return True
        return sum(intersect(z, c) for c in p.classes) != 1
    # on the integer forms (k, d) of a curve and (k_C, d_C) of C:
    # curve^2 = -1 is k.M.k = -d^2 and curve.C = 1 is k.M.k_C = d.d_C
    matrix = p.surface.intersection_matrix
    k_c, d_c = p.boundary_total().integer_form
    for tc in p.tracked:
        k, d = _integer_point(tc.coeffs)
        dual = [sum(map(mul, row, k)) for row in matrix]
        if sum(map(mul, k, dual)) == -d * d and sum(map(mul, k_c, dual)) == d * d_c:
            return False
    return UNKNOWN
