"""Log pairs (S, C = sum C_i): boundary bookkeeping and the blow-up calculus.

A pair holds its surface, an ordered labelled boundary, and explicit node
records (one node per transverse intersection point, so the count of
nodes joining components i and j always equals C_i.C_j).  Simple normal
crossings is structural: tangencies are unrepresentable.

Blow-ups come in two flavours:
  * smooth-point blow-up: the named component is replaced by its proper
    transform, the exceptional curve stays out of the boundary;
  * node blow-up: both incident components are replaced by proper
    transforms and the exceptional curve joins the boundary (total
    transform), enabling infinitely-near chains through the new nodes.

Contraction reverses these, restricted to the most recent exceptional
basis class; it returns the residual angle coefficient picked up on the
exceptional curve and verifies the pushforward identity exactly.

Besides the boundary, a pair tracks the classes of known irreducible
curves produced by its construction (exceptional curves not in the
boundary, proper transforms of rulings through the blow-up centers);
these feed the outer ampleness approximation and minimality tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence, Union

from .geometry import (
    UNKNOWN,
    BlowUp,
    DivisorClass,
    Hirzebruch,
    ProjectivePlane,
    Rat,
    SurfaceModel,
    _fraction,
    _integer_point,
    blow_up,
    intersect,
)


@dataclass(frozen=True)
class NodeRecord:
    """A transverse intersection point of two distinct boundary components."""

    id: str
    incident: tuple[int, int]  # boundary indices, stored sorted
    on_fiber_of: Optional[str] = None  # ruling tag, F_n-rooted surfaces only

    def __post_init__(self):
        i, j = self.incident
        if i == j:
            raise ValueError("SNC boundaries have no self-nodes")
        if i > j:
            object.__setattr__(self, "incident", (j, i))


@dataclass(frozen=True)
class TrackedCurve:
    """A non-boundary irreducible curve class known from the construction."""

    kind: str  # "exceptional" | "fiber"
    tag: str
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class BlowUpEvent:
    exc_label: str
    kind: str  # "smooth" | "node"
    target: str  # component label or node id
    restore_node: Optional[NodeRecord] = None  # node consumed by a node blow-up


@dataclass(frozen=True)
class AngleVector:
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if any(e < 0 or e > 1 for e in self.entries):
            raise ValueError("angles must lie in [0, 1]")

    @property
    def interior(self) -> bool:
        return all(0 < e < 1 for e in self.entries)


def angles(values: Sequence[Rat]) -> AngleVector:
    return AngleVector(tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class LogPair:
    surface: SurfaceModel
    labels: tuple[str, ...]
    classes: tuple[DivisorClass, ...]
    nodes: tuple[NodeRecord, ...]
    tracked: tuple[TrackedCurve, ...] = ()
    history: tuple[BlowUpEvent, ...] = ()

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

    @cached_property
    def adjoint_family(self) -> "LogAdjointFamily":
        """The log adjoint family of the pair, built once (see `log_adjoint`)."""
        return LogAdjointFamily(self.surface.minus_k() - self.boundary_total(), self.classes)


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
    # C_i.C_j for i <= j, each computed once; every check below reads it
    r = len(classes)
    meet = {(i, j): intersect(classes[i], classes[j]) for i in range(r) for j in range(i, r)}
    seen = {}
    for idx, c in enumerate(classes):
        if meet[idx, idx] < 0:
            if c.coeffs in seen:
                raise ValueError(
                    "a class with negative self-intersection has a unique member; "
                    f"components {seen[c.coeffs]!r} and {labels[idx]!r} collide"
                )
            seen[c.coeffs] = labels[idx]
    for (i, j), k in meet.items():
        if i != j and k < 0:
            raise ValueError(f"components {labels[i]!r}, {labels[j]!r} have negative intersection")
    if nodes is None:
        node_tuple = _auto_nodes(labels, meet)
    else:
        node_tuple = _sorted_nodes(nodes)
        ids = [nd.id for nd in node_tuple]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be distinct")
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


@dataclass(frozen=True)
class LogAdjointFamily:
    """The family  -K - sum (1 - beta_i) C_i  =  constant + sum beta_i C_i."""

    constant: DivisorClass
    increments: tuple[DivisorClass, ...]

    def at(self, beta: Union[AngleVector, Sequence[Rat]]) -> DivisorClass:
        """The class at beta, computed on the integer form."""
        values = beta.entries if isinstance(beta, AngleVector) else beta
        if len(values) != len(self.increments):
            raise ValueError("angle vector length mismatch")
        k, bden = _integer_point(values)
        scale = self.integer_form[0] * bden
        return DivisorClass(
            self.constant.surface, tuple(_fraction(v, scale) for v in self.integer_at(k, bden))
        )

    def integer_at(self, k: Sequence[int], d: int) -> list[int]:
        """d.den times the class at beta = k/d (den from `integer_form`), as
        integer coefficients: d.constant + sum k_i.increment_i."""
        _, constant, increments = self.integer_form
        return [d * c + sum(ki * inc[j] for ki, inc in zip(k, increments) if ki)
                for j, c in enumerate(constant)]

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(den, constant, increments): the coefficients as integer numerators
        over den, the least common denominator of all of them."""
        classes = (self.constant, *self.increments)
        den = lcm(*(c.denominator for cls in classes for c in cls.coeffs))
        nums = [tuple(c.numerator * (den // c.denominator) for c in cls.coeffs) for cls in classes]
        return den, nums[0], tuple(nums[1:])


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


def is_chain_union(p: LogPair) -> bool:
    """True when every connected component of the dual graph is a simple path."""
    n, edges = dual_graph(p)
    deg = _degrees(n, edges)
    if any(d > 2 for d in deg):
        return False
    # a union of paths is exactly an acyclic graph: edges = vertices - components
    return len(edges) == n - len(_connected_components(n, edges))


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


def _is_fiber_like(p: LogPair, idx: int) -> bool:
    """Whether component idx is a fiber of the root ruling or one of its transforms."""
    if not _is_hirzebruch_rooted(p.surface):
        return False
    root = p.classes[idx].coeffs[:2]
    return root == (Fraction(0), Fraction(1))


def _root_part_zero(p: LogPair, idx: int) -> bool:
    rr = 1 if isinstance(_root(p.surface), ProjectivePlane) else 2
    return all(c == 0 for c in p.classes[idx].coeffs[:rr])


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
    if any(_is_fiber_like(p, i) for i in incident):
        return
    if any(_root_part_zero(p, i) for i in incident):
        return
    tag = fiber_tag or f"{_FIBER_SEQ}:{exc_label}"
    for pos, tc in enumerate(tracked):
        if tc.kind == "fiber" and tc.tag == tag:
            coeffs = tc.coeffs[:-1] + (tc.coeffs[-1] - 1,)
            tracked[pos] = TrackedCurve("fiber", tag, coeffs)
            return
    # F pulled back to the new surface, minus the new exceptional
    coeffs = [Fraction(0)] * (p.surface.rank + 1)
    coeffs[1] = Fraction(1)
    coeffs[-1] = Fraction(-1)
    tracked.append(TrackedCurve("fiber", tag, tuple(coeffs)))


def _validate_tracked_fibers(result: LogPair) -> None:
    """Distinct irreducible curves never meet negatively; a violation means a
    declared shared-fiber configuration is geometrically impossible."""
    for tc in result.tracked:
        if tc.kind != "fiber":
            continue
        t = result.surface.divisor(tc.coeffs)
        for lab, cls in zip(result.labels, result.classes):
            if intersect(t, cls) < 0:
                raise ValueError(
                    f"fiber tag {tc.tag!r} puts multiple centers on one fiber, but that "
                    f"fiber would then meet component {lab!r} negatively"
                )


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
    surface = blow_up(p.surface, point_tag, f"smooth:{p.labels[idx]}:{point_tag}")
    new_classes = []
    for i, c in enumerate(p.classes):
        new_classes.append(surface.divisor(_extend(c.coeffs, -1 if i == idx else 0)))
    tracked = [replace(tc, coeffs=_extend(tc.coeffs, 0)) for tc in p.tracked]
    _track_fiber(p, tracked, [idx], fiber_tag, point_tag)
    tracked.append(
        TrackedCurve("exceptional", point_tag, surface.basis_vector(surface.rank - 1).coeffs)
    )
    event = BlowUpEvent(point_tag, "smooth", p.labels[idx])
    result = LogPair(
        surface,
        p.labels,
        tuple(new_classes),
        p.nodes,
        tuple(tracked),
        p.history + (event,),
    )
    _validate_tracked_fibers(result)
    return result


def blow_up_node(p: LogPair, node_id: str, exc_label: Optional[str] = None) -> LogPair:
    """Blow up a node of the boundary and keep the total transform.

    Both incident components become proper transforms, the exceptional
    curve joins the boundary, and the blown node is replaced by the two
    new transverse intersections with E.
    """
    nd = p.node(node_id)
    i, j = nd.incident
    label = exc_label or f"E.{node_id}"
    if label in p.labels:
        raise ValueError(f"boundary label {label!r} already in use")
    surface = blow_up(p.surface, label, f"node:{node_id}")
    new_classes = [
        surface.divisor(_extend(c.coeffs, -1 if k in (i, j) else 0))
        for k, c in enumerate(p.classes)
    ]
    new_classes.append(surface.basis_vector(surface.rank - 1))
    e_idx = p.r
    nodes = [other for other in p.nodes if other.id != node_id]
    nodes.append(NodeRecord(f"{p.labels[i]}.{label}.1", (i, e_idx)))
    nodes.append(NodeRecord(f"{p.labels[j]}.{label}.1", (j, e_idx)))
    tracked = [replace(tc, coeffs=_extend(tc.coeffs, 0)) for tc in p.tracked]
    _track_fiber(p, tracked, [i, j], nd.on_fiber_of, label)
    event = BlowUpEvent(label, "node", node_id, restore_node=nd)
    result = LogPair(
        surface,
        p.labels + (label,),
        tuple(new_classes),
        _sorted_nodes(nodes),
        tuple(tracked),
        p.history + (event,),
    )
    _validate_tracked_fibers(result)
    return result


# ---------------------------------------------------------------------------
# Contraction

AffineForm = tuple[Fraction, tuple[Fraction, ...]]  # (constant, per-angle coefficients)


def contract(p: LogPair, which: Union[int, str]) -> tuple[LogPair, AffineForm]:
    """Contract a (-1)-curve named by boundary index/label or tracked-curve tag.

    Only the most recent exceptional basis class is contractible (scripts
    unwind in reverse construction order).  Supported incidence patterns:
    disjoint from C, meeting C transversally once, or a boundary component
    meeting exactly two other components once each.  Returns the new pair
    and the residual coefficient rho(beta) with
        adjoint_upstairs(beta) = pullback(adjoint_downstairs(beta')) - rho(beta) E.
    The pushforward identity is verified as an exact class identity.
    """
    if not isinstance(p.surface.provenance, BlowUp):
        raise ValueError("contract requires a blow-up surface")
    e_coeffs = p.surface.basis_vector(p.surface.rank - 1).coeffs
    boundary_idx: Optional[int] = None
    tracked_tag: Optional[str] = None
    if isinstance(which, int) or (isinstance(which, str) and which in p.labels):
        boundary_idx = p.component(which) if isinstance(which, str) else which
        if not 0 <= boundary_idx < p.r:
            raise ValueError("boundary index out of range")
        curve = p.classes[boundary_idx]
    else:
        for tc in p.tracked:
            if tc.tag == which:
                tracked_tag = which
                curve = p.surface.divisor(tc.coeffs)
                break
        else:
            raise ValueError(f"{which!r} is neither a boundary label nor a tracked curve")
    if intersect(curve, curve) != -1:
        raise ValueError("contraction requires a (-1)-curve")
    if curve.coeffs != e_coeffs:
        raise ValueError(
            "only the most recent exceptional curve is contractible; "
            "unwind blow-ups in reverse order"
        )

    parent = p.surface.provenance.parent
    hits = [
        (i, intersect(p.classes[i], curve))
        for i in range(p.r)
        if (boundary_idx is None or i != boundary_idx) and intersect(p.classes[i], curve) != 0
    ]
    if any(v != 1 for _, v in hits):
        raise ValueError("unsupported incidence pattern: non-transverse meeting")

    def push(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return coeffs[:-1]

    last_event = p.history[-1] if p.history else None
    new_history = p.history[:-1] if last_event is not None else ()

    new_tracked = []
    for tc in p.tracked:
        if tracked_tag is not None and tc.tag == tracked_tag:
            continue  # the contracted curve itself
        coeffs = push(tc.coeffs)
        if tc.kind == "fiber" and list(coeffs[2:]) == [0] * (len(coeffs) - 2):
            continue  # reverted to a plain fiber: nothing left to track
        new_tracked.append(replace(tc, coeffs=coeffs))

    if boundary_idx is None:
        # pattern: away from C (no hits) or one transverse point (one hit)
        if len(hits) > 1:
            raise ValueError("unsupported incidence pattern: meets C more than once")
        new_classes = tuple(
            parent.divisor(push(c.coeffs)) for c in p.classes
        )
        result = LogPair(parent, p.labels, new_classes, p.nodes, tuple(new_tracked), new_history)
        if not hits:
            residual: AffineForm = (Fraction(1), tuple(Fraction(0) for _ in range(p.r)))
        else:
            coeffs = [Fraction(0)] * p.r
            coeffs[hits[0][0]] = Fraction(1)
            residual = (Fraction(0), tuple(coeffs))
        _verify_pushforward(p, result, keep=list(range(p.r)))
        return result, residual

    # pattern: boundary component meeting exactly two other components once each
    if len(hits) != 2:
        raise ValueError(
            "unsupported incidence pattern: a boundary (-1)-curve must meet "
            "exactly two other components once each"
        )
    (i, _), (j, _) = hits
    k = boundary_idx
    keep = [t for t in range(p.r) if t != k]
    new_labels = tuple(p.labels[t] for t in keep)
    new_classes = tuple(parent.divisor(push(p.classes[t].coeffs)) for t in keep)
    remap = {t: pos for pos, t in enumerate(keep)}
    new_nodes = []
    for nd in p.nodes:
        if k in nd.incident:
            continue
        new_nodes.append(replace(nd, incident=(remap[nd.incident[0]], remap[nd.incident[1]])))
    if (
        last_event is not None
        and last_event.kind == "node"
        and last_event.exc_label == p.labels[k]
        and last_event.restore_node is not None
    ):
        new_nodes.append(last_event.restore_node)
    else:
        used = {nd.id for nd in new_nodes}
        m = 1
        a, b = sorted((remap[i], remap[j]))
        while f"{new_labels[a]}.{new_labels[b]}.{m}" in used:
            m += 1
        new_nodes.append(NodeRecord(f"{new_labels[a]}.{new_labels[b]}.{m}", (a, b)))
    result = make_pair(
        parent,
        [(lab, cls.coeffs) for lab, cls in zip(new_labels, new_classes)],
        nodes=new_nodes,
        tracked=new_tracked,
        history=new_history,
    )
    coeffs = [Fraction(0)] * p.r
    coeffs[i] = Fraction(1)
    coeffs[j] = Fraction(1)
    coeffs[k] = Fraction(-1)
    residual = (Fraction(0), tuple(coeffs))
    _verify_pushforward(p, result, keep=keep)
    return result, residual


def _verify_pushforward(p: LogPair, result: LogPair, keep: list[int]) -> None:
    """Exact identity: pushforward of the upstairs log adjoint equals the
    downstairs log adjoint at the induced angles (constant and increments)."""
    up = log_adjoint(p)
    down = log_adjoint(result)
    if down.constant.coeffs != up.constant.coeffs[:-1]:
        raise AssertionError("pushforward identity failed on the constant class")
    for pos, t in enumerate(keep):
        if down.increments[pos].coeffs != up.increments[t].coeffs[:-1]:
            raise AssertionError("pushforward identity failed on an increment class")


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
    total = p.boundary_total()
    for tc in p.tracked:
        curve = p.surface.divisor(tc.coeffs)
        if intersect(curve, curve) == -1 and intersect(curve, total) == 1:
            return False
    return UNKNOWN
