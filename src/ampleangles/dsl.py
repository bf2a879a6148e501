"""Line-oriented text format for describing pairs and blow-up scripts.

Grammar (one directive per line, '#' starts a comment):

    surface P2
    surface F <n>
    component <label> <d>              # plane: a degree-d curve
    component <label> <a> <b>          # F_n: a curve in |aZ + bF|
    node <id> <label1> <label2> [fiber=<tag>]
    blowup smooth <component-label> <fresh-name> [fiber=<tag>]
    blowup node <node-id> <fresh-name>

Node lines are optional: omitted entirely, one node per intersection
point is generated with ids "<label_i>.<label_j>.<k>".  Blow-up steps
apply in order; a node blow-up adds the boundary component and basis
label <fresh-name>, and fresh nodes "<label>.<fresh-name>.1" that later
steps may reference (infinitely-near chains).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Optional

from .geometry import fn_irreducible_admissible, hirzebruch, projective_plane
from .pairs import LogPair, NodeRecord, blow_up_node, blow_up_smooth_point, make_pair


class InputError(ValueError):
    """Bad input from outside the program: a spec, a file or an option."""


class SpecParseError(InputError):
    def __init__(self, line_no: int, message: str):
        prefix = f"line {line_no}: " if line_no else ""
        super().__init__(prefix + message)
        self.line_no = line_no


class BlowUpStep(namedtuple("BlowUpStep", "op target id fiber line_no")):
    """One blow-up of a script: `op` is "smooth" or "node", `fiber` a
    shared-ruling tag for smooth centers, `line_no` the spec line the step
    came from."""

    __slots__ = ()

    def __new__(cls, op: str, target: str, id: str, fiber: Optional[str] = None, line_no: int = 0):
        if fiber is not None and op != "smooth":
            raise ValueError("fiber tags on blow-up steps apply to smooth centers only")
        return tuple.__new__(cls, (op, target, id, fiber, line_no))


class PairScript(namedtuple("PairScript", "base steps")):
    """A base `LogPair` and the tuple of `BlowUpStep`s applied to it."""

    __slots__ = ()

    def apply(self) -> list[LogPair]:
        """The pair after each step (index 0 is the base); a refused step
        raises SpecParseError on its line."""
        out = [self.base]
        for step in self.steps:
            current = out[-1]
            try:
                if step.op == "smooth":
                    out.append(
                        blow_up_smooth_point(current, step.target, step.id, fiber_tag=step.fiber)
                    )
                else:
                    out.append(blow_up_node(current, step.target, step.id))
            except ValueError as exc:
                raise SpecParseError(step.line_no, str(exc)) from None
        return out

    @property
    def final(self) -> LogPair:
        return self.apply()[-1]


def parse_pair_spec(text: str) -> PairScript:
    surface = None
    is_plane = False
    n = 0
    components: list[tuple[str, tuple[int, ...]]] = []
    component_lines: list[int] = []
    node_lines: list[tuple[int, str, str, str, Optional[str]]] = []
    steps: list[BlowUpStep] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "surface":
            if surface is not None:
                raise SpecParseError(line_no, "duplicate surface line")
            if toks[1:] == ["P2"]:
                surface = projective_plane()
                is_plane = True
            elif len(toks) == 3 and toks[1] == "F":
                try:
                    n = int(toks[2])
                except ValueError:
                    raise SpecParseError(line_no, f"bad Hirzebruch index {toks[2]!r}") from None
                if n < 0:
                    raise SpecParseError(line_no, "Hirzebruch index must be nonnegative")
                surface = hirzebruch(n)
            else:
                raise SpecParseError(line_no, f"bad surface line {line!r}")
        elif kind == "component":
            if surface is None:
                raise SpecParseError(line_no, "component before surface")
            want = 2 if is_plane else 3
            if len(toks) != want + 1:
                raise SpecParseError(
                    line_no,
                    f"component takes {want - 1} integer coordinate(s) on this surface",
                )
            label = toks[1]
            try:
                coords = tuple(int(t) for t in toks[2:])
            except ValueError:
                raise SpecParseError(line_no, "component coordinates must be integers") from None
            if any(label == lab for lab, _ in components):
                raise SpecParseError(line_no, f"duplicate component label {label!r}")
            if not _irreducible(coords, is_plane, n):
                where = "P2" if is_plane else f"F_{n}"
                raise SpecParseError(
                    line_no, f"class {' '.join(toks[2:])} on {where} has no irreducible member"
                )
            components.append((label, coords))
            component_lines.append(line_no)
        elif kind == "node":
            if len(toks) not in (4, 5):
                raise SpecParseError(line_no, "node takes an id and two component labels")
            fiber = None
            if len(toks) == 5:
                if not toks[4].startswith("fiber="):
                    raise SpecParseError(line_no, f"bad node attribute {toks[4]!r}")
                fiber = _fiber_tag(line_no, toks[4])
            node_lines.append((line_no, toks[1], toks[2], toks[3], fiber))
        elif kind == "blowup":
            if len(toks) not in (4, 5) or toks[1] not in ("smooth", "node"):
                raise SpecParseError(line_no, "blowup takes: smooth|node, target, fresh-name")
            fiber = None
            if len(toks) == 5:
                if toks[1] != "smooth" or not toks[4].startswith("fiber="):
                    raise SpecParseError(line_no, f"bad blowup attribute {toks[4]!r}")
                fiber = _fiber_tag(line_no, toks[4])
            steps.append(BlowUpStep(toks[1], toks[2], toks[3], fiber=fiber, line_no=line_no))
        else:
            raise SpecParseError(line_no, f"unknown directive {kind!r}")

    if surface is None:
        raise SpecParseError(0, "missing surface line")
    if not components:
        raise SpecParseError(0, "boundary must have at least one component")

    labels = [lab for lab, _ in components]
    nodes = None
    if node_lines:
        nodes = []
        for line_no, node_id, l1, l2, fiber in node_lines:
            missing = next((l for l in (l1, l2) if l not in labels), None)
            if missing is not None:
                raise SpecParseError(line_no, f"node references unknown component {missing!r}")
            if fiber is not None and is_plane:
                raise SpecParseError(line_no, "fiber tags only make sense on F_n-rooted surfaces")
            if any(nd.id == node_id for nd in nodes):
                raise SpecParseError(line_no, f"duplicate node id {node_id!r}")
            incident = (labels.index(l1), labels.index(l2))
            try:
                nodes.append(NodeRecord(node_id, incident, on_fiber_of=fiber))
            except ValueError as exc:
                raise SpecParseError(line_no, str(exc)) from None
    try:
        base = make_pair(surface, components, nodes=nodes)
    except ValueError as exc:
        line_no = _refused_line(surface, components, component_lines, node_lines)
        raise SpecParseError(line_no, str(exc)) from None
    return PairScript(base, tuple(steps))


def _fiber_tag(line_no: int, token: str) -> str:
    """The tag of a `fiber=<tag>` token; an empty tag is refused."""
    tag = token[len("fiber="):]
    if not tag:
        raise SpecParseError(line_no, "empty fiber tag")
    return tag


def _refused_line(surface, components, component_lines, node_lines) -> int:
    """The line to blame for a refused base pair: the first component line
    whose boundary prefix `make_pair` refuses.  Else a node count is wrong:
    the first node line that joins the two components `make_pair` names,
    or the first node line when none joins them."""
    for k, line_no in enumerate(component_lines, start=1):
        try:
            make_pair(surface, components[:k])
        except ValueError:
            return line_no
    labels = [lab for lab, _ in components]

    def incident(line) -> tuple[int, int]:
        return tuple(sorted((labels.index(line[2]), labels.index(line[3]))))

    meet = Counter(nd.incident for nd in make_pair(surface, components).nodes)
    declared = Counter(map(incident, node_lines))
    wrong = min((ij for ij in meet.keys() | declared.keys() if meet[ij] != declared[ij]), default=None)
    return next((line[0] for line in node_lines if incident(line) == wrong), node_lines[0][0])


def _irreducible(coords: tuple[int, ...], is_plane: bool, n: int) -> bool:
    """Whether a boundary class has an irreducible member: degree d >= 1 on
    the plane, `fn_irreducible_admissible` on F_n."""
    if is_plane:
        return coords[0] >= 1
    return coords != (0, 0) and fn_irreducible_admissible(*coords, n)


def load_pair_spec(path: str) -> PairScript:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecParseError(0, f"spec is not UTF-8 text: {exc.reason}") from None
    return parse_pair_spec(text)
