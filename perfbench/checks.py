"""Reference checks that do not reuse the library code they judge.

Every function raises CheckFailed with a reason when an answer is wrong.
"""

from __future__ import annotations

from fractions import Fraction

import _util

F = Fraction


class CheckFailed(Exception):
    pass


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# Classification tables (acceptance criteria 1 and 2)


def _classes_col(classes) -> str:
    return "+".join(f"({a},{b})" for a, b in classes)


def classify_rows(mode: str, stdout: str) -> None:
    rows = [line.split("\t") for line in stdout.splitlines()]
    if mode == "maeda":
        got = {tuple(r[:4]) for r in rows}
        want = {("-", "P2", "+".join(map(str, degs)), lab) for lab, degs in _util.MAEDA_P2}
        for n in range(13):
            for lab, classes in _util.maeda_fn_table(n):
                want.add((str(n), f"F{n}", _classes_col(classes), lab))
    else:
        got = {tuple(r[:5]) for r in rows}
        want = {
            ("-", "P2", "+".join(map(str, degs)), lab, strength)
            for lab, degs, strength in _util.P2_TABLE
        }
        for n in range(13):
            for lab, classes, strength in _util.fn_table(n):
                want.add((str(n), f"F{n}", _classes_col(classes), lab, strength))
    expect(len(rows) == len(got), f"{mode}: duplicate rows")
    expect(got == want, f"{mode}: rows differ from the family tables")


# ---------------------------------------------------------------------------
# Vertex lists printed by check, aa and blowup


def _parse_body(stdout: str) -> tuple[list[tuple[list[int], int]], list[tuple[Fraction, ...]], bool]:
    """The closure rows (normal, offset) and vertices of a printed body."""
    lines = stdout.splitlines()
    start = lines.index("closure:")
    rows, verts, empty = [], [], False
    k = start + 1
    while lines[k].startswith("  "):
        body, rel = lines[k].split("|")
        offset, op, zero = rel.split()
        expect(op == ">=" and zero == "0", f"closure row is not weak: {lines[k]!r}")
        rows.append(([int(t) for t in body.split()], int(offset)))
        k += 1
    if lines[k] == "vertices: (empty body)":
        empty = True
    else:
        expect(lines[k] == "vertices:", f"unexpected line after closure: {lines[k]!r}")
        k += 1
        while k < len(lines) and lines[k].startswith("  ("):
            verts.append(tuple(F(t.strip()) for t in lines[k].strip()[1:-1].split(",")))
            k += 1
    return rows, verts, empty


def _rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def printed_vertices(stdout: str) -> int:
    """Each printed vertex satisfies every printed row and makes dim of
    them tight with full rank.  Returns the number of vertices checked."""
    rows, verts, empty = _parse_body(stdout)
    expect(bool(rows), "no closure rows printed")
    dim = len(rows[0][0])
    if empty:
        return 0
    expect(bool(verts), "a non-empty body printed no vertices")
    expect(len(set(verts)) == len(verts), "repeated vertex")
    for v in verts:
        expect(len(v) == dim, f"vertex {v} has the wrong dimension")
        tight = []
        for normal, offset in rows:
            value = sum(a * x for a, x in zip(normal, v)) + offset
            expect(value >= 0, f"vertex {v} violates a closure row")
            if value == 0:
                tight.append([F(a) for a in normal])
        expect(len(tight) >= dim and _rank(tight) == dim, f"{v} is not a vertex")
    return len(verts)


# ---------------------------------------------------------------------------
# Membership and reparametrization (acceptance criteria 4 and 6)


def _minus_k(n):
    return (3,) if n is None else (2, n + 2)


def _boundary(n, classes):
    return [(d,) for d in classes] if n is None else [tuple(c) for c in classes]


def membership(n, classes, beta, inside: bool) -> None:
    boundary = _boundary(n, classes)
    if n is None:
        want = _util.direct_ample_p2(boundary, beta)
    else:
        want = _util.direct_ample_fn(n, boundary, beta)
    expect(inside == want, f"contains{tuple(map(str, beta))} = {inside}, oracle says {want}")


def _apply(matrix, translation, x):
    return [sum(a * b for a, b in zip(row, x)) + t for row, t in zip(matrix, translation)]


def _is_inverse(outer, inner) -> bool:
    """outer after inner is the identity, from the raw entries."""
    (m1, t1), (m2, t2) = outer, inner
    r = len(t1)
    for i in range(r):
        for j in range(r):
            if sum(m1[i][k] * m2[k][j] for k in range(r)) != (1 if i == j else 0):
                return False
    return all(v == 0 for v in _apply(m1, t1, t2))


def reparam(n, classes, beta, rd) -> None:
    """Re-verify the data returned by angles.reparam at gamma = beta."""
    r = len(beta)
    boundary = _boundary(n, classes)
    minus_k = _minus_k(n)
    expect(tuple(rd.gamma.entries) == tuple(beta), "gamma was not the queried angle")
    want_eta = max(max((1 - g) / g, g / (1 - g)) for g in beta)
    expect(rd.eta == want_eta, "eta differs from its definition")
    f = (rd.f.matrix, rd.f.translation)
    f_inv = (rd.f_inv.matrix, rd.f_inv.translation)
    a = rd.ample_part.coeffs
    probes = [tuple(F(int(i == j)) for j in range(r)) for i in range(r)] + [(F(0),) * r]
    for probe in probes:
        coeffs = _apply(*f, probe)
        rhs = [-k + x for k, x in zip(minus_k, a)]
        for c, cls in zip(coeffs, boundary):
            rhs = [x + c * y for x, y in zip(rhs, cls)]
        lhs = _util.adjoint_coeffs(minus_k, boundary, probe)
        expect(tuple(rd.eta * x for x in rhs) == lhs, "adjoint identity fails")
    if n is None:
        expect(a[0] > 0, "A is not ample")
    else:
        expect(a[0] > 0 and a[1] > n * a[0], "A is not ample")
    for corner in ((F(0),) * r, (F(1),) * r):
        expect(all(0 <= c <= 1 for c in _apply(*f, corner)), "coefficient leaves [0, 1]")
    expect(_is_inverse(f, f_inv) and _is_inverse(f_inv, f), "substitution is not inverted")
