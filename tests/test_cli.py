import os
import pathlib
import subprocess
import sys
import time

import pytest

import ampleangles
from ampleangles import angles, classify, cli, dsl
from ampleangles import polytope as pt
from ampleangles.pairs import is_minimal
from _util import P2_TABLE, fn_table, parse_canonical, verify_printed_vertices

FIG1 = """\
surface F 1
component Z 1 0
component C2 1 3
"""

BLOWUP = """\
surface F 1
component Z 1 0
component F1 0 1
blowup node Z.F1.1 E1
blowup node Z.E1.1 E2
"""

ALDP32 = """\
surface F 2
component Z 1 0
component F1 0 1
component F2 0 1
"""

P2LINE = """\
surface P2
component L 1
"""

F2ANTICANONICAL = """\
surface F 2
component C 2 4
"""


# The directory holding the ampleangles package this test process imported.
# The CLI child gets it first on PYTHONPATH, so it runs the same code from any
# cwd, whether or not the package is installed.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(ampleangles.__file__)))


def cli_env():
    """The environment of a CLI child: PACKAGE_ROOT first on PYTHONPATH."""
    full_env = dict(os.environ)
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = (
        PACKAGE_ROOT + os.pathsep + inherited if inherited else PACKAGE_ROOT
    )
    return full_env


def run_cli(args, cwd):
    """Run ``python -m ampleangles.cli`` in ``cwd``."""
    return subprocess.run(
        [sys.executable, "-m", "ampleangles.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


@pytest.fixture
def specs(tmp_path):
    for name, text in (("fig1", FIG1), ("blow", BLOWUP), ("aldp32", ALDP32)):
        (tmp_path / f"{name}.pair").write_text(text)
    return tmp_path


def test_parse_pair_spec_roundtrip():
    script = dsl.parse_pair_spec(FIG1)
    assert script.base.labels == ("Z", "C2")
    assert script.steps == ()
    blow = dsl.parse_pair_spec(BLOWUP)
    assert [s.op for s in blow.steps] == ["node", "node"]
    final = blow.final
    assert final.surface.rank == 4
    assert final.labels == ("Z", "F1", "E1", "E2")


def test_parse_errors_carry_line_numbers(tmp_path, capsys):
    with pytest.raises(dsl.SpecParseError) as err:
        dsl.parse_pair_spec("surface F 1\ncomponent Z 1\n")
    assert "line 2" in str(err.value)
    with pytest.raises(dsl.SpecParseError):
        dsl.parse_pair_spec("component Z 1 0\n")
    with pytest.raises(dsl.SpecParseError):
        dsl.parse_pair_spec("surface F 1\nfrobnicate\n")
    with pytest.raises(dsl.SpecParseError):
        dsl.parse_pair_spec(FIG1 + "component Z 0 1\n")
    # classes with no irreducible member are refused on their own line
    no_member = [("P2", "-1"), ("P2", "0"), ("F 2", "0 0"), ("F 2", "-1 3"), ("F 2", "0 2"),
                 ("F 0", "0 0"), ("F 0", "-1 3"), ("F 0", "0 2"), ("F 0", "2 0"), ("F 2", "1 1")]
    for surface, coords in no_member:
        text = f"surface {surface}\ncomponent A 1{' 0' if surface != 'P2' else ''}\ncomponent B {coords}\n"
        with pytest.raises(dsl.SpecParseError) as err:
            dsl.parse_pair_spec(text)
        assert str(err.value).startswith("line 3: ") and "no irreducible member" in str(err.value)
        spec = tmp_path / "bad.pair"
        spec.write_text(text)
        assert cli.main(["check", str(spec)]) == 1
        assert "input error: line 3: " in capsys.readouterr().err
    # the classes just inside the rule still parse
    for surface, coords in (("P2", "1"), ("F 0", "2 1"), ("F 0", "0 1"), ("F 2", "1 2"), ("F 3", "0 1")):
        dsl.parse_pair_spec(f"surface {surface}\ncomponent B {coords}\n")


def test_spec_errors_after_parsing_name_their_line(tmp_path, capsys):
    """Refusals of the base pair and of blow-up steps point at a spec line."""
    cases = [
        # a second Z_1: the prefix Z, Y is the first one refused
        ("surface F 1\ncomponent Z 1 0\ncomponent Y 1 0\n", 3),
        # Z.C = 0 on F_1, but two nodes are declared: the first node line
        ("surface F 1\ncomponent Z 1 0\ncomponent C 1 1\nnode a Z C\nnode b Z C\n", 4),
        ("surface F 1\ncomponent Z 1 0\nnode a Z Z\n", 3),
        ("surface F 1\ncomponent Z 1 0\ncomponent F1 0 1\nblowup node nope E1\n", 4),
        # a repeated fresh name: the second step's line
        (
            "surface F 1\ncomponent Z 1 0\ncomponent F1 0 1\n"
            "blowup node Z.F1.1 E1\nblowup node Z.E1.1 E1\n",
            5,
        ),
        # a fiber tag on the plane: its own line, not the first node line
        ("surface P2\ncomponent A 1\ncomponent B 1\nnode p A B\nnode q A B fiber=x\n", 5),
        # Z.C = 1 on F_1, but nodes c and d join them: the first of those lines
        (
            "surface F 1\ncomponent Z 1 0\ncomponent C 1 2\ncomponent G 0 1\n"
            "node a Z G\nnode b C G\nnode c Z C\nnode d Z C\n",
            7,
        ),
        # C.G = 1, and no node line joins them: the first node line
        ("surface F 1\ncomponent Z 1 0\ncomponent C 1 2\ncomponent G 0 1\nnode a Z G\nnode c Z C\n", 5),
        # a repeated node id: the second line that uses it
        (
            "surface F 1\ncomponent Z 1 0\ncomponent C 1 2\ncomponent G 0 1\n"
            "node a Z G\nnode a C G\nnode c Z C\n",
            6,
        ),
        # generated ids that collide: A.B with C, and A with B.C, both give A.B.C.1
        ("surface P2\ncomponent A.B 1\ncomponent C 1\ncomponent A 1\ncomponent B.C 1\n", 5),
        # a node blow-up whose new node X.Y.Z.1 is already the node of X.Y and Z
        ("surface P2\ncomponent X.Y 1\ncomponent Z 1\ncomponent X 1\ncomponent Q 1\nblowup node X.Q.1 Y.Z\n", 6),
        # with node lines no id is generated: A and B.C meet once, but two lines join them
        (
            "surface P2\ncomponent A.B 1\ncomponent C 1\ncomponent A 1\ncomponent B.C 1\n"
            "node p A.B C\nnode q A.B A\nnode r A.B B.C\nnode s C A\nnode t C B.C\n"
            "node u A B.C\nnode v A B.C\n",
            11,
        ),
    ]
    spec = tmp_path / "bad.pair"
    for text, line_no in cases:
        spec.write_text(text)
        for command in ("check", "blowup"):
            assert cli.main([command, str(spec)]) == 1
            assert capsys.readouterr().err.startswith(f"input error: line {line_no}: ")


def test_parse_explicit_nodes_and_fiber_tags():
    text = (
        "surface F 1\n"
        "component Z 1 0\n"
        "component C2 1 3\n"
        "node a Z C2\n"
        "node b Z C2 fiber=f0\n"
    )
    script = dsl.parse_pair_spec(text)
    assert {nd.id for nd in script.base.nodes} == {"a", "b"}
    assert script.base.node("b").on_fiber_of == "f0"


def test_parse_blowup_fiber_tags_and_shared_fiber_script(tmp_path):
    text = (
        "surface F 2\n"
        "component Z 1 0\n"
        "component F1 0 1\n"
        "component F2 0 1\n"
        "component C4 1 2\n"
        "blowup smooth Z q1 fiber=f\n"
        "blowup smooth C4 q2 fiber=f\n"
    )
    script = dsl.parse_pair_spec(text)
    assert script.steps[0].fiber == "f"
    final = script.final
    assert any(tc.kind == "fiber" and tc.coeffs.count(-1) == 2 for tc in final.tracked)
    # end to end: the shared fiber forces an empty outer body
    (tmp_path / "degenerate.pair").write_text(text)
    out = run_cli(["blowup", "degenerate.pair"], cwd=tmp_path)
    assert out.returncode == 2
    assert "vertices: (empty body)" in out.stdout
    with pytest.raises(dsl.SpecParseError):
        dsl.parse_pair_spec("surface F 1\ncomponent Z 1 0\ncomponent F1 0 1\nblowup node Z.F1.1 E1 fiber=f\n")


def test_blowup_refuses_a_tracked_tag(tmp_path):
    """A blow-up that would reuse a tracked-curve tag, or tag a fiber on a
    surface with no ruling, and an empty fiber tag on a node or blow-up
    line, are refused on their line."""
    head = "surface F 1\ncomponent Z 1 0\ncomponent C 1 1\n"
    cases = [
        (head + "blowup smooth C f fiber=f\n", 4, "tracked-curve tag 'f' already in use"),
        (head + "blowup smooth C e1 fiber=g\nblowup smooth C g\n", 5, "tracked-curve tag 'g' already in use"),
        (
            "surface P2\ncomponent L 1\ncomponent Q 2\nblowup smooth L q fiber=f\n",
            4,
            "fiber tags only make sense on F_n-rooted surfaces",
        ),
        ("surface F 1\ncomponent Z 1 0\ncomponent C 0 1\nnode a Z C fiber=\n", 4, "empty fiber tag"),
        (head + "blowup smooth C e1 fiber=\nblowup smooth C e2 fiber=\n", 4, "empty fiber tag"),
    ]
    for text, line_no, message in cases:
        (tmp_path / "tag.pair").write_text(text)
        for command in ("check", "blowup"):
            out = run_cli([command, "tag.pair"], cwd=tmp_path)
            assert out.returncode == 1, out.stderr
            assert f"input error: line {line_no}: {message}" in out.stderr


def test_shared_fiber_refusal_is_an_input_error(tmp_path):
    """Two centers on the section S = Z + F of F_1 that share a fiber tag:
    the tracked fiber would meet S negatively, so check and blowup exit 1
    with the refusal on stderr and print nothing on stdout."""
    (tmp_path / "shared.pair").write_text(
        "surface F 1\n"
        "component Z 1 0\n"
        "component S 1 1\n"
        "blowup smooth S q1 fiber=f\n"
        "blowup smooth S q2 fiber=f\n"
    )
    message = (
        "fiber tag 'f' puts multiple centers on one fiber, but that fiber "
        "would then meet component 'S' negatively"
    )
    for command in ("check", "blowup"):
        out = run_cli([command, "shared.pair"], cwd=tmp_path)
        assert out.returncode == 1, out.stderr
        assert message in out.stderr
        assert out.stdout == ""


def test_check_positive_and_negative_verdicts(tmp_path):
    (tmp_path / "line.pair").write_text(P2LINE)
    out = run_cli(["check", "line.pair"], cwd=tmp_path)
    assert out.returncode == 0
    assert "log del Pezzo: yes" in out.stdout

    (tmp_path / "antican.pair").write_text(F2ANTICANONICAL)
    out = run_cli(["check", "antican.pair"], cwd=tmp_path)
    assert out.returncode == 0  # computed, verdict negative
    assert "asymptotically log del Pezzo: no" in out.stdout
    assert "vertices: (empty body)" in out.stdout


def test_report_verdicts_match_the_predicates():
    """The report reads ALdP off the body it prints; every verdict must still
    be what the library predicates say, on plane, F_n and blow-up pairs."""
    samples = pathlib.Path(__file__).resolve().parent.parent / "samples"
    texts = [FIG1, BLOWUP, ALDP32, P2LINE, F2ANTICANONICAL]
    texts += [path.read_text() for path in sorted(samples.glob("*.pair"))]
    for text in texts:
        p = dsl.parse_pair_spec(text).final
        verdicts = cli.run_report(p, "spec").verdicts
        assert list(verdicts.values()) == [
            angles.is_log_dp(p), angles.is_strongly_aldp(p), angles.is_aldp(p), is_minimal(p)
        ]


def test_check_exit_codes(specs):
    ok = run_cli(["check", "fig1.pair"], cwd=specs)
    assert ok.returncode == 0
    assert "asymptotically log del Pezzo: yes" in ok.stdout
    assert "strongly asymptotically log del Pezzo: no" in ok.stdout
    assert "log del Pezzo: no" in ok.stdout

    unknown = run_cli(["check", "blow.pair"], cwd=specs)
    assert unknown.returncode == 2
    assert "unknown" in unknown.stdout

    (specs / "bad.pair").write_text("surface F 1\ncomponent Z 1\n")
    bad = run_cli(["check", "bad.pair"], cwd=specs)
    assert bad.returncode == 1
    assert "input error" in bad.stderr

    missing = run_cli(["check", "nope.pair"], cwd=specs)
    assert missing.returncode == 1
    assert "input error" in missing.stderr


def test_reports_are_deterministic_and_timing_on_stderr(specs):
    a = run_cli(["check", "fig1.pair"], cwd=specs)
    b = run_cli(["check", "fig1.pair"], cwd=specs)
    assert a.stdout == b.stdout
    assert "elapsed" not in a.stdout
    assert "elapsed" in a.stderr


@pytest.mark.parametrize("error", [RuntimeError, AssertionError, LookupError, ValueError, TypeError])
def test_internal_error_exit_code(specs, monkeypatch, capsys, error):
    def broken(p):
        raise error("self-check failed")

    monkeypatch.setattr(cli.angles, "is_log_dp", broken)
    assert cli.main(["check", str(specs / "fig1.pair")]) == 3
    err = capsys.readouterr().err
    assert "internal error: self-check failed" in err
    assert "input error" not in err


def test_library_value_error_is_internal(monkeypatch, capsys):
    """A ValueError the library raises on its own data is a bug, not bad
    input: check on a valid sample exits 3."""
    def unbounded(p):
        raise ValueError("vertex enumeration requires a bounded polyhedron")

    monkeypatch.setattr(cli.pt, "vertices", unbounded)
    sample = pathlib.Path(__file__).resolve().parent.parent / "samples" / "figure1.pair"
    assert cli.main(["check", str(sample)]) == 3
    err = capsys.readouterr().err
    assert "internal error: vertex enumeration requires a bounded polyhedron" in err
    assert "input error" not in err


def test_binary_spec_is_an_input_error(specs):
    (specs / "binary.pair").write_bytes(b"surface P2\ncomponent L \xff\xfe 1\n")
    out = run_cli(["check", "binary.pair"], cwd=specs)
    assert out.returncode == 1, out.stderr
    assert "input error: spec is not UTF-8 text" in out.stderr
    assert out.stdout == ""


def test_spec_with_a_byte_order_mark_loads(specs):
    """A UTF-8 spec saved with a byte-order mark, as Windows editors save
    it, reads as the same spec."""
    (specs / "bom.pair").write_bytes(b"\xef\xbb\xbf" + FIG1.encode())
    assert dsl.load_pair_spec(str(specs / "bom.pair")).base == dsl.parse_pair_spec(FIG1).base


def _fn_classes(column):
    return tuple(tuple(int(x) for x in part.strip("()").split(",")) for part in column.split("+"))


def test_classify_row_order(capsys):
    """The documented row order: the plane in sorted(p2_degree_multisets())
    order, then n ascending, and within each n by (label text, classes)."""
    p2_order = sorted(classify.p2_degree_multisets())
    for mode in ("maeda", "rank2"):
        assert cli.main(["classify", "--mode", mode, "--n-max", "3"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        keys = [
            (-1, p2_order.index(tuple(sorted(int(d) for d in row[2].split("+")))))
            if row[1] == "P2"
            else (int(row[1][1:]), row[3], _fn_classes(row[2]))
            for row in rows
        ]
        assert keys == sorted(keys), mode
        assert len(set(keys)) == len(keys)
        assert {key[0] for key in keys} == {-1, 0, 1, 2, 3}


def test_classify_tsv_shape(specs):
    out = run_cli(["classify", "--mode", "rank2", "--n-max", "1"], cwd=specs)
    assert out.returncode == 0
    rows = [line.split("\t") for line in out.stdout.splitlines()]
    assert all(len(row) == 6 for row in rows)
    labels = {row[3] for row in rows}
    assert {"I.2.0", "I.2.1", "II.3", "III.4.1", "ALdP.1.1"} <= labels
    again = run_cli(["classify", "--mode", "rank2", "--n-max", "1"], cwd=specs)
    assert out.stdout == again.stdout

    maeda = run_cli(["classify", "--mode", "maeda", "--n-max", "0"], cwd=specs)
    rows = [line.split("\t") for line in maeda.stdout.splitlines()]
    assert len(rows) == 6
    assert all(len(row) == 4 for row in rows)


def test_aa_canonical_form_is_fixed_point(specs):
    out = run_cli(["aa", "fig1.pair"], cwd=specs)
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    start = lines.index("closure:") + 1
    constraint_lines = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        constraint_lines.append(line.strip())
    reparsed = parse_canonical("\n".join(constraint_lines), 2)
    assert pt.canonical_lines(reparsed) == constraint_lines
    assert "  (1, 1/2)" in lines


def test_aa_slice_section(specs):
    out = run_cli(["aa", "aldp32.pair", "--slice", "1=1/2"], cwd=specs)
    assert out.returncode == 0
    assert "section" in out.stdout
    assert "1 1 | -1 >= 0" in out.stdout  # b2 + b3 >= 1
    two = run_cli(["aa", "fig1.pair", "--slice", "1=1/2"], cwd=specs)
    assert two.returncode == 1
    assert "slices only make sense" in two.stderr


@pytest.mark.parametrize(
    "options, message",
    [
        (["--slice", "9=1/2"], "slice index 9 out of range 1..3"),
        (["--slice", "1:1/2"], "bad slice '1:1/2': expected I=P/Q"),
        (["--slice", "1=x"], "bad slice '1=x': expected I=P/Q"),
        (["--slice", "1=3/2"], "slice values must lie in [0, 1]"),
        (["--slice", "1=1/2", "--slice", "1=1/3"], "repeated slice index"),
        (["--svg", "x.svg"], "SVG output needs a 2-dimensional body; got 3"),
        (["--slice", "1=1/2", "--slice", "2=1/2", "--svg", "x.svg"],
         "SVG output needs a 2-dimensional body; got 1"),
        # a 2-dimensional section whose SVG cannot be written: the body
        # must not reach stdout before the write fails
        (["--slice", "1=1/2", "--svg", "nodir/x.svg"], "[Errno 2] No such file or directory"),
    ],
)
def test_aa_option_faults_are_input_errors(specs, capsys, monkeypatch, options, message):
    """Bad slices, an SVG request on a body that is not 2-dimensional and an
    SVG path that cannot be written return 1 from main, in process, with an
    input error on stderr; nothing is printed on stdout and no SVG file is
    written."""
    monkeypatch.chdir(specs)
    assert cli.main(["aa", "aldp32.pair", *options]) == 1
    captured = capsys.readouterr()
    assert f"input error: {message}" in captured.err
    assert captured.out == ""
    assert not (specs / "x.svg").exists()


def test_aa_empty_outer_body(monkeypatch, capsys):
    """aa prints the outer body alone: no quadratic report, no grid sampled."""
    def no_grid(*args, **kwargs):
        raise AssertionError("aa sampled the quadratic grid")

    monkeypatch.setattr(cli.angles, "aa_outer_blowup", no_grid)
    samples = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "samples")
    assert cli.main(["aa", os.path.join(samples, "shared-fiber-degeneration.pair")]) == 0
    out = capsys.readouterr().out
    assert "exactness: outer" in out
    assert "vertices: (empty body)" in out
    assert "self-intersection quadratic" not in out


def _check_chain(tmp_path, capsys, r):
    """Run check in-process on the infinitely-near chain with r angles (F_1
    with Z + F, node blow-ups repeated on Z): exit code, stdout and the
    seconds that check took."""
    lines = ["surface F 1", "component Z 1 0", "component F 0 1", "blowup node Z.F.1 E1"]
    lines += [f"blowup node Z.E{i - 1}.1 E{i}" for i in range(2, r - 1)]
    spec = tmp_path / f"chain-r{r}.pair"
    spec.write_text("\n".join(lines) + "\n")
    started = time.perf_counter()
    code = cli.main(["check", str(spec)])
    elapsed = time.perf_counter() - started
    return code, capsys.readouterr().out, elapsed


def test_check_chain_r7_scaling(tmp_path, capsys):
    """Scaling guard on the infinitely-near chain series (F_1 with Z + F,
    node blow-ups repeated on Z): check on r = 7 stays inside 10 s, and
    every printed vertex is a vertex of the printed closure."""
    code, out, elapsed = _check_chain(tmp_path, capsys, 7)
    assert code == 2  # verdicts on blow-up surfaces come back unknown
    assert verify_printed_vertices(out) == 40
    assert elapsed < 10.0, f"check on the r = 7 chain took {elapsed:.2f}s"


def test_check_chain_r12_r16_scaling(tmp_path, capsys):
    """The longer chains stay in reach of the report path, which decides
    emptiness by Fourier-Motzkin elimination on the rows tight at the
    origin and lists the vertices by double description: check takes under
    0.5 s on r = 12, under 2 s on r = 16 and under 1 s on r = 20
    (Fourier-Motzkin without Chernikov's rule took over a minute at r = 9).
    The r = 12 vertices are checked against the printed closure."""
    code, out, elapsed = _check_chain(tmp_path, capsys, 12)
    assert code == 2
    assert elapsed < 0.5, f"check on the r = 12 chain took {elapsed:.2f}s"
    assert verify_printed_vertices(out) == 174
    code, out, elapsed = _check_chain(tmp_path, capsys, 16)
    assert code == 2
    assert elapsed < 2.0, f"check on the r = 16 chain took {elapsed:.2f}s"
    assert out.count("\n  (") == 368  # the printed vertices
    code, out, elapsed = _check_chain(tmp_path, capsys, 20)
    assert code == 2
    assert elapsed < 1.0, f"check on the r = 20 chain took {elapsed:.2f}s"
    assert out.count("\n  (") == 670


def test_aa_svg_output(specs):
    import xml.etree.ElementTree as ET

    out = run_cli(
        ["aa", "fig1.pair", "--svg", "fig1.svg"], cwd=specs
    )
    assert out.returncode == 0
    svg = (specs / "fig1.svg").read_text()
    again = run_cli(["aa", "fig1.pair", "--svg", "fig1b.svg"], cwd=specs)
    assert svg == (specs / "fig1b.svg").read_text()
    assert svg.startswith("<svg")
    root = ET.fromstring(svg)
    assert root.get("version") == "1.1"
    assert "(1, 1/2)" in svg
    assert "OUTER" not in svg
    # a 3-angle body needs a slice first
    no_slice = run_cli(["aa", "aldp32.pair", "--svg", "x.svg"], cwd=specs)
    assert no_slice.returncode == 1
    assert "SVG output needs a 2-dimensional body" in no_slice.stderr


def test_aa_slice_svg_enumerates_only_the_section(tmp_path, monkeypatch, capsys):
    """aa --slice --svg runs double description on the printed section
    alone, never on the whole body, and draws the SVG from the section's
    printed vertices: one call of polytope.vertices, on a 2-dimensional
    system, and the reference picture."""
    calls = []
    vertices = pt.vertices

    def counting(p):
        calls.append(p)
        return vertices(p)

    monkeypatch.setattr(pt, "vertices", counting)
    root = pathlib.Path(__file__).resolve().parent.parent
    svg = tmp_path / "three-fibers.svg"
    argv = ["aa", str(root / "samples" / "three-fibers.pair"), "--slice", "1=1/2", "--svg", str(svg)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert [p.dim for p in calls] == [2]
    ref = root / "perfbench" / "ref" / "aa-three-fibers.svg"
    assert svg.read_text(encoding="utf-8") == ref.read_text(encoding="utf-8")


def test_aa_svg_escapes_file_name(tmp_path):
    """A file name with XML markup characters still gives well-formed SVG."""
    import shutil
    import xml.etree.ElementTree as ET

    samples = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "samples")
    shutil.copy(os.path.join(samples, "three-fibers.pair"), tmp_path / "a&b<c.pair")
    out = run_cli(["aa", "a&b<c.pair", "--slice", "1=1/2", "--svg", "out.svg"], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    root = ET.parse(tmp_path / "out.svg").getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c.pair section b1=1/2" in texts


def test_aa_svg_marks_outer_and_empty_bodies(tmp_path, capsys):
    """An outer body is drawn with the OUTER watermark, and an empty one as
    the word "empty" with no shape: a 2-angle blow-up body, and the empty
    section of the shared-fiber sample."""
    import xml.etree.ElementTree as ET

    spec = tmp_path / "f1-smooth.pair"
    spec.write_text("surface F 1\ncomponent Z 1 0\ncomponent F 0 1\nblowup smooth Z e\n")
    sample = pathlib.Path(__file__).resolve().parent.parent / "samples" / "shared-fiber-degeneration.pair"
    runs = {
        "outer": [str(spec)],
        "empty": [str(sample), "--slice", "1=1/2", "--slice", "2=1/2"],
    }
    for name, argv in runs.items():
        svg = tmp_path / f"{name}.svg"
        assert cli.main(["aa", *argv, "--svg", str(svg)]) == 0, name
        out = capsys.readouterr().out
        text = svg.read_text(encoding="utf-8")
        texts = [el.text for el in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}text")]
        assert "exactness: outer" in out and "OUTER" in texts, name
    assert "(1/2, 0)" in (tmp_path / "outer.svg").read_text(encoding="utf-8")
    empty = (tmp_path / "empty.svg").read_text(encoding="utf-8")
    assert "empty" in empty and "<path" not in empty


def test_blowup_report(specs):
    out = run_cli(["blowup", "blow.pair"], cwd=specs)
    assert out.returncode == 2  # verdicts are unknown on the blow-up
    assert "step: blowup node Z.F1.1 -> E1" in out.stdout
    assert "step: blowup node Z.E1.1 -> E2" in out.stdout
    assert "K: (-2, -3, 1, 1)" in out.stdout
    assert "exactness: outer" in out.stdout
    assert "self-intersection quadratic" in out.stdout


def test_blowup_outer_body_has_exceptional_constraint(tmp_path):
    (tmp_path / "one.pair").write_text(
        "surface F 1\ncomponent Z 1 0\ncomponent F1 0 1\nblowup node Z.F1.1 E1\n"
    )
    out = run_cli(["blowup", "one.pair"], cwd=tmp_path)
    # adjoint . E1 > 0 weakens to b1 + b2 - b3 >= 0 in the printed closure
    assert "  1 1 -1 | 0 >= 0" in out.stdout


def test_blowup_empty_script_matches_check(specs):
    blow = run_cli(["blowup", "fig1.pair"], cwd=specs)
    check = run_cli(["check", "fig1.pair"], cwd=specs)
    assert blow.stdout == check.stdout
    assert blow.returncode == check.returncode == 0


def test_shipped_samples_load_and_run():
    import pathlib

    samples = pathlib.Path(__file__).resolve().parent.parent / "samples"
    expected = {
        "figure1.pair": 0,
        "three-fibers.pair": 0,
        "infinitely-near.pair": 2,
        "shared-fiber-degeneration.pair": 2,
    }
    found = {p.name for p in samples.glob("*.pair")}
    assert found == set(expected)
    for name, code in expected.items():
        out = run_cli(["check", str(samples / name)], cwd=samples)
        assert out.returncode == code, name


@pytest.mark.parametrize(
    "args, message",
    [
        (["classify"], "the following arguments are required: --mode"),
        (["classify", "--mode", "rank2", "--n-max", "x"], "invalid int value: 'x'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["classify", "--mode", "rank2", "--n-max", "-3"], "input error: --n-max must be at least 0"),
    ],
)
def test_usage_errors_exit_1(specs, args, message):
    """A usage error is an input error, not the "verdict unknown" code 2."""
    out = run_cli(args, cwd=specs)
    assert out.returncode == 1, out.stderr
    assert message in out.stderr
    assert out.stdout == ""


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process; calls in any order, usage
    errors among them, print what a fresh parser would."""
    assert cli.build_parser() is cli.build_parser()
    argv = ["classify", "--mode", "maeda", "--n-max", "1"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    for args, message in (
        (["classify"], "the following arguments are required: --mode"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert cli.main(["classify", "--mode", "rank2", "--n-max", "0"]) == 0
    assert capsys.readouterr().out.count("\n") == len(P2_TABLE) + len(fn_table(0))


def test_help_exits_0(specs):
    out = run_cli(["--help"], cwd=specs)
    assert out.returncode == 0
    assert "usage: ample-angles" in out.stdout


def test_smooth_blowup_refuses_a_boundary_label(specs):
    """A smooth blow-up named after a boundary component would make the
    script impossible to unwind, so it is refused on its line."""
    (specs / "ll.pair").write_text("surface P2\ncomponent L 1\ncomponent M 1\nblowup smooth L L\n")
    out = run_cli(["check", "ll.pair"], cwd=specs)
    assert out.returncode == 1
    assert "input error: line 4: boundary label 'L' already in use" in out.stderr


def test_import_loads_no_dataclasses():
    """The value types are named tuples, so a fresh isolated interpreter
    that imports the CLI never loads `dataclasses`, whose import (with
    inspect, ast and dis) and per-class code generation cost more start-up
    than a check run's work."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ampleangles.cli; " \
           "print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code, PACKAGE_ROOT], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


REPO = pathlib.Path(__file__).resolve().parent.parent
# the exit code of each reference run, as the benchmark's reports and
# classify workloads expect it: verdicts on blow-ups come back unknown
GOLDEN_EXIT = {
    "check-figure1": 0,
    "check-three-fibers": 0,
    "check-infinitely-near": 2,
    "check-shared-fiber-degeneration": 2,
    "check-chain-r5": 2,
    "check-chain-r6": 2,
    "classify-maeda": 0,
    "classify-rank2": 0,
}


def test_check_and_classify_match_the_benchmark_references(monkeypatch, capsys):
    """check on the samples and chain inputs, and classify in both modes at
    n <= 12, run in-process from the repository root, print their
    perfbench/ref/ files byte for byte; the references are only read."""
    monkeypatch.chdir(REPO)
    refs = sorted((REPO / "perfbench" / "ref").glob("check-*.out"))
    refs += sorted((REPO / "perfbench" / "ref").glob("classify-*.out"))
    assert {ref.stem for ref in refs} == set(GOLDEN_EXIT)
    for ref in refs:
        command, name = ref.stem.split("-", 1)
        if command == "classify":
            argv = ["classify", "--mode", name, "--n-max", "12"]
        elif (REPO / "samples" / f"{name}.pair").exists():
            argv = ["check", f"samples/{name}.pair"]
        else:
            argv = ["check", f"perfbench/inputs/{name}.pair"]
        assert cli.main(argv) == GOLDEN_EXIT[ref.stem], ref.stem
        assert capsys.readouterr().out == ref.read_text(encoding="utf-8"), ref.stem


def test_readme_example_is_the_real_output(monkeypatch, capsys):
    """README's `check samples/figure1.pair` example, cut at its `...`
    lines, is a sequence of contiguous runs of the real stdout, in order."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    command = "$ ample-angles check samples/figure1.pair\n"
    block = readme[readme.index(command) + len(command):].split("```", 1)[0]
    chunks, chunk = [], []
    for line in block.splitlines():
        if line.strip() == "...":
            chunks.append(chunk)
            chunk = []
        else:
            chunk.append(line)
    chunks.append(chunk)
    monkeypatch.chdir(REPO)
    assert cli.main(["check", "samples/figure1.pair"]) == 0
    real = capsys.readouterr().out.splitlines()
    at = 0
    for chunk in filter(None, chunks):
        start = next(
            (k for k in range(at, len(real) - len(chunk) + 1) if real[k : k + len(chunk)] == chunk),
            None,
        )
        assert start is not None, chunk
        at = start + len(chunk)


@pytest.mark.parametrize(
    "args", [["check", "samples/three-fibers.pair"], ["classify", "--mode", "rank2", "--n-max", "3"]]
)
def test_closed_stdout_exits_141_quietly(args):
    """A reader that leaves before the output is written, as `| head` does,
    ends the run with 141 (128 + SIGPIPE) and no message: not an input
    error, and no failed flush at exit."""
    with subprocess.Popen(
        [sys.executable, "-m", "ampleangles.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO, env=cli_env(),
    ) as child:
        # the read end closes before the child has imported the package
        child.stdout.close()
        err = child.stderr.read()
    assert child.returncode == 141, err
    assert "input error" not in err and "Exception ignored" not in err, err
