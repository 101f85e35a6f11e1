import json
import re
from pathlib import Path

from qzeta.cli import main
from qzeta.serialize import graph_from_json, graph_to_json


def write_instance(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PLANE_46 = {
    "schema": "qres-instance/1",
    "surface": {"kind": "plane"},
    "mode": "weighted_homogeneous",
    "divisor": {
        "pq": [3, 2],
        "axis_x": {"N": "0", "w": "3"},
        "branches": [
            {"label": "c1", "N": "1", "w": "0", "c": {"family": "c", "k": 0}},
            {"label": "c2", "N": "1", "w": "0", "c": {"family": "c", "k": 1}},
        ],
    },
}

QUOT_46 = {
    "schema": "qres-instance/1",
    "surface": {"kind": "cyclic_quotient", "d": 2, "a": 1, "b": 1},
    "mode": "weighted_homogeneous",
    "divisor": {
        "pq": [3, 2],
        "axis_x": {"N": "0", "w": "3"},
        "branches": [{"label": "c", "N": "1", "w": "0"}],
    },
}


def test_zeta_plane_fixture(tmp_path, capsys):
    path = write_instance(tmp_path, "p.json", PLANE_46)
    assert main(["zeta", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "(3s+7)/(4(s+1)(6s+7))" in out


def test_zeta_quotient_fixture(tmp_path, capsys):
    path = write_instance(tmp_path, "q.json", QUOT_46)
    assert main(["zeta", "--input", path]) == 0
    assert "1/(2(s+1))" in capsys.readouterr().out


def test_zeta_second_fixture(tmp_path, capsys):
    plane = {**PLANE_46, "divisor": {**PLANE_46["divisor"], "pq": [5, 2], "axis_x": {"N": "0", "w": "5"}}}
    path = write_instance(tmp_path, "p2.json", plane)
    assert main(["zeta", "--input", path]) == 0
    assert "1/(6(s+1))" in capsys.readouterr().out
    quot = {**QUOT_46, "divisor": {**QUOT_46["divisor"], "pq": [5, 2], "axis_x": {"N": "0", "w": "5"}}}
    path = write_instance(tmp_path, "q2.json", quot)
    assert main(["zeta", "--input", path]) == 0
    assert "(29s+32)/(12(s+1)(5s+8))" in capsys.readouterr().out


def test_zeta_normal_crossing_quotient(tmp_path, capsys):
    doc = {
        "schema": "qres-instance/1",
        "surface": {"kind": "cyclic_quotient", "d": 2, "a": 1, "b": 1},
        "mode": "weighted_homogeneous",
        "divisor": {"pq": [1, 1], "axis_x": {"N": "1", "w": "0"}},
    }
    path = write_instance(tmp_path, "nc.json", doc)
    assert main(["zeta", "--input", path]) == 0
    assert "2/(s+1)" in capsys.readouterr().out


SWAPPED = {
    "schema": "qres-instance/1",
    "surface": {"kind": "cyclic_quotient", "d": 4, "a": 1, "b": 3},
    "mode": "weighted_homogeneous",
    "divisor": {"pq": [1, 1], "branches": [{"label": "c", "N": "1", "w": "0"}]},
}


def test_zeta_swapped_pair(tmp_path, capsys):
    path = write_instance(tmp_path, "sp.json", SWAPPED)
    assert main(["zeta", "--input", path]) == 0
    assert "(3s+4)/(s+1)^2" in capsys.readouterr().out


def test_quotient_command_swapped_pair(tmp_path, capsys):
    path = write_instance(tmp_path, "sp.json", SWAPPED)
    out_dir = tmp_path / "sp"
    assert main(["quotient", "--input", path, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "correspondence holds" in out
    assert "theorem A: holds" in out and "theorem C: not-applicable" in out
    payload = json.loads((out_dir / "quotient.json").read_text())
    assert payload["correspondence"]["rupture_down"]
    (thm_c,) = [t for t in payload["theorems"] if t["theorem"] == "C"]
    assert thm_c["evidence"]["ratio_constant"] is False


def test_resolve_swapped_pair(tmp_path, capsys):
    path = write_instance(tmp_path, "sp.json", SWAPPED)
    assert main(["resolve", "--input", path]) == 0
    assert "point pt_c" in capsys.readouterr().out


def test_resolve_roundtrip_explicit_graph(tmp_path, capsys):
    from qzeta import weighted_blowup, PLANE
    from tests.conftest import cusp_spec

    graph = weighted_blowup(PLANE, cusp_spec((3, 2), 3))
    doc = {
        "schema": "qres-instance/1",
        "surface": {"kind": "plane"},
        "mode": "explicit_graph",
        "graph": graph_to_json(graph),
    }
    path = write_instance(tmp_path, "g.json", doc)
    out_dir = tmp_path / "out"
    assert main(["resolve", "--input", path, "--out", str(out_dir), "--emit", "graph"]) == 0
    emitted = json.loads((out_dir / "graph.json").read_text())
    assert emitted == graph_to_json(graph)
    assert graph_from_json(emitted).components == graph.components


def test_resolve_smooth_and_dot(tmp_path, capsys):
    path = write_instance(tmp_path, "p.json", PLANE_46)
    out_dir = tmp_path / "art"
    assert main(["resolve", "--input", path, "--smooth", "--out", str(out_dir)]) == 0
    assert (out_dir / "smooth.json").exists()
    assert (out_dir / "en.dot").read_text().startswith("graph en {")


def test_invalid_w_coefficient_exits_2(tmp_path, capsys):
    doc = {
        "schema": "qres-instance/1",
        "surface": {"kind": "plane"},
        "mode": "weighted_homogeneous",
        "divisor": {"pq": [1, 1], "axis_x": {"N": "0", "w": "-1"}, "axis_y": {"N": "1", "w": "0"}},
    }
    path = write_instance(tmp_path, "bad.json", doc)
    assert main(["resolve", "--input", path]) == 2


def test_unknown_field_rejected(tmp_path, capsys):
    from qzeta import weighted_blowup, PLANE
    from tests.conftest import cusp_spec

    doc = {**PLANE_46, "extra": 1}
    path = write_instance(tmp_path, "bad2.json", doc)
    assert main(["zeta", "--input", path]) == 2
    capsys.readouterr()
    # a missing required field, a non-integer integer field, an invalid
    # rational, a non-object where an object is expected, a non-list where a
    # list is expected or an invalid surface is an input error naming the
    # file and the field, not a traceback
    good = graph_to_json(weighted_blowup(PLANE, cusp_spec((3, 2), 3)))
    graph = json.loads(json.dumps(good))
    strings = {**graph, "components": ["x"]}
    del graph["components"][0]["N"]
    branch = {"label": "c", "N": "1", "w": "0", "c": {"k": "z"}}
    divisor = PLANE_46["divisor"]

    def explicit(**fields):
        return {**PLANE_46, "mode": "explicit_graph", "graph": {**good, **fields}}

    def incident(value):
        return explicit(points=[{**good["points"][0], "incident": value}])

    def surface(d, a, b):
        return {**QUOT_46, "surface": {"kind": "cyclic_quotient", "d": d, "a": a, "b": b}}

    probes = [
        ("d", {**QUOT_46, "surface": {"kind": "cyclic_quotient", "a": 1, "b": 1}}),
        ("pq", {**PLANE_46, "divisor": {**divisor, "pq": ["x", 1]}}),
        ("N", {**PLANE_46, "mode": "explicit_graph", "graph": graph}),
        ("k", {**PLANE_46, "divisor": {**divisor, "branches": [branch]}}),
        ("components[0]", {**PLANE_46, "mode": "explicit_graph", "graph": strings}),
        ("surface", {**PLANE_46, "surface": "plane"}),
        ("branches[0]", {**PLANE_46, "divisor": {**divisor, "branches": ["b"]}}),
        ("axis_x.N", {**PLANE_46, "divisor": {**divisor, "axis_x": {"N": "q", "w": "3"}}}),
        ("components: expected a JSON list", explicit(components=5)),
        ("points: expected a JSON list", explicit(points=5)),
        ("incident: expected a JSON list", incident(5)),
        ("incident: expected a JSON list", incident("EL")),
        ("branches: expected a JSON list",
         {**PLANE_46, "divisor": {**divisor, "branches": {"a": 1}}}),
        ("surface: d must be positive", surface(0, 1, 1)),
        ("surface: gcd(d,a,b) must be 1", surface(4, 2, 2)),
    ]
    for i, (field, doc) in enumerate(probes):
        path = write_instance(tmp_path, f"probe{i}.json", doc)
        assert main(["zeta", "--input", path]) == 2, field
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}") and field in line, line


def test_readme_ztop_values_are_printed(tmp_path, capsys):
    # the README's instance on both surfaces, and every Ztop it quotes is
    # the one the CLI prints for it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    plane = write_instance(tmp_path, "plane.json", {**doc, "surface": {"kind": "plane"}})
    quot = write_instance(tmp_path, "quot.json", doc)

    def printed(*args):
        assert main(list(args)) == 0
        return dict(re.findall(r"^(Ztop[^=]*?) *= (\S+)$", capsys.readouterr().out, re.M))

    down, up = printed("zeta", "--input", quot), printed("quotient", "--input", quot)
    claims = {
        "on this instance prints": down["Ztop"],
        "on the plane surface gives": printed("zeta", "--input", plane)["Ztop"],
        "on the pulled-back pair, it is": up["Ztop upstairs"],
        "graph_up).render())": up["Ztop upstairs"],
        "graph_down).render())": up["Ztop downstairs"],
    }
    for where, value in claims.items():
        quoted = re.search(re.escape(where) + r"\s+(?:`(?:Ztop = )?|# )([^`\s]+)", readme)
        assert quoted and quoted.group(1) == value, where
    quotes = re.findall(r"(?:`(?:Ztop = )?|# )([^`\s]*\(s[+-][^`\s]*)", readme)
    assert len(quotes) == len(claims) and set(quotes) == set(claims.values())


def test_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\n  broken\n}")
    assert main(["zeta", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err


def test_one_build_per_quotient_pair(tmp_path, monkeypatch, capsys):
    # the CLI and the theorem batches compare the two levels of one built pair
    import qzeta.cli
    import qzeta.quotient
    import qzeta.verify
    from qzeta.verify import run_family

    builds = []
    build = qzeta.quotient.build_quotient

    def counting(*args):
        builds.append(args)
        return build(*args)

    for module in (qzeta.quotient, qzeta.cli, qzeta.verify):
        monkeypatch.setattr(module, "build_quotient", counting)
    path = write_instance(tmp_path, "sp.json", SWAPPED)
    assert main(["quotient", "--input", path]) == 0
    assert len(builds) == 1
    capsys.readouterr()
    for family in ("theoremA", "theoremC-sharpness"):
        builds.clear()
        assert run_family(family, 7, 6).passed == 6
        assert len(builds) == 6


def test_one_ztop_split_per_level(tmp_path, monkeypatch, capsys):
    # each level's Ztop terms are split once; its pole report, the theorem
    # checks and the printed Ztop all read that one split
    import qzeta.zeta

    splits = []
    split = qzeta.zeta._split

    def counting(terms):
        splits.append(terms)
        return split(terms)

    monkeypatch.setattr(qzeta.zeta, "_split", counting)
    path = write_instance(tmp_path, "sp.json", SWAPPED)
    assert main(["quotient", "--input", path]) == 0
    assert len(splits) == 2
    splits.clear()
    assert main(["zeta", "--input", path]) == 0
    assert len(splits) == 1


def test_quotient_command(tmp_path, capsys):
    path = write_instance(tmp_path, "q.json", QUOT_46)
    out_dir = tmp_path / "qq"
    assert main(["quotient", "--input", path, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "correspondence holds" in out
    assert "theorem A: holds" in out
    payload = json.loads((out_dir / "quotient.json").read_text())
    assert payload["table"]["d"] == 2
    assert payload["correspondence"]["holds"]


def test_verify_command(tmp_path, capsys):
    assert main(["verify", "--family", "delta", "--seed", "3", "--count", "0"]) == 0
    assert "passed" in capsys.readouterr().out
    assert main(["verify", "--family", "nope", "--seed", "3", "--count", "1"]) == 2


def test_verify_negative_count_is_an_input_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["verify", "--family", "delta", "--seed", "3", "--count", "-3", "--out", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "count must be >= 0" in captured.err
    assert "passed" not in captured.out
    assert not out_dir.exists()


def test_verify_deterministic(capsys):
    assert main(["verify", "--family", "smallify", "--seed", "11", "--count", "25"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--family", "smallify", "--seed", "11", "--count", "25"]) == 0
    assert capsys.readouterr().out == first


def test_quotient_command_theorem_b_instance(tmp_path, capsys):
    doc = {
        "schema": "qres-instance/1",
        "surface": {"kind": "cyclic_quotient", "d": 2, "a": 1, "b": 1},
        "mode": "weighted_homogeneous",
        "divisor": {
            "pq": [3, 2],
            "branches": [{"label": "c", "N": "1", "w": "0"}],
        },
    }
    path = write_instance(tmp_path, "b.json", doc)
    assert main(["quotient", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "theorem B: holds" in out
    assert "theorem C: not-applicable" in out


def test_zeta_explicit_graph_instance(tmp_path, capsys):
    from qzeta import weighted_blowup, PLANE
    from tests.conftest import cusp_spec

    graph = weighted_blowup(PLANE, cusp_spec((5, 2), 5))
    doc = {
        "schema": "qres-instance/1",
        "surface": {"kind": "plane"},
        "mode": "explicit_graph",
        "graph": graph_to_json(graph),
    }
    path = write_instance(tmp_path, "eg.json", doc)
    assert main(["zeta", "--input", path]) == 0
    assert "1/(6(s+1))" in capsys.readouterr().out


def test_resolve_quotient_emits_both_graphs(tmp_path, capsys):
    path = write_instance(tmp_path, "q.json", QUOT_46)
    out_dir = tmp_path / "both"
    assert main(["resolve", "--input", path, "--out", str(out_dir), "--emit", "graph"]) == 0
    down = json.loads((out_dir / "graph.json").read_text())
    up = json.loads((out_dir / "graph_up.json").read_text())
    assert down["ambient"]["m"] == 2 and up["ambient"]["m"] == 1


def test_quotient_command_orbit_of_two_branches(tmp_path, capsys):
    # Theorem C is not applicable here, and z_down / z_up does not split
    # over Q; its evidence used to crash the JSON export
    doc = {
        "schema": "qres-instance/1",
        "surface": {"kind": "cyclic_quotient", "d": 10, "a": 9, "b": 0},
        "mode": "weighted_homogeneous",
        "divisor": {
            "pq": [5, 6],
            "axis_x": {"N": "0", "w": "3"},
            "axis_y": {"N": "4", "w": "3"},
            "branches": [{"label": "c0", "N": "4", "w": "-1/2"}],
        },
    }
    path = write_instance(tmp_path, "orbit.json", doc)
    out_dir = tmp_path / "orbit"
    assert main(["quotient", "--input", path, "--out", str(out_dir)]) == 0
    assert "theorem C: not-applicable" in capsys.readouterr().out
    payload = json.loads((out_dir / "quotient.json").read_text())
    (thm_c,) = [t for t in payload["theorems"] if t["theorem"] == "C"]
    assert thm_c["evidence"]["reason"] == "a branch orbit has size > 1"
    assert thm_c["evidence"]["z_down"] == "-1(8s^2-199s-32)/(2(8s+1)(624s+149)(s+1))"
