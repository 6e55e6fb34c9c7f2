"""Scene files, result documents, OBJ export, and the command line."""

import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from fold3d import (
    IncidenceKind,
    Line3,
    ParseError,
    Plane3,
    Point3,
    ValidationError,
    lines_setwise_equal,
    load_scene,
    residual,
    scene_to_dict,
    solve_operation,
    stacked_residual,
    write_scene,
)
import fold3d.envelopes
from fold3d.cli import _build_parser, main
from fold3d.meshing import MAX_MESH_RESOLUTION, MAX_TANGENT_PLANES
from fold3d.numerics import ORACLE_REFINE_TOL, grid_oracle
from fold3d.scene import ResultDocument
from helpers import CLOSE_PAIRS, close_pair, random_line, random_payload

I1_SCENE = """
{
  "points": {"P": [0, 0, 0], "Q": [0, 0, 2]},
  "constraints": [{"type": "I1", "args": {"point": "P", "point2": "Q"}}]
}
"""

I5_I6_SCENE = """
{
  "points": {"P": [0, 0, 1], "Q": [0.3, -0.4, 0.2]},
  "lines": {"m": {"point": [0, 0, -1], "dir": [0, 1, 0]}},
  "planes": {"pi": {"coeffs": [0.25, 0.55, 0.75, 0.35]}},
  "constraints": [
    {"type": "I5", "args": {"point": "P", "line": "m"}},
    {"type": "I6", "args": {"point": "Q", "plane": "pi"}}
  ]
}
"""

I5_I9_SKEW_SCENE = """
{
  "points": {"P": [0, 0, 1]},
  "lines": {
    "m": {"point": [0, 0, -1], "dir": [0, 1, 0]},
    "n": {"point": [1, 1, 1], "dir": [1, 0, 0]}
  },
  "constraints": [
    {"type": "I5", "args": {"point": "P", "line": "m"}},
    {"type": "I9", "args": {"line": "n"}}
  ]
}
"""


# I5+I8 has no dedicated solver; its dual linear forms leave a line of planes,
# so solve_exact takes it
I5_I8_SCENE = """
{
  "points": {"P": [0, 0, 1], "Q": [0.5, 0.2, 0.1]},
  "lines": {"m": {"point": [0, 0, -1], "dir": [0, 1, 0]}},
  "constraints": [
    {"type": "I5", "args": {"point": "P", "line": "m"}},
    {"type": "I8", "args": {"point": "Q"}}
  ]
}
"""

# I3+I5 leaves two conics in a plane of dual planes, which solve_exact meets
I3_I5_SCENE = """
{
  "points": {"P": [0, 0, 1]},
  "lines": {
    "m": {"point": [0, 0, -1], "dir": [0, 1, 0]},
    "a": {"point": [1, 0, 0], "dir": [0, 0, 1]},
    "b": {"point": [-1, 0.5, 0], "dir": [1, 1, 0]}
  },
  "constraints": [
    {"type": "I3", "args": {"line": "a", "line2": "b"}},
    {"type": "I5", "args": {"point": "P", "line": "m"}}
  ]
}
"""

# I1 fixes the plane z = 1, and the I8 point lies on it; a kind that fixes
# the fold plane mixed with others keeps the planes of its dedicated solver
# that satisfy the rest
I1_I8_SCENE = """
{
  "points": {"P": [0, 0, 0], "Q": [0, 0, 2], "R": [3, -1, 1]},
  "constraints": [
    {"type": "I1", "args": {"point": "P", "point2": "Q"}},
    {"type": "I8", "args": {"point": "R"}}
  ]
}
"""


class TestSceneLoading:
    def test_minimal_scene(self):
        scene = load_scene('{"points": {"P": [1, 2, 3]}}')
        assert len(scene.points) == 1
        assert scene.points["P"] == Point3(1, 2, 3)

    def test_full_scene(self):
        scene = load_scene(I5_I6_SCENE)
        assert set(scene.points) == {"P", "Q"}
        assert [sc.kind.value for sc in scene.constraints] == ["I5", "I6"]

    def test_malformed_vector(self):
        with pytest.raises(ParseError, match="expected 3 numbers"):
            load_scene('{"points": {"P": [1, 2]}}')
        for plane, match in [
            ('{"coeffs": [0, 0, null, 1]}', "coeffs: expected 4 numbers"),
            ('{"coeffs": ["0", "0", "1", "1"]}', "coeffs: expected 4 numbers"),
            ('{"normal": [0, 0, 1], "offset": true}', "offset: expected a number"),
            ('{"normal": [0, 0, 1], "offset": "1"}', "offset: expected a number"),
            ('{"normal": [0, 0, 1], "offset": 1%s}' % ("0" * 400), "offset: expected a number"),
        ]:
            with pytest.raises(ParseError, match=match):
                load_scene('{"planes": {"pi": %s}}' % plane)

    def test_not_json(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            load_scene("{nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_scene(tmp_path / "absent.json")

    @pytest.mark.parametrize("content, match", [
        (None, "cannot read"),
        (b'\xff\xfe{"points": {}}', "cannot read"),
        (b"[" * 100_000, "too deeply"),
    ], ids=["directory", "not-utf8", "deep-nesting"])
    def test_unreadable_file(self, tmp_path, capsys, content, match):
        path = tmp_path / "scene.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ParseError, match=match) as info:
            load_scene(path)
        assert str(path) in str(info.value)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    def test_unknown_reference(self):
        bad = '{"points": {"P": [0,0,0]}, "constraints": [{"type": "I8", "args": {"point": "X"}}]}'
        with pytest.raises(ValidationError, match="no point named 'X'"):
            load_scene(bad)
        with pytest.raises(ValidationError, match=r"no point named \['P'\]"):
            load_scene(bad.replace('"X"', '["P"]'))

    def test_precondition_violation_names_the_rule(self):
        bad = """
        {
          "points": {"P": [0, 5, -1]},
          "lines": {"m": {"point": [0, 0, -1], "dir": [0, 1, 0]}},
          "constraints": [{"type": "I5", "args": {"point": "P", "line": "m"}}]
        }
        """
        with pytest.raises(ValidationError, match="P not in m"):
            load_scene(bad)

    def test_i7_contained_line_rejected_at_load(self):
        bad = """
        {
          "lines": {"m": {"point": [0, 1, 0], "dir": [1, 0, 0]}},
          "planes": {"pi": {"normal": [0, 0, 1], "offset": 0}},
          "constraints": [{"type": "I7", "args": {"line": "m", "plane": "pi"}}]
        }
        """
        with pytest.raises(ValidationError, match="m not in pi"):
            load_scene(bad)

    def test_duplicate_names_across_sections(self):
        bad = """
        {
          "points": {"P": [0, 0, 0]},
          "lines": {"P": {"point": [0, 0, 0], "dir": [1, 0, 0]}}
        }
        """
        with pytest.raises(ValidationError, match="unique"):
            load_scene(bad)

    def test_plane_coeffs_form(self):
        scene = load_scene('{"planes": {"pi": {"coeffs": [0, 0, 2, -2]}}}')
        assert scene.planes["pi"] == Plane3((0, 0, 1), 1.0)

    def test_round_trip_is_exact(self):
        scene = load_scene(I5_I6_SCENE)
        text = write_scene(scene)
        again = load_scene(text)
        assert scene_to_dict(again) == scene_to_dict(scene)
        assert again.points["P"] == scene.points["P"]
        assert again.lines["m"] == scene.lines["m"]
        assert again.planes["pi"] == scene.planes["pi"]


# scene argument names of each kind, as scene files spell them
ARG_NAMES = {
    "I1": ("point", "point2"), "I2": ("line", "line2"), "I3": ("line", "line2"),
    "I4": ("plane", "plane2"), "I5": ("point", "line"), "I6": ("point", "plane"),
    "I7": ("line", "plane"), "I8": ("point",), "I9": ("line",), "I10": ("line",),
    "I11": ("plane",), "I12": ("plane",),
}


class TestSceneAllKinds:
    def test_round_trip_every_kind(self):
        rng = np.random.default_rng(12)
        data = {"points": {}, "lines": {}, "planes": {}, "constraints": []}
        for kind in IncidenceKind:
            args = {}
            for arg, obj in zip(ARG_NAMES[kind.value], random_payload(rng, kind).objects):
                name = f"{kind.value}_{arg}"
                if isinstance(obj, Point3):
                    data["points"][name] = list(obj.xyz)
                elif isinstance(obj, Line3):
                    data["lines"][name] = {"point": list(obj.base.xyz), "dir": list(obj.dir)}
                else:
                    data["planes"][name] = {"normal": list(obj.normal), "offset": obj.offset}
                args[arg] = name
            data["constraints"].append({"type": kind.value, "args": args})
        scene = load_scene(json.dumps(data))
        again = load_scene(write_scene(scene))
        assert [sc.kind for sc in again.constraints] == list(IncidenceKind)
        for sc, sc2, entry in zip(scene.constraints, again.constraints, data["constraints"]):
            assert sc.args == sc2.args == entry["args"]
            objs, objs2 = sc.constraint.objects, sc2.constraint.objects
            assert len(objs) == len(objs2) == len(ARG_NAMES[sc.kind.value])
            for obj, obj2 in zip(objs, objs2):
                assert type(obj2) is type(obj)
                if isinstance(obj, Line3):
                    # Line3 re-projects its base point when built, which
                    # may move the last bits
                    assert lines_setwise_equal(obj2, obj, 1e-12)
                else:
                    assert obj2 == obj


    @pytest.mark.parametrize("seed", range(13, 63))
    def test_round_trip_further_seeds(self, seed):
        # points and planes come back bit for bit from the payload objects
        # themselves, through a load and through a write-and-load
        rng = np.random.default_rng(seed)
        data = {"points": {}, "lines": {}, "planes": {}, "constraints": []}
        payloads = []
        for kind in IncidenceKind:
            args = {}
            objs = random_payload(rng, kind).objects
            for arg, obj in zip(ARG_NAMES[kind.value], objs):
                name = f"{kind.value}_{arg}"
                if isinstance(obj, Point3):
                    data["points"][name] = list(obj.xyz)
                elif isinstance(obj, Line3):
                    data["lines"][name] = {"point": list(obj.base.xyz), "dir": list(obj.dir)}
                else:
                    data["planes"][name] = {"normal": list(obj.normal), "offset": obj.offset}
                args[arg] = name
            data["constraints"].append({"type": kind.value, "args": args})
            payloads.append(objs)
        scene = load_scene(json.dumps(data))
        again = load_scene(write_scene(scene))
        for objs, sc, sc2 in zip(payloads, scene.constraints, again.constraints, strict=True):
            for obj, obj1, obj2 in zip(
                objs, sc.constraint.objects, sc2.constraint.objects, strict=True
            ):
                if isinstance(obj, Line3):
                    assert lines_setwise_equal(obj1, obj, 1e-12)
                    assert lines_setwise_equal(obj2, obj, 1e-12)
                else:
                    assert obj1 == obj and obj2 == obj

    @pytest.mark.parametrize("seed", range(13, 23))
    def test_lines_round_trip_bit_for_bit(self, seed):
        # Line3 keeps a unit direction and a base already perpendicular to
        # it, so lines come back exactly too, through a load and through a
        # write-and-load
        rng = np.random.default_rng(seed)
        lines = [random_line(rng) for _ in range(50)]
        data = {
            "lines": {f"m{i}": {"point": list(m.base.xyz), "dir": list(m.dir)}
                      for i, m in enumerate(lines)},
            "constraints": [{"type": "I9", "args": {"line": f"m{i}"}} for i in range(50)],
        }
        scene = load_scene(json.dumps(data))
        again = load_scene(write_scene(scene))
        for m, sc, sc2 in zip(lines, scene.constraints, again.constraints, strict=True):
            (m1,), (m2,) = sc.constraint.objects, sc2.constraint.objects
            assert m1 == m and m2 == m


class TestResultDocument:
    def test_planes_reverifiable(self):
        scene = load_scene(I5_I6_SCENE)
        from fold3d import solve_operation

        sol = solve_operation(scene.constraint_list())
        doc = ResultDocument.from_solution("I5+I6", scene.constraints, sol, 1e-9)
        assert doc.outcome == "finite"
        for plane_rec in doc.planes:
            plane = Plane3.from_coeffs(*plane_rec["coeffs"])
            for sc in scene.constraints:
                assert residual(sc.constraint, plane) < 1e-9
            for entry in plane_rec["residuals"]:
                assert entry["residual"] < 1e-9

    def test_exit_codes(self):
        doc = ResultDocument("I1", 1e-9, "finite", "dedicated", False)
        assert doc.exit_code == 0
        assert ResultDocument("I1", 1e-9, "no_solution", "dedicated", False).exit_code == 2
        assert ResultDocument("I1", 1e-9, "infinite", "dedicated", False).exit_code == 3
        assert ResultDocument("I1", 1e-9, "ill_posed", "dedicated", False).exit_code == 3


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCli:
    def test_solve_i1(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I1_SCENE)
        code = main(["solve", path, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["outcome"] == "finite"
        assert len(out["planes"]) == 1
        assert out["planes"][0]["residuals"][0]["residual"] < 1e-9

    def test_solve_spec_mismatch(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I1_SCENE)
        code = main(["solve", path, "--spec", "I5+I6"])
        assert code == 1
        assert "form I1" in capsys.readouterr().err

    def test_solve_invalid_combination(self, tmp_path, capsys):
        scene = """
        {
          "planes": {"a": {"coeffs": [1,0,0,0]}, "b": {"coeffs": [0,1,0,0]},
                     "c": {"coeffs": [0,0,1,0]}},
          "constraints": [
            {"type": "I11", "args": {"plane": "a"}},
            {"type": "I11", "args": {"plane": "b"}},
            {"type": "I11", "args": {"plane": "c"}}
          ]
        }
        """
        path = _write(tmp_path, "s.json", scene)
        code = main(["solve", path])
        assert code == 1
        assert "invalid combination" in capsys.readouterr().err

    def test_solve_no_solution_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I5_I9_SKEW_SCENE)
        code = main(["solve", path])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("scene", [
        # I5+I6 at 1e150: the cube of its scale overflows
        """{"points": {"P": [0, 0, 1e150], "Q": [3e149, -4e149, 2e149]},
            "lines": {"m": {"point": [0, 0, -1e150], "dir": [0, 1, 0]}},
            "planes": {"pi": {"normal": [0.25, 0.55, 0.75], "offset": -3.5e149}},
            "constraints": [{"type": "I5", "args": {"point": "P", "line": "m"}},
                            {"type": "I6", "args": {"point": "Q", "plane": "pi"}}]}""",
        # 2I6+I8 at 1e160: even a squared distance overflows
        """{"points": {"P": [1e160, 0, 0], "Q": [0, 1e160, 0], "R": [0, 0, 1e160]},
            "planes": {"pi": {"normal": [0, 0, 1], "offset": -1e160},
                       "tau": {"normal": [1, 0, 0], "offset": 2e160}},
            "constraints": [{"type": "I6", "args": {"point": "P", "plane": "pi"}},
                            {"type": "I6", "args": {"point": "Q", "plane": "tau"}},
                            {"type": "I8", "args": {"point": "R"}}]}""",
        # I2 of coplanar crossing lines at 1e120: the rows of the speed
        # table take the same limit
        """{"lines": {"m": {"point": [1e120, 2e120, 0], "dir": [1, 0, 0]},
                      "n": {"point": [1e120, 2e120, 0], "dir": [0.6, 0.8, 0]}},
            "constraints": [{"type": "I2", "args": {"line": "m", "line2": "n"}}]}""",
    ], ids=["I5+I6", "2I6+I8", "I2"])
    def test_solve_huge_scene_refused(self, tmp_path, capsys, scene):
        path = _write(tmp_path, "s.json", scene)
        code = main(["solve", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "payload radius" in err

    def test_oracle_huge_scene_refused(self, tmp_path, capsys):
        # I5+I6 at 1e120: the oracle refuses it as solve does, instead of
        # reporting no solution
        scene = """{"points": {"P": [0, 0, 1e120], "Q": [3e119, -4e119, 2e119]},
            "lines": {"m": {"point": [0, 0, -1e120], "dir": [0, 1, 0]}},
            "planes": {"pi": {"normal": [0.25, 0.55, 0.75], "offset": -3.5e119}},
            "constraints": [{"type": "I5", "args": {"point": "P", "line": "m"}},
                            {"type": "I6", "args": {"point": "Q", "plane": "pi"}}]}"""
        path = _write(tmp_path, "s.json", scene)
        for command in ("solve", "oracle"):
            code = main([command, path])
            err = capsys.readouterr().err
            assert code == 1, command
            assert err.startswith("error:") and "payload radius" in err

    def test_solve_infinite_exit_3(self, tmp_path, capsys):
        scene = """
        {
          "points": {"P": [0, 0, 1], "Q": [0, 0, 1]},
          "lines": {"m": {"point": [0, 0, -1], "dir": [0, 1, 0]}},
          "planes": {"pi": {"normal": [0, 0, 1], "offset": -1}},
          "constraints": [
            {"type": "I5", "args": {"point": "P", "line": "m"}},
            {"type": "I6", "args": {"point": "Q", "plane": "pi"}}
          ]
        }
        """
        path = _write(tmp_path, "s.json", scene)
        code = main(["solve", path, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["outcome"] == "infinite"
        assert out["family"]["dimension"] == 1

    @pytest.mark.parametrize("scene, solver", [
        # three collinear fixed points: the pencil of planes through their line
        ("""{"points": {"A": [0, 0, 0], "B": [1, 1, 1], "C": [2, 2, 2]},
             "constraints": [{"type": "I8", "args": {"point": "A"}},
                             {"type": "I8", "args": {"point": "B"}},
                             {"type": "I8", "args": {"point": "C"}}]}""", "exact"),
        # two equal point-onto-plane constraints
        ("""{"points": {"P": [0, 0, 1], "Q": [1, 0, 0]},
             "planes": {"pi": {"normal": [0, 0, 1], "offset": -1},
                        "tau": {"normal": [1, 0, 0], "offset": 2}},
             "constraints": [{"type": "I6", "args": {"point": "P", "plane": "pi"}},
                             {"type": "I6", "args": {"point": "P", "plane": "pi"}},
                             {"type": "I6", "args": {"point": "Q", "plane": "tau"}}]}""",
         "exact"),
    ], ids=["3I8", "3I6"])
    def test_solve_ill_posed_names_its_solver(self, tmp_path, capsys, scene, solver):
        path = _write(tmp_path, "s.json", scene)
        code = main(["solve", path, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert (out["outcome"], out["solver"]) == ("ill_posed", solver)

    def test_solve_fixing_kind_with_others(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I1_I8_SCENE)
        code = main(["solve", path, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (out["outcome"], out["solver"]) == ("finite", "exact")
        assert out["possibly_incomplete"] is False
        assert len(out["planes"]) == 1

    def test_enumerate_json(self, capsys):
        code = main(["enumerate", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["valid"]) == 47
        assert len(out["rejected"]) == 3

    def test_enumerate_text(self, capsys):
        main(["enumerate"])
        text = capsys.readouterr().out
        assert "47 valid operations" in text
        assert text.count("rejected") >= 3

    def test_oracle_i1(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I1_SCENE)
        code = main(["oracle", path, "--resolution", "24", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["solver"] == "oracle"
        assert len(out["planes"]) == 1

    def test_verify_pass_and_fail(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I1_SCENE)
        assert main(["verify", path, "--plane", "0,0,1,-1"]) == 0
        capsys.readouterr()
        code = main(["verify", path, "--plane", "0,0,1,-1.1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["checks"][0]["residual"] == pytest.approx(0.2, abs=1e-12)

    def test_verify_wrong_constraint_plane(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I1_SCENE)
        code = main(["verify", path, "--plane", "1,0,0,0"])
        capsys.readouterr()
        assert code == 1

    def test_envelope_export(self, tmp_path, capsys):
        scene = """
        {
          "points": {"P": [0, 0, 1]},
          "planes": {"pi": {"normal": [0, 0, 1], "offset": -1}},
          "constraints": [{"type": "I6", "args": {"point": "P", "plane": "pi"}}]
        }
        """
        path = _write(tmp_path, "s.json", scene)
        out_path = tmp_path / "envelope.obj"
        code = main([
            "envelope", path, "--incidence", "I6",
            "--tangent-planes", "3", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert code == 0
        text = out_path.read_text()
        assert text.count("o ") == 4  # envelope + 3 fold planes
        # every envelope vertex satisfies x^2 + y^2 - 4z = 0
        verts = []
        section = None
        for line in text.splitlines():
            if line.startswith("o "):
                section = line[2:]
            elif line.startswith("v ") and section == "envelope":
                verts.append([float(v) for v in line.split()[1:]])
        verts = np.array(verts)
        defect = verts[:, 0] ** 2 + verts[:, 1] ** 2 - 4 * verts[:, 2]
        assert np.max(np.abs(defect)) < 1e-6

    @pytest.mark.parametrize("option", [
        "--resolution=-1", "--resolution=0", "--resolution=1",
        "--extent=nan", "--extent=inf", "--extent=0", "--tangent-planes=-1",
        f"--tangent-planes={MAX_TANGENT_PLANES + 1}",
    ])
    def test_envelope_rejects_malformed_export(self, tmp_path, capsys, option):
        scene = """
        {
          "points": {"P": [0, 0, 1]},
          "planes": {"pi": {"normal": [0, 0, 1], "offset": -1}},
          "constraints": [{"type": "I6", "args": {"point": "P", "plane": "pi"}}]
        }
        """
        path = _write(tmp_path, "s.json", scene)
        out_path = tmp_path / "envelope.obj"
        code = main(["envelope", path, "--incidence", "I6", "--out", str(out_path), option])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert not out_path.exists()

    @pytest.mark.parametrize("target", ["missing/envelope.obj", "a-directory"])
    def test_envelope_out_not_writable(self, tmp_path, capsys, target):
        scene = """
        {
          "points": {"P": [0, 0, 1]},
          "planes": {"pi": {"normal": [0, 0, 1], "offset": -1}},
          "constraints": [{"type": "I6", "args": {"point": "P", "plane": "pi"}}]
        }
        """
        path = _write(tmp_path, "s.json", scene)
        (tmp_path / "a-directory").mkdir()
        out_path = tmp_path / target
        code = main(["envelope", path, "--incidence", "I6", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: cannot write") and str(out_path) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("target", ["missing/result.txt", "a-directory"])
    @pytest.mark.parametrize("command", [
        ["solve", "{scene}"],
        ["verify", "{scene}", "--plane", "0,0,1,-1"],
        ["oracle", "{scene}", "--resolution", "16"],
        ["enumerate"],
    ], ids=lambda command: command[0])
    def test_out_not_writable(self, tmp_path, capsys, command, target):
        path = _write(tmp_path, "s.json", I1_SCENE)
        (tmp_path / "a-directory").mkdir()
        out_path = tmp_path / target
        argv = [arg.format(scene=path) for arg in command] + ["--out", str(out_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: cannot write") and str(out_path) in captured.err
        assert captured.out == ""

    def test_envelope_contained_line_error(self, tmp_path, capsys):
        scene = """
        {
          "lines": {"m": {"point": [0, 1, 0], "dir": [1, 0, 0]}},
          "planes": {"pi": {"normal": [0, 0, 1], "offset": 0}},
          "constraints": [{"type": "I10", "args": {"line": "m"}}]
        }
        """
        path = _write(tmp_path, "s.json", scene)
        code = main(["envelope", path, "--incidence", "I7"])
        err = capsys.readouterr().err
        assert code == 1
        assert "no I7 constraint" in err

    def test_env_var_sets_default_tol(self, tmp_path):
        path = _write(tmp_path, "s.json", I1_SCENE)
        proc = subprocess.run(
            [sys.executable, "-m", "fold3d.cli", "verify", path, "--plane",
             "0,0,1,-1.0000001"],
            capture_output=True, text=True,
            env={"PATH": "", "FOLD3D_TOL": "1e-3",
                 "PYTHONPATH": ":".join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr

    def test_env_var_not_a_number(self, monkeypatch, capsys):
        monkeypatch.setenv("FOLD3D_TOL", "abc")
        code = main(["enumerate"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: FOLD3D_TOL")

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("solve", ["--tol", "nan"]),
            ("verify", ["--plane", "0,0,1,-1", "--tol=-1"]),
        ],
    )
    def test_tol_must_be_positive(self, tmp_path, capsys, command, extra):
        path = _write(tmp_path, "s.json", I1_SCENE)
        assert main([command, path, *extra]) == 1
        assert capsys.readouterr().err.startswith("error: --tol")

    @pytest.mark.parametrize("command, extra", [
        ("envelope", ["--incidence", "I6"]),
        ("oracle", ["--resolution", "16"]),
    ])
    def test_tol_is_a_usage_error(self, tmp_path, capsys, command, extra):
        # only solve and verify read a residual tolerance
        path = _write(tmp_path, "s.json", I6_SCENE)
        with pytest.raises(SystemExit) as exc:
            main([command, path, *extra, "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_nan_plane_offset_rejected(self, tmp_path, capsys):
        scene = """
        {
          "points": {"P": [0, 0, 1]},
          "planes": {"pi": {"normal": [0, 0, 1], "offset": NaN}},
          "constraints": [{"type": "I6", "args": {"point": "P", "plane": "pi"}}]
        }
        """
        path = _write(tmp_path, "s.json", scene)
        code = main(["solve", path])
        assert code == 1
        assert "offset must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("oracle", ["--resolution", "0"]),
            ("oracle", ["--resolution", "-5"]),
            ("oracle", ["--resolution", "257"]),
        ],
    )
    def test_lattice_counts_bounded(self, tmp_path, capsys, command, extra):
        path = _write(tmp_path, "s.json", I5_I8_SCENE)
        assert main([command, path, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lattice" in err

    def test_solve_two_conics_exact(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I3_I5_SCENE)
        code = main(["solve", path, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (out["solver"], out["possibly_incomplete"]) == ("exact", False)
        scene = load_scene(path)
        planes = solve_operation(scene.constraint_list()).planes
        assert len(out["planes"]) == len(planes) > 0

    def test_console_entry_subprocess(self, tmp_path):
        path = _write(tmp_path, "s.json", I1_SCENE)
        proc = subprocess.run(
            [sys.executable, "-m", "fold3d.cli", "solve", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "outcome:    finite" in proc.stdout


I6_SCENE = """
{
  "points": {"P": [0, 0, 1]},
  "planes": {"pi": {"normal": [0, 0, 1], "offset": -1}},
  "constraints": [{"type": "I6", "args": {"point": "P", "plane": "pi"}}]
}
"""


class TestCliCallsShareNoState:
    """main reuses one parser per default tolerance; nothing of one call may
    reach the next."""

    def test_parser_built_once_per_tolerance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FOLD3D_TOL", raising=False)
        path = _write(tmp_path, "s.json", I1_SCENE)
        _build_parser.cache_clear()
        for argv in (["solve", path, "--json"], ["verify", path, "--plane", "0,0,1,-1"],
                     ["enumerate"], ["solve", path, "--tol", "1e-6"], ["enumerate", "--json"]) * 2:
            assert main(argv) == 0
        capsys.readouterr()
        assert _build_parser.cache_info().misses == 1

    def test_env_tol_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        path = _write(tmp_path, "s.json", I1_SCENE)
        tols = []
        for tol in ("1e-6", "2.5e-4", "1e-6"):
            monkeypatch.setenv("FOLD3D_TOL", tol)
            assert main(["solve", path, "--json"]) == 0
            tols.append(json.loads(capsys.readouterr().out)["tolerance"])
        assert tols == [1e-6, 2.5e-4, 1e-6]
        monkeypatch.setenv("FOLD3D_TOL", "abc")
        assert main(["solve", path, "--json"]) == 1
        assert capsys.readouterr().err.startswith("error: FOLD3D_TOL")

    def test_options_do_not_leak_into_the_next_call(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FOLD3D_TOL", raising=False)
        path = _write(tmp_path, "s.json", I5_I8_SCENE)
        _build_parser.cache_clear()
        alone = main(["solve", path]), capsys.readouterr()
        _build_parser.cache_clear()
        main(["solve", path, "--tol", "1e-4"])
        capsys.readouterr()
        after = main(["solve", path]), capsys.readouterr()
        assert after == alone

    def test_envelope_resolution_capped(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I6_SCENE)
        out_path = tmp_path / "envelope.obj"
        code = main(["envelope", path, "--incidence", "I6", "--out", str(out_path),
                     "--resolution", str(MAX_MESH_RESOLUTION + 1)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out_path.exists()

    def test_envelope_builds_one_frame(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I6_SCENE)
        frame = fold3d.envelopes.canonical_frame_point_plane
        with mock.patch.object(fold3d.envelopes, "canonical_frame_point_plane",
                               wraps=frame) as spy:
            code = main(["envelope", path, "--incidence", "I6", "--tangent-planes", "2",
                         "--out", str(tmp_path / "envelope.obj")])
        capsys.readouterr()
        assert code == 0
        assert spy.call_count == 1


I1_CLOSE_SCENE = """
{
  "points": {"P": [0, 0, 0], "Q": [0, 0, 1e-4]},
  "constraints": [{"type": "I1", "args": {"point": "P", "point2": "Q"}}]
}
"""


class TestSolveTolerance:
    def test_close_i1_points_solved_at_coarse_tol(self, tmp_path, capsys):
        # --tol bounds residuals; it does not decide when two points coincide
        path = _write(tmp_path, "s.json", I1_CLOSE_SCENE)
        assert main(["solve", path, "--json", "--tol", "1e-3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "finite"
        assert [pl["offset"] for pl in doc["planes"]] == [5e-05]


class TestSceneStructure:
    """Every structural fault of a scene file is a ParseError, and
    ``fold3d solve`` on it exits 1 with an error line."""

    @pytest.mark.parametrize("text, match", [
        ("[]", "scene root must be a JSON object"),
        ('{"points": []}', "points: expected a name -> object mapping"),
        ('{"lines": {"m": {"point": [0, 0, 0]}}}', "lines.m: expected an object with 'point' and 'dir'"),
        ('{"lines": {"m": {"point": [0, 0, 0], "dir": [0, 0, 0]}}}', "lines.m: line direction"),
        ('{"planes": {"pi": [0, 0, 1, 0]}}', "planes.pi: expected an object"),
        ('{"planes": {"pi": {"normal": [0, 0, 1]}}}', "planes.pi: expected 'normal' \\+ 'offset'"),
        ('{"planes": {"pi": {"coeffs": [0, 0, 0, 1]}}}', "planes.pi: plane coefficients"),
        ('{"constraints": {}}', "constraints: expected an array"),
        ('{"constraints": [{"args": {}}]}', r"constraints\[0\]: expected an object with a 'type'"),
        ('{"constraints": [{"type": "I13"}]}', "unknown incidence type 'I13'"),
        ('{"constraints": [{"type": "I8", "args": []}]}', r"constraints\[0\]\.args: expected an object"),
        ('{"constraints": [{"type": "I8", "args": {}}]}', "I8 needs 'point'"),
    ], ids=["root", "section", "line-keys", "line-dir", "plane-type", "plane-keys",
            "plane-coeffs", "constraints", "entry-type", "unknown-type", "args", "missing-arg"])
    def test_structural_error(self, tmp_path, capsys, text, match):
        path = _write(tmp_path, "s.json", text)
        with pytest.raises(ParseError, match=match):
            load_scene(path)
        assert main(["solve", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""


class TestCliOutput:
    @pytest.mark.parametrize("command", [
        ["solve", "{scene}"],
        ["solve", "{scene}", "--json"],
        ["verify", "{scene}", "--plane", "0,0,1,-1"],
        ["oracle", "{scene}", "--resolution", "16", "--json"],
        ["enumerate"],
    ], ids=["solve", "solve-json", "verify", "oracle-json", "enumerate"])
    def test_out_writes_what_is_printed(self, tmp_path, capsys, command):
        path = _write(tmp_path, "s.json", I1_SCENE)
        out_path = tmp_path / "result.txt"
        argv = [arg.format(scene=path) for arg in command] + ["--out", str(out_path)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed and out_path.read_text() == printed

    def test_oracle_reports_its_refine_tolerance(self, tmp_path, capsys, monkeypatch):
        # the oracle keeps the planes below ORACLE_REFINE_TOL, whatever FOLD3D_TOL says
        monkeypatch.setenv("FOLD3D_TOL", "1e-4")
        path = _write(tmp_path, "s.json", I5_I6_SCENE)
        assert main(["oracle", path, "--resolution", "16", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == ORACLE_REFINE_TOL == 1e-6

    def test_oracle_cluster_residuals(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", I5_I6_SCENE)
        assert main(["oracle", path, "--resolution", "24", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        cons = load_scene(path).constraint_list()
        clusters = grid_oracle(cons, resolution=24).clusters
        assert doc["solver"] == "oracle" and doc["possibly_incomplete"]
        assert doc["message"] == "grid resolution 24"
        assert len(doc["planes"]) == len(clusters) > 0
        for entry, (plane, res) in zip(doc["planes"], clusters):
            assert entry["coeffs"] == list(plane.coeffs())
            assert entry["cluster_residual"] == res == stacked_residual(cons, plane)
            assert res < 1e-6


# An I6 point and skew I3 lines 5e-10 apart: outside the preconditions'
# TOL_SEPARATION (1e-10), so the scene loads and the envelope exports.
I6_NEAR_SCENE = """
{
  "points": {"P": [0.3, 0.2, 0.5000000005]},
  "planes": {"pi": {"normal": [0, 0, 1], "offset": 0.5}},
  "constraints": [{"type": "I6", "args": {"point": "P", "plane": "pi"}}]
}
"""

I3_NEAR_SCENE = """
{
  "lines": {
    "m": {"point": [0, 0, 0], "dir": [0, 1, 0]},
    "n": {"point": [0, 0, 5e-10], "dir": [1, 0, 0]}
  },
  "constraints": [{"type": "I3", "args": {"line": "m", "line2": "n"}}]
}
"""


@pytest.mark.parametrize("kind, scene", [("I3", I3_NEAR_SCENE), ("I6", I6_NEAR_SCENE)], ids=["I3", "I6"])
def test_envelope_of_a_pair_just_apart(tmp_path, capsys, kind, scene):
    path = _write(tmp_path, "s.json", scene)
    out_path = tmp_path / "envelope.obj"
    code = main(["envelope", path, "--incidence", kind, "--out", str(out_path)])
    assert code == 0, capsys.readouterr().err
    verts = np.array([
        [float(v) for v in line.split()[1:]]
        for line in out_path.read_text().splitlines() if line.startswith("v ")
    ])
    assert verts.shape == (33 * 33, 3) and np.isfinite(verts).all()


_PAIR_ARGS = {"I5": ("point", "line"), "I3": ("line", "line2"), "I7": ("line", "plane")}


def _pair_scene(kind: str, objs) -> str:
    """Scene JSON of one constraint of kind on the payload objects."""
    doc = {"points": {}, "lines": {}, "planes": {}, "constraints": []}
    for name, obj in zip(_PAIR_ARGS[kind], objs):
        if isinstance(obj, Point3):
            doc["points"][name] = [obj.x, obj.y, obj.z]
        elif isinstance(obj, Line3):
            doc["lines"][name] = {"point": [obj.base.x, obj.base.y, obj.base.z], "dir": list(obj.dir)}
        else:
            doc["planes"][name] = {"normal": list(obj.normal), "offset": obj.offset}
    doc["constraints"].append({"type": kind, "args": {name: name for name in _PAIR_ARGS[kind]}})
    return json.dumps(doc)


@pytest.mark.parametrize("h", [1e-6, 1e-7, 1e-8, 1e-9])
@pytest.mark.parametrize("pair", CLOSE_PAIRS)
def test_envelope_of_a_close_pair(tmp_path, capsys, pair, h):
    rng = np.random.default_rng(2107)
    kind = pair[:2]
    path = _write(tmp_path, "s.json", _pair_scene(kind, close_pair(rng, pair, h)))
    out_path = tmp_path / "envelope.obj"
    code = main(["envelope", path, "--incidence", kind, "--out", str(out_path)])
    if pair == "I3-parallel":  # the family builds, and has no envelope
        assert code == 1 and "has no envelope" in capsys.readouterr().err
    else:
        assert code == 0, capsys.readouterr().err


def test_envelope_of_lines_just_off_their_planes(tmp_path, capsys):
    # a line 1e-9 off a parallel plane is off it, as the other pairs are
    rng = np.random.default_rng(2109)
    for i in range(10):
        scene = _pair_scene("I7", close_pair(rng, "I7-parallel", 1e-9))
        out_path = tmp_path / f"envelope{i}.obj"
        code = main(["envelope", _write(tmp_path, f"s{i}.json", scene), "--incidence", "I7",
                     "--out", str(out_path)])
        assert code == 0, capsys.readouterr().err


# Angles from TOL_ANGLE up, where 1 - b^2 of the unit directions rounds to 0
# (up to about 1.5e-8) or has lost most of its digits.
NEARLY_PARALLEL_ANGLES = [1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6]


def _nearly_parallel_scene(kind: str, angle: float) -> str:
    return json.dumps({
        "lines": {"m": {"point": [0, 0, 0], "dir": [1, 0, 0]},
                  "n": {"point": [0, 0, 1], "dir": [1, angle, 0]}},
        "constraints": [{"type": kind, "args": {"line": "m", "line2": "n"}}],
    })


def test_solve_of_far_parallel_lines_exits_cleanly(tmp_path, capsys):
    # the I3 precondition measures the gap of these parallel lines, 1e200
    # apart, without an overflow warning; the payload radius is refused
    scene = """{"points": {"P": [0, 1, 0]},
        "lines": {"m": {"point": [0, 0, 1e200], "dir": [1, 0, 0]},
                  "n": {"point": [0, 1e200, 1e200], "dir": [1, 0, 0]}},
        "constraints": [{"type": "I3", "args": {"line": "m", "line2": "n"}},
                        {"type": "I5", "args": {"point": "P", "line": "m"}}]}"""
    path = _write(tmp_path, "s.json", scene)
    assert main(["solve", path]) == 1
    assert capsys.readouterr().err.startswith("error: payload radius 1.41e+200")


@pytest.mark.parametrize("angle", NEARLY_PARALLEL_ANGLES)
def test_solve_of_nearly_parallel_lines_exits_cleanly(tmp_path, capsys, angle):
    # I2 of lines 1 apart: one mid plane while parallel within TOL_ANGLE,
    # else skew with no solution; I3 alone leaves free parameters
    for kind, code, err in [("I2", 0 if angle <= 1e-10 else 2, ""),
                            ("I3", 1, "error: I3 has combined codimension")]:
        path = _write(tmp_path, f"{kind}.json", _nearly_parallel_scene(kind, angle))
        assert main(["solve", path]) == code
        assert capsys.readouterr().err.startswith(err)
