import csv
import io
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamp import (ExperimentSpec, PlannerConfig, default_paper_params,
                  generate_scene, revalidate_dump, run_experiments)
from mamp.bench import CSV_HEADER, _scene_for_trial, parse_generate_spec, rows_to_csv
from mamp.cli import main
from mamp.highlevel import VARIANTS

from mutations import mutated

GRID_DOC = """domain grid
map
....
....
endmap
agent start 0 0 goal 3 1
agent start 3 0 goal 0 1
"""


WALL_DOC = """domain grid
map
...
.#.
...
endmap
agent start 0 0 goal 2 0
"""


def _dump(cost, *waypoints):
    lines = [f"cost_steps {cost}", "lb -", "w1l 1.0 w2l 1.0 wh 1.0", "path 0"]
    lines += [f"{t} {x} {y}" for t, (x, y) in enumerate(waypoints)]
    return "\n".join(lines + ["endpath"]) + "\n"


GOOD_DUMP = _dump(2, (0, 0), (1, 0), (2, 0))

ARM_DOC = """domain arm
thickness 0.04
substeps 8
arm base 0 0 links 0.4 resolution 0.196349541 limits -16 16
agent start 0 goal 2
"""

ARM_DUMP = """cost_steps 2
lb 2.0
w1l 1.0 w2l 1.0 wh 1.0
path 0
0 0
1 1
2 2
endpath
"""


def _planners(*names, timeout=10.0):
    registry = default_paper_params(timeout=timeout)
    return [(n, registry[n]) for n in names]


def _strip_time(csv_text):
    rows = list(csv.reader(io.StringIO(csv_text)))
    idx = rows[0].index("time_s")
    return [r[:idx] + r[idx + 1:] for r in rows]


class TestDefaultParams:
    def test_paper_matrix(self):
        params = default_paper_params()
        assert (params["xecbs"].w1L, params["xecbs"].w2L, params["xecbs"].wH) \
            == (50.0, 1.3, 1.3)
        assert (params["cbs"].w1L, params["cbs"].w2L, params["cbs"].wH) \
            == (1.0, 1.0, 1.0)
        assert params["ecbs"].w1L == 50.0 and not params["ecbs"].use_experience
        assert params["xcbs"].w1L == 50.0 and params["xcbs"].use_experience
        assert params["pp"].w1L == 50.0
        assert all(c.timeout == 60.0 for c in params.values())
        assert set(VARIANTS) == set(params)
        with pytest.raises(ValueError, match="unknown planner variant"):
            PlannerConfig("bcbs")

    def test_generate_spec_parsing(self):
        kind, params = parse_generate_spec("circle-arms:n=4,walk=8,obstacle=auto")
        assert kind == "circle-arms"
        assert params == {"n": 4, "walk": 8, "obstacle": "auto"}
        assert parse_generate_spec("corridor-grid") == ("corridor-grid", {})
        with pytest.raises(ValueError, match="bad generator parameter"):
            parse_generate_spec("circle-arms:n")
        # each trial's seed comes from --seed; a fixed one would plan one
        # scene in every trial
        with pytest.raises(ValueError, match="'seed'.*--seed"):
            parse_generate_spec("corridor-grid:n=2,seed=7")

    def test_repeated_generator_key_rejected(self):
        with pytest.raises(ValueError, match="generator parameter 'n' given twice"):
            parse_generate_spec("circle-arms:n=2,n=3")

    @pytest.mark.parametrize("value,flag", [
        ("auto", "auto"), ("true", True), ("yes", True), ("1", True),
        ("false", False), ("no", False), ("0", False)])
    def test_obstacle_flag_values(self, value, flag):
        assert parse_generate_spec(f"circle-arms:obstacle={value}") == \
            ("circle-arms", {"obstacle": flag})


class TestRunExperiments:
    def test_row_count_and_summary(self, tmp_path):
        out = tmp_path / "r.csv"
        spec = ExperimentSpec(planners=_planners("cbs", "ecbs"), trials=3,
                              scene_text=GRID_DOC, scene_name="mini",
                              out=str(out))
        logged = []
        rows = run_experiments(spec, log=logged.append)
        assert len(rows) == 6
        assert all(r.success for r in rows)
        assert "summary" in logged[0] and "cbs" in logged[0]
        assert "mutually-successful" in logged[0]
        with open(out) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == list(CSV_HEADER)
        assert len(parsed) == 7

    def test_failure_rows_have_no_cost_fields(self):
        # a 3-arm instance cannot finish within a millisecond budget
        spec = ExperimentSpec(planners=_planners("ecbs", timeout=0.001),
                              trials=1, generate="circle-arms:n=3,walk=12")
        rows = run_experiments(spec, log=lambda s: None)
        row = rows[0]
        assert not row.success
        assert row.cost_steps is None
        fields = row.csv_fields()
        assert fields[3] == "false" and fields[5] == ""
        assert row.time_s < 2.0  # wall clock stops near the budget

    def test_csv_reproducible_except_wall_time(self):
        spec = dict(planners=_planners("cbs", "xcbs"), trials=2, seed=5,
                    generate="corridor-grid:n=2,width=5,height=5")
        a = run_experiments(ExperimentSpec(**spec), log=lambda s: None)
        b = run_experiments(ExperimentSpec(**spec), log=lambda s: None)
        assert _strip_time(rows_to_csv(a)) == _strip_time(rows_to_csv(b))

    def test_success_rate_is_exact_in_summary(self):
        spec = ExperimentSpec(planners=_planners("cbs"), trials=2,
                              scene_text=GRID_DOC, scene_name="mini")
        logged = []
        rows = run_experiments(spec, log=logged.append)
        wins = sum(1 for r in rows if r.success)
        assert f"success {wins}/2" in logged[0]

    def test_dumps_revalidate(self, tmp_path):
        dump_dir = tmp_path / "dumps"
        spec = ExperimentSpec(planners=_planners("cbs", "ecbs"), trials=2,
                              seed=3, generate="corridor-grid:n=2,width=5,height=5",
                              dump_dir=str(dump_dir))
        rows = run_experiments(spec, log=lambda s: None)
        dumps = sorted(os.listdir(dump_dir))
        assert len(dumps) == sum(1 for r in rows if r.success)
        for fname in dumps:
            trial = int(fname.rsplit("__", 1)[1].split(".")[0])
            _sid, scene_text = _scene_for_trial(spec, trial)
            ok, detail = revalidate_dump(scene_text,
                                         (dump_dir / fname).read_text())
            assert ok, f"{fname}: {detail}"

    def test_revalidator_rejects_tampering(self, tmp_path):
        dump_dir = tmp_path / "dumps"
        spec = ExperimentSpec(planners=_planners("cbs"), trials=1, seed=3,
                              generate="corridor-grid:n=2,width=5,height=5",
                              dump_dir=str(dump_dir))
        run_experiments(spec, log=lambda s: None)
        fname = os.listdir(dump_dir)[0]
        _sid, scene_text = _scene_for_trial(spec, 0)
        text = (dump_dir / fname).read_text()
        broken = text.replace("cost_steps ", "cost_steps 9")
        ok, detail = revalidate_dump(scene_text, broken)
        assert not ok and "cost" in detail

    @pytest.mark.parametrize("dump,fragment", [
        (_dump(1, (0, 0), (2, 0)), "invalid move"),
        (_dump(4, (0, 0), (0, 1), (1, 1), (2, 1), (2, 0)), "invalid state"),
        (_dump(1, (0, 2), (0, 1)), "does not run from"),
    ], ids=["teleport", "through-wall", "wrong-endpoints"])
    def test_revalidator_rejects_invalid_paths(self, dump, fragment):
        assert revalidate_dump(WALL_DOC, GOOD_DUMP) == (True, "ok")
        ok, detail = revalidate_dump(WALL_DOC, dump)
        assert not ok and fragment in detail

    @pytest.mark.parametrize("dump", [
        "endpath\n" + GOOD_DUMP,
        GOOD_DUMP.replace("w1l 1.0 w2l 1.0 wh 1.0", "w1l 1.0"),
        GOOD_DUMP.replace("cost_steps 2", "cost_steps x"),
        GOOD_DUMP.replace("\n0 0 0\n", "\n0 a b\n"),
        GOOD_DUMP.replace("lb -", "lb nan"),
        GOOD_DUMP.replace("lb -", "lb inf"),
        GOOD_DUMP.replace("w1l 1.0", "w1l nan"),
        GOOD_DUMP.replace("cost_steps 2\n", ""),
        GOOD_DUMP.replace("path 0", "path 9"),
        GOOD_DUMP.replace("\n1 1 0\n", "\n7 1 0\n").replace("\n2 2 0\n", "\n3 2 0\n"),
        GOOD_DUMP + "hello world\n",
        GOOD_DUMP.replace("lb -", "lb 1\nlb 4"),
        GOOD_DUMP.replace("cost_steps 2", "cost_steps 2\ncost_steps 2"),
        GOOD_DUMP.replace("w1l 1.0 w2l 1.0 wh 1.0", "w1l 1.0 foo 1.0 bar 1.0"),
        GOOD_DUMP.replace("w1l 1.0 w2l 1.0 wh 1.0", "w1l 1.0 w2l 1.0 wh 1.0 wh 1.0"),
        GOOD_DUMP.replace("lb -", "lb - 4"),
        GOOD_DUMP.replace("\n1 1 0\n", "\n1 1 0\nlb 3\n"),
        GOOD_DUMP.replace("\n1 1 0\n", "\n1 1 0\npath 1\n"),
        GOOD_DUMP.replace("endpath\n", ""),
        GOOD_DUMP.replace("endpath", "endpath 0"),
        "trial x\n" + GOOD_DUMP,
    ], ids=["stray-endpath", "short-w1l", "bad-cost", "bad-waypoint",
            "lb-nan", "lb-inf", "weight-nan", "no-cost", "path-misnumbered",
            "waypoints-misnumbered", "unknown-line", "lb-twice", "cost-twice",
            "weights-misnamed", "weights-long", "lb-two-values", "header-in-path",
            "path-in-path", "ends-in-path", "endpath-with-value", "bad-trial"])
    def test_revalidator_is_total(self, dump):
        ok, detail = revalidate_dump(WALL_DOC, dump)
        assert not ok and "malformed" in detail

    @pytest.mark.parametrize("scene_text,dump", [(WALL_DOC, GOOD_DUMP),
                                                 (ARM_DOC, ARM_DUMP)],
                             ids=["grid", "arm"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_dump_gets_a_verdict(self, scene_text, dump, data):
        assert revalidate_dump(scene_text, dump) == (True, "ok")
        ok, reason = revalidate_dump(scene_text, data.draw(mutated(dump)))
        assert isinstance(ok, bool) and isinstance(reason, str)

    def test_revalidator_bound_is_live(self):
        ok, detail = revalidate_dump(WALL_DOC, GOOD_DUMP.replace("lb -", "lb 1"))
        assert not ok and "bound" in detail

    @pytest.mark.parametrize("post,ok", [("2.000000000", True), ("2", True),
                                         ("99.5", False), ("2.000000001", False),
                                         ("nan", False)])
    def test_revalidator_checks_cost_rad_post(self, post, ok):
        # shortcutting GOOD_DUMP's straight path leaves its motion cost at 2
        verdict, detail = revalidate_dump(WALL_DOC,
                                          GOOD_DUMP + f"cost_rad_post {post}\n")
        assert verdict == ok
        assert detail == ("ok" if ok else
                          "cost_rad_post mismatch: recomputed 2.000000000, "
                          f"stored {float(post):.9f}")

    def test_revalidator_rejects_tampered_cost_rad_post(self, tmp_path):
        dump_dir = tmp_path / "dumps"
        spec = ExperimentSpec(planners=_planners("cbs"), trials=1, seed=3,
                              generate="corridor-grid:n=2,width=5,height=5",
                              dump_dir=str(dump_dir))
        run_experiments(spec, log=lambda s: None)
        text = (dump_dir / os.listdir(dump_dir)[0]).read_text()
        _sid, scene_text = _scene_for_trial(spec, 0)
        assert revalidate_dump(scene_text, text) == (True, "ok")
        broken = re.sub(r"cost_rad_post (\S+)",
                        lambda m: f"cost_rad_post {float(m[1]) + 1:.9f}", text)
        ok, detail = revalidate_dump(scene_text, broken)
        assert not ok and "cost_rad_post mismatch" in detail

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentSpec(planners=_planners("cbs"), trials=0,
                           scene_text=GRID_DOC)
        with pytest.raises(ValueError, match="timeout"):
            ExperimentSpec(planners=_planners("cbs", timeout=-1),
                           scene_text=GRID_DOC)
        with pytest.raises(ValueError, match="timeout"):
            ExperimentSpec(planners=_planners("cbs", timeout=math.nan),
                           scene_text=GRID_DOC)
        with pytest.raises(ValueError, match="scene_text / generate"):
            ExperimentSpec(planners=_planners("cbs"))


class TestCli:
    def test_run_on_scene_file(self, tmp_path, capsys):
        scene = tmp_path / "mini.scene"
        scene.write_text(GRID_DOC)
        out = tmp_path / "out.csv"
        code = main(["--scene", str(scene), "--planners", "cbs,pp",
                     "--trials", "1", "--timeout", "10", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 3
        assert rows[1][0] == "mini"
        captured = capsys.readouterr()
        assert "summary" in captured.out

    def test_shared_goal_fails_fast(self, tmp_path):
        # two agents share a goal: every planner reports failure at once
        scene = tmp_path / "shared.scene"
        scene.write_text(GRID_DOC.replace("goal 0 1", "goal 3 1"))
        out = tmp_path / "out.csv"
        code = main(["--scene", str(scene), "--planners", "cbs,xcbs,ecbs,xecbs,pp",
                     "--timeout", "5", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["planner"] for r in rows] == ["cbs", "xcbs", "ecbs", "xecbs", "pp"]
        assert all(r["success"] == "false" and float(r["time_s"]) < 1 for r in rows)

    def test_generate_flag(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["--generate", "corridor-grid:n=2,width=5,height=5",
                     "--planners", "cbs", "--out", str(out), "--seed", "4"])
        assert code == 0 and out.exists()

    def test_usage_errors_exit_1(self, tmp_path, capsys):
        assert main(["--planners", "cbs"]) == 1  # no scene source
        out = tmp_path / "out.csv"
        scene = tmp_path / "mini.scene"
        scene.write_text(GRID_DOC)
        assert main(["--scene", str(scene), "--planners", "warp-drive",
                     "--out", str(out)]) == 1
        assert main(["--scene", str(scene), "--planners", "cbs",
                     "--timeout", "nan", "--out", str(out)]) == 1
        assert main(["--scene", str(scene), "--planners", "xecbs",
                     "--termination", "simple", "--out", str(out)]) == 1
        assert not out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("generate,key", [
        ("corridor-grid:foo=3", "foo"),
        ("circle-arms:links=0", "links"),
        ("circle-arms:links=-2", "links"),
        ("shelf-lite:n=2,resolution=0", "resolution"),
        ("circle-arms:resolution=inf", "resolution"),
        ("circle-arms:thickness=nan", "thickness"),
        ("circle-arms:n=2,thickness=-1", "thickness"),
        ("circle-arms:link_length=-1", "link_length"),
        ("corridor-grid:obstacle_p=nan", "obstacle_p"),
        ("circle-arms:radius=nan", "radius"),
        ("circle-arms:radius=inf", "radius"),
        ("circle-arms:obstacle=maybe", "obstacle"),
        ("corridor-grid:retries=5", "retries"),
        ("circle-arms:n=abc", "n"),
        ("circle-arms:walk=1.5", "walk"),
        ("corridor-grid:seed=x", "seed"),
        ("corridor-grid:n=2,width=5,height=5,seed=7", "seed"),
        ("corridor-grid:width=0", "width"),
        ("corridor-grid:n=2,height=-3", "height"),
        ("circle-arms:walk=-5", "walk"),
        ("circle-arms:walk=0", "walk"),
        ("circle-arms:n=2,resolution=1e300", "resolution"),
        ("circle-arms:link_length=1e5", "link_length"),
        ("circle-arms:radius=1e5", "radius"),
        ("circle-arms:n=2,n=3", "n"),
    ], ids=["unknown-key", "links-0", "links-negative", "resolution-0",
            "resolution-inf", "thickness-nan", "thickness-negative",
            "link_length-negative", "obstacle_p-nan", "radius-nan", "radius-inf",
            "obstacle-maybe", "retries", "n-not-int", "walk-not-int",
            "seed-not-int", "seed", "width-0", "height-negative", "walk-negative",
            "walk-0", "resolution-overflows", "link_length-too-long", "radius-too-far",
            "repeated-key"])
    def test_bad_generator_params_exit_1(self, tmp_path, capsys, generate, key):
        out = tmp_path / "out.csv"
        assert main(["--generate", generate, "--planners", "cbs",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mamp-bench: error: ") and err.count("\n") == 1
        assert re.search(rf"\b{key}\b", err.removeprefix("mamp-bench: error: "))
        assert not out.exists()

    def test_scene_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.scene"
        assert main(["--scene", str(missing), "--planners", "cbs"]) == 2
        bad = tmp_path / "bad.scene"
        bad.write_text("domain grid\nmap\n..x\nendmap\nagent start 0 0 goal 1 0\n")
        assert main(["--scene", str(bad), "--planners", "cbs"]) == 2
        err = capsys.readouterr().err
        assert "scene error" in err and "line 3" in err

    def test_non_utf8_scene_exits_2(self, tmp_path, capsys):
        scene = tmp_path / "utf16.scene"
        scene.write_bytes(b"\xff\xfe\x00d\x00o\x00m\x00a\x00i\x00n")
        out = tmp_path / "out.csv"
        assert main(["--scene", str(scene), "--planners", "cbs", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mamp-bench: scene error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("layout", ["out-is-directory", "out-dir-missing",
                                        "out-empty", "dump-dir-is-file"])
    def test_unwritable_output_exits_1_before_planning(self, tmp_path, capsys, layout):
        scene = tmp_path / "mini.scene"
        scene.write_text(GRID_DOC)
        out, extra = tmp_path / "out.csv", []
        if layout == "out-is-directory":
            out.mkdir()
        elif layout == "out-dir-missing":
            out = tmp_path / "missing" / "out.csv"
        elif layout == "out-empty":  # would print "wrote " and write nothing
            out = ""
        else:
            (tmp_path / "dumps").write_text("not a directory\n")
            extra = ["--dump-paths", str(tmp_path / "dumps")]
        before = sorted(tmp_path.rglob("*"))
        assert main(["--scene", str(scene), "--planners", "cbs",
                     "--out", str(out), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("mamp-bench: error: ")
        assert captured.err.count("\n") == 1
        assert "summary" not in captured.out  # rejected before any planning
        assert sorted(tmp_path.rglob("*")) == before

    def test_arm_resolution_zero_exits_2(self, tmp_path, capsys):
        scene = tmp_path / "arm.scene"
        scene.write_text(ARM_DOC.replace("resolution 0.196349541",
                                         "resolution 0"))
        out = tmp_path / "out.csv"
        assert main(["--scene", str(scene), "--planners", "cbs",
                     "--out", str(out)]) == 2
        assert "resolution must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_arm_inverted_limits_exit_2(self, tmp_path, capsys):
        scene = tmp_path / "arm.scene"
        scene.write_text(ARM_DOC.replace("limits -16 16", "limits 5 -5"))
        assert main(["--scene", str(scene), "--planners", "cbs"]) == 2
        assert "joint limits must have lo <= hi" in capsys.readouterr().err

    def test_arm_huge_resolution_exit_2(self, tmp_path, capsys):
        # the squared joint distances of the heuristic would overflow
        scene = tmp_path / "arm.scene"
        scene.write_text(ARM_DOC.replace("resolution 0.196349541", "resolution 1e300"))
        assert main(["--scene", str(scene), "--planners", "cbs",
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mamp-bench: scene error: line 4: ") and err.count("\n") == 1

    def test_arm_subnormal_resolution_runs(self, tmp_path):
        # the motion bound underflows to 0: no body point moves at all
        scene = tmp_path / "arm.scene"
        scene.write_text(ARM_DOC.replace("resolution 0.196349541",
                                         "resolution 5e-324"))
        out = tmp_path / "out.csv"
        assert main(["--scene", str(scene), "--planners", "cbs",
                     "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == ",".join(CSV_HEADER) and row.split(",")[3] == "true"

    @pytest.mark.parametrize("extra", ["", "obstacle segment 5 5 6 6\n",
                                       "arm base 3 0 links 0.4 resolution 0.196349541 "
                                       "limits -16 16\nagent start 0 goal 2\n"],
                             ids=["alone", "segment", "two-arms"])
    def test_arm_huge_thickness_never_raises(self, tmp_path, extra):
        # (2 * thickness) squared overflows; every capsule then touches
        scene = tmp_path / "arm.scene"
        scene.write_text(ARM_DOC.replace("thickness 0.04", "thickness 1e200") + extra)
        assert main(["--scene", str(scene), "--planners", "cbs",
                     "--out", str(tmp_path / "out.csv")]) in (0, 2)

    def test_cache_flag(self, tmp_path):
        scene = tmp_path / "mini.scene"
        scene.write_text(GRID_DOC)
        out = tmp_path / "out.csv"
        code = main(["--scene", str(scene), "--planners", "xecbs",
                     "--cache", "off", "--out", str(out)])
        assert code == 0

    def test_dump_paths_flag(self, tmp_path):
        scene = tmp_path / "mini.scene"
        scene.write_text(GRID_DOC)
        out = tmp_path / "out.csv"
        dumps = tmp_path / "dumps"
        code = main(["--scene", str(scene), "--planners", "cbs",
                     "--out", str(out), "--dump-paths", str(dumps)])
        assert code == 0
        files = list(dumps.iterdir())
        assert len(files) == 1
        ok, detail = revalidate_dump(GRID_DOC, files[0].read_text())
        assert ok, detail
