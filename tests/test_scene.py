import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamp import (Disc, GridDomain, SceneError, generate_scene, parse_scene,
                  serialize_scene)
from mamp.domains.arm import MAX_COORD
from mamp.scene import Scene, format_decimal, quantize

from mutations import mutated

GRID_DOC = """domain grid
map
.....
..#..
.....
endmap
agent start 0 0 goal 4 2
agent start 4 0 goal 0 2
"""

BIG = "1" + "0" * 400  # past the float range

# Two overlapping one-link arms; a negative length made their reach negative,
# so the pair test reported no contact.
NEGATIVE_LINK_DOC = """domain arm
arm base 0 0 links -0.5 resolution 0.196349541 limits -16 16
arm base 0.3 0 links -0.5 resolution 0.196349541 limits -16 16
agent start 0 goal 0
agent start 0 goal 0
"""

# A negative radius acted as a disc of radius |thickness + r|, here one that
# blocks every configuration of the arm.
NEGATIVE_DISC_DOC = """domain arm
obstacle disc 0.5 0.5 -1
arm base 0 0 links 0.5 resolution 0.196349541 limits -16 16
agent start 0 goal 1
"""

ARM_DOC = """domain arm
thickness 0.05
substeps 8
obstacle segment 0 -0.2 0 0.2
obstacle disc 1.2 0.4 0.15
arm base -1 0 links 0.4 0.4 resolution 0.196349541 limits -16 16 -16 16
arm base 1 0 links 0.4 0.4 resolution 0.196349541 limits -16 16 -16 16
agent start 0 0 goal 8 -3
agent start 16 0 goal 8 3
"""


class TestParsing:
    def test_grid_roundtrip_is_byte_exact(self):
        scene = parse_scene(GRID_DOC)
        assert serialize_scene(scene) == GRID_DOC
        assert parse_scene(serialize_scene(scene)) == scene

    def test_arm_roundtrip_is_byte_exact(self):
        scene = parse_scene(ARM_DOC)
        assert serialize_scene(scene) == ARM_DOC
        assert parse_scene(serialize_scene(scene)) == scene

    def test_grid_build(self):
        scene = parse_scene(GRID_DOC)
        domain = scene.build_domain()
        assert isinstance(domain, GridDomain)
        assert domain.width == 5 and domain.height == 3
        assert not domain.is_state_valid(0, (2, 1))
        assert scene.starts == ((0, 0), (4, 0))

    def test_arm_build(self):
        scene = parse_scene(ARM_DOC)
        domain = scene.build_domain()
        assert domain.num_agents == 2
        assert domain.thickness == 0.05
        assert domain.arms[0].base == (-1.0, 0.0)
        assert domain.arms[1].limits == ((-16, 16), (-16, 16))

    def test_comments_and_blank_lines_ignored(self):
        doc = "# a comment\n\n" + GRID_DOC
        assert parse_scene(doc) == parse_scene(GRID_DOC)

    @pytest.mark.parametrize("mutation,fragment", [
        (lambda d: d.replace("domain grid", "domain maze"), "unknown domain"),
        (lambda d: d.replace(".....", "..x..", 1), "line 3"),
        (lambda d: d.replace("agent start 0 0 goal 4 2",
                             "agent start 0 goal 4 2"), "grid agent"),
        (lambda d: d.replace("domain grid\n", ""), "domain"),
        (lambda d: d + "wheels 4\n", "unknown keyword"),
        (lambda d: d.replace("map\n", "domain grid\nmap\n", 1), "line 2: 'domain' given twice"),
        (lambda d: d + "map\n.....\nendmap\n", "line 9: 'map' given twice"),
        (lambda d: d + "thickness 0.05\n", "line 9: grid scenes take no 'thickness' lines"),
        (lambda d: d.replace("map\n", "substeps 8\nmap\n", 1),
         "line 2: grid scenes take no 'substeps' lines"),
        (lambda d: d + "obstacle disc 1 1 0.5\n", "line 9: grid scenes take no 'obstacle' lines"),
        (lambda d: d + "arm base 0 0 links 1 resolution 0.5 limits -4 4\n",
         "line 9: grid scenes take no 'arm' lines"),
    ])
    def test_grid_errors_carry_diagnostics(self, mutation, fragment):
        with pytest.raises(SceneError, match=fragment):
            parse_scene(mutation(GRID_DOC))

    @pytest.mark.parametrize("mutation,fragment", [
        (lambda d: d.replace("limits -16 16 -16 16", "limits -16 16", 1), "lo/hi"),
        (lambda d: d.replace("obstacle disc 1.2 0.4 0.15",
                             "obstacle disc 1.2"), "obstacle"),
        (lambda d: d.replace("agent start 0 0 goal 8 -3",
                             "agent start 0 goal 8 -3"), "joint indices"),
        (lambda d: d.replace("arm base 1 0", "arm base one 0"), "arm"),
        (lambda d: d.replace("arm base 1 0 links 0.4 0.4 resolution 0.196349541"
                             " limits -16 16 -16 16",
                             "arm base 0 0 links resolution 0.196349541 limits"),
         "at least one link"),
        (lambda d: d.replace("resolution 0.196349541", "resolution 0", 1),
         "resolution must be positive"),
        (lambda d: d.replace("resolution 0.196349541", "resolution -0.19", 1),
         "line 6: resolution must"),
        (lambda d: d.replace("resolution 0.196349541", "resolution nan", 1),
         "decimal 'nan' is not finite"),
        (lambda d: d.replace("resolution 0.196349541", "resolution 1e400", 1),
         "decimal '1e400' is not finite"),
        (lambda d: d.replace("substeps 8", "substeps 0"), "substeps must be"),
        (lambda d: d.replace("substeps 8", "substeps -3"), "line 3: substeps"),
        (lambda d: d.replace("thickness 0.05", "thickness nan"),
         "line 2: .*not finite"),
        (lambda d: d.replace("thickness 0.05", "thickness -0.05"),
         "thickness must be"),
        (lambda d: d.replace("disc 1.2 0.4 0.15", "disc 1.2 inf 0.15"),
         "decimal 'inf'"),
        (lambda d: d.replace("base -1 0", "base -1 -nan"), "decimal '-nan'"),
        (lambda d: d.replace("limits -16 16 -16 16", f"limits -{BIG} {BIG} "
                             f"-{BIG} {BIG}", 1).replace("start 0 0", f"start {BIG} 0"),
         "line 6: joint.*overflow"),
        (lambda d: d.replace("resolution 0.196349541 limits -16 16 -16 16",
                             f"resolution 1e10 limits -{BIG[:301]} {BIG[:301]}"
                             " -16 16", 1), "line 6: joint limits"),
        (lambda d: NEGATIVE_LINK_DOC, "line 2: link lengths must be positive"),
        (lambda d: NEGATIVE_DISC_DOC, "line 2: disc radius must be >= 0"),
        (lambda d: d.replace("limits -16 16 -16 16", "limits -16 16 5 -5", 1),
         "line 6: joint limits must have lo <= hi"),
        (lambda d: d.replace("resolution 0.196349541", "resolution 0.196349541 0.5", 1),
         "line 6: bad arm descriptor"),
        (lambda d: d.replace("limits -16 16 -16 16", "limits -16 16 -16 16 links 0.3", 1),
         "line 6: arm keyword 'links' given twice"),
        (lambda d: d.replace("obstacle segment 0 -0.2 0 0.2",
                             "obstacle segment -1e100 0.2 1e100 0.2"), "line 4: segment"),
        (lambda d: d.replace("disc 1.2 0.4 0.15", "disc 1.2 0.4 20000"),
         "line 5: disc radius"),
        (lambda d: d.replace("base -1 0", "base -10000.5 0"), "line 6: arm base"),
        (lambda d: d.replace("links 0.4 0.4", "links 0.4 10000.5", 1),
         "line 6: link lengths"),
        (lambda d: "domain arm\n" + d, "line 2: 'domain' given twice"),
        (lambda d: d.replace("substeps 8", "thickness 0.1"), "line 3: 'thickness' given twice"),
        (lambda d: d + "substeps 4\n", "line 10: 'substeps' given twice"),
        (lambda d: d + "map\n..\nendmap\n", "line 10: arm scenes take no 'map' lines"),
    ])
    def test_arm_errors_carry_diagnostics(self, mutation, fragment):
        with pytest.raises(SceneError, match=fragment):
            parse_scene(mutation(ARM_DOC))

    def test_unterminated_map_block(self):
        with pytest.raises(SceneError, match="endmap"):
            parse_scene("domain grid\nmap\n...\n...\n")

    def test_validate_rejects_blocked_endpoints(self):
        doc = GRID_DOC.replace("agent start 0 0 goal 4 2",
                               "agent start 2 1 goal 4 2")
        with pytest.raises(SceneError, match="invalid start"):
            parse_scene(doc).validate()

    def test_format_decimal(self):
        assert format_decimal(0.196349541) == "0.196349541"
        assert format_decimal(1.0) == "1"
        assert format_decimal(-0.25) == "-0.25"
        assert format_decimal(0.0) == "0"
        assert quantize(math.pi / 16) == 0.196349541


class TestParserFuzz:
    """Every token-mutated scene document ends in a SceneError or in a
    scene that passes `validate` with every number in its documented range:
    never another exception and never a silently vacuous scene."""

    @pytest.mark.parametrize("doc", [GRID_DOC, ARM_DOC], ids=["grid", "arm"])
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_mutated_scene_is_valid_or_rejected(self, doc, data):
        try:
            scene = parse_scene(data.draw(mutated(doc)))
            scene.validate()
        except SceneError:
            return
        geometry = [v for ob in scene.obstacles for v in dataclasses.astuple(ob)] + [
            v for arm in scene.arms for v in (*arm.base, *arm.link_lengths)]
        assert all(abs(v) <= MAX_COORD for v in geometry)
        assert all(math.isfinite(v) for v in [scene.thickness]
                   + [arm.resolution for arm in scene.arms])
        assert scene.thickness >= 0 and scene.substeps >= 1
        assert all(arm.resolution > 0 for arm in scene.arms)
        assert all(v > 0 for arm in scene.arms for v in arm.link_lengths)
        assert all(ob.r >= 0 for ob in scene.obstacles if isinstance(ob, Disc))


class TestGenerators:
    def test_circle_two_arms_face_each_other(self):
        scene = parse_scene(generate_scene("circle-arms", n=2, seed=4))
        bases = [arm.base for arm in scene.arms]
        assert bases[0] == (1.0, 0.0)
        assert bases[1] == (-1.0, 0.0)
        assert scene.obstacles == ()  # below the obstacle threshold
        scene.validate()

    def test_circle_six_arms_get_the_center_obstacle(self):
        scene = parse_scene(generate_scene("circle-arms", n=6, seed=4, walk=6))
        assert len(scene.arms) == 6
        assert len(scene.obstacles) == 1

    def test_obstacle_flag_overrides_the_rule(self):
        scene = parse_scene(generate_scene("circle-arms", n=2, seed=4,
                                           obstacle=True))
        assert len(scene.obstacles) == 1

    def test_generation_is_deterministic(self):
        a = generate_scene("corridor-grid", n=3, seed=17)
        b = generate_scene("corridor-grid", n=3, seed=17)
        assert a == b
        assert generate_scene("corridor-grid", n=3, seed=18) != a

    def test_corridor_grid_is_per_agent_feasible(self):
        from oracles import grid_bfs_cost
        scene = parse_scene(generate_scene("corridor-grid", n=3, seed=2))
        scene.validate()
        domain = scene.build_domain()
        for s, g in zip(scene.starts, scene.goals):
            assert grid_bfs_cost(domain, s, g) is not None

    def test_shelf_lite_generates_valid_scene(self):
        scene = parse_scene(generate_scene("shelf-lite", n=2, seed=5))
        scene.validate()
        assert len(scene.obstacles) >= 2  # wall pieces between slots

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scene kind"):
            generate_scene("open-field", n=2, seed=0)

    def test_min_agents(self):
        with pytest.raises(ValueError, match="n must be"):
            generate_scene("circle-arms", n=0, seed=0)
