import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from fabrik_sqp import benchmark, fabrik, kuka, robots, solve_ik, ur5
from fabrik_sqp.geometry import rotation_defect
from fabrik_sqp.iktypes import IKQuery, IKStatus
from fabrik_sqp.robots import (
    LAYOUT_MARGIN,
    DHRow,
    RobotModel,
    dh_transform,
    fk_frames,
    transform_of,
    forward_kinematics,
    get_model,
    kuka_model,
    model_from_json,
    model_to_json,
    pose_mismatch,
    ur5_model,
)

from conftest import U, exact_frame, within


def dh_oracle(a, alpha, d, theta):
    """Hand-multiplied Rz(theta) Tz(d) Tx(a) Rx(alpha), written out."""
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array(
        [
            [ct, -st * ca, st * sa, a * ct],
            [st, ct * ca, -ct * sa, a * st],
            [0.0, sa, ca, d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


class TestDHTransform:
    def test_all_zero_row_is_identity(self):
        assert np.array_equal(dh_transform(DHRow(0.0, 0.0, 0.0), 0.0), np.eye(4))

    def test_pure_x_translation(self):
        t = dh_transform(DHRow(a=1.0, alpha=0.0, d=0.0), 0.0)
        assert np.allclose(t, np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))

    def test_ur5_first_row_matches_hand_product(self, ur5_model):
        row = ur5_model.dh[0]
        got = dh_transform(row, 0.0)
        want = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0, 0.089159],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_symbolic_oracle_randomly(self, ur5_model, kuka_model):
        rng = np.random.default_rng(0)
        for model in (ur5_model, kuka_model):
            for row in model.dh:
                theta = float(rng.uniform(-math.pi, math.pi))
                assert np.allclose(
                    dh_transform(row, theta),
                    dh_oracle(row.a, row.alpha, row.d, theta + row.theta_offset),
                    atol=1e-15,
                )

    def test_alpha_wrapped(self):
        assert DHRow(0.0, 3 * math.pi, 0.0).alpha == pytest.approx(math.pi)
        assert DHRow(0.0, -math.pi, 0.0).alpha == pytest.approx(math.pi)


def fk_oracle(model, theta):
    """Standalone matrix-product chain, independent of forward_kinematics."""
    t = np.eye(4)
    for row, th in zip(model.dh, theta):
        t = t @ dh_oracle(row.a, row.alpha, row.d, th + row.theta_offset)
    return t


class TestForwardKinematics:
    def test_ur5_zero_pose(self, ur5_model):
        t = forward_kinematics(ur5_model, np.zeros(6))
        assert np.allclose(t, fk_oracle(ur5_model, np.zeros(6)), atol=1e-15)
        assert np.allclose(t[:3, 3], [-0.81725, -0.19145, -0.005491], atol=1e-9)

    def test_kuka_zero_pose_fully_extended(self, kuka_model):
        t = forward_kinematics(kuka_model, np.zeros(7))
        lengths = kuka_model.link_lengths
        assert np.allclose(t[:3, 3], [0.0, 0.0, float(np.sum(lengths))], atol=1e-12)

    def test_matches_oracle_randomly(self, ur5_model, kuka_model):
        rng = np.random.default_rng(1)
        for model in (ur5_model, kuka_model):
            for _ in range(100):
                theta = rng.uniform(-math.pi, math.pi, model.dof)
                assert np.allclose(
                    forward_kinematics(model, theta), fk_oracle(model, theta), atol=1e-12
                )

    def test_rotation_parts_orthonormal(self, ur5_model, kuka_model):
        rng = np.random.default_rng(2)
        for model in (ur5_model, kuka_model):
            for _ in range(500):
                theta = rng.uniform(model.joint_limits[:, 0], model.joint_limits[:, 1])
                t = forward_kinematics(model, theta)
                assert rotation_defect(t[:3, :3]) <= 1e-9

    def test_length_mismatch_rejected(self, ur5_model):
        with pytest.raises(ValueError):
            forward_kinematics(ur5_model, np.zeros(5))

    def test_frames_are_cumulative(self, kuka_model):
        theta = np.linspace(-1.0, 1.0, 7)
        frames = fk_frames(kuka_model, theta)
        assert len(frames) == 8
        assert np.array_equal(transform_of(frames[-1]), forward_kinematics(kuka_model, theta))

    def test_prefix_frames_are_bit_identical(self, ur5_model, kuka_model):
        rng = np.random.default_rng(4)
        for model in (ur5_model, kuka_model):
            for _ in range(20):
                theta = rng.uniform(-math.pi, math.pi, model.dof)
                frames = fk_frames(model, theta)
                for k in range(model.dof + 1):
                    assert np.array_equal(fk_frames(model, theta[:k])[-1], frames[k])

    def test_matches_left_to_right_product_of_rows(self, ur5_model, kuka_model):
        # the link matrices of `dh_transform` multiplied left to right in
        # exact arithmetic: each link step rounds an entry by a few U of
        # its scale, 1 for the rotation, the reach for the translation
        rng = np.random.default_rng(5)
        for model in (ur5_model, kuka_model):
            reach = math.fsum(abs(row.a) + abs(row.d) for row in model.dh)
            bound = 8 * U * model.dof * (1.0 + reach)
            for _ in range(20):
                theta = rng.uniform(-math.pi, math.pi, model.dof)
                got = forward_kinematics(model, theta)
                assert within(got.ravel(), np.ravel(exact_frame(model, theta)), bound)

    def test_frames_reject_more_angles_than_joints(self, ur5_model, kuka_model):
        for model in (ur5_model, kuka_model):
            with pytest.raises(ValueError, match=f"has {model.dof} joints"):
                fk_frames(model, np.zeros(model.dof + 1))

    def test_frame_zero_is_a_shared_read_only_identity(self, ur5_model, kuka_model):
        first = fk_frames(ur5_model, np.zeros(6))[0]
        assert np.array_equal(transform_of(first), np.eye(4))
        assert fk_frames(kuka_model, [0.3])[0] is first is robots.IDENTITY_ROWS
        with pytest.raises(TypeError):
            first[0][0] = 2.0


class TestPoseMismatch:
    def test_exact_roundtrip_is_zero(self, ur5_model, kuka_model):
        rng = np.random.default_rng(3)
        for model in (ur5_model, kuka_model):
            for _ in range(500):
                theta = rng.uniform(model.joint_limits[:, 0], model.joint_limits[:, 1])
                assert pose_mismatch(model, theta, forward_kinematics(model, theta)) <= 1e-10

    def test_pure_position_offset(self, ur5_model):
        theta = np.array([0.2, -0.8, 1.0, -0.5, 0.4, 0.1])
        t = forward_kinematics(ur5_model, theta)
        t_shift = t.copy()
        t_shift[:3, 3] += [0.001, 0.0, 0.0]
        assert pose_mismatch(ur5_model, theta, t_shift) == pytest.approx(0.001, abs=1e-12)

    def test_composes_position_and_rotation(self, ur5_model):
        rng = np.random.default_rng(4)
        from fabrik_sqp.geometry import cartesian_error

        theta = rng.uniform(-math.pi, math.pi, 6)
        other = rng.uniform(-math.pi, math.pi, 6)
        t_des = forward_kinematics(ur5_model, other)
        err = cartesian_error(forward_kinematics(ur5_model, theta), t_des)
        assert pose_mismatch(ur5_model, theta, t_des) == pytest.approx(
            err.eps_pos + err.eps_rot, abs=1e-14
        )


class TestModelData:
    def test_link_lengths_consistent_with_dh(self, ur5_model, kuka_model):
        assert ur5_model.link_lengths[1] == abs(ur5_model.dh[1].a)
        assert ur5_model.link_lengths[2] == abs(ur5_model.dh[2].a)
        assert kuka_model.link_lengths[0] == kuka_model.dh[0].d
        assert kuka_model.link_lengths[3] == kuka_model.dh[6].d

    def test_default_limits(self, ur5_model):
        assert np.allclose(ur5_model.joint_limits[:, 0], -math.pi)
        assert np.allclose(ur5_model.joint_limits[:, 1], math.pi)

    def test_within_limits_takes_any_sequence(self):
        model = kuka_model(np.tile([-0.5, 0.5], (7, 1)))
        rng = np.random.default_rng(31)
        draws = [*rng.uniform(-0.6, 0.6, size=(200, 7)), np.full(7, 0.5), np.full(7, -0.5)]
        answers = set()
        for theta in draws:
            for tol in (0.0, 0.05):
                want = model.within_limits(theta, tol)
                assert model.within_limits(theta.tolist(), tol) is want
                assert model.within_limits(tuple(theta.tolist()), tol) is want
                answers.add(want)
        assert answers == {True, False}

    @pytest.mark.parametrize("theta", [np.zeros(6), [0.0] * 8, ()])
    def test_within_limits_rejects_a_wrong_length(self, kuka_model, theta):
        with pytest.raises(ValueError):
            kuka_model.within_limits(theta)

    @pytest.mark.parametrize("name", ["joint_limits", "link_lengths"])
    def test_model_arrays_are_read_only(self, name):
        limits = np.tile([-1.0, 1.0], (6, 1))
        model = ur5_model(limits)
        for held in (model, pickle.loads(pickle.dumps(model))):
            with pytest.raises(ValueError):
                getattr(held, name)[0] = 0.5
            assert held.limit_pairs == ((-1.0, 1.0),) * 6
        assert limits.flags.writeable  # the model holds its own copy

    def test_json_roundtrip(self, kuka_model):
        doc = model_to_json(kuka_model)
        loaded = model_from_json(doc)
        assert loaded.name == kuka_model.name
        assert np.allclose(loaded.joint_limits, kuka_model.joint_limits)
        assert np.allclose(loaded.link_lengths, kuka_model.link_lengths)
        theta = np.linspace(-0.5, 0.5, 7)
        assert np.allclose(
            forward_kinematics(loaded, theta), forward_kinematics(kuka_model, theta)
        )

    def test_json_missing_field(self):
        with pytest.raises(ValueError, match="dh"):
            model_from_json('{"name": "ur5", "limits": []}')

    def test_bad_limits_rejected(self):
        doc = json.loads(model_to_json(ur5_model()))
        # json writes and reads NaN and Infinity literals
        for limit, match in [
            ([1.0, -1.0], "lo < hi"),
            ([math.nan, 1.0], "finite"),
            ([-1.0, math.nan], "finite"),
            ([-1.0, math.inf], "finite"),
            ([-math.inf, math.inf], "finite"),
        ]:
            doc["limits"][2] = limit
            with pytest.raises(ValueError, match=match):
                model_from_json(json.dumps(doc))
            limits = np.tile([-math.pi, math.pi], (6, 1))
            limits[2] = limit
            with pytest.raises(ValueError, match=match):
                ur5_model(limits)

    @pytest.mark.parametrize(
        "limit",
        [[False, True], ["-1", "1"], [-1.0, "1"], [None, 1.0], {"lo": -1.0, "hi": 1.0}],
        ids=["bools", "strings", "one-string", "null", "object"],
    )
    def test_non_number_limits_rejected(self, limit):
        # float() would read false as 0.0 and "1" as 1.0
        doc = json.loads(model_to_json(ur5_model()))
        doc["limits"][2] = limit
        with pytest.raises(ValueError, match="robot JSON 'limits' entry must be a number"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("where", ["limits", "dh"])
    def test_integer_beyond_the_float_range_rejected(self, where):
        # float() raises OverflowError on it, which no caller handles
        doc = json.loads(model_to_json(ur5_model()))
        if where == "limits":
            doc["limits"][2][1] = 10**400
        else:
            doc["dh"][2]["d"] = 10**400
        with pytest.raises(ValueError, match="must be a number within the float range"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "robot, dh, match",
        [
            ("ur5", "abc", "'dh' must be a list of objects"),
            ("ur5", [1.0] * 6, "'dh' must be a list of objects"),
            ("ur5", [{"a": 0.0, "alpha": 0.0}] * 6, "'d' must be a number"),
            ("kuka", [{"a": "0", "alpha": 0.0, "d": 0.1}] * 7, "'a' must be a number"),
            ("kuka", [{"a": 0.0, "alpha": True, "d": 0.1}] * 7, "'alpha' must be a number"),
            ("ur5", [{"a": 0.0, "alpha": 0.0, "d": [0.1]}] * 6, "'d' must be a number"),
            ("ur5", [{"a": 0.0, "alpha": 0.0, "d": 0.1}], "ur5 needs 6 DH rows, got 1"),
            ("kuka", [{"a": 0.0, "alpha": 0.0, "d": 0.1}] * 6, "kuka needs 7 DH rows, got 6"),
        ],
        ids=[
            "dh-string", "dh-numbers", "missing-d", "string-a", "bool-alpha", "list-d",
            "ur5-one-row", "kuka-six-rows",
        ],
    )
    def test_malformed_dh_rejected(self, robot, dh, match):
        doc = {"name": robot, "dh": dh, "limits": [[-1.0, 1.0]] * len(dh)}
        with pytest.raises(ValueError, match=match):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "robot, row, field, value, match",
        [
            ("ur5", 1, "a", 0.0, "ur5 reduced-chain links l2 and l3 must be positive"),
            ("ur5", 2, "a", 0.0, "ur5 reduced-chain links l2 and l3 must be positive"),
            ("kuka", 2, "d", -0.42, "kuka reduced-chain links l2 and l3 must be positive"),
            ("kuka", 4, "d", 0.0, "kuka reduced-chain links l2 and l3 must be positive"),
            ("ur5", 1, "a", 0.425, "l2 and l3 must be positive .the UR sign convention"),
            ("ur5", 2, "a", 0.39225, "l2 and l3 must be positive .the UR sign convention"),
            ("kuka", 0, "d", 0.0, "kuka base riser l1 .dh.0..d. must be positive"),
            ("kuka", 0, "d", -0.36, "kuka base riser l1 .dh.0..d. must be positive"),
            ("ur5", 1, "a", -1e-10, "ur5 reduced-chain links l2 and l3 .* at least 1e-09 m"),
            ("kuka", 4, "d", 1e-10, "kuka reduced-chain links l2 and l3 .* at least 1e-09 m"),
            ("kuka", 2, "d", 1e200, "kuka reduced-chain reach l2 \\+ l3 must be at most 1e\\+150 m"),
            ("ur5", 2, "a", -1e200, "ur5 reduced-chain reach l2 \\+ l3 must be at most 1e\\+150 m"),
        ],
        ids=[
            "ur5-l2-zero", "ur5-l3-zero", "kuka-l2-negative", "kuka-l3-zero",
            "ur5-a2-positive", "ur5-a3-positive", "kuka-l1-zero", "kuka-l1-negative",
            "ur5-l2-below-min", "kuka-l3-below-min", "kuka-l2-huge", "ur5-l3-huge",
        ],
    )
    def test_reduced_chain_links_must_be_positive(self, robot, row, field, value, match):
        doc = json.loads(model_to_json(get_model(robot)))
        doc["dh"][row][field] = value
        with pytest.raises(ValueError, match=match):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("d1", [0.0, -0.2])
    def test_ur5_base_riser_may_be_non_positive(self, d1):
        doc = json.loads(model_to_json(ur5_model()))
        doc["dh"][0]["d"] = d1
        assert model_from_json(json.dumps(doc)).link_lengths[0] == d1

    def test_theta_offset_optional(self):
        doc = json.loads(model_to_json(ur5_model()))
        for row in doc["dh"]:
            del row["theta_offset"]
        assert model_from_json(json.dumps(doc)).dh == ur5_model().dh

    @pytest.mark.parametrize("text", ["[1, 2]", '{"name": "ur5", "dh": [], "limits": {"a": 1}}'])
    def test_malformed_document_rejected(self, text):
        with pytest.raises(ValueError, match="robot JSON"):
            model_from_json(text)

    def test_get_model(self):
        assert get_model("UR5").name == "ur5"
        assert get_model("kuka").dof == 7
        with pytest.raises(ValueError):
            get_model("puma")


# UR10 standard DH table: the UR5's layout with longer links
UR10_DH = (
    DHRow(a=0.0, alpha=math.pi / 2, d=0.1273),
    DHRow(a=-0.612, alpha=0.0, d=0.0),
    DHRow(a=-0.5723, alpha=0.0, d=0.0),
    DHRow(a=0.0, alpha=math.pi / 2, d=0.163941),
    DHRow(a=0.0, alpha=-math.pi / 2, d=0.1157),
    DHRow(a=0.0, alpha=0.0, d=0.0922),
)


class TestModelConstructor:
    def test_equal_models_compare_equal(self):
        assert ur5_model() == ur5_model()
        assert kuka_model() == kuka_model()
        assert hash(ur5_model()) == hash(ur5_model())

    def test_pickled_model_equals_the_original(self, ur5_model, kuka_model):
        for model in (ur5_model, kuka_model):
            copy = pickle.loads(pickle.dumps(model))
            assert copy == model
            assert hash(copy) == hash(model)
            assert np.array_equal(copy.shoulder, model.shoulder)

    def test_hash_is_computed_once(self, monkeypatch):
        # the hash of the compared fields, taken when the model is built:
        # a cache keyed on a model does not rehash its DH rows
        model, equal = kuka_model(), kuka_model()
        assert hash(model) == hash((model.name, model.dh, model.limit_pairs))

        def no_rehash(row):
            raise AssertionError("a DH row was rehashed")

        monkeypatch.setattr(DHRow, "__hash__", no_rehash)
        assert hash(model) == hash(equal)

    def test_optimizer_box_opens_full_turn_joints_only(self):
        # a joint whose limits span a full turn gets no wall in the
        # optimizer's box; every other joint keeps its limits
        limits = np.array([[-math.pi, math.pi], [0.0, 2.0 * math.pi], [-4.0, 4.0],
                           [-1.0, 2.0], [-math.pi, 3.0], [-0.5, 0.5]])
        box = ur5_model(limits).optimizer_box
        inf = math.inf
        assert box[:3] == ((-inf, inf),) * 3
        assert box[3:] == ((-1.0, 2.0), (-math.pi, 3.0), (-0.5, 0.5))
        assert kuka_model().optimizer_box == ((-inf, inf),) * 7

    def test_different_models_differ(self):
        assert ur5_model() != kuka_model()
        assert ur5_model() != ur5_model(np.tile([-1.0, 1.0], (6, 1)))
        assert len({ur5_model(), ur5_model(), kuka_model()}) == 2

    def test_replaced_table_re_derives_link_lengths(self):
        model = dataclasses.replace(ur5_model(), dh=UR10_DH)
        assert model.link_lengths.tolist() == [0.1273, 0.612, 0.5723, 0.163941, 0.1157, 0.0922]
        assert model.shoulder == (0.0, 0.0, 0.1273)
        doc = {
            "name": "ur5",
            "dh": [{"a": r.a, "alpha": r.alpha, "d": r.d} for r in UR10_DH],
            "limits": [[-math.pi, math.pi]] * 6,
        }
        loaded = model_from_json(json.dumps(doc))
        assert model == loaded
        queries = benchmark.generate_queries(loaded, 20, seed=7)
        for t_des, theta_init in queries.queries:
            want = solve_ik(loaded, IKQuery(t_des, theta_init))
            got = solve_ik(model, IKQuery(t_des, theta_init))
            assert want.status is got.status is IKStatus.SOLVED
            assert np.array_equal(got.theta, want.theta)

    def test_arm_lengths_are_the_first_three_links_as_floats(self, ur5_model, kuka_model):
        replaced = dataclasses.replace(ur5_model, dh=UR10_DH)
        for model in (ur5_model, kuka_model, replaced, pickle.loads(pickle.dumps(kuka_model))):
            assert model.arm_lengths == tuple(model.link_lengths[:3].tolist())
            assert all(type(length) is float for length in model.arm_lengths)
        assert replaced.arm_lengths == (0.1273, 0.612, 0.5723)

    def test_shoulder_is_read_only(self, kuka_model):
        assert kuka_model.shoulder == (0.0, 0.0, 0.36)
        with pytest.raises(TypeError):
            kuka_model.shoulder[2] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            kuka_model.shoulder = np.zeros(3)

    @pytest.mark.parametrize("name", ["link_lengths", "shoulder", "limit_pairs"])
    def test_derived_fields_cannot_be_passed(self, ur5_model, name):
        with pytest.raises(TypeError):
            RobotModel("ur5", ur5_model.dh, **{name: ur5_model.link_lengths})
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(ur5_model, **{name: ur5_model.link_lengths})

    def test_default_limits_are_plus_minus_pi(self, kuka_model):
        model = RobotModel("kuka", kuka_model.dh)
        assert model == kuka_model
        assert model.limit_pairs == ((-math.pi, math.pi),) * 7

    @pytest.mark.parametrize(
        "limits", [np.zeros((5, 2)), np.zeros((6, 3)), np.zeros(12)], ids=["five-rows", "three-columns", "flat"]
    )
    def test_wrong_limits_shape_rejected(self, ur5_model, limits):
        with pytest.raises(ValueError, match="one \\[lo, hi\\] pair per DH row"):
            RobotModel("ur5", ur5_model.dh, limits)

    @pytest.mark.parametrize("name", ["ur10", "UR5", "", None])
    def test_unknown_name_rejected(self, ur5_model, name):
        with pytest.raises(ValueError, match="unknown robot name"):
            RobotModel(name, ur5_model.dh)

    @pytest.mark.parametrize("robot, row", [("ur5", 1), ("kuka", 4)])
    def test_zero_link_rejected(self, robot, row):
        dh = list(get_model(robot).dh)
        dh[row] = DHRow(0.0, dh[row].alpha, 0.0)
        with pytest.raises(ValueError, match="l2 and l3 must be positive"):
            RobotModel(robot, dh)

    def test_rows_must_be_dh_rows(self, ur5_model):
        with pytest.raises(ValueError, match="sequence of DHRow"):
            RobotModel("ur5", [(0.0, 0.0, 0.1)] * 6)

    @pytest.mark.parametrize("field", ["a", "alpha", "d", "theta_offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_dh_parameter_rejected(self, field, value):
        values = {"a": 0.0, "alpha": 0.0, "d": 0.1, field: value}
        with pytest.raises(ValueError, match=f"DH parameter {field} must be finite"):
            DHRow(**values)


def _table(robot, row, field, value):
    doc = json.loads(model_to_json(get_model(robot)))
    doc["dh"][row][field] = value
    return json.dumps(doc)


class TestReducedChainLayOut:
    """A table the constructor accepts lays its reduced chain out in every
    solve; one it would not lay out is rejected when it is built. The UR5
    lays its chain out again per plane without checks (`fabrik.relaid`),
    so each chain is compared with the checked `fabrik.straight_chain` of
    the same inputs, which raises on a link the lay-out loses."""

    @pytest.mark.parametrize(
        "robot, row, field, value",
        [("ur5", 2, "a", -1e-8), ("ur5", 1, "a", -1e-8), ("kuka", 0, "d", 1e12)],
        ids=["ur5-a3-tiny", "ur5-a2-tiny", "kuka-d1-huge"],
    )
    def test_table_that_cannot_lay_out_rejected(self, robot, row, field, value):
        with pytest.raises(ValueError, match="must each be at least 1e-06 of their lay-out's largest"):
            model_from_json(_table(robot, row, field, value))

    @pytest.mark.parametrize("row", [1, 2])
    def test_ur5_link_at_the_margin_lays_out_in_every_plane(self, row):
        other = 0.39225 if row == 1 else 0.425
        small = LAYOUT_MARGIN * other / (1.0 - LAYOUT_MARGIN) * (1.0 + 1e-9)
        model = model_from_json(_table("ur5", row, "a", -small))
        with pytest.raises(ValueError, match="must each be at least"):
            model_from_json(_table("ur5", row, "a", -small * (1.0 - 1e-6)))
        for theta1 in np.linspace(-math.pi, math.pi, 721).tolist():
            frame = ur5.planar_frame(theta1, np.eye(4)[:3].tolist(), np.zeros(3), model)
            self._same_as_checked(ur5.make_chain(frame, model), model, frame.v_init)
            bent = np.array(fabrik.pre_bend(ur5.make_chain(frame, model), frame.z2d).positions)
            laid = np.linalg.norm(np.diff(bent, axis=0), axis=1)
            assert np.all(np.abs(laid - model.link_lengths[1:3]) <= 1e-9 * model.link_lengths[1:3])
        self._solves_without_raising(model)

    def test_kuka_riser_at_the_margin_lays_out(self):
        d1 = 0.4 / LAYOUT_MARGIN - 0.82 - 1.0
        model = model_from_json(_table("kuka", 0, "d", d1))
        with pytest.raises(ValueError, match="must each be at least"):
            model_from_json(_table("kuka", 0, "d", d1 + 2.0))
        self._same_as_checked(kuka.make_chain(model), model, kuka.DEFAULT_V_INIT)
        self._solves_without_raising(model)

    @staticmethod
    def _same_as_checked(chain, model, direction):
        checked = fabrik.straight_chain(
            model.shoulder, direction, model.link_lengths[1:3], chain.joints, anchor_dir=direction
        )
        for field in ("positions", "lengths", "base", "anchor_dir"):
            a, b = np.asarray(getattr(chain, field)), np.asarray(getattr(checked, field))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field

    @staticmethod
    def _solves_without_raising(model):
        for t_des, theta_init in benchmark.generate_queries(model, 5, 7).queries:
            assert solve_ik(model, IKQuery(t_des=t_des, theta_init=theta_init)).status in IKStatus


class TestPlaneChainPerModel:
    """The UR5 sets its plane chains' per-model part once and normalizes
    each plane normal once: each chain is still the one `straight_chain`
    lays out from the plane, field for field."""

    @pytest.mark.parametrize("limits", [None, np.tile([-0.5, 0.5], (6, 1))], ids=["default", "0.5rad"])
    def test_ur5_plane_chain_is_straight_chain(self, limits):
        model = ur5_model(limits)
        rng = np.random.default_rng(8)
        angles = np.linspace(-math.pi, math.pi, 181).tolist() + rng.uniform(-4.0, 4.0, 100).tolist()
        for theta1 in angles:
            frame = ur5.planar_frame(theta1, np.eye(4)[:3].tolist(), np.zeros(3), model)
            joints = tuple(fabrik.Hinge(frame.z2d, *model.limit_pairs[k]) for k in (1, 2))
            want = fabrik.straight_chain(model.shoulder, frame.v_init, model.arm_lengths[1:], joints,
                                         anchor_dir=frame.v_init)
            got = ur5.make_chain(frame, model)
            assert type(got) is type(want)
            for field, a, b in zip(want._fields, got, want):
                # repr tells every float apart, signed zeros included
                assert type(a) is type(b) and repr(a) == repr(b), field
            assert [type(j) for j in got.joints] == [fabrik.Hinge] * 2
