"""Tests for the trajectory coefficients and Shapley interaction machinery."""

import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_interaction
from advgrad.interaction import (
    EXACT_PLAYER_LIMIT,
    AnalyticGame,
    _exact_select,
    coefficients,
    coefficients_exact,
    exact_mean_interaction,
    expected_interaction_sampled,
    game_reward,
    make_game_setfn,
    make_model_setfn,
    predicted_delta,
    predicted_interaction,
    reward,
    shapley_interaction_exact,
    shapley_interaction_matrix_exact,
    shapley_value_exact,
    simulate_raw,
)
from advgrad.models import BLOCK_BYTES, CHUNK_ROWS, MODEL_KINDS, build_model
from advgrad.numerics import ImageShape, make_rng


def random_game(rng, n, curvature=1.0):
    g = rng.normal(size=n)
    B = rng.normal(size=(n, n))
    H = curvature * 0.5 * (B + B.T)
    return AnalyticGame(g=g, H=H)


class TestAnalyticGame:
    def test_grad_at_origin_is_g(self):
        game = random_game(make_rng(0), 4)
        assert np.array_equal(game.grad_loss(game.x0), game.g)

    def test_grad_is_affine(self):
        game = random_game(make_rng(1), 4)
        d = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.allclose(game.grad_loss(game.x0 + d), game.g + d @ game.H)

    def test_rejects_asymmetric_hessian(self):
        H = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            AnalyticGame(g=np.zeros(2), H=H)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            AnalyticGame(g=np.zeros(3), H=np.zeros((2, 2)))

    @pytest.mark.parametrize("x0", [[5.0], np.zeros(4), np.zeros((3, 1))],
                             ids=["one-unit", "four-units", "column"])
    def test_rejects_an_x0_unlike_g(self, x0):
        # unchecked, x0=[5.0] with 3 units was broadcast in grad_loss
        with pytest.raises(ValueError, match="x0"):
            AnalyticGame(g=np.ones(3), H=np.eye(3), x0=x0)

    def test_keeps_a_given_x0(self):
        game = AnalyticGame(g=np.ones(3), H=np.eye(3), x0=[1, 2, 3])
        assert game.x0.dtype == np.float64
        assert np.array_equal(game.grad_loss([1.0, 2.0, 3.0]), np.ones(3))


class TestCoefficients:
    def test_first_step_is_identity_schedule(self):
        for mu in (0.0, 0.5, 1.0, 1.5):
            assert coefficients_exact(1, mu) == (1, 0, 1, 0)

    def test_m3_mu1_frozen(self):
        c = coefficients(3, 1.0)
        assert (c.a, c.b, c.c, c.d) == (3.0, 4.0, 6.0, 5.0)

    def test_m4_mu_half_hand_recurrence(self):
        # computed by hand from the recurrences a<-mu*a+1, b<-mu*b+c,
        # c<-mu*a+c+1, d<-mu*b+c+d starting at (1,0,1,0)
        assert coefficients_exact(4, 0.5) == (
            Fraction(15, 8), Fraction(23, 4), Fraction(49, 8), Fraction(39, 4))

    def test_mu_zero_collapses_to_plain_iteration(self):
        # without momentum: a=1, b=m-1, c=m, d=m(m-1)/2
        for m in (1, 2, 5, 9):
            a, b, c, d = coefficients_exact(m, 0.0)
            assert (a, b, c, d) == (1, m - 1, m, m * (m - 1) // 2)

    def test_recurrences_hold_exactly(self):
        for mu in (0.0, 0.5, 1.0, 1.5):
            fmu = Fraction(mu)
            prev = coefficients_exact(1, mu)
            for m in range(1, 31):
                a, b, c, d = prev
                cur = coefficients_exact(m + 1, mu)
                assert cur == (fmu * a + 1, fmu * b + c, fmu * a + c + 1, fmu * b + c + d)
                prev = cur

    def test_float_schedule_matches_exact(self):
        a, b, c, d = coefficients_exact(12, 1.5)
        s = coefficients(12, 1.5)
        assert (s.a, s.b, s.c, s.d) == (float(a), float(b), float(c), float(d))

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError):
            coefficients_exact(0, 1.0)


class TestTrajectory:
    def test_linear_game_is_exact(self):
        # with H = 0 the prediction delta = c_m * gamma * g is exact
        g = np.array([1.0, -2.0, 0.5])
        game = AnalyticGame(g=g, H=np.zeros((3, 3)))
        for mu in (0.0, 1.0):
            for m in (1, 4, 7):
                _, delta = simulate_raw(game, mu, 0.3, m)
                pred = predicted_delta(coefficients(m, mu), 0.3, game)
                assert np.allclose(delta, pred, atol=1e-12)

    def test_single_step_is_gamma_g(self):
        game = random_game(make_rng(2), 5)
        _, delta = simulate_raw(game, 1.0, 0.2, 1)
        assert np.allclose(delta, 0.2 * game.g, atol=1e-15)

    def test_two_step_hand_expansion(self):
        # delta_2 = gamma*(1+mu)*g + gamma*g_1-step-curvature term, expanded
        # by hand for the quadratic game
        game = random_game(make_rng(3), 4)
        mu, gamma = 0.7, 0.05
        g1 = game.g
        g2 = mu * g1 + (game.g + (gamma * g1) @ game.H)
        expected = gamma * g1 + gamma * g2
        _, delta = simulate_raw(game, mu, gamma, 2)
        assert np.allclose(delta, expected, atol=1e-12)

    def test_prediction_error_second_order_in_curvature(self):
        rng = make_rng(4)
        g = rng.normal(size=8)
        B = rng.normal(size=(8, 8))
        H0 = 0.5 * (B + B.T)
        H0 /= np.linalg.norm(H0, 2)
        errs = []
        for eta in (1e-2, 1e-3, 1e-4):
            game = AnalyticGame(g=g, H=eta * H0)
            _, delta = simulate_raw(game, 1.0, 0.1, 5)
            pred = predicted_delta(coefficients(5, 1.0), 0.1, game)
            errs.append(np.linalg.norm(delta - pred))
        assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.5)
        assert errs[1] / errs[2] == pytest.approx(100.0, rel=0.5)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            simulate_raw(random_game(make_rng(5), 3), 1.0, 0.1, 0)


class TestRewards:
    def test_reward_is_margin_to_best_rival(self):
        model = build_model("softmax-linear", ImageShape(4, 4, 1), 3, seed=0)
        x = make_rng(6).uniform(0, 255, size=(4, 4, 1))
        logits = model.logits(x)
        expected = max(logits[c] for c in range(3) if c != 1) - logits[1]
        assert reward(model, x, np.zeros_like(x), 1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("y,message", [(-1, "out of range"), (3, "out of range"),
                                           (True, "integer"), (1.0, "integer")],
                             ids=["negative", "too-big", "bool", "float"])
    def test_reward_rejects_a_bad_label(self, y, message):
        # unchecked, y=-1 scored the last class as the true one, and y=True
        # failed inside np.delete
        model = build_model("mlp-1-hidden", ImageShape(4, 4, 1), 3, seed=0)
        x = make_rng(6).uniform(0, 255, size=(4, 4, 1))
        with pytest.raises(ValueError, match=message):
            reward(model, x, np.zeros_like(x), y)

    @pytest.mark.parametrize("delta", [3.0, np.ones((8, 1)), np.ones((1, 8, 8, 1))],
                             ids=["scalar", "row", "batch"])
    def test_reward_rejects_a_delta_of_another_shape(self, delta):
        # unchecked, the scalar and the (8, 1) delta broadcast and returned a number
        model = build_model("mlp-1-hidden", ImageShape(8, 8, 1), 3, seed=0)
        x = make_rng(6).uniform(0, 255, size=(8, 8, 1))
        with pytest.raises(ValueError, match=re.escape(
                f"x (8, 8, 1) and delta_subset {np.shape(delta)} must both have")):
            reward(model, x, delta, 0)

    def test_game_reward_quadratic_form(self):
        game = random_game(make_rng(7), 4)
        d = np.array([0.5, -1.0, 2.0, 0.0])
        expected = game.g @ d + 0.5 * d @ game.H @ d
        assert game_reward(game, d) == pytest.approx(expected, rel=1e-12)

    def test_empty_subset_reward_is_clean_margin(self):
        game = random_game(make_rng(8), 3)
        v, n = make_game_setfn(game, np.ones(3))
        assert n == 3
        assert v(()) == 0.0

    def test_model_setfn_masks_units(self):
        model = build_model("mlp-1-hidden", ImageShape(4, 4, 1), 3, seed=1)
        x = make_rng(9).uniform(0, 255, size=(4, 4, 1))
        delta = make_rng(10).uniform(-8, 8, size=(4, 4, 1))
        v, n = make_model_setfn(model, x, delta, 0)
        assert n == 16
        full = reward(model, x, delta, 0)
        assert v(tuple(range(16))) == pytest.approx(full, rel=1e-12)
        assert v(()) == pytest.approx(reward(model, x, np.zeros_like(delta), 0), rel=1e-12)


class TestModelSetfnChecks:
    SHAPE = ImageShape(4, 4, 1)

    def setfn_args(self, **overrides):
        rng = make_rng(25)
        args = {"model": build_model("mlp-1-hidden", self.SHAPE, 3, seed=1),
                "x": rng.uniform(0, 255, size=self.SHAPE.dims),
                "delta": rng.uniform(-8, 8, size=self.SHAPE.dims), "y": 0}
        args.update(overrides)
        return args

    def test_valid_inputs_build(self):
        make_model_setfn(**self.setfn_args(y=2))

    @pytest.mark.parametrize("field,value,message", [
        ("x", np.zeros((4, 4)), "image shape"),
        ("delta", np.zeros((16,)), "image shape"),
        ("x", np.full((4, 4, 1), np.inf), "finite"),
        ("delta", np.full((4, 4, 1), np.nan), "finite"),
        ("y", -1, "out of range"),
        ("y", 3, "out of range"),
        ("y", True, "integer"),
        ("y", 1.0, "integer"),
    ], ids=["x-shape", "delta-shape", "x-inf", "delta-nan", "label-negative", "label-too-big",
            "label-bool", "label-float"])
    def test_rejects_bad_input(self, field, value, message):
        # at the parent y=-1 scored the last class, and a NaN delta gave NaN rewards
        with pytest.raises(ValueError, match=message):
            make_model_setfn(**self.setfn_args(**{field: value}))

    def test_rejects_a_one_class_model(self):
        model = build_model("softmax-linear", self.SHAPE, 1, seed=0)
        with pytest.raises(ValueError, match="two classes"):
            make_model_setfn(**self.setfn_args(model=model))


class TestBatchedSetfn:
    def masks(self, rng, n):
        # a row count off the chunk grid, with the empty and the full subset
        masks = rng.random((2 * CHUNK_ROWS + 5, n)) < 0.5
        masks[0], masks[-1] = False, True
        return masks

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_batch_matches_reward(self, kind):
        shape = ImageShape(4, 4, 2)
        model = build_model(kind, shape, 4, seed=2)
        rng = make_rng(26)
        x = rng.uniform(0, 255, size=shape.dims)
        delta = rng.uniform(-16, 16, size=shape.dims)
        v, n = make_model_setfn(model, x, delta, 1)
        masks = self.masks(rng, n)
        expected = [reward(model, x, np.where(row.reshape(shape.dims), delta, 0.0), 1)
                    for row in masks]
        got = v.batch(masks)
        assert got.shape == (len(masks),)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_game_batch_matches_game_reward(self):
        rng = make_rng(27)
        game = random_game(rng, 9)
        delta = rng.normal(size=9)
        v, n = make_game_setfn(game, delta)
        masks = self.masks(rng, n)
        expected = [game_reward(game, np.where(row, delta, 0.0)) for row in masks]
        np.testing.assert_allclose(v.batch(masks), expected, rtol=1e-12, atol=1e-12)

    def test_subset_call_is_a_one_row_batch(self):
        v, n = make_game_setfn(random_game(make_rng(28), 5), make_rng(29).normal(size=5))
        mask = np.zeros((1, n), dtype=bool)
        mask[0, [1, 3]] = True
        assert v((3, 1)) == v.batch(mask)[0]

    @pytest.mark.parametrize("player", [-1, 16, 1.0, True, np.bool_(True), np.int64(-1)])
    @pytest.mark.parametrize("build", ["model", "game"])
    def test_subset_call_rejects_a_bad_player_index(self, build, player):
        # unchecked, -1 would score player 15 and True fail in numpy indexing
        if build == "model":
            shape = ImageShape(4, 4, 1)
            v, n = make_model_setfn(build_model("mlp-1-hidden", shape, 3, seed=1),
                                    np.full(shape.dims, 128.0), np.ones(shape.dims), 0)
        else:
            v, n = make_game_setfn(random_game(make_rng(28), 16), np.ones(16))
        assert n == 16
        with pytest.raises(ValueError, match=re.escape(f"player index {player!r} is not an "
                                                       "integer in [0, 16)")):
            v([2, player])
        assert v([np.int64(15), np.uint8(2)]) == v([2, 15])

    def test_game_setfn_rejects_a_delta_of_another_size(self):
        with pytest.raises(ValueError, match="units"):
            make_game_setfn(random_game(make_rng(30), 5), np.ones(4))

    @pytest.mark.parametrize("masks", [np.ones((2, 5)), np.ones((2, 4), dtype=bool),
                                       np.ones(5, dtype=bool)],
                             ids=["float", "wrong-width", "one-dim"])
    def test_rejects_bad_masks(self, masks):
        v, _ = make_game_setfn(random_game(make_rng(30), 5), np.ones(5))
        with pytest.raises(ValueError, match="bool array"):
            v.batch(masks)


SETFN_SHAPES = [(8, 8, 1), (4, 4, 2), (16, 16, 3)]


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), dims=st.sampled_from(SETFN_SHAPES),
       rows=st.integers(0, 700), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
@example(kind="tiny-conv", dims=(16, 16, 3), rows=0, density=0.5, seed=0)
@example(kind="mlp-1-hidden", dims=(8, 8, 1), rows=1, density=0.5, seed=1)
@example(kind="softmax-linear", dims=(4, 4, 2), rows=31, density=0.5, seed=2)
@example(kind="tiny-conv", dims=(8, 8, 1), rows=32, density=0.5, seed=3)
@example(kind="mlp-1-hidden", dims=(16, 16, 3), rows=33, density=0.2, seed=4)
@example(kind="softmax-linear", dims=(8, 8, 1), rows=600, density=0.5, seed=5)
@example(kind="mlp-1-hidden", dims=(8, 8, 1), rows=600, density=0.5, seed=6)
@example(kind="tiny-conv", dims=(4, 4, 2), rows=600, density=0.7, seed=7)
def test_model_batch_matches_the_chunked_reference_bit_for_bit(kind, dims, rows, density,
                                                               seed):
    shape = ImageShape(*dims)
    rng = make_rng(seed, 44)
    model = build_model(kind, shape, 4, seed=seed)
    # pixels at 0 add the signed zeros of masked-out negative units
    x = np.where(rng.random(shape.dims) < 0.1, 0.0, rng.uniform(0, 255, size=shape.dims))
    delta = rng.uniform(-64, 64, size=shape.dims)
    y = int(rng.integers(0, 4))
    masks = rng.random((rows, shape.size)) < density
    if rows:
        masks[0], masks[-1] = False, True
    v, _ = make_model_setfn(model, x, delta, y)
    got = v.batch(masks)
    want = reference_interaction.model_setfn_batch(model, x, delta, y)(masks)
    assert got.shape == want.shape == (rows,)
    assert got.tobytes() == want.tobytes()


# signed zeros, the smallest subnormals, a subnormal of many bits and
# near-overflow magnitudes, beside any other finite value
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300]
SELECT_VALUES = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, 31, 32, 33, 128, 600]),
       density=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
       values=st.integers(1, 80).flatmap(
           lambda n: st.tuples(*[st.lists(SELECT_VALUES, min_size=n, max_size=n)] * 2)),
       seed=st.integers(0, 2**16))
@example(rows=600, density=0.5, values=(EDGE_FLOATS, EDGE_FLOATS[::-1]), seed=0)
@example(rows=33, density=0.5, values=([-0.0] * 3, [0.0] * 3), seed=1)
@example(rows=1, density=0.5, values=([1e300, -1e300], [-1e300, 5e-324]), seed=2)
def test_exact_select_is_np_where_bit_for_bit(rows, density, values, seed):
    # row counts of one chunk and around it, of a stack of 4 and of an
    # estimate, with all-false, sparse, even, dense and all-true masks
    if_true, if_false = (np.array(v, dtype=np.float64) for v in values)
    masks = make_rng(seed, 46).random((rows, if_true.size)) < density
    got = _exact_select(if_true, if_false)(masks)
    want = np.where(masks, if_true, if_false)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scorer", ["predict", "setfn"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("dims,chunks", [((8, 8, 1), 4), ((4, 4, 2), 8), ((16, 16, 3), 1)])
def test_no_forward_pass_takes_more_than_the_block_budget(monkeypatch, scorer, kind, dims,
                                                          chunks):
    # batched predict and v.batch score their 600 rows through one chunk rule
    shape = ImageShape(*dims)
    model = build_model(kind, shape, 3, seed=0)
    rng = make_rng(0, 45)
    v, n = make_model_setfn(model, rng.uniform(0, 255, size=dims),
                            rng.uniform(-8, 8, size=dims), 0)
    inputs, forward = [], model._forward
    monkeypatch.setattr(model, "_forward", lambda z: inputs.append(z.shape) or forward(z))
    if scorer == "predict":
        model.predict(rng.uniform(0, 255, size=(600,) + dims))
    else:
        v.batch(rng.random((600, n)) < 0.5)
    # whole chunks in stacks of up to the budget, or of one chunk, then the 24
    # rows left; tiny-conv passes each batch of a stack to _forward again
    one_chunk = CHUNK_ROWS * n * 8
    assert max(math.prod(s) * 8 for s in inputs) <= max(BLOCK_BYTES, one_chunk)
    assert inputs[0] == (chunks, CHUNK_ROWS) + dims and inputs[-1] == (24,) + dims
    assert sum(s[0] * s[1] for s in inputs if len(s) == 5) + 24 == 600


def unit_game_setfn(g, H):
    """Set function of the quadratic game (g, H) with every unit of delta 1, so
    v(S) = sum of g over S + (sum of H over S x S) / 2."""
    g = np.asarray(g, dtype=np.float64)
    v, _ = make_game_setfn(AnalyticGame(g=g, H=H), np.ones(g.size))
    return v


def zero_game_setfn(n):
    return unit_game_setfn(np.zeros(n), np.zeros((n, n)))


def every_subset(n):
    """(2^n, n) bool masks; row m holds the players whose bit is set in m."""
    return (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)


class TestShapleyExact:
    def test_additive_game_attribution(self):
        # for v(S) = sum of weights in S, the Shapley value of i is weights[i]
        weights = np.array([2.0, -1.0, 0.5, 3.0])
        v = unit_game_setfn(weights, np.zeros((4, 4)))
        for i in range(4):
            assert shapley_value_exact(v, i, 4) == pytest.approx(weights[i], abs=1e-12)

    def test_two_player_glove_game(self):
        # v = 1 only when both players are present: each gets 1/2
        v = unit_game_setfn([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        assert v.batch(np.array([[False, False], [True, False], [False, True],
                                 [True, True]])).tolist() == [0.0, 0.0, 0.0, 1.0]
        assert shapley_value_exact(v, 0, 2) == pytest.approx(0.5)
        assert shapley_value_exact(v, 1, 2) == pytest.approx(0.5)

    def test_efficiency_axiom(self):
        rng = make_rng(11)
        for n in (3, 5, 8):
            game = random_game(rng, n)
            d = rng.normal(size=n)
            v, _ = make_game_setfn(game, d)
            total = sum(shapley_value_exact(v, i, n) for i in range(n))
            assert abs(total - v(tuple(range(n)))) < 1e-10

    def test_symmetry_axiom(self):
        # interchangeable players receive equal attribution; with g = 1 and
        # H = 2 off the diagonal, v(S) = |S|^2
        v = unit_game_setfn(np.ones(4), 2 * (np.ones((4, 4)) - np.eye(4)))
        assert v((0, 2, 3)) == 9.0
        values = [shapley_value_exact(v, i, 4) for i in range(4)]
        assert max(values) - min(values) < 1e-12


class TestShapleyInteraction:
    def test_additive_game_has_zero_interaction(self):
        v = unit_game_setfn([1.0, 2.0, 3.0, 4.0], np.zeros((4, 4)))
        assert abs(shapley_interaction_exact(v, 0, 2, 4)) < 1e-12

    def test_quadratic_game_identity(self):
        # the pairwise interaction in the quadratic game is d_a H_ab d_b
        rng = make_rng(12)
        game = random_game(rng, 6)
        d = rng.normal(size=6)
        v, _ = make_game_setfn(game, d)
        for a, b in ((0, 1), (2, 5), (3, 4)):
            exact = shapley_interaction_exact(v, a, b, 6)
            assert abs(exact - d[a] * game.H[a, b] * d[b]) < 1e-10

    def test_symmetric_in_players(self):
        rng = make_rng(13)
        game = random_game(rng, 5)
        v, _ = make_game_setfn(game, rng.normal(size=5))
        assert shapley_interaction_exact(v, 1, 3, 5) == pytest.approx(
            shapley_interaction_exact(v, 3, 1, 5), abs=1e-12)

    def test_rejects_identical_players(self):
        with pytest.raises(ValueError, match="distinct"):
            shapley_interaction_exact(zero_game_setfn(4), 2, 2, 4)

    def test_twenty_players(self):
        # the player limit: one table of 2^20 subsets, scored in blocks
        rng = make_rng(39)
        game = random_game(rng, EXACT_PLAYER_LIMIT)
        d = rng.normal(size=EXACT_PLAYER_LIMIT)
        v, n = make_game_setfn(game, d)
        exact = shapley_interaction_exact(v, 3, 17, n)
        assert abs(exact - d[3] * game.H[3, 17] * d[17]) < 1e-9


# each call reads one quantity of player p; the matrix call reads entry (0, p)
EXACT_CALLS = {
    "value": lambda v, n, p: shapley_value_exact(v, p, n),
    "interaction": lambda v, n, p: shapley_interaction_exact(v, 0, p, n),
    "matrix": lambda v, n, p: shapley_interaction_matrix_exact(v, n)[0, p],
}
# the calls that take player indices
PLAYER_CALLS = {key: EXACT_CALLS[key] for key in ("value", "interaction")}


@pytest.mark.parametrize("call", EXACT_CALLS.values(), ids=EXACT_CALLS.keys())
class TestExactArguments:
    @pytest.mark.parametrize("n", [3, 5])
    def test_wrong_player_count_is_rejected(self, call, n):
        # v has 4 players; an n of 3 would leave player 3 out of every subset
        v, _ = make_game_setfn(random_game(make_rng(40), 4), np.ones(4))
        with pytest.raises(ValueError, match=rf"\(k, 4\) bool array, got bool \(\d+, {n}\)"):
            call(v, n, 1)

    def test_player_limit_is_checked_before_any_evaluation(self, call):
        spy, seen = spy_setfn()
        with pytest.raises(ValueError, match=f"limited to {EXACT_PLAYER_LIMIT} players"):
            call(spy, EXACT_PLAYER_LIMIT + 1, 1)
        assert seen == []

    def test_numpy_integer_indices_are_players(self, call):
        v, _ = make_game_setfn(random_game(make_rng(41), 4), make_rng(42).normal(size=4))
        assert call(v, np.int64(4), np.int64(3)) == call(v, 4, 3)

    def test_plain_callable_is_rejected_before_any_evaluation(self, call):
        calls = []

        def v(subset):
            calls.append(subset)
            return 0.0

        with pytest.raises(TypeError, match="batch"):
            call(v, 4, 1)
        assert calls == []


@pytest.mark.parametrize("player", [4, -1, 1.5, True])
@pytest.mark.parametrize("call", PLAYER_CALLS.values(), ids=PLAYER_CALLS.keys())
def test_bad_player_index_is_rejected(call, player):
    with pytest.raises(ValueError, match=rf"player index {player!r} is not an integer"):
        call(zero_game_setfn(4), 4, player)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), kind=st.sampled_from(["quadratic", "softmax-linear", "mlp-1-hidden"]),
       seed=st.integers(0, 2**16))
@example(n=8, kind="mlp-1-hidden", seed=0)
def test_exact_routines_match_the_per_subset_enumeration(n, kind, seed):
    # units of up to +-1000 make the best rival class change inside the subset
    # lattice, so the model games are not linear
    rng = make_rng(seed, 38)
    delta = rng.uniform(-1000, 1000, size=n)
    if kind == "quadratic":
        v, _ = make_game_setfn(random_game(rng, n), delta)
    else:
        shape = ImageShape(1, n, 1)
        model = build_model(kind, shape, 3, seed=seed)
        v, _ = make_model_setfn(model, rng.uniform(0, 255, size=shape.dims),
                                delta.reshape(shape.dims), 0)
    tolerance = 1e-12 * np.abs(v.batch(every_subset(n))).max()
    for i in range(n):
        assert abs(shapley_value_exact(v, i, n)
                   - reference_interaction.shapley_value_exact(v, i, n)) <= tolerance
    matrix = shapley_interaction_matrix_exact(v, n)
    assert matrix.shape == (n, n) and (matrix == matrix.T).all() and (np.diag(matrix) == 0).all()
    for a, b in itertools.combinations(range(n), 2):
        # one table and one sum per pair: the matrix entry has the routine's bits
        assert matrix[a, b] == shapley_interaction_exact(v, a, b, n)
        assert abs(matrix[a, b]
                   - reference_interaction.shapley_interaction_exact(v, a, b, n)) <= tolerance


class TestSampledInteraction:
    def test_unbiased_on_quadratic_game(self):
        # the sampled mean converges to the exact mean pairwise interaction
        rng = make_rng(14)
        game = random_game(rng, 6)
        d = rng.normal(size=6)
        v, n = make_game_setfn(game, d)
        exact = exact_mean_interaction(game, d)
        est = expected_interaction_sampled(v, n, num_pairs=300, num_subsets=10,
                                           rng=make_rng(15))
        assert est.value == pytest.approx(exact, abs=4 * max(est.stderr, 1e-12))

    def test_second_difference_is_exact_per_sample_on_quadratic(self):
        # every individual second difference equals d_a H_ab d_b in a
        # quadratic game, so the estimator has zero variance given the pair
        rng = make_rng(16)
        game = random_game(rng, 4)
        d = rng.normal(size=4)
        v, _ = make_game_setfn(game, d)
        for a, b in itertools.combinations(range(4), 2):
            others = [p for p in range(4) if p not in (a, b)]
            for size in range(3):
                for subset in itertools.combinations(others, size):
                    second = (v(subset + (a, b)) - v(subset + (a,))
                              - v(subset + (b,)) + v(subset))
                    assert second == pytest.approx(d[a] * game.H[a, b] * d[b], abs=1e-12)

    def test_stderr_matches_the_spread_across_rng_seeds(self):
        # on an MLP the exact per-pair interactions differ widely, so the error
        # of the mean is set by which pairs were drawn; a stderr over all
        # samples as if independent read about 15x too small here
        shape = ImageShape(4, 4, 1)
        model = build_model("mlp-1-hidden", shape, 3, seed=0)
        rng = make_rng(0, 34)
        x = rng.uniform(0, 255, size=shape.dims)
        v, n = make_model_setfn(model, x, rng.uniform(-64, 64, size=shape.dims), 0)
        estimates = [expected_interaction_sampled(v, n, num_pairs=60, num_subsets=50,
                                                  rng=make_rng(seed, 35))
                     for seed in range(20)]
        spread = np.std([e.value for e in estimates], ddof=1)
        median_stderr = np.median([e.stderr for e in estimates])
        assert spread / 2 <= median_stderr <= 2 * spread

    def test_one_pair_has_zero_stderr(self):
        v, n = make_game_setfn(random_game(make_rng(32), 4), np.ones(4))
        est = expected_interaction_sampled(v, n, num_pairs=1, num_subsets=5, rng=make_rng(33))
        assert est.stderr == 0.0 and math.isfinite(est.value)

    def test_reports_sampling_counts(self):
        v, n = make_game_setfn(random_game(make_rng(17), 4), np.ones(4))
        est = expected_interaction_sampled(v, n, num_pairs=7, num_subsets=3,
                                           rng=make_rng(18))
        assert est.num_pairs == 7 and est.num_subsets == 3
        assert est.stderr >= 0.0

    def test_deterministic_under_fixed_rng(self):
        v, n = make_game_setfn(random_game(make_rng(19), 5), np.ones(5))
        a = expected_interaction_sampled(v, n, 5, 5, rng=make_rng(20))
        b = expected_interaction_sampled(v, n, 5, 5, rng=make_rng(20))
        assert a.value == b.value

    def test_needs_two_players(self):
        with pytest.raises(ValueError):
            expected_interaction_sampled(lambda s: 0.0, 1, 1, 1)

    @pytest.mark.parametrize("n", [2, 64, 768])
    @pytest.mark.parametrize("counts,message", [
        ((2.5, 3), "num_pairs must be an integer, got 2.5"),
        ((True, 3), "num_pairs must be an integer, got True"),
        ((2, 3.0), "num_subsets must be an integer, got 3.0"),
        ((2, np.bool_(True)), "num_subsets must be an integer, got .*True"),
        ((0, 3), "num_pairs must be >= 1, got 0"),
        ((2, -1), "num_subsets must be >= 1, got -1"),
    ], ids=["pairs-float", "pairs-bool", "subsets-float", "subsets-numpy-bool", "no-pair",
            "negative-subsets"])
    def test_bad_counts_are_rejected_before_any_draw(self, n, counts, message):
        # unchecked, 2.5 pairs would fail deep in numpy, and True would run one pair
        rng = make_rng(46)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            expected_interaction_sampled(zero_game_setfn(n), n, *counts, rng=rng)
        np.testing.assert_equal(rng.bit_generator.state, before)

    @pytest.mark.parametrize("n", [4.0, True, np.float64(64)])
    def test_a_player_count_that_is_not_an_integer_is_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            expected_interaction_sampled(zero_game_setfn(4), n, 2, 2)

    def test_plain_callable_is_rejected_before_any_draw(self):
        rng = make_rng(31)
        before = rng.bit_generator.state
        with pytest.raises(TypeError, match="batch"):
            expected_interaction_sampled(lambda s: 0.0, 4, 2, 2, rng=rng)
        np.testing.assert_equal(rng.bit_generator.state, before)


def per_subset_draws(n, num_pairs, num_subsets, rng):
    """The sampler's draws one pair and one subset at a time, from the same
    three arrays of rng: a pair is the two players of lowest key, a subset the
    `size` players of lowest key outside its pair.  Returns each sample's
    (a, b, subset)."""
    pair_keys = rng.random((num_pairs, n))
    sizes = rng.integers(0, n - 1, size=num_pairs * num_subsets)
    subset_keys = rng.random((num_pairs * num_subsets, n))
    samples = []
    for p in range(num_pairs):
        a, b = sorted(range(n), key=lambda q: pair_keys[p, q])[:2]
        others = [q for q in range(n) if q not in (a, b)]
        for j in range(p * num_subsets, (p + 1) * num_subsets):
            subset = sorted(others, key=lambda q: subset_keys[j, q])[:sizes[j]]
            samples.append((a, b, tuple(subset)))
    return samples


def reference_masks(samples, n):
    """The mask array the sampler scores for samples: per (a, b, S), the rows
    S u {a, b}, S u {a}, S u {b} and S."""
    rows = [s + extra for a, b, s in samples for extra in ((a, b), (a,), (b,), ())]
    masks = np.zeros((len(rows), n), dtype=bool)
    for mask, row in zip(masks, rows):
        mask[list(row)] = True
    return masks


def spy_setfn():
    """A set function that scores every row 0, and the list of the mask
    arrays it was asked to score."""
    seen = []
    return SimpleNamespace(batch=lambda m: seen.append(m.copy()) or np.zeros(len(m))), seen


def loop_estimate(values, num_pairs, num_subsets):
    """(value, stderr) of the per-sample rewards of S u {a, b}, S u {a}, S u {b}
    and S, four to a row of values."""
    values = np.asarray(values).reshape(-1, 4)
    arr = values[:, 0] - values[:, 1] - values[:, 2] + values[:, 3]
    pair_means = arr.reshape(num_pairs, num_subsets).mean(axis=1)
    stderr = float(pair_means.std(ddof=1) / np.sqrt(num_pairs)) if num_pairs > 1 else 0.0
    return float(arr.mean()), stderr


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), num_pairs=st.integers(1, 5), num_subsets=st.integers(1, 5),
       seed=st.integers(0, 2**16))
@example(n=2, num_pairs=3, num_subsets=2, seed=0)
@example(n=3, num_pairs=1, num_subsets=1, seed=1)
@example(n=768, num_pairs=3, num_subsets=2, seed=2)
def test_batched_sampler_matches_the_per_subset_loop(n, num_pairs, num_subsets, seed):
    # an MLP, not the quadratic game: there the second difference does not
    # depend on the subset S, so a sampler that lost S would still agree
    shape = ImageShape(1, n, 1)
    model = build_model("mlp-1-hidden", shape, 3, seed=seed)
    rng = make_rng(seed, 32)
    x = rng.uniform(0, 255, size=shape.dims)
    delta = rng.uniform(-64, 64, size=shape.dims)
    v, _ = make_model_setfn(model, x, delta, 2)

    def v_reference(subset):  # the set function as built before v.batch existed
        masked = np.zeros(n)
        masked[list(subset)] = delta.reshape(-1)[list(subset)]
        return reward(model, x, masked.reshape(shape.dims), 2)

    batched_rng, loop_rng = make_rng(seed, 33), make_rng(seed, 33)
    est = expected_interaction_sampled(v, n, num_pairs, num_subsets, rng=batched_rng)
    samples = per_subset_draws(n, num_pairs, num_subsets, loop_rng)
    np.testing.assert_equal(batched_rng.bit_generator.state, loop_rng.bit_generator.state)
    rows = [s + extra for a, b, s in samples for extra in ((a, b), (a,), (b,), ())]
    # the same masks in one v.batch call give the same bits
    assert (est.value, est.stderr) == loop_estimate(v.batch(reference_masks(samples, n)),
                                                    num_pairs, num_subsets)
    value, stderr = loop_estimate([v_reference(row) for row in rows], num_pairs, num_subsets)
    assert est.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=1e-12)


def mlp_setfn(n, seed):
    """Set function of an MLP over a 1 x n x 1 input, whose second differences
    depend on the subset S as well as on the pair."""
    shape = ImageShape(1, n, 1)
    model = build_model("mlp-1-hidden", shape, 3, seed=seed)
    rng = make_rng(seed, 40)
    v, _ = make_model_setfn(model, rng.uniform(0, 255, size=shape.dims),
                            rng.uniform(-64, 64, size=shape.dims), 0)
    return v


@pytest.mark.parametrize("n", [2, 64, 300, 768])
def test_sampler_takes_numpy_integer_counts(n):
    v = mlp_setfn(n, 0)
    numpy_counts = expected_interaction_sampled(v, np.int64(n), np.int64(3), np.int64(2),
                                                rng=make_rng(0, 33))
    assert numpy_counts == expected_interaction_sampled(v, n, 3, 2, rng=make_rng(0, 33))


@pytest.mark.parametrize("seed", range(3))
def test_draw_frequencies_fit_the_sampler_distribution(seed):
    # at 5 players: 10 pairs, sizes 0 to 3, and C(3, size) subsets of the 3
    # players outside a pair at each size
    n, num_pairs, num_subsets = 5, 2000, 10
    masks = []
    spy = SimpleNamespace(batch=lambda m: masks.append(m) or np.zeros(len(m)))
    expected_interaction_sampled(spy, n, num_pairs, num_subsets, rng=make_rng(seed, 50))
    rows = masks[0].reshape(-1, 4, n)
    subsets, pairs = rows[:, 3], rows[:, 0] & ~rows[:, 3]
    # two players each: a subset holding a pair's player would leave one
    assert (pairs.sum(axis=1) == 2).all()
    # a pair is drawn once for its num_subsets samples
    assert (pairs.reshape(num_pairs, num_subsets, n) == pairs[::num_subsets, None]).all()
    bits = 1 << np.arange(n)
    pair_codes, subset_codes = pairs @ bits, subsets @ bits
    sizes = subsets.sum(axis=1)
    all_pairs = [sum(1 << p for p in pair) for pair in itertools.combinations(range(n), 2)]
    pair_p = scipy.stats.chisquare([(pair_codes[::num_subsets] == c).sum()
                                    for c in all_pairs]).pvalue
    size_p = scipy.stats.chisquare(np.bincount(sizes, minlength=n - 1)).pvalue
    # the subsets of each pair at each size, against an even split of that
    # pair's samples at that size: C(3, size) - 1 degrees of freedom each
    observed, expected, df = [], [], 0
    for pair in itertools.combinations(range(n), 2):
        code = sum(1 << p for p in pair)
        others = [p for p in range(n) if p not in pair]
        for size in range(1, n - 2):
            at_size = (pair_codes == code) & (sizes == size)
            choices = list(itertools.combinations(others, size))
            for subset in choices:
                observed.append((at_size & (subset_codes == sum(1 << p for p in subset))).sum())
                expected.append(at_size.sum() / len(choices))
            df += len(choices) - 1
    expected = np.array(expected)
    subset_p = scipy.stats.chi2.sf(((observed - expected) ** 2 / expected).sum(), df)
    print(f"seed {seed}: pair p = {pair_p:.3f}, size p = {size_p:.3f}, "
          f"subset p = {subset_p:.3f}")
    assert min(pair_p, size_p, subset_p) > 1e-3


def assert_draws_match_the_key_reference(n, num_pairs, num_subsets, make_generator):
    """The sampler scores the masks of the per-subset key loop, in its order,
    and leaves its rng where the loop leaves an equal rng."""
    spy, seen = spy_setfn()
    sampler_rng, loop_rng = make_generator(), make_generator()
    expected_interaction_sampled(spy, n, num_pairs, num_subsets, rng=sampler_rng)
    samples = per_subset_draws(n, num_pairs, num_subsets, loop_rng)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], reference_masks(samples, n))
    np.testing.assert_equal(sampler_rng.bit_generator.state, loop_rng.bit_generator.state)


@pytest.mark.parametrize("n", [*range(2, 13), 16, 17, 32, 33, 64, 65, 127, 128, 129, 130, 192,
                               256, 300, 768])
def test_sampler_draws_the_masks_of_the_key_loop(n):
    # 6 pairs x 4 subsets: more than one subset per pair and more than one pair
    assert_draws_match_the_key_reference(n, 6, 4, lambda: make_rng(n, 54))


BIT_GENERATORS = {"pcg64": np.random.PCG64, "pcg64dxsm": np.random.PCG64DXSM,
                  "philox": np.random.Philox, "sfc64": np.random.SFC64,
                  "mt19937": np.random.MT19937}


@pytest.mark.parametrize("n", [2, 3, 64, 129, 768])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS.values(), ids=BIT_GENERATORS.keys())
def test_key_draws_hold_for_any_bit_generator(bit_generator, n):
    # the draw reads rng only through random and integers, so it is defined
    # for a Generator over any bit generator, not only make_rng's Philox
    assert_draws_match_the_key_reference(
        n, 5, 3, lambda: np.random.Generator(bit_generator(1234 + n)))


@pytest.mark.parametrize("seed", range(3))
def test_sampler_matches_the_key_loop_at_the_workload_setting(seed):
    # an 8x8x1 MLP at 30 pairs x 5 subsets, on criterion 9's sampler streams
    shape = ImageShape(8, 8, 1)
    model = build_model("mlp-1-hidden", shape, 3, seed=seed)
    rng = make_rng(seed, 34)
    v, n = make_model_setfn(model, rng.uniform(0, 255, size=shape.dims),
                            rng.uniform(-32, 32, size=shape.dims), 1)
    est = expected_interaction_sampled(v, n, 30, 5, rng=make_rng(seed, 2000))
    samples = per_subset_draws(n, 30, 5, make_rng(seed, 2000))
    assert (est.value, est.stderr) == loop_estimate(v.batch(reference_masks(samples, n)), 30, 5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 64, 128, 129, 300, 768])
def test_every_sample_holds_its_pair_and_a_subset_outside_it(n):
    num_pairs, num_subsets = 20, 6
    spy, seen = spy_setfn()
    expected_interaction_sampled(spy, n, num_pairs, num_subsets, rng=make_rng(n, 51))
    joint, only_a, only_b, subsets = seen[0].reshape(-1, 4, n).transpose(1, 0, 2)
    # every row holds S, and adds to it one pair player, the other, or both
    for row in (joint, only_a, only_b):
        assert not (subsets & ~row).any()
    first, second = only_a & ~subsets, only_b & ~subsets
    assert (first.sum(axis=1) == 1).all() and (second.sum(axis=1) == 1).all()
    assert not (first & second).any()
    np.testing.assert_array_equal(joint & ~subsets, first | second)
    assert (subsets.sum(axis=1) <= n - 2).all()
    # a pair is drawn once for its num_subsets samples
    pairs = (joint & ~subsets).reshape(num_pairs, num_subsets, n)
    assert (pairs == pairs[:, :1]).all()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_subset_sizes_reach_both_ends_of_their_range(n):
    # sizes are uniform in [0, n - 2]: at 1,000 samples each size turns up
    spy, seen = spy_setfn()
    expected_interaction_sampled(spy, n, 200, 5, rng=make_rng(n, 55))
    sizes = seen[0][3::4].sum(axis=1)
    assert set(sizes.tolist()) == set(range(n - 1))


@pytest.mark.parametrize("num_subsets", [1, 7])
@pytest.mark.parametrize("n", [2, 5, 64, 768])
def test_pair_draw_does_not_depend_on_the_subset_count(n, num_subsets):
    # the pairs come from the first rng array, read before any subset draw
    def drawn_pairs(count):
        spy, seen = spy_setfn()
        expected_interaction_sampled(spy, n, 9, count, rng=make_rng(n, 56))
        rows = seen[0].reshape(9, count, 4, n)[:, 0]
        return rows[:, 0] & ~rows[:, 3]

    np.testing.assert_array_equal(drawn_pairs(num_subsets), drawn_pairs(3))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 3, 6, 17, 64])
def test_quadratic_estimate_is_the_mean_interaction_of_its_drawn_pairs(n, seed):
    # in a quadratic game every second difference of pair (a, b) is
    # d_a H_ab d_b whatever S is, so the estimate reads only the pair draw:
    # the two lowest of n keys in each row of the first rng array
    rng = make_rng(seed, 52)
    game = random_game(rng, n)
    d = rng.normal(size=n)
    v, _ = make_game_setfn(game, d)
    num_pairs, num_subsets = 8, 3
    est = expected_interaction_sampled(v, n, num_pairs, num_subsets, rng=make_rng(seed, 53))
    pairs = np.argsort(make_rng(seed, 53).random((num_pairs, n)), axis=1)[:, :2]
    per_pair = np.array([d[a] * game.H[a, b] * d[b] for a, b in pairs])
    assert est.value == pytest.approx(per_pair.mean(), rel=1e-9, abs=1e-9)
    assert est.stderr == pytest.approx(per_pair.std(ddof=1) / np.sqrt(num_pairs),
                                       rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [4, 16, 64])
def test_each_player_outside_the_pair_joins_the_subset_half_the_time(n, seed):
    # P(p in S | p outside the pair) = E[size] / (n - 2) = 1/2, one
    # independent Bernoulli draw per sample
    spy, seen = spy_setfn()
    expected_interaction_sampled(spy, n, 200, 10, rng=make_rng(seed, 57))
    rows = seen[0].reshape(-1, 4, n)
    subsets, pairs = rows[:, 3], rows[:, 0] & ~rows[:, 3]
    outside = ~pairs
    pvalues = [scipy.stats.binomtest(int(subsets[outside[:, p], p].sum()),
                                     int(outside[:, p].sum()), 0.5).pvalue for p in range(n)]
    assert min(pvalues) > 1e-3 / n, min(pvalues)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [3, 16, 64])
def test_each_player_joins_a_pair_with_probability_two_over_n(n, seed):
    num_pairs = 2000
    spy, seen = spy_setfn()
    expected_interaction_sampled(spy, n, num_pairs, 1, rng=make_rng(seed, 58))
    rows = seen[0].reshape(-1, 4, n)
    counts = (rows[:, 0] & ~rows[:, 3]).sum(axis=0)
    pvalues = [scipy.stats.binomtest(int(c), num_pairs, 2 / n).pvalue for c in counts]
    assert min(pvalues) > 1e-3 / n, min(pvalues)


@pytest.mark.parametrize("n", [2, 64, 768])
def test_an_omitted_rng_is_make_rng_0(n):
    spy, seen = spy_setfn()
    expected_interaction_sampled(spy, n, 4, 3)
    expected_interaction_sampled(spy, n, 4, 3, rng=make_rng(0))
    np.testing.assert_array_equal(seen[0], seen[1])


# a 1x6x1 input has 15 pairs; tiny-conv needs sides divisible by 4, so 4x4x1
# is its smallest input (n = 16, 120 pairs)
EXACT_MEAN_SHAPES = {"softmax-linear": ImageShape(1, 6, 1), "mlp-1-hidden": ImageShape(1, 6, 1),
                     "tiny-conv": ImageShape(4, 4, 1)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", EXACT_MEAN_SHAPES)
def test_sampler_agrees_with_the_exact_mean_interaction(kind, seed):
    # the exact mean of the pairwise Shapley interaction over all pairs; units
    # of up to +-1000 make the best rival class change inside the subset
    # lattice, without which the softmax-linear reward is linear and every
    # interaction is rounding noise
    shape = EXACT_MEAN_SHAPES[kind]
    model = build_model(kind, shape, 3, seed=seed)
    rng = make_rng(seed, 36)
    x = rng.uniform(0, 255, size=shape.dims)
    v, n = make_model_setfn(model, x, rng.uniform(-1000, 1000, size=shape.dims), 0)
    per_pair = shapley_interaction_matrix_exact(v, n)[np.triu_indices(n, 1)]
    assert np.ptp(per_pair) > 1e-3
    est = expected_interaction_sampled(v, n, num_pairs=200, num_subsets=10,
                                       rng=make_rng(seed, 37))
    z = (est.value - np.mean(per_pair)) / est.stderr
    print(f"{kind} seed {seed}: exact {np.mean(per_pair):.4e}, sampled {est.value:.4e} "
          f"+- {est.stderr:.2e}, z = {z:+.2f}")
    assert abs(z) < 4, z


class TestPredictedInteraction:
    def test_exact_mean_matches_brute_force(self):
        game = random_game(make_rng(21), 5)
        d = make_rng(22).normal(size=5)
        pairs = list(itertools.permutations(range(5), 2))
        brute = np.mean([d[a] * game.H[a, b] * d[b] for a, b in pairs])
        assert exact_mean_interaction(game, d) == pytest.approx(brute, rel=1e-12)

    def test_cubic_prediction_first_order_in_curvature(self):
        rng = make_rng(23)
        g = rng.normal(size=6)
        B = rng.normal(size=(6, 6))
        H0 = 0.5 * (B + B.T)
        H0 /= np.linalg.norm(H0, 2)
        sched = coefficients(5, 1.0)
        errs = []
        for eta in (1e-2, 1e-3, 1e-4):
            game = AnalyticGame(g=g, H=eta * H0)
            delta = predicted_delta(sched, 0.1, game)
            value, _, _ = predicted_interaction(sched, 0.1, game)
            errs.append(abs(value - exact_mean_interaction(game, delta)))
        # error drops at least ~two orders per decade of curvature
        assert errs[0] / errs[1] >= 100 / 3
        assert errs[1] / errs[2] >= 100 / 3

    def test_quadratic_term_dominates_at_small_gamma(self):
        game = random_game(make_rng(24), 5)
        sched = coefficients(4, 1.0)
        v1, A, B = predicted_interaction(sched, 1e-6, game)
        assert v1 == pytest.approx(A * 1e-12, rel=1e-4)

    def test_needs_two_units(self):
        game = AnalyticGame(g=np.ones(1), H=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            predicted_interaction(coefficients(2, 1.0), 0.1, game)
