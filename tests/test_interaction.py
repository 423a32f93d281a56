"""Tests for the trajectory coefficients and Shapley interaction machinery."""

import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_interaction
from advgrad import interaction
from advgrad.interaction import (
    EXACT_PLAYER_LIMIT,
    SETFN_BLOCK_BYTES,
    SETFN_CHUNK,
    AnalyticGame,
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
    shapley_value_exact,
    simulate_raw,
)
from advgrad.models import MODEL_KINDS, build_model
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
        masks = rng.random((2 * SETFN_CHUNK + 5, n)) < 0.5
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


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("dims,chunks", [((8, 8, 1), 4), ((4, 4, 2), 8), ((16, 16, 3), 1)])
def test_no_forward_pass_takes_more_than_the_block_budget(monkeypatch, kind, dims, chunks):
    shape = ImageShape(*dims)
    model = build_model(kind, shape, 3, seed=0)
    rng = make_rng(0, 45)
    v, n = make_model_setfn(model, rng.uniform(0, 255, size=dims),
                            rng.uniform(-8, 8, size=dims), 0)
    inputs, forward = [], model._forward
    monkeypatch.setattr(model, "_forward", lambda z: inputs.append(z.shape) or forward(z))
    v.batch(rng.random((600, n)) < 0.5)
    # whole chunks in stacks of up to the budget, or of one chunk, then the 24
    # rows left; tiny-conv passes each batch of a stack to _forward again
    one_chunk = SETFN_CHUNK * n * 8
    assert max(math.prod(s) * 8 for s in inputs) <= max(SETFN_BLOCK_BYTES, one_chunk)
    assert inputs[0] == (chunks, SETFN_CHUNK) + dims and inputs[-1] == (24,) + dims
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

    def test_player_limit_guard(self):
        with pytest.raises(ValueError, match="limited"):
            shapley_value_exact(zero_game_setfn(EXACT_PLAYER_LIMIT + 1), 0,
                                EXACT_PLAYER_LIMIT + 1)


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


EXACT_CALLS = {
    "value": lambda v, n, p: shapley_value_exact(v, p, n),
    "interaction": lambda v, n, p: shapley_interaction_exact(v, 0, p, n),
}


@pytest.mark.parametrize("call", EXACT_CALLS.values(), ids=EXACT_CALLS.keys())
class TestExactArguments:
    @pytest.mark.parametrize("n", [3, 5])
    def test_wrong_player_count_is_rejected(self, call, n):
        # v has 4 players; an n of 3 would leave player 3 out of every subset
        v, _ = make_game_setfn(random_game(make_rng(40), 4), np.ones(4))
        with pytest.raises(ValueError, match=rf"\(k, 4\) bool array, got bool \(\d+, {n}\)"):
            call(v, n, 1)

    @pytest.mark.parametrize("player", [4, -1, 1.5, True])
    def test_bad_player_index_is_rejected(self, call, player):
        with pytest.raises(ValueError, match=rf"player index {player!r} is not an integer"):
            call(zero_game_setfn(4), 4, player)

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
    for a, b in itertools.combinations(range(n), 2):
        assert abs(shapley_interaction_exact(v, a, b, n)
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

    @pytest.mark.parametrize("n", [2, 64, interaction._REPLAY_PLAYERS + 1],
                             ids=["per-call", "replayed", "per-call-large"])
    @pytest.mark.parametrize("counts,message", [
        ((2.5, 3), "num_pairs must be an integer, got 2.5"),
        ((True, 3), "num_pairs must be an integer, got True"),
        ((2, 3.0), "num_subsets must be an integer, got 3.0"),
        ((2, np.bool_(True)), "num_subsets must be an integer, got .*True"),
        ((0, 3), "at least one pair"),
        ((2, -1), "at least one pair and one subset"),
    ], ids=["pairs-float", "pairs-bool", "subsets-float", "subsets-numpy-bool", "no-pair",
            "negative-subsets"])
    def test_bad_counts_are_rejected_before_any_draw(self, n, counts, message):
        # unchecked, 2.5 pairs would fail deep in numpy, and True would run one
        # pair on the per-call path but fail in the replay
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


def per_subset_sampled_interaction(v, n, num_pairs, num_subsets, rng):
    """The per-subset loop expected_interaction_sampled ran before it scored
    all its subsets in one batch, kept as the reference; its stderr is the
    per-pair one the sampler reports now."""
    samples = []
    for _ in range(num_pairs):
        a, b = (int(p) for p in rng.choice(n, size=2, replace=False))
        others = np.array([p for p in range(n) if p not in (a, b)], dtype=int)
        for _ in range(num_subsets):
            size = int(rng.integers(0, n - 1))
            subset = tuple(int(p) for p in rng.choice(others, size=size, replace=False))
            d = (
                v(subset + (a, b))
                - v(subset + (a,))
                - v(subset + (b,))
                + v(subset)
            )
            samples.append(d)
    arr = np.asarray(samples)
    pair_means = [np.mean(samples[i:i + num_subsets])
                  for i in range(0, len(samples), num_subsets)]
    stderr = float(np.std(pair_means, ddof=1) / np.sqrt(num_pairs)) if num_pairs > 1 else 0.0
    return float(arr.mean()), stderr


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), num_pairs=st.integers(1, 5), num_subsets=st.integers(1, 5),
       seed=st.integers(0, 2**16))
@example(n=2, num_pairs=3, num_subsets=2, seed=0)
@example(n=3, num_pairs=1, num_subsets=1, seed=1)
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
    value, stderr = per_subset_sampled_interaction(v_reference, n, num_pairs, num_subsets,
                                                   loop_rng)
    assert est.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=1e-12)
    np.testing.assert_equal(batched_rng.bit_generator.state, loop_rng.bit_generator.state)
    assert_same_estimate_and_stream(v, n, num_pairs, num_subsets, seed)


def assert_same_estimate_and_stream(v, n, num_pairs, num_subsets, seed):
    lean_rng, reference_rng = make_rng(seed, 33), make_rng(seed, 33)
    lean = expected_interaction_sampled(v, n, num_pairs, num_subsets, rng=lean_rng)
    reference = reference_interaction.expected_interaction_sampled(
        v, n, num_pairs, num_subsets, rng=reference_rng)
    assert lean == reference  # value and stderr compared exactly
    np.testing.assert_equal(lean_rng.bit_generator.state, reference_rng.bit_generator.state)


@pytest.mark.parametrize("seed", range(3))
def test_sampler_matches_the_reference_at_the_workload_setting(seed):
    # the perfbench interaction workload: an 8x8x1 MLP at 30 pairs x 5 subsets
    shape = ImageShape(8, 8, 1)
    model = build_model("mlp-1-hidden", shape, 3, seed=seed)
    rng = make_rng(seed, 34)
    v, n = make_model_setfn(model, rng.uniform(0, 255, size=shape.dims),
                            rng.uniform(-32, 32, size=shape.dims), 1)
    assert_same_estimate_and_stream(v, n, 30, 5, seed)


def mlp_setfn(n, seed):
    """Set function of an MLP over a 1 x n x 1 input, whose second differences
    depend on the subset S as well as on the pair."""
    shape = ImageShape(1, n, 1)
    model = build_model("mlp-1-hidden", shape, 3, seed=seed)
    rng = make_rng(seed, 40)
    v, _ = make_model_setfn(model, rng.uniform(0, 255, size=shape.dims),
                            rng.uniform(-64, 64, size=shape.dims), 0)
    return v


@pytest.mark.parametrize("n", [*range(2, 13), *range(120, 137)])
def test_sampler_matches_the_reference_on_both_sides_of_the_replay_limit(n):
    # 2 players and above _REPLAY_PLAYERS = 128 each draw is a numpy call
    assert_same_estimate_and_stream(mlp_setfn(n, n), n, 6, 4, n)


@pytest.mark.parametrize("n", [64, 300])
def test_sampler_takes_numpy_integer_counts(n):
    assert_same_estimate_and_stream(mlp_setfn(n, 0), np.int64(n), np.int64(3), np.int64(2), 0)


def test_sampler_matches_the_reference_in_numpys_tail_shuffle_regime():
    # above 10,002 players rng.choice(n - 2, size) shuffles the tail of an
    # array of all n - 2 indices instead of running Floyd's selection
    zero = SimpleNamespace(batch=lambda masks: np.zeros(len(masks)))
    assert_same_estimate_and_stream(zero, 10_003, 2, 3, 0)


@pytest.mark.parametrize("n", [2, 3, interaction._REPLAY_PLAYERS, interaction._REPLAY_PLAYERS + 1])
def test_draws_are_replayed_from_3_up_to_the_player_limit(monkeypatch, n):
    replayed, replay = [], interaction._draw_replayed
    monkeypatch.setattr(interaction, "_draw_replayed",
                        lambda *args: replayed.append(args) or replay(*args))
    expected_interaction_sampled(zero_game_setfn(n), n, 2, 2, rng=make_rng(0, 41))
    assert len(replayed) == (2 < n <= interaction._REPLAY_PLAYERS)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 129, 300])
def test_scalar_replay_reads_what_numpy_draws(n, seed):
    rng = make_rng(seed, 38)
    pairs, sizes, subsets = [], [], []
    for _ in range(4):
        pairs.append(rng.choice(n, 2, replace=False).tolist())
        for _ in range(3):
            sizes.append(int(rng.integers(0, n - 1)))
            subsets.append(rng.choice(n - 2, sizes[-1], replace=False).tolist())
    # 4 pairs take fewer than 4 * (3 + 3 * (2n - 5)) values, unless one is rejected
    raw = reference_interaction.RawValues(make_rng(seed, 38).integers(0, 1 << 32, size=30 * n))
    assert reference_interaction.replay_draws(raw, n, 4, 3) == (pairs, sizes, subsets)
    replayed = make_rng(seed, 38)
    replayed.integers(0, 1 << 32, size=raw.read)
    np.testing.assert_equal(replayed.bit_generator.state, rng.bit_generator.state)


class CountingGenerator:
    """Passes the block replay's reads through to rng and records their sizes."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.reads = rng, rng.bit_generator, []

    def integers(self, low, high, size):
        self.reads.append(size)
        return self.rng.integers(low, high, size=size)


@pytest.mark.parametrize("seed", range(3))
def test_first_raw_read_is_sized_to_the_expected_need(seed):
    # the workload setting: 30 pairs x 5 subsets at 64 players take about 9,400
    # values, which the first read covers without reading _RAW_BLOCK of them
    need = interaction._raw_need(64, 30, 5)
    assert 9_400 < need < interaction._RAW_BLOCK
    rng = CountingGenerator(make_rng(seed, 47))
    replayed = interaction._draw_replayed(rng, 64, 30, 5)
    assert rng.reads[0] == need and len(rng.reads) == 2 and rng.reads[1] < need
    per_call_rng = make_rng(seed, 47)
    per_call = interaction._draw_per_call(per_call_rng, 64, 30, 5)
    for got, want in zip(replayed[:2], per_call[:2]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(rng.bit_generator.state, per_call_rng.bit_generator.state)


@pytest.mark.parametrize("before", range(10))
def test_skipping_raw_values_leaves_the_state_a_read_leaves(before):
    # reading 0-9 values first leaves every buffer_pos (1-4), with and without
    # a held high half; counts run from within the current block of 8 values
    # to thousands of blocks, both sides of each block boundary
    for count in [*range(1, 30), 100, 9_400, 9_401, 9_407, 9_408]:
        read, skipped = make_rng(before, 48), make_rng(before, 48)
        read.integers(0, 1 << 32, size=before)
        skipped.integers(0, 1 << 32, size=before)
        state = skipped.bit_generator.state
        read.integers(0, 1 << 32, size=count)
        interaction._skip_raw(skipped, state, count)
        np.testing.assert_equal(skipped.bit_generator.state, read.bit_generator.state)


@pytest.mark.parametrize("before", range(10))
@pytest.mark.parametrize("n,num_pairs", [(3, 40), (64, 30), (128, 60)])
def test_replayed_draws_leave_the_state_numpys_calls_leave(n, num_pairs, before):
    # 60 pairs at 128 players take two blocks, the second starting mid-buffer
    rng, per_call_rng = make_rng(before, 49), make_rng(before, 49)
    rng.integers(0, 1 << 32, size=before)
    per_call_rng.integers(0, 1 << 32, size=before)
    replayed = interaction._draw_replayed(rng, n, num_pairs, 5)
    pairs, sizes, picks = interaction._draw_per_call(per_call_rng, n, num_pairs, 5)
    assert_same_draws(replayed, pairs.tolist(), sizes.tolist(),
                      [s.tolist() for s in np.split(picks, np.cumsum(sizes)[:-1])])
    np.testing.assert_equal(rng.bit_generator.state, per_call_rng.bit_generator.state)


def test_replay_reads_again_from_a_bit_generator_other_than_philox():
    rng, per_call_rng = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
    interaction._draw_replayed(rng, 64, 30, 5)
    interaction._draw_per_call(per_call_rng, 64, 30, 5)
    np.testing.assert_equal(rng.bit_generator.state, per_call_rng.bit_generator.state)


def assert_same_draws(got, pairs, sizes, subsets):
    """got's pairs and sizes equal pairs and sizes, and its picks hold each
    of subsets, in some order."""
    got_pairs, got_sizes, picks = got[:3]
    assert got_pairs.tolist() == pairs and got_sizes.tolist() == sizes
    got_subsets = np.split(picks, np.cumsum(sizes)[:-1])
    assert [sorted(s.tolist()) for s in got_subsets] == [sorted(s) for s in subsets]


def zeroed_stream(n, num_pairs, num_subsets):
    # every 20th value on average is 0, which a draw in [0, r) rejects unless
    # r is a power of two
    rng = make_rng(n, 39)
    raw = rng.integers(0, 1 << 32, size=4 * num_pairs * (3 + num_subsets * 2 * n))
    raw[rng.random(len(raw)) < 0.05] = 0
    return raw


# (n, num_pairs, num_subsets, raw values) of streams that force rejections
CRAFTED_STREAMS = {
    **{f"zeros-{n}-{pairs}x{subsets}": (n, pairs, subsets, zeroed_stream(n, pairs, subsets))
       for n, pairs, subsets in [(3, 50, 4), (7, 20, 3), (64, 30, 5), (100, 40, 5),
                                 (128, 12, 4)]},
    # one pair at n = 3 takes at most 4 values; here its draw in [0, 3)
    # rejects three zeros, so the pair runs past those 4 values
    "overrun": (3, 1, 1, np.concatenate([[5, 0, 0, 0],
                                         make_rng(0, 42).integers(0, 1 << 32, size=16)])),
    # pair 1 takes the first 4 values; pair 2's draw in [0, 3) rejects the 0
    # at index 5
    "second-pair": (3, 2, 1, np.concatenate([[5, 7, 9, 11, 1 << 31, 0, 13, 15, 17],
                                             make_rng(0, 43).integers(0, 1 << 32, size=16)])),
}


@pytest.mark.parametrize("name", CRAFTED_STREAMS)
def test_block_replay_gives_up_exactly_when_numpy_rejects_a_value(name):
    n, num_pairs, num_subsets, raw = CRAFTED_STREAMS[name]
    raw = np.asarray(raw, dtype=np.int64)
    whole = reference_interaction.RawValues(raw)
    starts = []  # the first value of each pair
    for _ in range(num_pairs):
        starts.append(whole.read)
        reference_interaction.replay_draws(whole, n, 1, num_subsets)
    assert whole.rejected > 0
    assert interaction._replay(raw, n, num_pairs, num_subsets) is None
    # blocks of 1 to 3 pairs from each pair on
    for start, count in itertools.product(starts, (1, 2, 3)):
        reference = reference_interaction.RawValues(raw[start:])
        draws = reference_interaction.replay_draws(reference, n, count, num_subsets)
        block = interaction._replay(raw[start:], n, count, num_subsets)
        if reference.rejected:
            assert block is None
            continue
        assert_same_draws(block, *draws)
        assert block[3] == reference.read
        # one value short, the block's pairs run past the values it read
        assert interaction._replay(raw[start:start + reference.read - 1], n, count,
                                   num_subsets) is None


# three blocks each: 4,096 pairs a block at n = 3, 52 at n = 64 and 25 at n = 128
@pytest.mark.parametrize("n,num_pairs,num_subsets", [(3, 9_000, 1), (64, 120, 5), (128, 60, 5)])
def test_a_block_the_replay_gives_up_is_drawn_by_numpy(monkeypatch, n, num_pairs, num_subsets):
    blocks, replay = [], interaction._replay

    def give_up_on_the_second_block(raw, n, count, num_subsets):
        blocks.append(count)
        return None if len(blocks) == 2 else replay(raw, n, count, num_subsets)

    monkeypatch.setattr(interaction, "_replay", give_up_on_the_second_block)
    rng, per_call_rng = make_rng(n, 44), make_rng(n, 44)
    replayed = interaction._draw_replayed(rng, n, num_pairs, num_subsets)
    pairs, sizes, picks = interaction._draw_per_call(per_call_rng, n, num_pairs, num_subsets)
    assert len(blocks) == 3
    assert_same_draws(replayed, pairs.tolist(), sizes.tolist(),
                      [s.tolist() for s in np.split(picks, np.cumsum(sizes)[:-1])])
    np.testing.assert_equal(rng.bit_generator.state, per_call_rng.bit_generator.state)


def test_criterion_9_streams_are_all_replayed(monkeypatch):
    # the acceptance test's 600 estimates: seeds 0-2, 200 examples each, 64
    # players at 30 pairs x 5 subsets
    monkeypatch.setattr(interaction, "_draw_per_call",
                        lambda *args: pytest.fail("a block was drawn by numpy's calls"))
    for seed in range(3):
        for i in range(200):
            interaction._draw_replayed(make_rng(seed, 2000 + i), 64, 30, 5)


def table_setfn(v, n):
    """A set function that scores all 2^n subsets with v once and then answers
    v.batch from that table."""
    table = v.batch(every_subset(n))
    bits = 1 << np.arange(n)
    return SimpleNamespace(batch=lambda masks: table[masks @ bits])


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
    v = table_setfn(v, n)
    per_pair = [shapley_interaction_exact(v, a, b, n)
                for a, b in itertools.combinations(range(n), 2)]
    assert len(per_pair) == n * (n - 1) // 2 and np.ptp(per_pair) > 1e-3
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
