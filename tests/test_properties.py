"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adaptive_stopping import AdaptiveStopper
from repro.core.bandit import SlidingWindowUCB
from repro.costmodel.tree import RegressionTree
from repro.tensor.actions import ActionSpace, apply_action
from repro.tensor.factors import move_factor, prime_factors, product, random_factorization
from repro.tensor.features import FEATURE_SIZE, schedule_features
from repro.tensor.sampler import sample_schedule
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import gemm

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# A pool of sketches reused across examples (building them is comparatively slow).
_SKETCHES = {
    (m, k, n): generate_sketches(gemm(m, k, n))[0]
    for (m, k, n) in [(64, 64, 64), (128, 96, 32), (224, 48, 80)]
}
_SHAPES = sorted(_SKETCHES)


# --------------------------------------------------------------------------- #
# factorisation invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(extent=st.integers(min_value=1, max_value=4096), levels=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_factorization_always_multiplies_to_extent(extent, levels, seed):
    sizes = random_factorization(extent, levels, np.random.default_rng(seed))
    assert len(sizes) == levels
    assert all(s >= 1 for s in sizes)
    assert product(sizes) == extent


@SETTINGS
@given(n=st.integers(min_value=2, max_value=100000))
def test_prime_factors_multiply_back_and_are_prime(n):
    factors = prime_factors(n)
    assert product(factors) == n
    for p in factors:
        assert p >= 2
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))


@SETTINGS
@given(extent=st.integers(min_value=1, max_value=1024), levels=st.integers(min_value=2, max_value=5),
       seed=st.integers(min_value=0, max_value=1000),
       src=st.integers(min_value=0, max_value=4), dst=st.integers(min_value=0, max_value=4))
def test_move_factor_preserves_product(extent, levels, seed, src, dst):
    sizes = random_factorization(extent, levels, np.random.default_rng(seed))
    moved = move_factor(sizes, src % levels, dst % levels)
    assert product(moved) == extent
    assert all(s >= 1 for s in moved)


# --------------------------------------------------------------------------- #
# schedule / action invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(shape=st.sampled_from(_SHAPES), seed=st.integers(min_value=0, max_value=10_000),
       n_actions=st.integers(min_value=1, max_value=8))
def test_random_action_chains_keep_schedules_valid(shape, seed, n_actions):
    """Applying any chain of sampled actions never breaks schedule invariants."""
    sketch = _SKETCHES[shape]
    rng = np.random.default_rng(seed)
    schedule = sample_schedule(sketch, rng)
    space = ActionSpace(sketch)
    for _ in range(n_actions):
        schedule = apply_action(schedule, space.sample(rng))
        for sizes, (_n, _k, extent, _l) in zip(schedule.tile_sizes, sketch.tiled_iters):
            assert product(sizes) == extent
        assert 0 <= schedule.num_parallel <= schedule.max_parallel
        assert 0 <= schedule.compute_at_index < len(schedule.dag.compute_at_candidates())
        assert 0 <= schedule.unroll_index < len(schedule.unroll_depths)


@SETTINGS
@given(shape=st.sampled_from(_SHAPES), seed=st.integers(min_value=0, max_value=10_000))
def test_schedule_copy_roundtrip_and_feature_stability(shape, seed):
    sketch = _SKETCHES[shape]
    schedule = sample_schedule(sketch, np.random.default_rng(seed))
    clone = schedule.copy()
    assert clone == schedule and hash(clone) == hash(schedule)
    feats = schedule_features(schedule)
    assert feats.shape == (FEATURE_SIZE,)
    assert np.array_equal(feats, schedule_features(clone))
    assert np.all(np.isfinite(feats))


@SETTINGS
@given(shape=st.sampled_from(_SHAPES), index=st.integers(min_value=0, max_value=10_000))
def test_action_encode_decode_roundtrip(shape, index):
    space = ActionSpace(_SKETCHES[shape])
    tile_idx = index % space.tiling_size
    indices = (tile_idx, index % 3, (index // 3) % 3, (index // 9) % 3)
    action = space.decode(indices)
    assert space.encode(action) == indices


# --------------------------------------------------------------------------- #
# bandit invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(num_arms=st.integers(min_value=1, max_value=8),
       rewards=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60),
       window=st.integers(min_value=1, max_value=32))
def test_bandit_counts_never_exceed_window(num_arms, rewards, window):
    mab = SlidingWindowUCB(num_arms, window=window, rng=np.random.default_rng(0))
    for reward in rewards:
        arm = mab.select()
        assert 0 <= arm < num_arms
        mab.update(arm, reward)
    counts = mab.counts()
    assert counts.sum() <= window
    assert mab.total_plays().sum() == len(rewards)
    values = mab.values()
    assert np.all((values >= 0.0) & (values <= 1.0))


@st.composite
def _bandit_plays(draw):
    """A bandit, the (arm, reward) plays fed to it, and an optional ``among``."""
    num_arms = draw(st.integers(min_value=1, max_value=8))
    window = draw(st.integers(min_value=1, max_value=24))
    arms = st.integers(min_value=0, max_value=num_arms - 1)
    plays = draw(st.lists(st.tuples(arms, st.floats(min_value=-1.0, max_value=1.0)),
                          max_size=60))
    among = draw(st.none() | st.lists(arms, min_size=1, max_size=num_arms, unique=True))
    return num_arms, window, plays, among


@SETTINGS
@given(case=_bandit_plays(), seed=st.integers(min_value=0, max_value=2**16))
def test_bandit_window_counts_and_selection(case, seed):
    num_arms, window, plays, among = case
    mab = SlidingWindowUCB(num_arms, window=window, rng=np.random.default_rng(seed))
    for arm, reward in plays:
        mab.update(arm, reward)

    # The window holds exactly the last ``window`` plays.
    counts = mab.counts()
    assert counts.sum() == min(mab.t, window)
    recent = [arm for arm, _reward in plays[-window:]] if plays else []
    assert np.array_equal(counts, np.bincount(recent, minlength=num_arms))

    # An arm absent from the window scores +inf, every other arm finitely.
    scores = mab.ucb_scores()
    assert np.array_equal(np.isposinf(scores), counts == 0)
    assert np.isfinite(scores[counts > 0]).all()

    allowed = list(range(num_arms)) if among is None else among
    chosen = mab.select(among=among)
    assert chosen in allowed
    if any(counts[arm] == 0 for arm in allowed):
        assert counts[chosen] == 0
    else:
        assert np.isclose(scores[chosen], max(scores[arm] for arm in allowed))


# --------------------------------------------------------------------------- #
# adaptive stopping invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(advantages=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=64),
       ratio=st.floats(min_value=0.1, max_value=0.9))
def test_adaptive_stopper_eliminates_exactly_floor_rho_n(advantages, ratio):
    stopper = AdaptiveStopper(window_size=5, elimination_ratio=ratio, min_tracks=1)
    survivors = stopper.select_survivors(advantages)
    expected_survivors = len(advantages) - int(np.floor(ratio * len(advantages)))
    assert len(survivors) == expected_survivors
    assert survivors == sorted(survivors)
    # Every eliminated track has an advantage <= every survivor's advantage.
    if survivors and expected_survivors < len(advantages):
        eliminated = [i for i in range(len(advantages)) if i not in set(survivors)]
        assert max(advantages[i] for i in eliminated) <= min(advantages[i] for i in survivors) + 1e-12


# --------------------------------------------------------------------------- #
# regression tree invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(seed=st.integers(min_value=0, max_value=1000),
       n=st.integers(min_value=3, max_value=60),
       depth=st.integers(min_value=1, max_value=6))
def test_tree_predictions_stay_within_target_range(seed, n, depth):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = rng.normal(size=n)
    pred = RegressionTree(max_depth=depth, min_samples_leaf=1).fit(X, y).predict(X)
    assert np.all(pred >= y.min() - 1e-9)
    assert np.all(pred <= y.max() + 1e-9)
    assert np.all(np.isfinite(pred))


@SETTINGS
@given(advantages=st.lists(st.integers(min_value=-3, max_value=3).map(float), max_size=64),
       ratio=st.floats(min_value=0.01, max_value=0.99))
def test_adaptive_stopper_survivors_rank_by_advantage_then_index(advantages, ratio):
    """Survivors are the top ``n - floor(rho n)`` by (advantage, index), in input order.

    Advantages come from a handful of values, so most cases have ties.
    """
    stopper = AdaptiveStopper(window_size=5, elimination_ratio=ratio, min_tracks=1)
    n = len(advantages)
    survivors = stopper.select_survivors(advantages)
    assert len(survivors) == n - int(np.floor(ratio * n))
    assert survivors == sorted(set(survivors))
    assert all(0 <= i < n for i in survivors)
    eliminated = sorted(set(range(n)) - set(survivors))
    for i in eliminated:
        for j in survivors:
            # Lower advantage goes first; among equals, the lower index.
            assert (advantages[i], i) < (advantages[j], j)


def _simulated_visits(stopper, num_tracks):
    """Schedules an episode visits, stepped through ``should_continue``,
    ``is_elimination_step`` and ``select_survivors`` as the episode loop does.

    A round that eliminates nothing stops the count: the episode itself
    would then run to its step cap, and ``expected_total_steps`` counts
    that round's window and stops too.
    """
    rng = np.random.default_rng(0)
    live, step, visits = num_tracks, 0, 0
    while stopper.should_continue(step, live):
        visits += live
        step += 1
        if stopper.is_elimination_step(step):
            survivors = len(stopper.select_survivors(rng.normal(size=live)))
            if survivors == live:
                break
            live = survivors
    return visits


@SETTINGS
@given(window=st.integers(min_value=1, max_value=8),
       ratio=st.floats(min_value=0.05, max_value=0.95),
       min_tracks=st.integers(min_value=1, max_value=16),
       num_tracks=st.integers(min_value=0, max_value=200))
def test_adaptive_stopper_expected_total_steps_matches_simulation(window, ratio, min_tracks,
                                                                 num_tracks):
    stopper = AdaptiveStopper(window_size=window, elimination_ratio=ratio, min_tracks=min_tracks)
    assert stopper.expected_total_steps(num_tracks) == _simulated_visits(stopper, num_tracks)
