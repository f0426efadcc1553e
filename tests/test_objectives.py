import tracemalloc

import numpy as np
import pytest

import ugsl.tensor as T
from ugsl import errors
from ugsl import objectives as O
from ugsl.config import ContrastiveConfig, DaeConfig, ObjectiveConfig

from oracles import SPMM_ROUTES, check_gradients, force_spmm_route

RNG = lambda s=0: np.random.default_rng(s)
E = T.Edges.from_dense


# --- regularizers ---------------------------------------------------------------

def test_closeness_zero_at_target():
    a = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert O.reg_closeness(E(a), E(a)).item() == 0.0


def test_closeness_ones_against_zero_target():
    loss = O.reg_closeness(E(np.ones((2, 2))), E(np.zeros((2, 2))))
    assert loss.item() == pytest.approx(4.0)


def test_closeness_scales_quadratically():
    rng = RNG(1)
    a = rng.normal(size=(3, 3))
    base = O.reg_closeness(E(a), E(np.zeros((3, 3)))).item()
    doubled = O.reg_closeness(E(2 * a), E(np.zeros((3, 3)))).item()
    assert np.sqrt(doubled) == pytest.approx(2 * np.sqrt(base))


def test_smoothness_identical_features():
    adj = E(np.ones((3, 3)))
    assert O.reg_smoothness(adj, np.ones((3, 2))).item() == pytest.approx(0.0)


def test_smoothness_zero_adjacency():
    x = RNG(2).normal(size=(3, 2))
    assert O.reg_smoothness(E(np.zeros((3, 3))), x).item() == 0.0


def test_smoothness_hand_value():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[0.0], [1.0]])
    assert O.reg_smoothness(E(adj), x).item() == pytest.approx(0.5)


def test_smoothness_in_one_edge_blocks_is_bit_equal(monkeypatch):
    rng = RNG(5)
    a = np.abs(rng.normal(size=(30, 30)))
    x = rng.normal(size=(30, 7))
    whole = O.reg_smoothness(E(a), x).item()
    monkeypatch.setattr(errors, "BLOCK_BYTES", 1)  # one edge a block
    assert O.reg_smoothness(E(a), x).item() == whole


def test_smoothness_at_a_wide_width_holds_a_few_blocks():
    # taken whole, 4096 edges of 1024 features gather two 32 MB row
    # copies and their difference
    n, d = 256, 1024
    x = RNG(6).normal(size=(n, d))
    rows = np.repeat(np.arange(n), 16)
    cols = (rows + np.tile(np.arange(1, 17), n)) % n
    adj = T.Edges(rows, cols, n, T.constant(np.ones((rows.size, 1))))
    tracemalloc.start()
    try:
        O.reg_smoothness(adj, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * errors.BLOCK_BYTES


def test_sparse_connect_values():
    assert O.reg_sparse_connect(E(np.eye(3))).item() == pytest.approx(3.0)
    assert O.reg_sparse_connect(E(np.zeros((2, 2)))).item() == 0.0
    assert O.reg_sparse_connect(E(np.ones((2, 2)))).item() == pytest.approx(4.0)


def test_log_barrier_ones():
    loss = O.reg_log_barrier(E(np.ones((2, 2))))
    assert loss.item() == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)


def test_log_barrier_zero_row_clamped():
    adj = np.array([[0.0, 0.0], [1.0, 1.0]])
    loss = O.reg_log_barrier(E(adj)).item()
    assert loss == pytest.approx(-np.log(1e-12) - np.log(2.0))
    assert loss > 25.0  # the clamp contributes about +27.6


def test_log_barrier_unit_row_sums():
    adj = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert O.reg_log_barrier(E(adj)).item() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_regularizer_lower_bounds(seed):
    rng = RNG(seed)
    a = np.abs(rng.normal(size=(5, 5)))
    x = rng.normal(size=(5, 3))
    assert O.reg_closeness(E(a), E(rng.normal(size=(5, 5)))).item() >= 0.0
    assert O.reg_smoothness(E(a), x).item() >= 0.0
    assert O.reg_sparse_connect(E(a)).item() >= 0.0
    max_row = a.sum(axis=1).max()
    assert O.reg_log_barrier(E(a)).item() >= -5 * np.log(max_row) - 1e-9


# --- denoising loss ---------------------------------------------------------------

def test_masked_bce_perfect_reconstruction():
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    logits = T.constant(np.where(targets > 0, 50.0, -50.0))
    mask = np.ones((2, 2), dtype=bool)
    assert O.masked_binary_cross_entropy(logits, targets, mask).item() == \
        pytest.approx(0.0, abs=1e-9)


def test_masked_bce_of_confidently_wrong_logits_is_exact():
    # log(1 + e^z) - y z: logs of a clamped sigmoid gave a loss of 18.93
    # and no gradient at the two logits of magnitude 40
    z = T.parameter(np.array([[40.0, -40.0, 20.0, 0.5]]))
    y = np.array([[0.0, 1.0, 0.0, 1.0]])
    loss = O.masked_binary_cross_entropy(z, y, np.ones((1, 4), dtype=bool))
    T.backward(loss)
    # log(1 + e^-40) is below the rounding of the sum
    expected = (100.0 + np.log1p(np.exp(-20.0)) + np.log1p(np.exp(-0.5))) / 4
    assert loss.item() == pytest.approx(expected, rel=1e-14)
    # (sigmoid(z) - y) / 4: about (0.25, -0.25, 0.25, -0.094)
    np.testing.assert_allclose(
        z.grad, (1.0 / (1.0 + np.exp(-z.values)) - y) / 4, rtol=1e-12)


def test_masked_mse_monte_carlo_noise_floor():
    # predictor == corrupted input: the masked error is exactly the noise
    rng = RNG(3)
    sigma = 0.1
    collected = []
    while sum(m.sum() for m in collected) < 10_000:
        mask = rng.random((50, 20)) < 0.3
        x = rng.normal(size=(50, 20))
        noise = np.zeros_like(x)
        noise[mask] = rng.normal(0.0, sigma, size=int(mask.sum()))
        loss = O.masked_mse(T.constant(x + noise), x, mask).item()
        collected.append(mask)
        assert loss == pytest.approx((noise[mask] ** 2).mean())
    pooled = np.concatenate([rng.normal(0.0, sigma, size=10_000)])
    assert (pooled ** 2).mean() == pytest.approx(sigma ** 2, rel=0.1)


def test_dae_mask_rate_sampling_contract():
    rng = RNG(4)
    x = rng.normal(size=(40, 25))
    rate = 0.2
    counts = []
    for seed in range(30):
        mask = O._draw_entry_mask(x.shape, rate, RNG(seed))
        counts.append(mask.sum())
    mean = np.mean(counts)
    expected = rate * x.size
    sd = np.sqrt(x.size * rate * (1 - rate))
    assert abs(mean - expected) < 4 * sd / np.sqrt(len(counts))


def test_dae_loss_runs_both_feature_kinds():
    rng = RNG(5)
    x = (rng.random((8, 6)) < 0.4).astype(float)
    adj = E(np.abs(rng.normal(size=(8, 8))))
    dae = O.init_dae(DaeConfig(mask_rate=0.3, hidden=12), 6, RNG(1))
    binary = O.dae_loss(x, adj, dae, RNG(2), "binary", "relu")
    assert binary.item() > 0.0
    dae2 = O.init_dae(DaeConfig(mask_rate=0.3, hidden=12), 6, RNG(1))
    cont = O.dae_loss(rng.normal(size=(8, 6)), adj, dae2, RNG(2),
                      "continuous", "relu")
    assert np.isfinite(cont.item())


# --- contrastive loss ----------------------------------------------------------------

def test_nt_xent_identical_embeddings_is_log_n():
    n = 5
    emb = np.tile([[1.0, 2.0, 3.0]], (n, 1))
    loss = O.nt_xent(T.constant(emb), T.constant(emb), temperature=0.7)
    assert loss.item() == pytest.approx(np.log(n), abs=1e-9)


def test_nt_xent_two_node_closed_form():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = O.nt_xent(T.constant(x), T.constant(x), temperature=1.0)
    assert loss.item() == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_nt_xent_nonnegative(seed):
    rng = RNG(seed)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(6, 4))
    assert O.nt_xent(T.constant(a), T.constant(b), 0.5).item() >= -1e-12


def test_anchor_initializes_to_identity():
    anchor = O.AnchorState.initial(3, tau=0.1)
    np.testing.assert_array_equal(anchor.adjacency.to_dense(), np.eye(3))


def test_anchor_update_contracts_toward_learned():
    rng = RNG(6)
    learned = rng.normal(size=(4, 4))
    anchor = O.AnchorState.initial(4, tau=0.3)
    prev = np.linalg.norm(anchor.adjacency.to_dense() - learned)
    for _ in range(5):
        anchor.update(E(learned))
        dist = np.linalg.norm(anchor.adjacency.to_dense() - learned)
        assert dist < prev
        prev = dist


def test_anchor_edge_count_stays_bounded_over_a_long_run():
    # every update brings a fresh random support of n * k edges weighing at
    # most 1, so an entry absent for m updates weighs at most tau^m: only
    # the supports of the last m_max + 1 updates can be above the floor
    rng = RNG(8)
    n, k, tau = 100, 3, 0.2
    anchor = O.AnchorState.initial(n, tau=tau)
    m_max = int(np.floor(np.log(O.ANCHOR_FLOOR) / np.log(tau)))
    rows = np.repeat(np.arange(n), k)
    for _ in range(300):
        cols = rng.integers(0, n, size=n * k)
        vals = rng.uniform(0.5, 1.0, size=(n * k, 1))
        anchor.update(T.Edges(rows, cols, n, T.constant(vals)))
        assert anchor.adjacency.rows.size <= (m_max + 1) * n * k
    assert np.abs(anchor.adjacency.vals.values).min() >= O.ANCHOR_FLOOR


def test_contrastive_loss_trains_structure():
    rng = RNG(7)
    x = rng.normal(size=(6, 4))
    adj = T.parameter(np.abs(rng.normal(size=(6, 6))))
    state = O.init_contrastive(ContrastiveConfig(mask_rate=0.2), 6, 4, 8, RNG(1))
    loss = O.contrastive_loss(x, T.edges_at(adj, *np.nonzero(adj.values)),
                              state, RNG(2), "relu")
    T.backward(loss)
    assert adj.grad is not None and np.abs(adj.grad).sum() > 0


# --- total objective -----------------------------------------------------------------

def _setup_total(unsupervised=(), **lambdas):
    rng = RNG(8)
    n, d, c = 6, 4, 3
    x = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    mask = np.ones(n, dtype=bool)
    logits_vals = rng.normal(size=(n, c))
    adj_vals = np.abs(rng.normal(size=(n, n)))
    a0 = E(np.abs(rng.normal(size=(n, n))))
    cfg = ObjectiveConfig(unsupervised=tuple(unsupervised), **lambdas)
    state = O.init_objective_state(cfg, n, d, 8, RNG(2))
    return x, labels, mask, logits_vals, adj_vals, a0, cfg, state


def test_total_defaults_to_supervised_ce():
    x, labels, mask, logits, adj, a0, cfg, state = _setup_total()
    total = O.total_objective(T.constant(logits), labels, mask,
                              E(adj), a0, x, cfg, state, RNG(3),
                              "continuous", "relu")
    ce = T.softmax_cross_entropy(T.constant(logits), labels, mask)
    assert total.item() == pytest.approx(ce.item())


def test_total_sparse_lambda_adds_scaled_frobenius():
    x, labels, mask, logits, adj, a0, _, _ = _setup_total()
    lam = 2.5
    cfg = ObjectiveConfig(lambda_sparse_connect=lam)
    state = O.ObjectiveState()
    total = O.total_objective(T.constant(logits), labels, mask,
                              E(adj), a0, x, cfg, state, RNG(3),
                              "continuous", "relu")
    ce = T.softmax_cross_entropy(T.constant(logits), labels, mask).item()
    assert total.item() == pytest.approx(ce + lam * (adj ** 2).sum())


def test_total_equals_sum_of_parts():
    """CE, the weighted regularizers, then dae and contrastive (the
    `config.UNSUPERVISED` order, whatever order the config lists them in),
    added left to right, bit for bit; the parts replay the trial rng in the
    order the objective draws from it."""
    x, labels, mask, logits, adj, a0, cfg, state = _setup_total(
        unsupervised=("contrastive", "dae"), dae=DaeConfig(hidden=6),
        lambda_closeness=1.5, lambda_smoothness=0.5,
        lambda_sparse_connect=2.0, lambda_log_barrier=0.25)
    total = O.total_objective(T.constant(logits), labels, mask,
                              E(adj), a0, x, cfg, state, RNG(3),
                              "continuous", "relu")
    rng = RNG(3)
    parts = (
        T.softmax_cross_entropy(T.constant(logits), labels, mask).item()
        + 1.5 * O.reg_closeness(E(adj), a0).item()
        + 0.5 * O.reg_smoothness(E(adj), x).item()
        + 2.0 * O.reg_sparse_connect(E(adj)).item()
        + 0.25 * O.reg_log_barrier(E(adj)).item()
        + O.dae_loss(x, E(adj), state.dae, rng, "continuous",
                     "relu").item()
        + O.contrastive_loss(x, E(adj), state.contrastive, rng,
                             "relu").item()
    )
    assert total.item() == parts


def test_total_objective_gradients_match_finite_differences(monkeypatch):
    """End-to-end differentiability of every term on a 6-node instance."""
    rng = RNG(9)
    n, d, c = 6, 4, 3
    x = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    mask = np.ones(n, dtype=bool)
    logits_param = T.parameter(rng.normal(size=(n, c)))
    adj_param = T.parameter(np.abs(rng.normal(size=(n, n))) + 0.1)
    a0 = E(np.abs(rng.normal(size=(n, n))))
    cfg = ObjectiveConfig(lambda_closeness=1.0, lambda_smoothness=1.0,
                          lambda_sparse_connect=1.0, lambda_log_barrier=0.5,
                          unsupervised=("dae", "contrastive"),
                          dae=DaeConfig(mask_rate=0.4, hidden=6),
                          contrastive=ContrastiveConfig(mask_rate=0.2))
    state = O.init_objective_state(cfg, n, d, 6, RNG(4))

    def loss_fn():
        # fresh rng per evaluation keeps the stochastic corruption fixed
        adj = T.edges_at(adj_param, *np.nonzero(adj_param.values))
        return O.total_objective(logits_param, labels, mask, adj, a0, x, cfg,
                                 state, RNG(5), "continuous", "relu")

    for route in SPMM_ROUTES:
        calls = force_spmm_route(monkeypatch, route)
        check_gradients(loss_fn, [logits_param, adj_param], label=route)
        assert set(calls) == {route}, calls
