import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ugsl.tensor as T
from ugsl.errors import ConfigurationError
from ugsl.layers import cosine_scores

import oracles


def test_matmul_identity():
    x = T.constant([[2.0, 3.0], [5.0, 7.0]])
    eye = T.constant(np.eye(2))
    out = T.matmul(eye, x)
    np.testing.assert_array_equal(out.values, x.values)


def test_matmul_hand_example():
    a = T.constant([[1.0, 2.0], [3.0, 4.0]])
    b = T.constant([[1.0], [1.0]])
    np.testing.assert_array_equal(T.matmul(a, b).values, [[3.0], [7.0]])


def test_matmul_gradient_is_ones_times_b_transpose():
    a = T.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = T.constant([[5.0, 6.0], [7.0, 8.0]])
    T.backward(T.sum_all(T.matmul(a, b)))
    np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.values.T)


def test_matmul_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))


# all-pairs cosine: the scorers' n x n values from `layers.cosine_scores`
# and their differentiable entries from `T.gram_at`

def _all_pairs(n: int):
    """Every (row, col) pair once, rows sorted: both orders and the
    diagonal."""
    return np.divmod(np.arange(n * n), n)


def _cosine_tensor(t: T.Tensor) -> T.Tensor:
    """The n x n cosine matrix as an (n * n, 1) column of differentiable
    entries in row-major order."""
    return cosine_scores([t]).at(*_all_pairs(t.shape[0]))


def test_pairwise_cosine_identical_rows():
    x = T.constant([[1.0, 2.0], [1.0, 2.0]])
    np.testing.assert_allclose(cosine_scores([x]).values, np.ones((2, 2)),
                               atol=1e-12)
    np.testing.assert_allclose(_cosine_tensor(x).values, np.ones((4, 1)),
                               atol=1e-12)


def test_pairwise_cosine_orthogonal_and_diagonal():
    out = cosine_scores([T.constant([[1.0, 0.0], [0.0, 1.0]])]).values
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_cosine_closed_form():
    x = T.constant([[1.0, 0.0], [1.0, 1.0]])
    out = cosine_scores([x]).values
    assert out[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert _cosine_tensor(x).values[1, 0] == out[0, 1]


def test_pairwise_cosine_zero_row_uses_floor():
    out = cosine_scores([T.constant([[0.0, 0.0], [1.0, 0.0]])]).values
    assert np.all(np.isfinite(out))
    assert out[0, 1] == pytest.approx(0.0, abs=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_pairwise_cosine_symmetric_unit_diagonal(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 4)) + 0.1
    out = cosine_scores([T.constant(x)]).values
    np.testing.assert_allclose(out, out.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-12)
    assert out.min() >= -1.0 - 1e-12 and out.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("shape", [(1, 3), (7, 2), (40, 9), (65, 130)])
def test_gram_is_exactly_symmetric(shape):
    x = np.random.default_rng(shape[0]).normal(size=shape)
    for out in (x @ x.T, cosine_scores([T.constant(x)]).values):
        assert np.array_equal(out, out.T)


@pytest.mark.parametrize("seed", range(4))
def test_gram_matches_matmul_by_transpose(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(30, 12))
    upstream = rng.normal(size=(30, 30))
    rows, cols = _all_pairs(30)
    results = []
    for product in ("gram_at", "matmul"):
        x = T.parameter(vals.copy())
        if product == "gram_at":
            scores = cosine_scores([x])
            out, entries = scores.values, scores.at(rows, cols)
        else:
            y = T.normalize_rows(x)
            dense = T.matmul(y, T.transpose(y))
            out, entries = dense.values, T.gather(dense, rows, cols)
        T.backward(T.sum_all(T.hadamard(
            entries, T.constant(upstream.reshape(-1, 1)))))
        results.append((out, x.grad))
    (got, got_grad), (want, want_grad) = results
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_gram_at_backward_is_the_dense_construction_bit_for_bit(seed):
    # each pair once, with (i, j) next to (j, i), diagonal cells, and
    # upstream zeros of both signs; one, two or three embeddings, the
    # edge gradients divided by their count
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 40)), int(rng.integers(1, 9))
    vals = [rng.normal(size=(n, d))]
    keep = np.flatnonzero(rng.random(n * n) < 0.4)
    rows, cols = np.divmod(keep, n)
    g = rng.normal(size=(keep.size, 1))
    g[rng.random(keep.size) < 0.1] = 0.0
    g[rng.random(keep.size) < 0.1] = -0.0
    vals += [rng.normal(size=(n, d)) for _ in range(seed % 3)]
    ys = [T.parameter(v.copy()) for v in vals]
    entries = (sum(v @ v.T for v in vals) / len(vals))[rows, cols]
    out = T.gram_at(ys, rows, cols, entries)
    np.testing.assert_array_equal(out.values, entries[:, None])
    T.backward(T.sum_all(T.hadamard(out, T.constant(g))))
    for y, v in zip(ys, vals):
        want = oracles.gram_gradient_dense(v, rows, cols,
                                           g * (1.0 / len(vals)))
        assert np.array_equal(y.grad, want)
        assert np.array_equal(np.signbit(y.grad), np.signbit(want))


def test_elementwise_relu():
    np.testing.assert_array_equal(T.relu(T.constant([[-1.0, 2.0]])).values,
                                  [[0.0, 2.0]])


def test_elementwise_sigmoid_zero():
    assert T.sigmoid(T.constant([[0.0]])).item() == pytest.approx(0.5)


def test_hadamard_with_ones_is_identity():
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    out = T.hadamard(T.constant(a), T.constant(np.ones((2, 2))))
    np.testing.assert_array_equal(out.values, a)


def test_broadcast_rules():
    m = T.constant(np.ones((3, 2)))
    row = T.constant(np.ones((1, 2)))
    col = T.constant(np.ones((3, 1)))
    one = T.constant([[2.0]])
    assert T.add(m, row).shape == (3, 2)
    assert T.add(m, col).shape == (3, 2)
    assert T.hadamard(m, one).shape == (3, 2)
    with pytest.raises(ConfigurationError):
        T.add(m, T.constant(np.ones((2, 3))))


def test_broadcast_gradient_unbroadcasts():
    row = T.parameter(np.array([[1.0, 2.0]]))
    m = T.constant(np.ones((3, 2)))
    T.backward(T.sum_all(T.add(m, row)))
    np.testing.assert_array_equal(row.grad, [[3.0, 3.0]])


def test_log_clamps_small_inputs():
    out = T.log(T.constant([[0.0, 1.0]]))
    assert out.values[0, 0] == pytest.approx(np.log(1e-12))
    assert out.values[0, 1] == pytest.approx(0.0)


def test_softmax_cross_entropy_uniform_logits():
    logits = T.constant(np.zeros((3, 4)))
    loss = T.softmax_cross_entropy(logits, np.array([0, 1, 2]),
                                   np.ones(3, dtype=bool))
    assert loss.item() == pytest.approx(np.log(4.0))


def test_softmax_cross_entropy_confident_correct():
    logits = np.zeros((2, 3))
    logits[0, 1] = logits[1, 2] = 50.0
    loss = T.softmax_cross_entropy(T.constant(logits), np.array([1, 2]),
                                   np.ones(2, dtype=bool))
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_softmax_cross_entropy_mean_over_mask():
    logits = np.array([[2.0, 0.0], [0.0, 3.0], [9.0, 9.0]])
    labels = np.array([0, 1, 0])
    per_node = []
    for i in range(2):
        z = logits[i] - logits[i].max()
        per_node.append(-(z[labels[i]] - np.log(np.exp(z).sum())))
    mask = np.array([True, True, False])
    loss = T.softmax_cross_entropy(T.constant(logits), labels, mask)
    assert loss.item() == pytest.approx((per_node[0] + per_node[1]) / 2.0)


def test_softmax_cross_entropy_empty_mask():
    with pytest.raises(ConfigurationError):
        T.softmax_cross_entropy(T.constant(np.zeros((2, 2))),
                                np.array([0, 1]), np.zeros(2, dtype=bool))


def test_backward_square_gradient():
    x = T.parameter(np.array([[1.0, -2.0], [3.0, 0.5]]))
    T.backward(T.sum_all(T.hadamard(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.values)


def test_backward_relu_blocks_negative_region():
    x = T.parameter(np.array([[-1.0, -2.0]]))
    T.backward(T.sum_all(T.relu(x)))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])


def test_backward_keeps_gradients_on_leaves_only():
    x = T.parameter(np.array([[1.0, -2.0], [3.0, 0.5]]))
    square = T.hadamard(x, x)  # interior, read twice below
    loss = T.sum_all(T.add(square, T.scale(square, 2.0)))
    T.backward(loss)
    assert square.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad, 6.0 * x.values)


def test_backward_rejects_consumed_record():
    x = T.parameter(np.array([[1.0, 2.0]]))
    loss = T.sum_all(T.hadamard(x, x))
    T.backward(loss)
    with pytest.raises(ConfigurationError):
        T.backward(loss)


def test_backward_rejects_nonscalar():
    x = T.parameter(np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        T.backward(T.hadamard(x, x))


def test_adam_first_step_is_signed_lr():
    p = T.parameter(np.array([[10.0, -4.0]]))
    state = T.AdamState.for_params([p], lr=0.05)
    p.grad = np.array([[3.0, -2.0]])
    before = p.values.copy()
    T.adam_step([p], state)
    np.testing.assert_allclose(p.values, before - 0.05 * np.sign(p.grad),
                               atol=1e-6)


def test_adam_zero_grad_no_decay_keeps_params():
    p = T.parameter(np.array([[1.0, 2.0]]))
    state = T.AdamState.for_params([p], lr=0.1, weight_decay=0.0)
    p.grad = np.zeros((1, 2))
    before = p.values.copy()
    T.adam_step([p], state)
    np.testing.assert_array_equal(p.values, before)


def test_adam_step_count_increments():
    p = T.parameter(np.array([[1.0]]))
    state = T.AdamState.for_params([p], lr=0.1)
    for expected in (1, 2, 3):
        p.grad = np.array([[1.0]])
        T.adam_step([p], state)
        assert state.step_count == expected


def test_adam_skips_parameter_without_grad(caplog):
    p = T.parameter(np.array([[1.0]]))
    q = T.parameter(np.array([[2.0]]))
    state = T.AdamState.for_params([p, q], lr=0.1)
    p.grad = np.array([[1.0]])
    with caplog.at_level("WARNING"):
        T.adam_step([p, q], state)
    assert q.values[0, 0] == 2.0
    assert any("no gradient" in r.message for r in caplog.records)


def test_adam_warns_once_per_parameter_per_state(caplog):
    p = T.parameter(np.array([[1.0]]))
    q = T.parameter(np.array([[2.0]]))
    r = T.parameter(np.array([[3.0]]))
    state = T.AdamState.for_params([p, q, r], lr=0.1)
    p.grad = np.array([[1.0]])
    with caplog.at_level("WARNING"):
        for _ in range(5):
            T.adam_step([p, q, r], state)
        assert sum("no gradient" in rec.message
                   for rec in caplog.records) == 2
        T.adam_step([p, q, r], T.AdamState.for_params([p, q, r], lr=0.1))
    assert sum("no gradient" in rec.message for rec in caplog.records) == 4


def test_adam_decoupled_weight_decay():
    p = T.parameter(np.array([[2.0]]))
    state = T.AdamState.for_params([p], lr=0.1, weight_decay=0.5)
    p.grad = np.array([[0.0]])
    T.adam_step([p], state)
    # only the decay term moves the parameter when the gradient is zero
    assert p.values[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def _reference_adam(p, g, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """The Adam update written out with numpy temporaries."""
    p = p - lr * wd * p
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    p = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return p, m, v


@pytest.mark.parametrize("weight_decay", [0.0, 5e-3])
def test_adam_in_place_update_is_bit_equal_to_the_written_out_one(
        weight_decay):
    rng = np.random.default_rng(3)
    p = T.parameter(rng.normal(size=(7, 5)))
    state = T.AdamState.for_params([p], lr=0.03, weight_decay=weight_decay)
    want, m, v = p.values.copy(), np.zeros((7, 5)), np.zeros((7, 5))
    for t in range(1, 6):
        g = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-6, 3)
        p.grad = g
        T.adam_step([p], state)
        want, m, v = _reference_adam(want, g, m, v, t, 0.03, weight_decay)
        np.testing.assert_array_equal(p.values, want)
        np.testing.assert_array_equal(state.first_moment[0], m)
        np.testing.assert_array_equal(state.second_moment[0], v)


def test_adam_step_holds_two_parameter_sized_temporaries_at_most():
    p = T.parameter(np.ones((256, 256)))
    state = T.AdamState.for_params([p], lr=0.1, weight_decay=0.01)
    p.grad = np.full((256, 256), 0.5)
    tracemalloc.start()
    try:
        T.adam_step([p], state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * p.values.nbytes


# --- edge lists ------------------------------------------------------------------

@st.composite
def _edge_lists(draw):
    """Small edge lists with repeated pairs, empty rows, zero-valued
    edges and n = 1 all reachable, on both sides of spmm's DENSE_SHARE."""
    n = draw(st.integers(min_value=1, max_value=6)
             | st.integers(min_value=20, max_value=40))
    count = draw(st.integers(min_value=0, max_value=14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=count, max_size=count))
    pairs.sort(key=lambda p: p[0])
    vals = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 0.75, 3.0]),
                         min_size=count, max_size=count))
    rows = np.array([p[0] for p in pairs], dtype=np.intp)
    cols = np.array([p[1] for p in pairs], dtype=np.intp)
    return n, rows, cols, np.array(vals, dtype=np.float64).reshape(-1, 1)


def _crowded_rows():
    """Three nodes with 18 edges per row, repeated pairs included."""
    rows = np.repeat(np.arange(3, dtype=np.intp), 18)
    cols = np.tile(np.arange(18, dtype=np.intp) % 3, 3)
    vals = np.resize([1.0, -2.5, 0.75, 3.0, 0.0], 54).reshape(-1, 1)
    return 3, rows, cols, vals


def _spread_rows(n, count):
    """`count` edges over n nodes, row-sorted, without repeated pairs."""
    keys = np.arange(count, dtype=np.intp) * (n * n // count)
    vals = np.resize([1.0, -2.5, 0.75, 3.0, 0.0], count).reshape(-1, 1)
    return n, keys // n, keys % n, vals


@given(_edge_lists(), st.integers(min_value=0, max_value=1000))
@example(_crowded_rows(), 3)
@example(_spread_rows(20, 10), 4)  # exactly DENSE_SHARE of the pairs
@example(_spread_rows(20, 11), 5)  # just above it
@example(_spread_rows(40, 12), 6)
@settings(max_examples=200, deadline=None)
def test_edge_ops_match_dense_numpy(case, seed):
    n, rows, cols, vals = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    g = rng.normal(size=(n, 3))
    # every sum over edges adds its terms left to right in stored order
    dense = np.zeros((n, n))
    row_total, col_total = np.zeros(n), np.zeros(n)
    want_out, want_gx = np.zeros((n, 3)), np.zeros((n, 3))
    want_gv = np.zeros(rows.size)
    for e, (r, c, v) in enumerate(zip(rows, cols, vals[:, 0])):
        dense[r, c] += v
        row_total[r] += v
        col_total[c] += v
        want_out[r] += v * x[c]
        want_gx[c] += v * g[r]
        # one edge's own dot product, no sum over edges
        want_gv[e] = np.einsum("j,j->", g[r], x[c])
    v_param = T.parameter(vals)
    x_param = T.parameter(x)
    adj = T.Edges(rows, cols, n, v_param)

    np.testing.assert_array_equal(adj.to_dense(), dense)
    np.testing.assert_array_equal(T.row_sums(adj).values[:, 0], row_total)
    np.testing.assert_array_equal(
        T.segment_sum(T.constant(vals), cols, n).values[:, 0], col_total)
    np.testing.assert_allclose(row_total, dense.sum(axis=1), atol=1e-12)
    coalesced = T.coalesce(rows, cols, n, T.constant(vals))
    keys = coalesced.rows * n + coalesced.cols
    assert np.all(np.diff(keys) > 0)
    np.testing.assert_allclose(coalesced.to_dense(), dense, atol=1e-12)
    transposed = T.coalesce(cols, rows, n, T.constant(vals))
    np.testing.assert_allclose(transposed.to_dense(), dense.T, atol=1e-12)
    source = rng.normal(size=(n, n))
    np.testing.assert_array_equal(
        T.gather(T.constant(source), rows, cols).values[:, 0],
        source[rows, cols])

    # spmm's dense route propagates by BLAS over the scattered list, its
    # edge route sums in stored order like the loop; both agree with it
    out = T.spmm(adj, x_param)
    T.backward(T.sum_all(T.hadamard(out, T.constant(g))))
    if rows.size > T.DENSE_SHARE * n * n:
        scattered = adj.to_dense()
        np.testing.assert_array_equal(out.values, scattered @ x)
        np.testing.assert_array_equal(x_param.grad, scattered.T @ g)
        np.testing.assert_array_equal(v_param.grad[:, 0],
                                      (g @ x.T)[rows, cols])
    else:
        np.testing.assert_array_equal(out.values, want_out)
        np.testing.assert_array_equal(x_param.grad, want_gx)
        np.testing.assert_array_equal(v_param.grad[:, 0], want_gv)
    np.testing.assert_allclose(out.values, want_out, atol=1e-12)
    np.testing.assert_allclose(out.values, dense @ x, atol=1e-12)
    np.testing.assert_allclose(x_param.grad, want_gx, atol=1e-12)
    np.testing.assert_allclose(x_param.grad, dense.T @ g, atol=1e-12)
    np.testing.assert_allclose(v_param.grad[:, 0], want_gv, atol=1e-12)
    np.testing.assert_allclose(v_param.grad[:, 0],
                               (g[rows] * x[cols]).sum(axis=1), atol=1e-12)


def test_edges_at_rejects_unsorted_rows():
    with pytest.raises(ConfigurationError, match="sorted"):
        T.edges_at(T.constant(np.ones((3, 3))), [2, 0], [1, 1])


@pytest.mark.parametrize("op", ["add", "hadamard", "matmul"])
def test_constant_operand_leaves_trainable_gradient_bit_equal(op):
    rng = np.random.default_rng(44)
    a_vals = rng.normal(size=(4, 4))
    b_vals = rng.normal(size=(4, 4))
    weights = T.constant(rng.normal(size=(4, 4)))
    grads = []
    for b_trains in (False, True):
        a = T.parameter(a_vals.copy())
        b = T.Tensor(b_vals.copy(), requires_grad=b_trains)
        T.backward(T.sum_all(T.hadamard(getattr(T, op)(a, b), weights)))
        assert (b.grad is not None) == b_trains
        grads.append(a.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


# --- criterion 1: one finite-difference table over every recorded op -----------
#
# GRADIENT_CASES maps a case to (the op it checks, the input values, a loss
# builder). The builder takes the input as a live parameter and returns a
# scalar; `oracles.check_gradients` asserts that the gradient is not zero and
# matches central differences. `spmm` cases run on both of its routes. The
# four tests after the table read it by group: single ops, edge-list ops (on
# 12 edges of 5 nodes, repeated pairs included, and of 40), the composite
# chain and the cosine scorer chain. Every public op of `tensor` that
# records a backward has a case (test_every_recorded_op_has_a_gradient_case).

def _weighted(out: T.Tensor, w: np.ndarray) -> T.Tensor:
    """sum(out * w): a scalar whose gradient at `out` is w."""
    return T.sum_all(T.hadamard(out, T.constant(w)))


def _single_op_cases() -> dict:
    rng = np.random.default_rng(42)
    x = rng.normal(size=(5, 5)) + 0.2
    w = rng.normal(size=(5, 5))
    labels = rng.integers(0, 5, size=5)
    row, col = x[:1], x[:, :1]
    return {
        # an operand read twice reaches both branches of the backward
        "add": ("add", x, lambda t: _weighted(T.add(t, t), w)),
        "add_row": ("add", row,
                    lambda t: _weighted(T.add(T.constant(w), t), w)),
        "add_column": ("add", col,
                       lambda t: _weighted(T.add(t, T.constant(w)), w)),
        "hadamard": ("hadamard", x, lambda t: _weighted(T.hadamard(t, t), w)),
        "hadamard_column": ("hadamard", col, lambda t: _weighted(
            T.hadamard(T.constant(w), t), w)),
        "scale": ("scale", x, lambda t: _weighted(T.scale(t, -1.7), w)),
        "matmul": ("matmul", x, lambda t: _weighted(T.matmul(t, t), w)),
        "affine_x": ("affine", x, lambda t: _weighted(
            T.affine(t, T.constant(w), T.constant(w[:1])), w)),
        "affine_w": ("affine", x, lambda t: _weighted(
            T.affine(T.constant(w), t, T.constant(w[:1])), w)),
        "affine_b": ("affine", row, lambda t: _weighted(
            T.affine(T.constant(w), T.constant(w), t), w)),
        "transpose": ("transpose", x, lambda t: _weighted(T.transpose(t), w)),
        "relu": ("relu", x, lambda t: _weighted(T.relu(t), w)),
        "tanh": ("tanh", x, lambda t: _weighted(T.tanh(t), w)),
        "sigmoid": ("sigmoid", x, lambda t: T.sum_all(T.sigmoid(t))),
        "log_sigmoid": ("log", x, lambda t: T.sum_all(T.log(T.sigmoid(t)))),
        "power": ("power", x,
                  lambda t: T.sum_all(T.power(T.hadamard(t, t), -0.5))),
        "sum_all": ("sum_all", x, T.sum_all),
        "normalize_rows": ("normalize_rows", x,
                           lambda t: _weighted(T.normalize_rows(t), w)),
        "pairwise_cosine": ("gram_at", x,
                            lambda t: T.sum_all(_cosine_tensor(t))),
        "softmax_ce": ("softmax_cross_entropy", x,
                       lambda t: T.softmax_cross_entropy(
                           t, labels, np.ones(5, dtype=bool))),
        "binary_ce": ("binary_cross_entropy", x,
                      lambda t: T.binary_cross_entropy(
                          t, (w > 0).astype(float), np.abs(w))),
    }


def _edge_op_cases(n: int) -> dict:
    rng = np.random.default_rng(43)
    rows = np.sort(rng.integers(0, n, size=12))  # repeats allowed
    cols = rng.integers(0, n, size=12)
    edge_w = rng.normal(size=(12, 1))
    node_w = rng.normal(size=(n, 1))
    x, out_w = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    vals = rng.normal(size=(12, 1))

    def coalesced_squares(t):
        summed = T.coalesce(cols, rows, n, t).vals
        return T.sum_all(T.hadamard(summed, summed))

    return {
        "gather": ("gather", rng.normal(size=(n, n)),
                   lambda t: _weighted(T.gather(t, rows, cols), edge_w)),
        "gather_column": ("gather", rng.normal(size=(n, 1)),
                          lambda t: _weighted(T.gather(t, rows, 0), edge_w)),
        "segment_sum": ("segment_sum", vals, lambda t: _weighted(
            T.segment_sum(t, cols, n), node_w)),
        "row_sums": ("segment_sum", vals, lambda t: _weighted(
            T.row_sums(T.Edges(rows, cols, n, t)), node_w)),
        "coalesce": ("segment_sum", vals, coalesced_squares),
        "spmm_values": ("spmm", vals, lambda t: _weighted(
            T.spmm(T.Edges(rows, cols, n, t), T.constant(x)), out_w)),
        "spmm_dense": ("spmm", rng.normal(size=(n, 3)), lambda t: _weighted(
            T.spmm(T.Edges(rows, cols, n, T.constant(edge_w)), t), out_w)),
    }


def _composite_loss(x: T.Tensor) -> T.Tensor:
    a = T.tanh(T.matmul(x, T.transpose(x)))
    ones = T.constant(np.ones((5, 5)))
    b = T.sigmoid(T.add(a, T.scale(T.matmul(x, ones), 0.3)))
    c = T.log(T.add(T.hadamard(b, b), T.constant(np.full((5, 5), 0.5))))
    return T.sum_all(T.add(c, T.relu(a)))


def _embedded_with_zero_row(x: T.Tensor, zero_row: int) -> T.Tensor:
    """x with an all-zero row inserted at `zero_row`, as a product, so
    gradients reach x and never the zero row itself."""
    n = x.shape[0] + 1
    embed = np.delete(np.eye(n), zero_row, axis=1)
    return T.matmul(T.constant(embed), x)


def _cosine_case(seed: int, zero_row: int | None) -> tuple:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 4))
    n = 6 if zero_row is None else 7
    # an asymmetric weighting, so g and g^T differ in gram_at's backward
    w = rng.normal(size=(n * n, 1))

    def build(t):
        if zero_row is not None:
            t = _embedded_with_zero_row(t, zero_row)
        return _weighted(_cosine_tensor(t), w)

    return "gram_at", x, build


_EDGE_OPS = tuple(_edge_op_cases(5))
_COSINE_CASES = [(0, None), (1, None), (2, None), (3, 0), (4, 3)]

_SINGLE_OP_CASES = _single_op_cases()
GRADIENT_CASES = {
    **_SINGLE_OP_CASES,
    **{f"{case} n={n}": row for n in (5, 40)
       for case, row in _edge_op_cases(n).items()},
    **{f"composite seed={seed}": (
        "composite", np.random.default_rng(seed).normal(size=(5, 5)),
        _composite_loss) for seed in range(5)},
    **{f"cosine seed={seed} zero_row={zero_row}": _cosine_case(seed, zero_row)
       for seed, zero_row in _COSINE_CASES},
}


def _check_case(case: str, monkeypatch) -> None:
    op, values, build = GRADIENT_CASES[case]
    x = T.parameter(values.copy())
    if op != "spmm":
        oracles.check_gradients(lambda: build(x), [x], min_norm=1e-3,
                                label=case)
        return
    for route in oracles.SPMM_ROUTES:
        calls = oracles.force_spmm_route(monkeypatch, route)
        oracles.check_gradients(lambda: build(x), [x], min_norm=1e-3,
                                label=f"{case} on the {route} route")
        assert set(calls) == {route}, calls


@pytest.mark.parametrize("op", _SINGLE_OP_CASES)
def test_single_op_gradients_match_finite_differences(op, monkeypatch):
    _check_case(op, monkeypatch)


@pytest.mark.parametrize("op", _EDGE_OPS)
def test_edge_op_gradients_match_finite_differences(op, monkeypatch):
    for n in (5, 40):
        _check_case(f"{op} n={n}", monkeypatch)


@pytest.mark.parametrize("seed", range(5))
def test_composite_gradient_matches_finite_differences(seed, monkeypatch):
    _check_case(f"composite seed={seed}", monkeypatch)


@pytest.mark.parametrize("seed, zero_row", _COSINE_CASES)
def test_pairwise_cosine_gradient_matches_finite_differences(seed, zero_row,
                                                             monkeypatch):
    _check_case(f"cosine seed={seed} zero_row={zero_row}", monkeypatch)


def _ops_without_a_case(module) -> list:
    """The public functions of `module` whose code calls `_make`, so that
    they record a backward, and that no GRADIENT_CASES row checks."""
    covered = {op for op, _, _ in GRADIENT_CASES.values()}
    return sorted(name for name, fn in vars(module).items()
                  if inspect.isfunction(fn) and not name.startswith("_")
                  and "_make" in fn.__code__.co_names and name not in covered)


def test_every_recorded_op_has_a_gradient_case():
    assert _ops_without_a_case(T) == []


def test_an_op_without_a_gradient_case_fails_the_guard(monkeypatch):
    def scratch_op(a):
        return T._make(-a.values, (a,), lambda g: (-g,))

    monkeypatch.setattr(T, "scratch_op", scratch_op, raising=False)
    assert _ops_without_a_case(T) == ["scratch_op"]
