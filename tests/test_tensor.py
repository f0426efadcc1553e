import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ugsl.tensor as T
from ugsl.errors import ConfigurationError

from oracles import finite_difference_gradient, relative_error


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


def test_pairwise_cosine_identical_rows():
    out = T.pairwise_cosine(T.constant([[1.0, 2.0], [1.0, 2.0]]))
    np.testing.assert_allclose(out.values, np.ones((2, 2)), atol=1e-12)


def test_pairwise_cosine_orthogonal_and_diagonal():
    out = T.pairwise_cosine(T.constant([[1.0, 0.0], [0.0, 1.0]])).values
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_cosine_closed_form():
    out = T.pairwise_cosine(T.constant([[1.0, 0.0], [1.0, 1.0]])).values
    assert out[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_pairwise_cosine_zero_row_uses_floor():
    out = T.pairwise_cosine(T.constant([[0.0, 0.0], [1.0, 0.0]])).values
    assert np.all(np.isfinite(out))
    assert out[0, 1] == pytest.approx(0.0, abs=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_pairwise_cosine_symmetric_unit_diagonal(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 4)) + 0.1
    out = T.pairwise_cosine(T.constant(x)).values
    np.testing.assert_allclose(out, out.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-12)
    assert out.min() >= -1.0 - 1e-12 and out.max() <= 1.0 + 1e-12


def _embedded_with_zero_row(x: T.Tensor, zero_row: int) -> T.Tensor:
    """x with an all-zero row inserted at `zero_row`, as a product, so
    gradients reach x and never the zero row itself."""
    n = x.shape[0] + 1
    embed = np.delete(np.eye(n), zero_row, axis=1)
    return T.matmul(T.constant(embed), x)


@pytest.mark.parametrize("seed, zero_row", [(0, None), (1, None), (2, None),
                                            (3, 0), (4, 3)])
def test_pairwise_cosine_gradient_matches_finite_differences(seed, zero_row):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(6, 4))
    n = 6 if zero_row is None else 7
    # an asymmetric weighting, so g and g^T differ in gram's backward
    weights = T.constant(rng.normal(size=(n, n)))

    def build(t):
        if zero_row is not None:
            t = _embedded_with_zero_row(t, zero_row)
        return T.sum_all(T.hadamard(T.pairwise_cosine(t), weights))

    x = T.parameter(vals.copy())
    T.backward(build(x))
    fd = finite_difference_gradient(lambda: build(T.Tensor(x.values)).item(),
                                    x.values)
    assert np.linalg.norm(fd) > 1e-3
    assert relative_error(x.grad, fd) < 1e-4


@pytest.mark.parametrize("shape", [(1, 3), (7, 2), (40, 9), (65, 130)])
def test_gram_is_exactly_symmetric(shape):
    x = np.random.default_rng(shape[0]).normal(size=shape)
    for out in (T.gram(T.constant(x)).values,
                T.pairwise_cosine(T.constant(x)).values):
        assert np.array_equal(out, out.T)


@pytest.mark.parametrize("seed", range(4))
def test_gram_matches_matmul_by_transpose(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(30, 12))
    upstream = rng.normal(size=(30, 30))
    results = []
    for product in (T.gram, lambda y: T.matmul(y, T.transpose(y))):
        x = T.parameter(vals.copy())
        out = product(T.normalize_rows(x))
        T.backward(T.sum_all(T.hadamard(out, T.constant(upstream))))
        results.append((out.values, x.grad))
    (got, got_grad), (want, want_grad) = results
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)


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


def test_exp_clamps_large_inputs():
    out = T.exp(T.constant([[800.0]]))
    assert np.isfinite(out.values).all()


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


def _composite_loss(x: T.Tensor) -> T.Tensor:
    a = T.tanh(T.matmul(x, T.transpose(x)))
    ones = T.constant(np.ones((5, 5)))
    b = T.sigmoid(T.add(a, T.scale(T.matmul(x, ones), 0.3)))
    c = T.log(T.add(T.hadamard(b, b), T.constant(np.full((5, 5), 0.5))))
    return T.sum_all(T.add(c, T.relu(a)))


@pytest.mark.parametrize("seed", range(5))
def test_composite_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(5, 5))
    x = T.parameter(vals.copy())

    def f():
        return _composite_loss(T.Tensor(x.values)).item()

    # as above but recorded against the live parameter
    T.backward(_composite_loss(x))
    fd = finite_difference_gradient(f, x.values)
    assert relative_error(x.grad, fd) < 1e-4


@pytest.mark.parametrize("op", ["normalize_rows", "pairwise_cosine", "power",
                                "softmax_ce", "sigmoid", "exp_log"])
def test_single_op_gradients_match_finite_differences(op):
    rng = np.random.default_rng(42)
    vals = rng.normal(size=(5, 5)) + 0.2
    weights = rng.normal(size=(5, 5))
    labels = rng.integers(0, 5, size=5)
    mask = np.ones(5, dtype=bool)

    def build(t):
        if op == "normalize_rows":
            return T.sum_all(T.hadamard(T.normalize_rows(t), T.constant(weights)))
        if op == "pairwise_cosine":
            return T.sum_all(T.pairwise_cosine(t))
        if op == "power":
            return T.sum_all(T.power(T.hadamard(t, t), -0.5))
        if op == "softmax_ce":
            return T.softmax_cross_entropy(t, labels, mask)
        if op == "sigmoid":
            return T.sum_all(T.sigmoid(t))
        return T.sum_all(T.log(T.exp(t)))

    x = T.parameter(vals.copy())
    T.backward(build(x))
    fd = finite_difference_gradient(lambda: build(T.Tensor(x.values)).item(),
                                    x.values)
    assert relative_error(x.grad, fd) < 1e-4


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


# --- edge lists ------------------------------------------------------------------

def _random_edges(rng, n, count):
    """Row-sorted (rows, cols) with repeats allowed."""
    rows = np.sort(rng.integers(0, n, size=count))
    return rows, rng.integers(0, n, size=count)


@pytest.mark.parametrize("op", ["gather", "take", "segment_sum", "row_sums",
                                "coalesce", "spmm_values", "spmm_dense"])
def test_edge_op_gradients_match_finite_differences(op):
    rng = np.random.default_rng(43)
    n, d = 5, 3
    rows, cols = _random_edges(rng, n, 12)  # repeated pairs included
    edge_w = rng.normal(size=(12, 1))
    node_w = rng.normal(size=(n, 1))
    x_vals = rng.normal(size=(n, d))
    out_w = rng.normal(size=(n, d))

    def build(t):
        if op == "gather":
            return T.sum_all(T.hadamard(T.gather(t, rows, cols),
                                        T.constant(edge_w)))
        if op == "take":
            return T.sum_all(T.hadamard(T.take(t, rows), T.constant(edge_w)))
        if op == "segment_sum":
            return T.sum_all(T.hadamard(T.segment_sum(t, cols, n),
                                        T.constant(node_w)))
        if op == "row_sums":
            adj = T.Edges(rows, cols, n, t)
            return T.sum_all(T.hadamard(T.row_sums(adj), T.constant(node_w)))
        if op == "coalesce":
            adj = T.coalesce(cols, rows, n, t)
            return T.sum_all(T.hadamard(adj.vals, adj.vals))
        if op == "spmm_values":
            adj = T.Edges(rows, cols, n, t)
            return T.sum_all(T.hadamard(T.spmm(adj, T.constant(x_vals)),
                                        T.constant(out_w)))
        adj = T.Edges(rows, cols, n, T.constant(edge_w))
        return T.sum_all(T.hadamard(T.spmm(adj, t), T.constant(out_w)))

    shape = {"gather": (n, n), "take": (n, 1), "spmm_dense": (n, d)}
    x = T.parameter(rng.normal(size=shape.get(op, (12, 1))))
    T.backward(build(x))
    fd = finite_difference_gradient(lambda: build(T.Tensor(x.values)).item(),
                                    x.values)
    assert relative_error(x.grad, fd) < 1e-4


@st.composite
def _edge_lists(draw):
    """Small edge lists with repeated pairs, empty rows, zero-valued
    edges and n = 1 all reachable."""
    n = draw(st.integers(min_value=1, max_value=6))
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


@given(_edge_lists(), st.integers(min_value=0, max_value=1000))
@example(_crowded_rows(), 3)
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

    out = T.spmm(adj, x_param)
    np.testing.assert_array_equal(out.values, want_out)
    np.testing.assert_allclose(out.values, dense @ x, atol=1e-12)
    T.backward(T.sum_all(T.hadamard(out, T.constant(g))))
    np.testing.assert_array_equal(x_param.grad, want_gx)
    np.testing.assert_allclose(x_param.grad, dense.T @ g, atol=1e-12)
    np.testing.assert_array_equal(v_param.grad[:, 0], want_gv)
    np.testing.assert_allclose(v_param.grad[:, 0],
                               (g[rows] * x[cols]).sum(axis=1), atol=1e-12)


def test_edges_at_rejects_unsorted_rows():
    with pytest.raises(ConfigurationError, match="sorted"):
        T.edges_at(T.constant(np.ones((3, 3))), [2, 0], [1, 1])


@pytest.mark.parametrize("op", ["add", "sub", "hadamard", "matmul"])
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
