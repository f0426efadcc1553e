import json

import numpy as np
import pytest

import ugsl.tensor as T
import ugsl.training
from ugsl.config import GslConfig, PositionalConfig
from ugsl.data import make_blobs, make_fixture
from ugsl.errors import ConfigurationError
from ugsl.training import (TrialResult, base_config, evaluate, run_base_model,
                           train)


def test_evaluate_perfect():
    logits = np.array([[5.0, 0.0], [0.0, 5.0]])
    assert evaluate(logits, np.array([0, 1]), np.ones(2, dtype=bool)) == 1.0


def test_evaluate_uniform_logits_tie_to_class_zero():
    logits = np.zeros((3, 4))
    labels = np.array([1, 2, 3])
    assert evaluate(logits, labels, np.ones(3, dtype=bool)) == 0.0


def test_evaluate_three_of_four():
    logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 0])
    assert evaluate(logits, labels, np.ones(4, dtype=bool)) == 0.75


@pytest.fixture(scope="module")
def blobs():
    return make_blobs()


@pytest.fixture(scope="module")
def blobs_result(blobs):
    return run_base_model(blobs, seed=0, max_epochs=200)


def test_base_model_learns_blobs(blobs_result):
    assert blobs_result.status == "ok"
    assert blobs_result.test_accuracy_at_best_val >= 0.9
    assert blobs_result.epochs_run <= 200


def test_training_loss_halves_by_best_epoch(blobs_result):
    losses = blobs_result.train_losses
    assert losses[blobs_result.best_epoch] <= 0.5 * losses[0]


def test_best_val_is_max_of_curve(blobs_result):
    assert blobs_result.best_val_accuracy == pytest.approx(
        max(blobs_result.val_accuracies))


def test_result_accuracies_in_unit_interval(blobs_result):
    assert 0.0 <= blobs_result.best_val_accuracy <= 1.0
    assert 0.0 <= blobs_result.test_accuracy_at_best_val <= 1.0


def test_base_model_completes_on_fixture():
    res = run_base_model(make_fixture(), seed=3, max_epochs=30)
    assert res.status == "ok"
    assert 0.0 <= res.best_val_accuracy <= 1.0
    assert 0.0 <= res.test_accuracy_at_best_val <= 1.0
    # k was clamped to fit the 4-node graph
    assert res.config.sparsifier.k == 3


@pytest.mark.parametrize("kind, pe_dim", [("wl", 16), ("spectral", 2)])
def test_positional_trial_on_fixture_clamps_bootstrap_k(kind, pe_dim):
    # bootstrap_k=15 exceeds n-1=3; the encoding's kNN graph is clamped
    # the same way as the closeness target's
    cfg = base_config(make_fixture(), seed=0, max_epochs=5)
    cfg.positional = PositionalConfig(kind=kind, pe_dim=pe_dim)
    res = train(make_fixture(), cfg)
    assert res.status == "ok", res.error


def test_patience_stops_after_saturation():
    ds = make_blobs(n=60, d=8, seed=2)
    res = run_base_model(ds, seed=0, max_epochs=400, patience=5)
    # validation accuracy saturates early; the run must stop soon after
    assert res.epochs_run <= res.best_epoch + 5 + 1
    assert res.epochs_run < 400


def test_same_seed_bit_identical(blobs):
    cfg_a = base_config(blobs, seed=11, max_epochs=25, patience=10)
    cfg_b = base_config(blobs, seed=11, max_epochs=25, patience=10)
    ra = train(blobs, cfg_a)
    rb = train(blobs, cfg_b)
    assert json.dumps(ra.to_dict(), sort_keys=True) == \
        json.dumps(rb.to_dict(), sort_keys=True)


def test_nan_loss_marks_trial_failed(monkeypatch):
    def poisoned(*args, **kwargs):
        return T.constant([[np.nan]])

    monkeypatch.setattr(ugsl.training, "total_objective", poisoned)
    res = run_base_model(make_fixture(), max_epochs=10)
    assert res.status == "failed"
    assert "non-finite loss at epoch 0" in res.error


def test_invalid_config_rejected(blobs):
    cfg = base_config(blobs)
    cfg.lr = 5.0
    with pytest.raises(ConfigurationError, match="lr"):
        train(blobs, cfg)


def test_trial_result_round_trips():
    res = run_base_model(make_fixture(), seed=5, max_epochs=5)
    back = TrialResult.from_dict(json.loads(json.dumps(res.to_dict())))
    assert back.to_dict() == res.to_dict()


def test_unsupervised_and_regularized_config_trains(blobs):
    from ugsl.config import ContrastiveConfig, DaeConfig, ObjectiveConfig
    ds = make_blobs(n=60, d=8, seed=4)
    cfg = base_config(ds, seed=1, max_epochs=8, patience=8)
    cfg.objective = ObjectiveConfig(
        lambda_sparse_connect=0.5, lambda_closeness=1.0,
        unsupervised=("dae", "contrastive"),
        dae=DaeConfig(mask_rate=0.3, hidden=16),
        contrastive=ContrastiveConfig(mask_rate=0.2, temperature=0.5, tau=0.1))
    res = train(ds, cfg)
    assert res.status == "ok"
    assert np.isfinite(res.train_losses).all()
