"""Train the base model end to end and inspect what it learned.

Run: python3 demos/04_train_and_inspect.py
"""

import tempfile
from pathlib import Path

import numpy as np

from ugsl.config import ContrastiveConfig, ObjectiveConfig
from ugsl.data import make_blobs, read_edge_list, write_edge_tsv
from ugsl.stats import compute_stats
from ugsl.training import base_config, run_base_model, train

ds = make_blobs(n=300, d=16, num_classes=3, seed=7)
print(f"dataset: {ds.name} ({ds.train_mask.sum()} train / "
      f"{ds.val_mask.sum()} val / {ds.test_mask.sum()} test)")

result = run_base_model(ds, seed=0, max_epochs=200)
print(f"base model: val {result.best_val_accuracy:.3f}, "
      f"test {result.test_accuracy_at_best_val:.3f}, "
      f"stopped after {result.epochs_run} epochs "
      f"(best at {result.best_epoch})")
print(f"loss curve: {result.train_losses[0]:.3f} -> "
      f"{min(result.train_losses):.3f}")

gs = result.graph_stats
if gs is not None:
    print("learned-graph statistics:")
    print(f"  avg degree {gs.avg_degree:.1f}, diameter {gs.diameter}, "
          f"clustering {gs.local_clustering:.3f}, "
          f"connectivity {gs.algebraic_connectivity:.2e}")
    print(f"  (near-zero connectivity = the graph split into the blobs)")

# the same trainer takes richer objectives; here the contrastive loss
cfg = base_config(ds, seed=1, max_epochs=40, patience=40)
cfg.objective = ObjectiveConfig(
    lambda_sparse_connect=0.1,
    unsupervised=("contrastive",),
    contrastive=ContrastiveConfig(mask_rate=0.2, temperature=0.5, tau=0.1))
contrastive_result = train(ds, cfg)
print(f"with contrastive loss: val {contrastive_result.best_val_accuracy:.3f}, "
      f"test {contrastive_result.test_accuracy_at_best_val:.3f}")

# the learned edge list exports as a TSV and reads back as the same graph
capture = train(ds, base_config(ds, seed=0, max_epochs=40, patience=40),
                capture_adjacency=True)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "learned_adjacency.tsv"
    write_edge_tsv(capture.learned_adjacency, path)
    back = read_edge_list(path, ds.n)
print(f"exported {back.rows.size} learned edges as a TSV edge list; read "
      f"back, they give the same statistics: "
      f"{compute_stats(back) == capture.graph_stats}")
