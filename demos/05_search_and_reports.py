"""Component exploration: line search, random search, and the reports.

Run: python3 demos/05_search_and_reports.py   (about a minute)
"""

import numpy as np

from ugsl import search
from ugsl.data import make_blobs
from ugsl.stats import correlate_results
from ugsl.training import base_config


def main():
    ds = make_blobs(n=120, d=8, num_classes=3, seed=11)
    space = search.default_search_space(max_epochs=25, patience=25,
                                        k_options=(5, 10),
                                        dae_hidden_range=(32, 64))

    # line search: vary one component against the fixed base model
    base = base_config(ds, seed=0, max_epochs=25, patience=25)
    table = search.line_search(ds, base, "encoder", ["gcn", "gin", "mlp"],
                               trials_per_option=2)
    print("encoder line search (best-val trial per option):")
    for trial in table.trials:
        print(f"  {trial.config.encoder.kind:>4}: val "
              f"{trial.best_val_accuracy:.3f}, test "
              f"{trial.test_accuracy_at_best_val:.3f}")

    # random search over everything at once
    results = search.random_search(ds, space, n_trials=20, concurrency=2,
                                   master_seed=0)
    ok = results.ok_trials()
    best = results.best_by_val()
    print(f"\nrandom search: {len(ok)}/20 trials ok, "
          f"best val {best.best_val_accuracy:.3f} "
          f"(scorer={best.config.scorer.kind}, "
          f"sparsifier={best.config.sparsifier.kind}, "
          f"encoder={best.config.encoder.kind})")

    # top-5% component distributions (box statistics per component value)
    report = search.top_fraction_analysis(results)
    print(f"top-5% trials: {report['selected']}")
    for value, cell in report["components"]["scorer"].items():
        print(f"  scorer={value}: count {cell['count']}, "
              f"median test {cell['median']:.3f}")

    # which component values travel well across datasets
    other = make_blobs(n=120, d=8, num_classes=3, seed=13)
    other_results = search.random_search(other, space, n_trials=20,
                                         concurrency=2, master_seed=1)
    both = {"a": results, "b": other_results}
    averages = search.component_best_average(both)
    print("\nmean best test accuracy by sparsifier:")
    for value, acc in averages["sparsifier"].items():
        print(f"  {value}: {acc:.3f}")

    ranked = search.best_architecture_aggregate(both)
    if ranked:
        arch = ranked[0]
        print(f"\nbest shared architecture (mean test "
              f"{arch['mean_test_accuracy']:.3f}): {arch['architecture']}")

    # do any learned-graph statistics track accuracy?
    rows = correlate_results(ok + other_results.ok_trials())
    strongest = max(rows, key=lambda r: abs(r["rho"]))
    print(f"\nstrongest stat-accuracy correlation: {strongest['stat']} "
          f"(rho = {strongest['rho']:+.2f})")


# random_search's workers are spawned processes that import this script
# again, so the search runs only when the script is the main program
if __name__ == "__main__":
    main()
