"""Desk-scale graph structure learning toolkit.

Learns an adjacency matrix jointly with a node classifier through a
four-stage layer (edge scorer, sparsifier, processor, encoder), trains it
with supervised, regularized, and unsupervised objectives, and ships the
surrounding machinery: dataset ingestion, positional encodings, a random
search harness, and statistics of the learned graphs.

Typical library use::

    from ugsl import make_blobs, run_base_model
    result = run_base_model(make_blobs(), seed=0)
"""

__version__ = "0.1.0"

from .config import (ContrastiveConfig, DaeConfig, EncoderConfig, GslConfig,
                     ObjectiveConfig, PositionalConfig, ProcessorConfig,
                     ScorerConfig, SparsifierConfig)
from .data import (Dataset, Graph, SplitSpec, knn_graph, load_dataset,
                   make_blobs, make_fixture, make_splits, read_edge_list,
                   save_dataset, write_edge_tsv)
from .errors import (ConfigurationError, IngestionError, NumericError,
                     ResourceError, UgslError)
from .search import (ResultsTable, SearchSpace, best_architecture_aggregate,
                     component_best_average, default_search_space,
                     line_search, random_search, sample_config,
                     top_fraction_analysis)
from .stats import GraphStats, compute_stats, correlate_results, spearman
from .training import (TrialResult, base_config, evaluate, run_base_model,
                       train)

__all__ = [
    "__version__",
    # errors
    "UgslError", "ConfigurationError", "IngestionError", "NumericError",
    "ResourceError",
    # configuration
    "GslConfig", "PositionalConfig", "ScorerConfig", "SparsifierConfig",
    "ProcessorConfig", "EncoderConfig", "ObjectiveConfig", "DaeConfig",
    "ContrastiveConfig",
    # data
    "Dataset", "Graph", "SplitSpec", "load_dataset", "save_dataset",
    "make_splits", "knn_graph", "make_blobs", "make_fixture",
    "read_edge_list", "write_edge_tsv",
    # training
    "TrialResult", "train", "evaluate", "base_config", "run_base_model",
    # search
    "SearchSpace", "ResultsTable", "default_search_space", "sample_config",
    "random_search", "line_search", "top_fraction_analysis",
    "best_architecture_aggregate", "component_best_average",
    # statistics
    "GraphStats", "compute_stats", "spearman", "correlate_results",
]
