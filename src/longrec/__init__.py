"""Desk-scale long-sequence recommender transformer.

Input generation with global tokens, token merge with optional per-group
transformers, hybrid cross/self causal attention, BCE training on synthetic
behavior data, a KV-cache two-stage inference path equivalent to the full
forward pass, an analytic FLOPs/parameter cost model, and a power-law
scaling-curve fitter.
"""

__version__ = "0.1.0"

from .config import GeneratorConfig, ModelConfig
from .inputs import (Candidate, Dataset, Events, Sample, UserFeatures,
                     generate_dataset, load_dataset, save_dataset)
from .model import (LongRecModel, OptConfig, SumPoolingModel, TrainingReport,
                    select_queries, train)
from .serving import KVCache, build_cache, score_with_cache
from .analysis import (auc, cost_report, count_params, fit_power_law,
                       flops_merged, flops_vanilla, logloss)

__all__ = [
    "__version__",
    "GeneratorConfig", "ModelConfig",
    "Candidate", "Dataset", "Events", "Sample", "UserFeatures",
    "generate_dataset", "load_dataset", "save_dataset",
    "LongRecModel", "OptConfig", "SumPoolingModel", "TrainingReport",
    "select_queries", "train",
    "KVCache", "build_cache", "score_with_cache",
    "auc", "cost_report", "count_params", "fit_power_law",
    "flops_merged", "flops_vanilla", "logloss",
]
