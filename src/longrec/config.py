"""Configuration records for the model and the synthetic data generator.

Both configs round-trip through JSON with strict schemas: a missing required
field, an unknown field or a value of the wrong JSON type raises ConfigError
naming the field, so typos in config files fail loudly instead of silently
taking defaults or failing later.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

from .errors import ConfigError

QUERY_STRATEGIES = ("recent", "uniform", "learnable", "recent_uniform")
MERGE_MODES = ("concat", "inner")


@dataclass
class ModelConfig:
    """Every architectural and optimizer hyperparameter of the model.

    Width convention: ``d`` is the per-item token width, ``K`` the merge
    group size, and the main transformer width is ``D = K * d``. ``m`` global
    tokens ride along with ``k`` sampled sequence queries through one
    cross-attention layer and ``N`` self-attention layers. ``batch_size``
    is the number of samples per optimizer step, and also the number that
    ``model.evaluate`` runs as one batched forward pass.
    """

    L: int = 256                 # visible raw sequence length
    d: int = 8                   # per-item token width
    K: int = 4                   # merge group size
    m: int = 3                   # global tokens: UID, CLS..., target
    k: int = 16                  # sampled sequence queries
    N: int = 2                   # self-attention layers after the cross layer
    heads: int = 1
    merge_mode: str = "concat"   # "concat" | "inner"
    inner_layers: int = 1
    query_strategy: str = "recent"
    head_hidden: int = 32
    d_item: int = 8
    d_act: int = 4
    d_time: int = 8
    n_time_buckets: int = 32
    vocab: int = 200
    n_actions: int = 4
    n_users: int = 4000
    n_profiles: int = 16
    lr: float = 3e-3
    batch_size: int = 32

    @property
    def D(self) -> int:
        return self.K * self.d

    @property
    def feat_width(self) -> int:
        return self.d_item + self.d_act + self.d_time

    @property
    def merged_len(self) -> int:
        """G = ceil(L/K): each sample's merged rows, its history's groups
        right-aligned after all-pad rows (see ``LongRecModel._merge``)."""
        return -(-self.L // self.K)

    def validate(self) -> "ModelConfig":
        if self.L < 1 or self.d < 1 or self.K < 1:
            raise ConfigError("L, d, K must all be >= 1")
        if self.m < 3:
            raise ConfigError("m must be >= 3 (UID, at least one CLS, target)")
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.query_strategy not in QUERY_STRATEGIES:
            raise ConfigError(f"unknown query_strategy {self.query_strategy!r}")
        if self.merge_mode not in MERGE_MODES:
            raise ConfigError(f"unknown merge_mode {self.merge_mode!r}")
        if self.query_strategy != "learnable" and self.k > self.merged_len:
            raise ConfigError(
                f"k={self.k} exceeds merged length {self.merged_len} "
                f"for token-sampling strategies")
        if self.heads < 1:
            raise ConfigError("heads must be >= 1")
        if self.D % self.heads:
            raise ConfigError(f"width D={self.D} not divisible by heads={self.heads}")
        if self.inner_layers < 1:
            raise ConfigError("inner_layers must be >= 1")
        if not 0.0 <= self.lr < float("inf"):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        for name in ("head_hidden", "d_item", "d_act", "d_time", "n_time_buckets",
                     "vocab", "n_actions", "n_users", "n_profiles", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return _strict_build(cls, payload, required=())


@dataclass
class GeneratorConfig:
    """Controls for the synthetic behavior-sequence generator.

    Two regimes share one schema. The natural regime gives each user a
    slowly drifting latent interest set; the label is Bernoulli with mean
    ``p_hit`` when the candidate's interest ever entered that set, ``p_miss``
    otherwise. Setting ``plant_gap`` switches to the planted-long-range
    regime: the candidate's interest occurs only at depths greater than
    ``plant_gap`` events from the end (and only for hit samples), so any
    model confined to the most recent ``plant_gap`` events can do no better
    than chance while the full window separates the classes.
    """

    n_users: int
    vocab: int
    L_max: int
    L_min: int = 0               # 0 means L_max // 2
    n_interests: int = 10
    interests_per_user: int = 3
    drift_rate: float = 0.02
    noise_rate: float = 0.1
    p_hit: float = 0.95
    p_miss: float = 0.05
    plant_gap: Optional[int] = None
    plant_min: int = 2           # planted events per hit sample (inclusive range)
    plant_max: int = 4
    plant_exact_item: bool = True     # plant the candidate item itself
    plant_side: str = "deep"          # "deep": depths > plant_gap; "recent": <=
    candidates_per_history: int = 2   # planted mode: hit/miss pairs per user
    candidate_from_history_rate: float = 0.5
    n_actions: int = 4
    n_profiles: int = 16
    base_time: int = 1_700_000_000
    gap_min: int = 30
    gap_max: int = 900

    def validate(self) -> "GeneratorConfig":
        if self.n_users < 0:
            raise ConfigError("n_users must be >= 0")
        if self.vocab < self.n_interests:
            raise ConfigError(
                f"degenerate config: vocab={self.vocab} < n_interests={self.n_interests}")
        if self.interests_per_user < 1 or self.interests_per_user >= self.n_interests:
            raise ConfigError("interests_per_user must be in [1, n_interests)")
        if self.L_max < 1:
            raise ConfigError("L_max must be >= 1")
        lmin = self.effective_L_min
        if lmin > self.L_max:
            raise ConfigError("L_min exceeds L_max")
        if not (0.0 <= self.noise_rate <= 1.0 and 0.0 <= self.drift_rate <= 1.0):
            raise ConfigError("rates must lie in [0, 1]")
        for name in ("p_hit", "p_miss"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.plant_gap is not None:
            if self.plant_gap < 0 or self.plant_gap + 1 > self.L_max:
                raise ConfigError("plant_gap leaves no deep region before L_max")
            if not (1 <= self.plant_min <= self.plant_max):
                raise ConfigError("need 1 <= plant_min <= plant_max")
            if self.plant_side not in ("deep", "recent"):
                raise ConfigError("plant_side must be 'deep' or 'recent'")
            if self.plant_side == "recent" and self.plant_gap < 1:
                raise ConfigError("recent plant side needs plant_gap >= 1")
            if self.candidates_per_history < 1:
                raise ConfigError("candidates_per_history must be >= 1")
            if self.interests_per_user + 2 > self.n_interests:
                raise ConfigError(
                    "planted mode needs two interests outside the base set")
        if self.gap_min < 1 or self.gap_max < self.gap_min:
            raise ConfigError("need 1 <= gap_min <= gap_max")
        return self

    @property
    def effective_L_min(self) -> int:
        return self.L_min if self.L_min > 0 else max(1, self.L_max // 2)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "GeneratorConfig":
        return _strict_build(cls, payload, required=("n_users", "vocab", "L_max"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Accepted JSON values per declared field type (annotations are strings here).
_TYPE_CHECKS = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "Optional[int]": lambda v: v is None or _is_int(v),
}


def check_fields(cls, payload: dict) -> None:
    """ConfigError unless ``payload`` is a JSON object whose every key is a
    field of the config class ``cls`` holding a value of that field's type;
    values and required fields are not checked."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{cls.__name__} payload must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in payload.items():
        if key not in types:
            raise ConfigError(f"unknown config field {key!r} for {cls.__name__}")
        if not _TYPE_CHECKS[types[key]](value):
            raise ConfigError(f"config field {key!r} of {cls.__name__} must be "
                              f"{types[key]}, got {value!r}")


def _strict_build(cls, payload: dict, required):
    check_fields(cls, payload)
    for key in required:
        if key not in payload:
            raise ConfigError(f"missing required config field {key!r}")
    return cls(**payload).validate()
