"""Conservative model-based offline RL at desk scale.

Trains a deterministic policy against the lower expectile of imagined
lambda-returns from a small dynamics ensemble, entirely in NumPy, plus
executable checks of the contraction theory behind the surrogate update.
"""

from .agent import (
    AgentConfig,
    AgentError,
    AgentState,
    DivergenceError,
    build_agent,
    evaluate_policy,
    load_agent,
    pretrain_bc,
    pretrain_fqe,
    save_agent,
    train_step,
)
from .config import ConfigError, RunConfig, load_matrix_config, load_run_config
from .datasets import OfflineDataset, collect_dataset, load_dataset, save_dataset
from .envs import EnvSpec, make_env_spec
from .expectile import (
    ExpectileError,
    ExpectileParam,
    InputValidationError,
    ScalarDistribution,
    SolverError,
    expectile_loss,
    expectile_of,
    expectile_weight,
    filtered_mean_estimate,
)
from .returns import lambda_return_batch
from .rng import stream
from .theory import (
    ScanConfig,
    ScanResult,
    TheoryError,
    exception_region_scan,
    lemma1_check,
    lemma2_check,
    monte_carlo_theorem_suite,
    theorem1_condition,
)
from .world_model import (
    EnsembleWorldModel,
    WorldModelConfig,
    WorldModelError,
    imagine_rollout,
    load_ensemble,
    save_ensemble,
    train_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AgentConfig",
    "AgentError",
    "AgentState",
    "ConfigError",
    "DivergenceError",
    "EnsembleWorldModel",
    "EnvSpec",
    "ExpectileError",
    "ExpectileParam",
    "InputValidationError",
    "OfflineDataset",
    "RunConfig",
    "ScalarDistribution",
    "ScanConfig",
    "ScanResult",
    "SolverError",
    "TheoryError",
    "WorldModelConfig",
    "WorldModelError",
    "build_agent",
    "collect_dataset",
    "evaluate_policy",
    "exception_region_scan",
    "expectile_loss",
    "expectile_of",
    "expectile_weight",
    "filtered_mean_estimate",
    "imagine_rollout",
    "lambda_return_batch",
    "lemma1_check",
    "lemma2_check",
    "load_agent",
    "load_dataset",
    "load_ensemble",
    "load_matrix_config",
    "load_run_config",
    "make_env_spec",
    "monte_carlo_theorem_suite",
    "pretrain_bc",
    "pretrain_fqe",
    "save_agent",
    "save_dataset",
    "save_ensemble",
    "stream",
    "theorem1_condition",
    "train_ensemble",
    "train_step",
]
