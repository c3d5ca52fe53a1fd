"""Conservative model-based offline RL at desk scale.

Trains a deterministic policy against the lower expectile of imagined
lambda-returns from a small dynamics ensemble, entirely in NumPy, plus
executable checks of the contraction theory behind the surrogate update.

The public names below load their submodule on first access (PEP 562), so
importing one submodule, such as `leq_lab.cli`, loads only what it needs.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "agent": (
        "AgentConfig",
        "AgentError",
        "AgentState",
        "DivergenceError",
        "build_agent",
        "evaluate_policy",
        "load_agent",
        "pretrain_bc",
        "pretrain_fqe",
        "save_agent",
        "train_step",
    ),
    "config": ("ConfigError", "RunConfig", "load_matrix_config", "load_run_config"),
    "datasets": ("OfflineDataset", "collect_dataset", "load_dataset", "save_dataset"),
    "envs": ("EnvSpec", "make_env_spec"),
    "expectile": (
        "ExpectileError",
        "ExpectileParam",
        "InputValidationError",
        "ScalarDistribution",
        "SolverError",
        "expectile_of",
        "expectile_weight",
        "filtered_mean_estimate",
    ),
    "returns": ("lambda_return_batch",),
    "rng": ("stream",),
    "theory": (
        "ScanConfig",
        "ScanResult",
        "TheoryError",
        "exception_region_scan",
        "lemma1_check",
        "lemma2_check",
        "monte_carlo_theorem_suite",
        "theorem1_condition",
    ),
    "world_model": (
        "EnsembleWorldModel",
        "WorldModelConfig",
        "WorldModelError",
        "imagine_rollout",
        "load_ensemble",
        "save_ensemble",
        "train_ensemble",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
