"""Scaled-gradient adversarial attacks, sign-based baselines, and
game-theoretic transferability analysis at desk scale."""

from .numerics import ImageShape, finite_diff_gradient, finite_diff_hessian, gaussian_kernel_2d, make_rng
from .models import (
    LabeledDataset,
    Model,
    TrainConfig,
    accuracy,
    build_model,
    load_model,
    save_model,
    train_classifier,
)
from .attacks import (
    AttackConfig,
    AttackResult,
    AdaptiveStep,
    Dim,
    Emi,
    FixedScaleStep,
    SignStep,
    Sim,
    Tim,
    Vt,
    project,
    run_attack,
)
from .generator import (
    GeneratorTrainConfig,
    ScalingFactorGenerator,
    load_generator,
    run_attack_adaptive,
    save_generator,
    train_generator,
)
from .interaction import (
    AnalyticGame,
    CoefficientSchedule,
    InteractionEstimate,
    coefficients,
    expected_interaction_sampled,
    predicted_delta,
    predicted_interaction,
    shapley_interaction_exact,
    shapley_interaction_matrix_exact,
    shapley_value_exact,
    simulate_raw,
)
from .harness import (
    ExperimentConfig,
    MetricsRow,
    compute_metrics,
    load_cifar_binary,
    load_idx,
    run_experiment,
    synth_dataset,
)

__version__ = "0.1.0"
