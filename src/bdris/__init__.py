"""Beamforming design and simulation toolkit for beyond-diagonal RIS."""

__version__ = "0.1.0"

from .architectures import (
    ArchitectureKind,
    BdRisArchitecture,
    diagonal_single_tag_amplitude,
    fully_connected_single_tag_amplitude,
    optimal_diagonal_single_tag,
    optimal_fully_connected_single_tag,
    validate,
)
from .channel import (
    ChannelRealization,
    Device,
    FadingModel,
    NetworkGeometry,
    PathLossModel,
    Rectangle,
    ScenarioConfig,
    generate_realization,
    path_loss_db,
    random_waypoint_step,
    sample_fading,
    scenario_realizations,
)
from .manifold import BlockStructure, UnitaryMatrix, project_to_unitary, random_unitary
from .optim import (
    OptimizerConfig,
    OptimizerResult,
    ao_manifold,
    benchmark,
    channel_gain_objective,
    euclidean_gradient,
    fp_sum_rate,
    mean_sum_rate,
    qnm_manifold,
    rzf_one_shot,
)
from .qml import (
    CircuitParams,
    HybridModel,
    StateVector,
    SyntheticBeamDataset,
    amplitude_embed,
    confusion_matrix,
    distance_accuracy,
    entangling_layer,
    generate_synthetic_dataset,
    measure_z,
    parameter_shift_grad,
    train_hybrid,
)
from .seeding import derive_seed, derived_rng
