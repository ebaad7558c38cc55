"""residual_lab: KAN vs MLP residual branches inside a hard-constrained
recurrent integrator, with matching evaluation and sweep tooling."""

from .dynamics import (
    Dataset,
    DivergenceError,
    OscillatorSpec,
    duffing,
    generate_dataset,
    load_dataset,
    oscillator,
    save_dataset,
    vanderpol,
)
from .evaluation import (
    CandidateDictionary,
    GridSpec,
    SurfaceSample,
    SymbolicFit,
    bootstrap_ci,
    discovery_r2,
    export_surface,
    polynomial_dictionary,
    rollout_mse,
    sample_surface,
    stlsq_fit,
    test_mse,
)
from .harness import (
    ARCH_REGISTRY,
    ExperimentConfig,
    PresetConfig,
    SweepResult,
    aggregate_tables,
    builtin_configs,
    config_fingerprint,
    load_config_file,
    run_sweep,
    run_sweeps,
)
from .hybridcell import (
    HybridSystem,
    OracleResidual,
    oracle_system,
    rollout,
)
from .netcore import (
    KanArch,
    MlpArch,
    ResidualBranch,
    SplineSpec,
    init_params,
    l1_penalty,
    load_branch,
    new_branch,
    param_count,
    product_construction,
    save_branch,
)
from .splines import fit_coefficients, knot_vector
from .trainer import TrainConfig, TrainReport, adam_step, train, verify_gradients

__version__ = "0.1.0"
