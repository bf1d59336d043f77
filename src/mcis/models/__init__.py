"""Model layer: Feynman-Kac abstraction, concrete models, oracles."""

from .abc_model import (
    AbcModel,
    GaussianLocationAbc,
    gaussian_abc_likelihood,
)
from .diffusion import (
    ConstantDrift,
    CoupledEulerModel,
    DiffusionFamily,
    DriftDiffusion,
    EulerDiffusionModel,
    GeometricBrownian,
    LinearDrift,
    coupled_euler_interval,
    euler_step,
    ou_exact_lgssm,
    ou_level_lgssm,
)
from .fk import FeynmanKacModel
from .lgssm import (
    KalmanLikelihood,
    LgssmFamily,
    LinearGaussianSSM,
    kalman_loglik,
    kalman_smoother_means,
    lgssm_feynman_kac,
)

__all__ = [
    "FeynmanKacModel",
    "LinearGaussianSSM",
    "LgssmFamily",
    "KalmanLikelihood",
    "kalman_loglik",
    "kalman_smoother_means",
    "lgssm_feynman_kac",
    "DriftDiffusion",
    "LinearDrift",
    "GeometricBrownian",
    "ConstantDrift",
    "EulerDiffusionModel",
    "CoupledEulerModel",
    "DiffusionFamily",
    "euler_step",
    "coupled_euler_interval",
    "ou_level_lgssm",
    "ou_exact_lgssm",
    "AbcModel",
    "GaussianLocationAbc",
    "gaussian_abc_likelihood",
]
