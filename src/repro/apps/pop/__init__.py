"""POP: the Parallel Ocean Program mini-app (paper Section III.A, Fig. 4)."""

from .baroclinic import baroclinic_step_numpy, BAROCLINIC_WORK, BaroclinicWork
from .barotropic import BarotropicConfig, TENTH_DEGREE_BAROTROPIC
from .des_replay import replay_steps
from .grid import decompose, Imbalance, imbalance, PopGrid, TENTH_DEGREE
from .model import (
    MAX_BGP_PROCESSES,
    POP_SUSTAINED_GFLOPS,
    PopModel,
    PopResult,
    seconds_per_simday_to_syd,
    STEPS_PER_SIMDAY,
)
from .solvers import (
    CG_SIGNATURE,
    cg_solve,
    CHRONGEAR_SIGNATURE,
    chrongear_solve,
    laplacian_2d,
    SolverSignature,
)

__all__ = [
    "PopGrid",
    "TENTH_DEGREE",
    "decompose",
    "imbalance",
    "Imbalance",
    "laplacian_2d",
    "cg_solve",
    "chrongear_solve",
    "SolverSignature",
    "CG_SIGNATURE",
    "CHRONGEAR_SIGNATURE",
    "baroclinic_step_numpy",
    "BaroclinicWork",
    "BAROCLINIC_WORK",
    "BarotropicConfig",
    "TENTH_DEGREE_BAROTROPIC",
    "PopModel",
    "PopResult",
    "POP_SUSTAINED_GFLOPS",
    "STEPS_PER_SIMDAY",
    "MAX_BGP_PROCESSES",
    "seconds_per_simday_to_syd",
    "replay_steps",
]
