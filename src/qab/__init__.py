"""Numerical verification of bound-state scattering with an integrable boundary.

The package builds the q-oscillator bound-state representations of the
quantum affine symmetry of the deformed Hubbard chain, the twisted boundary
charges that survive the reflection, and the bulk S- and boundary K-matrices
those symmetries determine.  Every construction ships with residual checks
runnable from the command line (``qab <suite>``) or from pytest.
"""

__version__ = "0.1.0"

from .kinematics import (
    Kinematics,
    KinematicsError,
    ModelParams,
    make_kinematics,
    on_shell,
    reflect_kinematics,
    solve_shortening,
)

__all__ = [
    "Kinematics",
    "KinematicsError",
    "ModelParams",
    "make_kinematics",
    "on_shell",
    "reflect_kinematics",
    "solve_shortening",
    "__version__",
]
