"""LFT multibody modeling toolkit.

Assembles tree-structured rigid multibody systems under uniform
acceleration, solves the parameter-dependent equilibrium, and produces a
linearized state-space model as an exact Linear Fractional Transformation
of the uncertain, varying and design parameters.
"""

from mblft import assembly, bodies, joints, lft, modelfile, oracle, spatial
from mblft.assembly import (
    ExternalForce,
    LinearLftModel,
    MultibodyModel,
    RootSpec,
    assemble,
    modes,
    sample_model,
    sample_point,
)
from mblft.bodies import DynamicsRole, RigidBody
from mblft.joints import RevoluteJoint, RigidConnection
from mblft.lft import HalfTanParam, LftMatrix, Param
from mblft.modelfile import load_model

__all__ = [
    "assembly",
    "bodies",
    "joints",
    "lft",
    "modelfile",
    "oracle",
    "spatial",
    "ExternalForce",
    "LinearLftModel",
    "MultibodyModel",
    "RootSpec",
    "assemble",
    "modes",
    "sample_model",
    "sample_point",
    "DynamicsRole",
    "RigidBody",
    "RevoluteJoint",
    "RigidConnection",
    "HalfTanParam",
    "LftMatrix",
    "Param",
    "load_model",
]
