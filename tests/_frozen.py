"""A model frozen at a parameter point: the reference of frozen
re-assembly (criterion 2) and of the oracle's evaluate-at-the-point
equivalence.  The library never builds one."""

import numpy as np

from mblft import lft
from mblft.assembly import ExternalForce, MultibodyModel
from mblft.bodies import RigidBody
from mblft.joints import RevoluteJoint


def _freeze_scalar(v, point):
    return lft.as_expr(v).value(point)


def freeze_model(model: MultibodyModel, point) -> MultibodyModel:
    """Copy of the model with every parameter fixed at the given point."""
    full = {name: p.nominal for name, p in model.parameters().items()}
    full.update(point)
    bodies = []
    for b in model.bodies:
        bodies.append(
            RigidBody(
                name=b.name,
                mass=_freeze_scalar(b.mass, full),
                inertia_cog=[
                    [_freeze_scalar(b.inertia_cog[i, j], full) for j in range(3)]
                    for i in range(3)
                ],
                cog_offset=[_freeze_scalar(v, full) for v in b.cog_offset],
                ports=tuple(
                    (n, [_freeze_scalar(v, full) for v in pos])
                    for n, pos in b.ports
                ),
                dynamics_role=b.dynamics_role,
                dof_mask=b.dof_mask,
            )
        )
    conns = []
    for c in model.connections:
        if isinstance(c, RevoluteJoint):
            angle = c.angle_eq
            if isinstance(angle, lft.HalfTanParam):
                angle = angle.angle_of(full[angle.param.name])
            conns.append(
                RevoluteJoint(
                    name=c.name,
                    parent_port=c.parent_port,
                    child_port=c.child_port,
                    axis=c.axis,
                    angle_eq=float(angle),
                    zero_dcm=c.zero_dcm,
                    shaft_inertia=c.shaft_inertia,
                    friction=c.friction,
                )
            )
        else:
            conns.append(c)
    forces = tuple(
        ExternalForce(
            f.body,
            f.port,
            tuple(
                _freeze_scalar(v, full)
                for v in np.asarray(f.force, dtype=object).reshape(3)
            )
            if not f.balance_weight
            else f.force,
            f.balance_weight,
        )
        for f in model.external_forces
    )
    return MultibodyModel(
        name=model.name,
        bodies=tuple(bodies),
        connections=tuple(conns),
        acceleration=model.acceleration,
        root=model.root,
        external_forces=forces,
        root_damping=model.root_damping,
        inputs=model.inputs,
        outputs=model.outputs,
    )
