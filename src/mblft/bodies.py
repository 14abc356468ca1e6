"""Rigid bodies: mass properties, ports and the direct dynamics at a port.

The equilibrium wrenches and the linearized dynamics of a body are
formulated in ``mblft.assembly`` (steps 2 and 3), which builds each
body's direct dynamics at its reference port once.

Conventions
-----------
* All body quantities are expressed in the body reference frame R_b.
* A body is located by a *reference port* (the origin of R_b); every other
  port and the centre of gravity are given relative to it, in R_b.
* ``a`` is the uniform acceleration of the working reference frame
  (for gravity g pointing along -z, a = +g z so that a static body feels
  its weight -m g z through W = D (x'' + a6)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from mblft import lft
from mblft import spatial as sp

__all__ = [
    "DynamicsRole",
    "RigidBody",
    "BodyError",
    "check_mass_properties",
    "check_port_position",
    "direct_dynamics_cog",
    "direct_dynamics_at_port",
]

ALL_DOF = (0, 1, 2, 3, 4, 5)


class BodyError(ValueError):
    pass


class DynamicsRole(Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


def _scalar_grid(exprs) -> list[dict[str, float]]:
    """Nominal point plus all parameter-box corners of the given exprs."""
    params: dict[str, lft.Param] = {}
    for e in exprs:
        for p in lft.as_expr(e).params():
            params[p.name] = p
    names = sorted(params)
    points = [{n: params[n].nominal for n in names}]
    if names:
        for mask in range(2 ** len(names)):
            pt = {}
            for i, n in enumerate(names):
                p = params[n]
                pt[n] = p.lower if (mask >> i) & 1 else p.upper
            points.append(pt)
    return points


def _as_scalar_matrix(entries, shape) -> np.ndarray:
    arr = np.array(entries, dtype=object)
    if arr.shape != shape:
        raise BodyError(f"expected shape {shape}, got {arr.shape}")
    # a raw Param has no arithmetic; as an Expr it joins object-array sums
    for idx, v in np.ndenumerate(arr):
        if isinstance(v, lft.Param):
            arr[idx] = lft.Ref(v)
    return arr


def check_mass_properties(body, point, mass: float, inertia=None) -> None:
    """Raise BodyError unless a body's numeric mass properties at ``point``
    obey the rules: mass > 0, or >= 0 in the inverse role; and, when
    ``inertia`` is given, a symmetric positive semidefinite inertia that is
    not zero on a forward body with all six DOF (a point mass)."""
    # Inverse-dynamics bodies never require an invertible mass matrix, so a
    # vanishing mass at a box corner (e.g. a releasable ballast) is
    # acceptable there; forward bodies must stay strictly positive.
    if body.dynamics_role is DynamicsRole.INVERSE:
        mass_ok, rule = mass >= 0.0, "non-negative"
    else:
        mass_ok, rule = mass > 0.0, "positive"
    if not mass_ok:
        raise BodyError(
            f"body {body.name!r}: mass must be {rule} (got {mass} at {point})"
        )
    if inertia is None:
        return
    if np.max(np.abs(inertia - inertia.T)) > 1e-12:
        raise BodyError(
            f"body {body.name!r}: inertia must be symmetric (at {point})"
        )
    eigs = np.linalg.eigvalsh(0.5 * (inertia + inertia.T))
    if np.min(eigs) < -1e-12:
        raise BodyError(
            f"body {body.name!r}: inertia must be positive semidefinite "
            f"(at {point})"
        )
    if (
        body.dynamics_role is DynamicsRole.FORWARD
        and np.max(np.abs(inertia)) == 0.0
        and body.dof_mask == ALL_DOF
    ):
        raise BodyError(
            f"body {body.name!r}: a point mass (zero inertia) can only "
            "be used in the inverse dynamics role or with rotational "
            f"DOF masked out (at {point})"
        )


def check_port_position(body, port: str, position, point) -> None:
    """Raise BodyError unless a port position at ``point`` is finite."""
    if not np.all(np.isfinite(position)):
        raise BodyError(
            f"body {body.name!r}: port {port!r} position must be a "
            f"finite 3-vector (at {point})"
        )


@dataclass(frozen=True)
class RigidBody:
    """Rigid body with possibly Param-valued mass properties.

    ``inertia_cog`` is taken about the centre of gravity, in R_b axes.
    ``cog_offset`` and port positions are vectors from the reference port,
    in R_b.
    """

    name: str
    mass: object
    inertia_cog: object
    cog_offset: object
    ports: tuple = ()
    dynamics_role: DynamicsRole = DynamicsRole.FORWARD
    dof_mask: tuple = ALL_DOF

    def __post_init__(self):
        object.__setattr__(
            self, "inertia_cog", _as_scalar_matrix(self.inertia_cog, (3, 3))
        )
        object.__setattr__(
            self, "cog_offset", _as_scalar_matrix(self.cog_offset, (3,))
        )
        ports = tuple(
            (str(n), _as_scalar_matrix(p, (3,))) for n, p in self.ports
        )
        names = [n for n, _ in ports]
        if len(set(names)) != len(names):
            raise BodyError(f"body {self.name!r}: duplicate port names")
        for n, p in ports:
            nominal = {q.name: q.nominal for v in p for q in lft.as_expr(v).params()}
            check_port_position(
                self, n, [lft.as_expr(v).value(nominal) for v in p], nominal
            )
        object.__setattr__(self, "ports", ports)
        mask = tuple(sorted(set(int(i) for i in self.dof_mask)))
        if not mask or any(i < 0 or i > 5 for i in mask):
            raise BodyError(f"body {self.name!r}: dof_mask must be within 0..5")
        if mask != ALL_DOF and self.dynamics_role is not DynamicsRole.FORWARD:
            raise BodyError(
                f"body {self.name!r}: dof_mask applies to forward role only"
            )
        object.__setattr__(self, "dof_mask", mask)
        self._check_mass_properties()

    # -- validation --------------------------------------------------------
    def _check_mass_properties(self):
        """The mass and inertia rules at the nominal point and at every box
        corner of the mass and inertia parameters.  A value whose arithmetic
        overflows or divides by zero at one of those points is a BodyError
        that names the body, the quantity and the point, with the
        ArithmeticError as its cause."""
        exprs = [self.mass] + [self.inertia_cog[i, j] for i in range(3) for j in range(3)]
        for pt in _scalar_grid(exprs):
            values = []
            for what, value_at in (("mass", self.mass_value), ("inertia", self.inertia_value)):
                try:
                    values.append(value_at(pt))
                except ArithmeticError as e:
                    raise BodyError(
                        f"body {self.name!r}: {what} cannot be evaluated at {pt}: {e}"
                    ) from e
            check_mass_properties(self, pt, *values)

    # -- accessors ---------------------------------------------------------
    def port_position(self, port: str) -> np.ndarray:
        """Port position relative to the reference port (Scalar entries)."""
        if port == "ref":
            return np.zeros(3, dtype=object)
        for n, p in self.ports:
            if n == port:
                return p
        raise BodyError(f"body {self.name!r} has no port {port!r}")

    def port_position_lft(self, port: str) -> lft.LftMatrix:
        return sp.as_lft(list(self.port_position(port)))

    def mass_value(self, point) -> float:
        return lft.as_expr(self.mass).value(point)

    def inertia_value(self, point) -> np.ndarray:
        return np.array(
            [
                [lft.as_expr(self.inertia_cog[i, j]).value(point) for j in range(3)]
                for i in range(3)
            ],
            dtype=float,
        )


# ---------------------------------------------------------------------------
# Direct dynamics
# ---------------------------------------------------------------------------


def direct_dynamics_cog(body: RigidBody) -> lft.LftMatrix:
    """D at the centre of gravity: blockdiag(m I3, J_cog)."""
    m = lft.lift_scalar(body.mass)
    m3 = lft.blockdiag([m, m, m])
    j = lft.lift_matrix([list(row) for row in body.inertia_cog])
    return lft.blockdiag([m3, j])


def direct_dynamics_at_port(body: RigidBody, port: str = "ref") -> lft.LftMatrix:
    """The 6x6 mass/inertia operator D of a body at one of its ports,
    transported from the CoG by the tau congruence.  D = tau^T D_cog tau is
    symmetric wherever the CoG inertia is, and ``check_mass_properties``
    holds that symmetric at the nominal point and at every box corner."""
    offset = np.asarray(body.port_position(port), dtype=object) - body.cog_offset
    tau = sp.tau_lft(list(offset))
    return tau.T @ direct_dynamics_cog(body) @ tau


def _d_numeric(offset, mass: float, inertia) -> np.ndarray:
    """Numeric D of a mass and CoG inertia at the port ``offset`` from the
    CoG."""
    tau = sp.tau_matrix(offset)
    d_cog = np.zeros((6, 6))
    d_cog[:3, :3] = mass * np.eye(3)
    d_cog[3:, 3:] = inertia
    return tau.T @ d_cog @ tau
