"""An N-link chain, written as a model file: the deep tree on which
assembly cost and Delta size are measured as N grows.

Link i has mass ``m<i>`` in [1.9, 2.1] kg, CoG inertia diag(0.1, 0, 0.1),
CoG [0, 0.5, 0] and tip [0, 1, 0].  Joint ``j<i>`` turns about x by the
angle ``t<i>``: [60, 120] deg about 90 for the first joint, [-30, 30] deg
about 0 for the others.  The root is grounded under 9.81 m/s^2 of gravity.
"""


def write_chain(directory, n: int):
    """Write the chain of ``n`` links to ``chain<n>.yaml`` in ``directory``
    and return its path."""
    params, bodies, joints = [], [], []
    for i in range(1, n + 1):
        nominal, lower, upper = (90.0, 60.0, 120.0) if i == 1 else (0.0, -30.0, 30.0)
        params += [
            f"  m{i}: {{kind: uncertain, nominal: 2.0, lower: 1.9, upper: 2.1, unit: kg}}",
            f"  t{i}: {{kind: varying, angle: true, nominal: {nominal}, "
            f"lower: {lower}, upper: {upper}, unit: deg}}",
        ]
        bodies += [
            f"  - name: link{i}",
            "    role: inverse",
            f"    mass: {{value: m{i}, unit: kg}}",
            "    inertia: {value: [0.1, 0.0, 0.1], unit: kg*m^2}",
            "    cog: {value: [0.0, 0.5, 0.0], unit: m}",
            "    ports:",
            "      tip: {value: [0.0, 1.0, 0.0], unit: m}",
        ]
        joints += [
            "  - type: revolute",
            f"    name: j{i}",
            f"    parent: {'ground.ref' if i == 1 else f'link{i - 1}.tip'}",
            f"    child: link{i}.ref",
            "    axis: [1.0, 0.0, 0.0]",
            f"    angle: t{i}",
        ]
    path = directory / f"chain{n}.yaml"
    path.write_text("\n".join(
        [f"name: chain{n}", "", "parameters:", *params, "", "bodies:", *bodies,
         "", "connections:", *joints, "",
         "boundary:",
         "  acceleration: {value: [0.0, 0.0, 9.81], unit: m/s^2}",
         "", "root:", "  kind: ground", ""]
    ))
    return path
