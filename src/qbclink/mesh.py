"""Rectangular meshes of two-port beam-splitters realizing unitary matrices.

Any ``N x N`` unitary factors into ``N(N-1)/2`` couplers on adjacent port
pairs followed by one phase shifter per output port.  The factorization works
by sweeping Givens-style nulling operations along anti-diagonals, alternating
column mixes (applied from the right) and row mixes (applied from the left),
then commuting the residual diagonal phases out to the output.

Coupler convention, fixed so serialized meshes are portable::

    T(theta, phi) = [[exp(i phi) cos(theta), -sin(theta)],
                     [exp(i phi) sin(theta),  cos(theta)]]

with ``theta`` in [0, pi/2] and ``phi`` in [0, 2 pi).  ``reconstruct``
applies the couplers to their row pairs in application order and the output
phases last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonUnitaryInputError

INPUT_UNITARITY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-10
_TWO_PI = 2.0 * np.pi
_ANGLE_SLACK = 1e-12  # mixing angles may overshoot [0, pi/2] by this much


def _block(theta: float, phi: float) -> np.ndarray:
    """``T(theta, phi)``; ``math`` scalars are bit-equal to numpy's here."""
    c, s, ph = math.cos(theta), math.sin(theta), complex(math.cos(phi), math.sin(phi))
    return np.array([[ph * c, -s], [ph * s, c]])


@dataclass(frozen=True)
class MeshElement:
    """One two-port coupler acting on adjacent ports ``(port, port + 1)``."""

    port: int
    mixing_angle: float
    phase: float

    def __post_init__(self):
        if self.port < 0:
            raise ValueError(f"port must be non-negative, got {self.port}")
        if not -_ANGLE_SLACK <= self.mixing_angle <= np.pi / 2 + _ANGLE_SLACK:
            raise ValueError(
                f"mixing angle must lie in [0, pi/2], got {self.mixing_angle}"
            )
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")

    def block(self) -> np.ndarray:
        """The 2x2 coupler matrix in the fixed convention."""
        return _block(self.mixing_angle, self.phase)


@dataclass(frozen=True, slots=True)
class BeamSplitterMesh:
    """Couplers in application order plus output phases realizing one unitary;
    coupler ``k`` is ``MeshElement(ports[k], mixing_angles[k], phases[k])``."""

    dimension: int
    ports: np.ndarray
    mixing_angles: np.ndarray
    phases: np.ndarray
    output_phases: np.ndarray

    def __post_init__(self):
        n = self.dimension
        ports = np.asarray(self.ports)
        if ports.size and ports.dtype.kind not in "iu":
            raise ValueError(f"ports must be integers, got {ports.dtype}")
        object.__setattr__(self, "ports", np.asarray(ports, dtype=int))
        for name in ("mixing_angles", "phases", "output_phases"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        expected = n * (n - 1) // 2
        if not self.ports.shape == self.mixing_angles.shape == self.phases.shape == (expected,):
            raise ValueError(
                f"a {n}x{n} mesh needs {expected} elements, got {len(self.ports)}"
            )
        if self.output_phases.shape != (n,):
            raise ValueError("need one output phase per port")
        if expected and not 0 <= self.ports.min() <= self.ports.max() < n - 1:
            raise ValueError(f"a dimension-{n} mesh has couplers on ports 0..{n - 2} only")
        a = self.mixing_angles
        if not np.all((a >= -_ANGLE_SLACK) & (a <= np.pi / 2 + _ANGLE_SLACK)):
            raise ValueError("mixing angles must lie in [0, pi/2]")
        if not (np.isfinite(self.phases).all() and np.isfinite(self.output_phases).all()):
            raise ValueError("coupler and output phases must be finite")

    def __eq__(self, other):
        # the generated __eq__ takes the truth value of array comparisons, which raises
        return isinstance(other, BeamSplitterMesh) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def elements(self) -> tuple:
        """The couplers as ``MeshElement`` objects, built on each access."""
        return tuple(map(MeshElement, self.ports.tolist(),
                         self.mixing_angles.tolist(), self.phases.tolist()))


def element_unitary(element: MeshElement, dimension: int) -> np.ndarray:
    """Embed a coupler as an ``N x N`` unitary (identity off its port pair)."""
    full = np.eye(dimension, dtype=complex)
    i = element.port
    full[i : i + 2, i : i + 2] = element.block()
    return full


def reconstruct(mesh: BeamSplitterMesh) -> np.ndarray:
    """Multiply out a mesh: elements in application order, phases last.

    Couplers on disjoint port pairs commute exactly, so each coupler joins
    the first layer after every earlier coupler sharing one of its ports, and
    one batched product applies a whole layer.  Each row sees the same
    operations in the same order as in a coupler-by-coupler product, so the
    result is bit-identical to it, at O(N^3) cost.
    """
    depth = [0] * (mesh.dimension + 1)
    layer = []
    for p in mesh.ports.tolist():
        d = depth[p] if depth[p] > depth[p + 1] else depth[p + 1]
        depth[p] = depth[p + 1] = d + 1
        layer.append(d)
    layer = np.array(layer, dtype=int)
    order = layer.argsort(kind="stable")
    theta, ph = mesh.mixing_angles[order], np.exp(1j * mesh.phases[order])
    c, s = np.cos(theta), np.sin(theta)
    blocks = np.empty((len(order), 2, 2), dtype=complex)
    blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = ph * c, -s, ph * s, c
    rows = mesh.ports[order, None] + np.arange(2)
    u = np.eye(mesh.dimension, dtype=complex)
    bounds = [0, *np.bincount(layer, minlength=1).cumsum().tolist()]
    for start, stop in zip(bounds, bounds[1:]):
        u[rows[start:stop]] = blocks[start:stop] @ u[rows[start:stop]]
    return np.exp(1j * mesh.output_phases)[:, None] * u


def _solve(x: complex, y: complex):
    """Angles of the coupler whose mix of ``(x, y)`` nulls ``x``: its entry
    ``x e^{-i phi} cos(theta) - y sin(theta)`` vanishes."""
    ax, ay = abs(x), abs(y)
    if ax == 0.0:
        return 0.0, 0.0
    if ay == 0.0:
        return np.pi / 2, 0.0
    # numpy's arctan2 is not math.atan2 bit for bit; one call for all three
    theta, arg_x, arg_y = np.arctan2((ax, x.imag, y.imag), (ay, x.real, y.real)).tolist()
    return theta, (arg_x - arg_y) % _TWO_PI


def unitarity_residual(u: np.ndarray) -> float:
    """Max-entry deviation of ``U U†`` from the identity."""
    u = np.asarray(u)
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def clements_decompose(u: np.ndarray) -> BeamSplitterMesh:
    """Factor a unitary into a rectangular coupler mesh.

    Parameters
    ----------
    u : ndarray
        Square unitary; inputs failing
        ``max|U U† - I| <= INPUT_UNITARITY_TOL`` are rejected.
        The gate is looser than the reconstruction tolerance so slightly noisy
        SVD factors still decompose.

    Returns
    -------
    BeamSplitterMesh
        Mesh whose reconstruction matches ``u`` to about 1e-10 max-entry.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NonUnitaryInputError(float("inf"))
    residual = unitarity_residual(u)
    if residual > INPUT_UNITARITY_TOL:
        raise NonUnitaryInputError(residual)

    n = u.shape[0]
    work = u.copy()
    # (port, theta, phi) of the couplers in application order (the column
    # mixes, applied to work as T†, then the commuted row mixes) and of the
    # row mixes T in sweep order
    couplers, left = [], []

    for i in range(1, n):
        if i % 2 == 1:
            for j in range(i):
                col = i - 1 - j
                a, b = work[n - 1 - j, col : col + 2].tolist()
                theta, phi = _solve(a, b)
                work[:, col : col + 2] = work[:, col : col + 2] @ _block(theta, phi).conj().T
                couplers.append((col, theta, phi))
        else:
            for j in range(1, i + 1):
                row = n + j - i - 1
                a, b = work[row - 1 : row + 1, j - 1].tolist()
                # T puts e^{i phi} sin(theta) a + cos(theta) b in row r: it nulls b
                # with the angles that null -b against a
                theta, phi = _solve(-b, a)
                work[row - 1 : row + 1] = _block(theta, phi) @ work[row - 1 : row + 1]
                left.append((row - 1, theta, phi))

    # work is now diagonal: L_q ... L_1 U T_1† ... T_p† = D.  Rebuild
    # U = (L_1† ... L_q†) D (T_p ... T_1) and push D left through each L†:
    # L(theta, phi)† diag(e^{i p1}, e^{i p2})
    #   = diag(e^{i(p2 - phi + pi)}, e^{i p2}) T(theta, p1 - p2 + pi).
    phases = np.angle(np.diag(work)).tolist()
    for p, theta, phi in reversed(left):
        psi1, psi2 = phases[p], phases[p + 1]
        if theta == 0.0:
            # uncoupled ports: L† D is already diagonal, keep the clean gauge
            couplers.append((p, 0.0, 0.0))
            phases[p] = psi1 - phi
        else:
            couplers.append((p, theta, (psi1 - psi2 + np.pi) % _TWO_PI))
            phases[p] = psi2 - phi + np.pi
            phases[p + 1] = psi2

    ports, angles, coupler_phases = zip(*couplers) if couplers else ((), (), ())
    mesh = BeamSplitterMesh(n, np.array(ports, dtype=int), angles, coupler_phases,
                            np.array(phases) % _TWO_PI)
    # The mesh is exactly unitary, so it can only match the input up to the
    # input's own unitarity residual; scale the self-check accordingly.
    gap = float(np.max(np.abs(reconstruct(mesh) - u)))
    if gap > max(RECONSTRUCTION_TOL, 10.0 * residual):
        raise RuntimeError(
            f"mesh decomposition failed to reconstruct its input "
            f"(residual {gap:.3e})"
        )
    return mesh


def mesh_to_text(mesh: BeamSplitterMesh) -> str:
    """Serialize: dimension line, one ``port theta phi`` line per element,
    then a line of output phases."""
    lines = [str(mesh.dimension)]
    lines += [f"{p} {theta:.17g} {phi:.17g}" for p, theta, phi in zip(
        mesh.ports.tolist(), mesh.mixing_angles.tolist(), mesh.phases.tolist())]
    lines.append(" ".join(f"{p:.17g}" for p in mesh.output_phases.tolist()))
    return "\n".join(lines) + "\n"


def mesh_from_text(text: str) -> BeamSplitterMesh:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty mesh file")
    n = int(lines[0])
    expected = n * (n - 1) // 2
    if len(lines) != expected + 2:
        raise ValueError(
            f"mesh of dimension {n} needs {expected} element lines plus a "
            f"phase line, got {len(lines) - 1} lines"
        )
    ports, angles, phases = [], [], []
    for ln in lines[1 : 1 + expected]:
        port, theta, phi = ln.split()
        ports.append(int(port))
        angles.append(float(theta))
        phases.append(float(phi))
    output_phases = [float(tok) for tok in lines[-1].split()]
    return BeamSplitterMesh(n, np.array(ports, dtype=int), angles, phases, output_phases)
