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

from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryInputError

INPUT_UNITARITY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-10
_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MeshElement:
    """One two-port coupler acting on adjacent ports ``(port, port + 1)``."""

    port: int
    mixing_angle: float
    phase: float

    def __post_init__(self):
        if self.port < 0:
            raise ValueError(f"port must be non-negative, got {self.port}")
        if not -1e-12 <= self.mixing_angle <= np.pi / 2 + 1e-12:
            raise ValueError(
                f"mixing angle must lie in [0, pi/2], got {self.mixing_angle}"
            )

    def block(self) -> np.ndarray:
        """The 2x2 coupler matrix in the fixed convention."""
        c = np.cos(self.mixing_angle)
        s = np.sin(self.mixing_angle)
        ph = np.exp(1j * self.phase)
        return np.array([[ph * c, -s], [ph * s, c]])


@dataclass(frozen=True)
class BeamSplitterMesh:
    """Ordered coupler list plus output phases realizing one unitary."""

    dimension: int
    elements: tuple
    output_phases: np.ndarray

    def __post_init__(self):
        expected = self.dimension * (self.dimension - 1) // 2
        if len(self.elements) != expected:
            raise ValueError(
                f"a {self.dimension}x{self.dimension} mesh needs {expected} "
                f"elements, got {len(self.elements)}"
            )
        if len(self.output_phases) != self.dimension:
            raise ValueError("need one output phase per port")
        for el in self.elements:
            if el.port + 1 >= self.dimension:
                raise ValueError(
                    f"element on ports ({el.port}, {el.port + 1}) does not fit "
                    f"a dimension-{self.dimension} mesh"
                )


def element_unitary(element: MeshElement, dimension: int) -> np.ndarray:
    """Embed a coupler as an ``N x N`` unitary (identity off its port pair)."""
    full = np.eye(dimension, dtype=complex)
    i = element.port
    full[i : i + 2, i : i + 2] = element.block()
    return full


def reconstruct(mesh: BeamSplitterMesh) -> np.ndarray:
    """Multiply out a mesh: elements in application order, phases last.

    Each coupler mixes only its two rows, so the product costs O(N^3)
    rather than the O(N^5) of multiplying full embeddings.
    """
    u = np.eye(mesh.dimension, dtype=complex)
    for el in mesh.elements:
        rows = slice(el.port, el.port + 2)
        u[rows] = el.block() @ u[rows]
    return np.exp(1j * mesh.output_phases)[:, None] * u


def _solve_right(a: complex, b: complex):
    """Angles so that right-multiplying columns (c, c+1) by T† nulls ``a``.

    For row entries ``(a, b)`` the mixed entry is
    ``a e^{-i phi} cos(theta) - b sin(theta)``.
    """
    if abs(a) == 0.0:
        return 0.0, 0.0
    if abs(b) == 0.0:
        return np.pi / 2, 0.0
    theta = np.arctan2(abs(a), abs(b))
    phi = np.angle(a) - np.angle(b)
    return theta, phi % _TWO_PI


def _solve_left(a: complex, b: complex):
    """Angles so that left-multiplying rows (r-1, r) by T nulls ``b``.

    For column entries ``(a, b)`` the mixed entry is
    ``e^{i phi} sin(theta) a + cos(theta) b``.
    """
    if abs(b) == 0.0:
        return 0.0, 0.0
    if abs(a) == 0.0:
        return np.pi / 2, 0.0
    theta = np.arctan2(abs(b), abs(a))
    phi = np.angle(-b) - np.angle(a)
    return theta, phi % _TWO_PI


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
    right_elements = []  # canonical couplers T; applied to work as T†
    left_ops = []  # (port, theta, phi) row mixes in sweep order

    for i in range(1, n):
        if i % 2 == 1:
            for j in range(i):
                row = n - 1 - j
                col = i - 1 - j
                theta, phi = _solve_right(work[row, col], work[row, col + 1])
                el = MeshElement(col, theta, phi)
                work[:, col : col + 2] = work[:, col : col + 2] @ el.block().conj().T
                right_elements.append(el)
        else:
            for j in range(1, i + 1):
                row = n + j - i - 1
                col = j - 1
                theta, phi = _solve_left(work[row - 1, col], work[row, col])
                el = MeshElement(row - 1, theta, phi)
                work[row - 1 : row + 1, :] = el.block() @ work[row - 1 : row + 1, :]
                left_ops.append(el)

    # work is now diagonal: L_q ... L_1 U T_1† ... T_p† = D.  Rebuild
    # U = (L_1† ... L_q†) D (T_p ... T_1) and push D left through each L†:
    # L(theta, phi)† diag(e^{i p1}, e^{i p2})
    #   = diag(e^{i(p2 - phi + pi)}, e^{i p2}) T(theta, p1 - p2 + pi).
    phases = np.angle(np.diag(work))
    commuted = []
    for el in reversed(left_ops):
        p = el.port
        psi1, psi2 = phases[p], phases[p + 1]
        if el.mixing_angle == 0.0:
            # uncoupled ports: L† D is already diagonal, keep the clean gauge
            commuted.append(MeshElement(p, 0.0, 0.0))
            phases[p] = psi1 - el.phase
        else:
            commuted.append(
                MeshElement(p, el.mixing_angle, (psi1 - psi2 + np.pi) % _TWO_PI)
            )
            phases[p] = psi2 - el.phase + np.pi
            phases[p + 1] = psi2

    mesh = BeamSplitterMesh(
        dimension=n,
        elements=tuple(right_elements + commuted),
        output_phases=np.asarray(phases) % _TWO_PI,
    )
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
    for el in mesh.elements:
        lines.append(f"{el.port} {el.mixing_angle:.17g} {el.phase:.17g}")
    lines.append(" ".join(f"{p:.17g}" for p in mesh.output_phases))
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
    elements = []
    for ln in lines[1 : 1 + expected]:
        port, theta, phi = ln.split()
        elements.append(MeshElement(int(port), float(theta), float(phi)))
    phases = np.array([float(tok) for tok in lines[-1].split()])
    return BeamSplitterMesh(dimension=n, elements=tuple(elements), output_phases=phases)
