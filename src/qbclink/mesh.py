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
from itertools import chain

import numpy as np

from .errors import NonUnitaryInputError

INPUT_UNITARITY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-10
_TWO_PI = 2.0 * np.pi
_ANGLE_SLACK = 1e-12  # mixing angles may overshoot [0, pi/2] by this much


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
        """The 2x2 coupler matrix in the fixed convention (``math`` scalars
        are bit-equal to numpy's here)."""
        c, s = math.cos(self.mixing_angle), math.sin(self.mixing_angle)
        ph = complex(math.cos(self.phase), math.sin(self.phase))
        return np.array([[ph * c, -s], [ph * s, c]])


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


def reconstruct(mesh: BeamSplitterMesh) -> np.ndarray:
    """Multiply out a mesh: elements in application order, phases last.

    Couplers on disjoint port pairs commute exactly, so each coupler joins
    the first layer after every earlier coupler sharing one of its ports, and
    one batched product applies a whole layer.  A layer whose ports run
    ``p, p+2, ..., p+2(k-1)`` (every layer of a Clements mesh) covers rows
    ``p .. p+2k-1`` and is applied through a view of them; any other layer
    gathers and scatters its rows.  Either way each row sees the same
    operations in the same order as in a coupler-by-coupler product, so the
    result is bit-identical to it, at O(N^3) cost.
    """
    n = mesh.dimension
    depth = [0] * (n + 1)
    layer = []
    for p in mesh.ports.tolist():
        d = depth[p] if depth[p] > depth[p + 1] else depth[p + 1]
        depth[p] = depth[p + 1] = d + 1
        layer.append(d)
    order = np.lexsort((mesh.ports, layer))
    theta, ph = mesh.mixing_angles[order], np.exp(1j * mesh.phases[order])
    c, s = np.cos(theta), np.sin(theta)
    blocks = np.empty((len(order), 2, 2), dtype=complex)
    blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = ph * c, -s, ph * s, c
    ports = mesh.ports[order]
    sorted_ports = ports.tolist()
    u = np.eye(n, dtype=complex)
    bounds = [0, *np.bincount(layer).cumsum().tolist()]
    for start, stop in zip(bounds, bounds[1:]):
        p, k = sorted_ports[start], stop - start
        if sorted_ports[stop - 1] - p == 2 * (k - 1):  # sorted ports of a layer step by >= 2
            rows = u[p : p + 2 * k].reshape(k, 2, n)
            rows[...] = blocks[start:stop] @ rows
        else:
            rows = ports[start:stop, None] + np.arange(2)
            u[rows] = blocks[start:stop] @ u[rows]
    return np.exp(1j * mesh.output_phases)[:, None] * u


def _solve(x: complex, y: complex, ys, xs, out):
    """Angles of the coupler whose mix of ``(x, y)`` nulls ``x``: its entry
    ``x e^{-i phi} cos(theta) - y sin(theta)`` vanishes.  ``ys``, ``xs`` and
    ``out`` are length-3 float buffers reused across calls."""
    ax, ay = abs(x), abs(y)
    if ax == 0.0:
        return 0.0, 0.0
    if ay == 0.0:
        return np.pi / 2, 0.0
    # numpy's arctan2 is not math.atan2 bit for bit; one call for all three
    ys[0], ys[1], ys[2] = ax, x.imag, y.imag  # entry by entry: cheaper than a slice
    xs[0], xs[1], xs[2] = ay, x.real, y.real
    theta, arg_x, arg_y = np.arctan2(ys, xs, out=out).tolist()
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
    return _decompose(u)[0]


def _decompose(u) -> tuple[BeamSplitterMesh, float]:
    """``clements_decompose`` plus its self-check's max-entry gap
    ``max|reconstruct(mesh) - u|``."""
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
    # reused per coupler: arctan2's inputs and output, and the 2x2 block
    bufs = np.empty(3), np.empty(3), np.empty(3)
    flat = np.empty(4, dtype=complex)
    blk = flat.reshape(2, 2)

    for i in range(1, n):
        if i % 2 == 1:
            for j in range(i):
                col = i - 1 - j
                theta, phi = _solve(work.item(n - 1 - j, col), work.item(n - 1 - j, col + 1),
                                    *bufs)
                c, s, ph = math.cos(theta), math.sin(theta), complex(math.cos(phi), math.sin(phi))
                # T† entry by entry, with the signed zeros of T's block().conj().T
                flat[0], flat[1] = (ph * c).conjugate(), (ph * s).conjugate()
                flat[2], flat[3] = complex(-s, -0.0), complex(c, -0.0)
                cols = work[:, col : col + 2]
                cols[...] = cols @ blk
                couplers.append((col, theta, phi))
        else:
            for j in range(1, i + 1):
                row = n + j - i - 1
                a, b = work.item(row - 1, j - 1), work.item(row, j - 1)
                # T puts e^{i phi} sin(theta) a + cos(theta) b in row r: it nulls b
                # with the angles that null -b against a
                theta, phi = _solve(-b, a, *bufs)
                c, s, ph = math.cos(theta), math.sin(theta), complex(math.cos(phi), math.sin(phi))
                flat[0], flat[1], flat[2], flat[3] = ph * c, -s, ph * s, c
                rows = work[row - 1 : row + 1]
                rows[...] = blk @ rows
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
    return mesh, gap


def mesh_to_text(mesh: BeamSplitterMesh) -> str:
    """Serialize: dimension line, one ``port theta phi`` line per element,
    then a line of output phases."""
    body = "%d %.17g %.17g\n" * len(mesh.ports) % tuple(chain.from_iterable(zip(
        mesh.ports.tolist(), mesh.mixing_angles.tolist(), mesh.phases.tolist())))
    phases = " ".join(f"{p:.17g}" for p in mesh.output_phases.tolist())
    return f"{mesh.dimension}\n{body}{phases}\n"


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
