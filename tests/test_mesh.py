import numpy as np
import pytest

from qbclink import (
    BeamSplitterMesh,
    MeshElement,
    NonUnitaryInputError,
    clements_decompose,
    element_unitary,
    mesh_from_text,
    mesh_to_text,
    reconstruct,
    siso_beam_splitter,
    unitarity_residual,
)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_pure_phase_single_port():
    mesh = clements_decompose(np.array([[np.exp(1j * 0.7)]]))
    assert mesh.elements == ()
    assert np.allclose(mesh.output_phases, [0.7])


def test_two_port_coupler_is_one_element():
    u = siso_beam_splitter(0.3, 0.0)
    mesh = clements_decompose(u)
    assert len(mesh.elements) == 1
    assert np.max(np.abs(reconstruct(mesh) - u)) < 1e-12


def test_svd_factor_of_random_channel_decomposes():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h *= 0.2 / np.linalg.svd(h, compute_uv=False)[0]
    u, _, _ = np.linalg.svd(h)
    mesh = clements_decompose(u)
    assert np.max(np.abs(reconstruct(mesh) - u)) <= 1e-10


def test_round_trip_over_random_unitaries():
    rng = np.random.default_rng(42)
    for n in [*range(2, 17), 32, 64]:  # up to the benchmark's sizes
        for _ in range(4):
            u = haar_unitary(n, rng)
            mesh = clements_decompose(u)
            assert len(mesh.elements) == n * (n - 1) // 2
            assert np.max(np.abs(reconstruct(mesh) - u)) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_layered_reconstruct_equals_coupler_by_coupler_product(seed):
    # random port sequences, not in Clements order: repeated and adjacent
    # ports force couplers into later layers
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    m = n * (n - 1) // 2
    mesh = BeamSplitterMesh(
        dimension=n,
        ports=rng.integers(0, n - 1, size=m),
        mixing_angles=rng.uniform(0.0, np.pi / 2, size=m),
        phases=rng.uniform(0.0, 2.0 * np.pi, size=m),
        output_phases=rng.uniform(0.0, 2.0 * np.pi, size=n),
    )
    u = np.eye(n, dtype=complex)
    for el in mesh.elements:
        u[el.port : el.port + 2] = el.block() @ u[el.port : el.port + 2]
    assert np.array_equal(reconstruct(mesh), np.exp(1j * mesh.output_phases)[:, None] * u)


def test_canonical_parameter_ranges():
    rng = np.random.default_rng(17)
    mesh = clements_decompose(haar_unitary(9, rng))
    for el in mesh.elements:
        assert 0.0 <= el.mixing_angle <= np.pi / 2
        assert 0.0 <= el.phase < 2.0 * np.pi
    assert np.all(mesh.output_phases >= 0.0)
    assert np.all(mesh.output_phases < 2.0 * np.pi)


def test_intermediate_products_stay_unitary():
    rng = np.random.default_rng(23)
    mesh = clements_decompose(haar_unitary(12, rng))
    partial = np.eye(12, dtype=complex)
    for el in mesh.elements:
        partial = element_unitary(el, 12) @ partial
        assert unitarity_residual(partial) <= 1e-9


def test_element_count_is_enforced():
    with pytest.raises(ValueError):
        BeamSplitterMesh(dimension=3, ports=[], mixing_angles=[], phases=[],
                         output_phases=np.zeros(3))


def test_one_port_empty_mesh():
    mesh = BeamSplitterMesh(dimension=1, ports=[], mixing_angles=[], phases=[],
                            output_phases=np.zeros(1))
    assert mesh.elements == ()
    assert np.allclose(reconstruct(mesh), np.eye(1))


@pytest.mark.parametrize("ports", [[1], [-1], [0.0]])
def test_ports_must_be_integers_that_fit(ports):
    with pytest.raises(ValueError):
        BeamSplitterMesh(2, ports, [0.5], [0.5], [0.0, 0.0])


def test_half_pi_element_swaps_ports():
    mesh = BeamSplitterMesh(dimension=2, ports=[0], mixing_angles=[np.pi / 2],
                            phases=[0.4], output_phases=np.zeros(2))
    assert mesh.elements == (MeshElement(port=0, mixing_angle=np.pi / 2, phase=0.4),)
    u = reconstruct(mesh)
    assert abs(u[0, 0]) < 1e-15 and abs(u[1, 1]) < 1e-15
    assert abs(abs(u[0, 1]) - 1.0) < 1e-15 and abs(abs(u[1, 0]) - 1.0) < 1e-15


def test_identity_input_gives_zero_angles():
    mesh = clements_decompose(np.eye(8, dtype=complex))
    assert all(el.mixing_angle == 0.0 for el in mesh.elements)
    assert np.allclose(mesh.output_phases, 0.0)


def test_rejects_non_unitary_with_residual():
    with pytest.raises(NonUnitaryInputError) as excinfo:
        clements_decompose(np.ones((3, 3)))
    assert excinfo.value.residual > 1e-8


def test_noisy_but_gated_input_still_decomposes():
    rng = np.random.default_rng(4)
    u = haar_unitary(6, rng)
    noisy = u + 1e-10 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    mesh = clements_decompose(noisy)
    # reconstruction is exactly unitary, so it matches only up to the noise
    assert np.max(np.abs(reconstruct(mesh) - noisy)) <= 1e-8


def test_serialization_round_trip_exact():
    rng = np.random.default_rng(31)
    mesh = clements_decompose(haar_unitary(7, rng))
    clone = mesh_from_text(mesh_to_text(mesh))
    assert clone.dimension == mesh.dimension
    assert np.array_equal(clone.output_phases, mesh.output_phases)
    for a, b in zip(clone.elements, mesh.elements):
        assert a == b
    assert np.array_equal(reconstruct(clone), reconstruct(mesh))


@pytest.mark.parametrize("theta, phi, out", [
    (0.5, np.nan, 0.0),
    (0.5, -np.inf, 0.0),
    (np.nan, 0.5, 0.0),
    (0.5, 0.5, np.inf),
    (0.5, 0.5, np.nan),
])
def test_non_finite_angles_and_phases_are_rejected(theta, phi, out):
    with pytest.raises(ValueError):
        mesh_from_text(f"2\n0 {theta!r} {phi!r}\n0 {out!r}\n")
    with pytest.raises(ValueError):
        BeamSplitterMesh(2, [0], [theta], [phi], [0.0, out])
    if np.isfinite(out):
        with pytest.raises(ValueError):
            MeshElement(0, theta, phi)


def test_serialization_rejects_truncated_file():
    rng = np.random.default_rng(33)
    text = mesh_to_text(clements_decompose(haar_unitary(4, rng)))
    lines = text.splitlines()
    with pytest.raises(ValueError):
        mesh_from_text("\n".join(lines[:-2]))


def test_meshes_compare_by_field_values():
    rng = np.random.default_rng(21)
    u = haar_unitary(4, rng)
    mesh = clements_decompose(u)
    assert mesh == clements_decompose(u)
    assert mesh == mesh_from_text(mesh_to_text(mesh))
    assert not mesh != clements_decompose(u)
    assert mesh != clements_decompose(haar_unitary(4, rng))
    assert mesh != clements_decompose(haar_unitary(3, rng))
    shifted = BeamSplitterMesh(
        mesh.dimension, mesh.ports, mesh.mixing_angles, mesh.phases, mesh.output_phases + 0.1
    )
    assert mesh != shifted
    assert mesh != "not a mesh"
