import hashlib

import numpy as np
import pytest

from qbclink import (
    BeamSplitterMesh,
    MeshElement,
    NonUnitaryInputError,
    clements_decompose,
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


def coupler_by_coupler(mesh):
    """Reference product: each coupler's block on its two rows, in file order."""
    u = np.eye(mesh.dimension, dtype=complex)
    for el in mesh.elements:
        u[el.port : el.port + 2] = el.block() @ u[el.port : el.port + 2]
    return np.exp(1j * mesh.output_phases)[:, None] * u


def random_mesh(n, rng, head=()):
    """A dimension-n mesh whose couplers sit on ports ``head``, then on random ports."""
    m = n * (n - 1) // 2
    return BeamSplitterMesh(
        dimension=n,
        ports=[*head, *rng.integers(0, n - 1, size=m - len(head))],
        mixing_angles=rng.uniform(0.0, np.pi / 2, size=m),
        phases=rng.uniform(0.0, 2.0 * np.pi, size=m),
        output_phases=rng.uniform(0.0, 2.0 * np.pi, size=n),
    )


# sha256 of mesh_to_text(clements_decompose(u)), recorded with the earlier
# coupler loop that built each block as a new array.  The bits follow numpy's
# arctan2 and the BLAS zgemm rounding, so another numpy/BLAS build may move them.
PINNED_MESH_DIGESTS = {
    "haar1": "c76e3fee78773ce4b34ea99fd4c80005409f52c46124ee56b36d2c62d89ec523",
    "haar2": "1e374a97183243c4b3d2df867ffda3ea8c28177e2190a93e6287ff4b4acfde26",
    "haar3": "0e79075377c5683e414bcfbfcaf3524a45d8e261682c4662a4c29a49840f9f1b",
    "haar4": "c77e5dc46db449f5d6896c6dd7cbfd6e9883451c333c771a7312c7adef7c30eb",
    "haar5": "16a2f009a04bf20e71adab2a5463c4c236ea7ade64e4d86cddbae5199e96f076",
    "haar6": "cea18dc032eacf0dfc0bafd298d67adbeb5859b4292c9bbfdce615361db3486f",
    "haar7": "64b46ae11cddde863cb57943cc5b932807dae3a72e0642fbb5779c7a9a49e5ac",
    "haar8": "3bf59363dc5485105a772508058f1b0c590446e8e04c3935d36f3963e7042976",
    "haar9": "b8abab141587a10f43cb3baf024950271b33bca570cbe54a129be8187aabc019",
    "haar10": "b81a4f723f75e901fdee1610c8fc52fa886e902abddb55fffab78ee68a72f9f8",
    "haar11": "ff69033671c48016622317540d2e83c349c34b5e0611c213be734f8b454a41ef",
    "haar12": "b584db74296cf5790eab4ebb62c35d3710a71b6c05151242cb25ab4288a0172e",
    "haar13": "489b03b236aba07cfd38fb2cdd604e0238c8049f8ad66fa52ad6aba8d34706d2",
    "haar14": "c239619b4b80ff7a48e448520623b45b12fcaf9845b2e10cdf3111cdeefc7a17",
    "haar15": "e57fbfe6a81afa2643cb5dfac5194041539665bea135c9f6b2d217235ae50892",
    "haar16": "284c9ea56034fe927fd919b023673b78ea1e0b1287ae26ef35207b270b37cc98",
    "haar32": "666e7754856634857641a4687ffde91cf7116f1709893bbd84b5da092020f9ca",
    "haar64": "d372f264f9b6a9230c10b44b99e4e813023e1eef93e2890865c16cf7d0c316db",
    "identity": "ee6963e98d882323fddad30a4b70e41c120ccaa631766b6aa0d128fbbcd7a8ec",
    "reversal": "77b5778a07c9d53d24ed11cc050a2d9dc97979e8c643e44fed4a4cad7071bb40",
    "diagonal": "e90d546b109ded601bb982a7c6a0708d33b7fe18a7f58883b33c759e587b91e8",
}


def pinned_unitary(name):
    if name.startswith("haar"):
        n = int(name[4:])
        return haar_unitary(n, np.random.default_rng(n))
    return {
        "identity": np.eye(8, dtype=complex),  # every solve takes the x == 0 branch
        "reversal": np.eye(8, dtype=complex)[::-1],  # reaches the y == 0 branch
        "diagonal": np.diag(np.exp(1j * np.linspace(0.1, 3.0, 8))),
    }[name]


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


@pytest.mark.parametrize("name, digest", PINNED_MESH_DIGESTS.items())
def test_decomposition_bytes_are_pinned(name, digest):
    text = mesh_to_text(clements_decompose(pinned_unitary(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", PINNED_MESH_DIGESTS)
def test_clements_layers_equal_coupler_by_coupler_product(name):
    # every layer of a Clements mesh runs p, p+2, ...: the row-view path
    mesh = clements_decompose(pinned_unitary(name))
    assert reconstruct(mesh).tobytes() == coupler_by_coupler(mesh).tobytes()


@pytest.mark.parametrize("n, head", [
    # the first layer is ports 0 and 4, same parity with a gap: gathered
    # (the coupler on port 1 keeps ports 2-3 out of that layer)
    (6, [0, 4, 1]),
    (5, [0, 3]),  # mixed parity: gathered
    (6, [4, 2, 0]),  # contiguous by twos but out of port order: a view after sorting
])
def test_hand_built_layers_equal_coupler_by_coupler_product(n, head):
    mesh = random_mesh(n, np.random.default_rng(n), head)
    assert reconstruct(mesh).tobytes() == coupler_by_coupler(mesh).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_layered_reconstruct_equals_coupler_by_coupler_product(seed):
    # random port sequences, not in Clements order: repeated and adjacent
    # ports force couplers into later layers
    rng = np.random.default_rng(seed)
    mesh = random_mesh(int(rng.integers(2, 11)), rng)
    assert reconstruct(mesh).tobytes() == coupler_by_coupler(mesh).tobytes()


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
        full = np.eye(12, dtype=complex)
        full[el.port : el.port + 2, el.port : el.port + 2] = el.block()
        partial = full @ partial
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
    assert reconstruct(mesh).tobytes() == coupler_by_coupler(mesh).tobytes()


@pytest.mark.parametrize("ports", [[1], [-1], [0.0]])
def test_ports_must_be_integers_that_fit(ports):
    with pytest.raises(ValueError):
        BeamSplitterMesh(2, ports, [0.5], [0.5], [0.0, 0.0])


# each shape check of a mesh or its text, as a call that fails it, and the
# message it raises
MESH_SHAPE_CHECKS = {
    "element-negative-port": (lambda: MeshElement(-1, 0.5, 0.5),
                              "port must be non-negative, got -1"),
    "output-phase-count": (lambda: BeamSplitterMesh(2, [0], [0.5], [0.5], [0.0]),
                           "need one output phase per port"),
    "empty-text": (lambda: mesh_from_text(""), "empty mesh file"),
    "blank-text": (lambda: mesh_from_text(" \n\n"), "empty mesh file"),
}


@pytest.mark.parametrize("case", sorted(MESH_SHAPE_CHECKS))
def test_shape_checks_name_the_fault(case):
    call, message = MESH_SHAPE_CHECKS[case]
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


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
