import json

import numpy as np
import pytest

from helpers import random_density, random_pure, random_unitary
from schmidtkit import (
    BipartiteIndex,
    DensityMatrix,
    InvariantViolation,
    PureBipartiteState,
    analyze,
    cli,
    clifford_ensemble_qubit,
    io,
    isotropic,
    kernels,
    max_entangled,
    psi_k,
    schmidt_rank,
    schmidt_ranks,
    tensor_copies,
    tetrahedral_ensemble_qubit,
    twirl_exact,
    twirl_mc,
    twirl_orbit,
    twirl_sectors,
    two_copy_construction,
)
from schmidtkit.states import max_entangled_vector
from schmidtkit.twirl import (
    MC_BLOCK_BYTES,
    MC_CHUNK,
    fidelity_with_max_entangled,
    one_pair_sectors,
    sector_weights,
    two_copy_coefficients,
)

F_TIGHT = 1 / np.sqrt(2)


def frob(a, b):
    return float(np.linalg.norm(a - b))


# -------------------------------------------------------------- exact twirl


def test_twirl_exact_fixes_isotropic():
    for n in (2, 3):
        for f in (0.0, 0.3, 1.0):
            rho = isotropic(n, f)
            assert frob(twirl_exact(rho).matrix, rho.matrix) < 1e-14


def test_twirl_exact_product_state():
    rho = PureBipartiteState(np.array([1, 0, 0, 0], dtype=complex), BipartiteIndex(2, 2)).density()
    assert frob(twirl_exact(rho).matrix, isotropic(2, 0.5).matrix) < 1e-14


def test_twirl_exact_psi_k():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            out = twirl_exact(psi_k(n, k).density())
            assert frob(out.matrix, isotropic(n, k / n).matrix) < 1e-12


def test_twirl_exact_is_projection_preserving_structure():
    rng = np.random.default_rng(20)
    for _ in range(5):
        rho = random_density(3, 3, rng)
        once = twirl_exact(rho)
        twice = twirl_exact(once)
        assert frob(once.matrix, twice.matrix) < 1e-12
        assert np.isclose(np.trace(once.matrix).real, 1.0, atol=1e-12)
        assert np.isclose(
            fidelity_with_max_entangled(once), fidelity_with_max_entangled(rho), atol=1e-12
        )
        assert np.linalg.eigvalsh(once.matrix)[0] > -1e-12


def test_twirl_exact_rejects_non_square():
    rng = np.random.default_rng(21)
    with pytest.raises(InvariantViolation):
        twirl_exact(random_density(2, 3, rng))


# Scalings that keep the trace within TRACE_ATOL of 1. Above 1 they lift the
# raw overlap of rho_{k/N} past k/N by more than the 1e-12 classification
# tolerance.
TRACE_SCALES = (1 + 9e-11, 1 - 9e-11, 1 + 1.5e-12)


def scaled_isotropic(n, f, scale):
    return DensityMatrix(scale * isotropic(n, f).matrix, BipartiteIndex(n, n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_twirl_exact_never_raises_the_schmidt_number(n):
    # The U (x) U* twirl is a mixture of local unitaries, so it cannot raise
    # the Schmidt number; on isotropic input it must keep the exact bounds.
    for k in range(1, n + 1):
        for f in (k / n, k / n - 1e-9):
            for scale in TRACE_SCALES:
                rho = scaled_isotropic(n, f, scale)
                before = analyze(rho)
                after = analyze(twirl_exact(rho))
                assert (before.lower_bound, before.upper_bound) == (k, k)
                assert (after.lower_bound, after.upper_bound) == (k, k), (n, f, scale)


def test_cli_twirl_exact_never_raises_the_schmidt_number(tmp_path, capsys):
    rho = scaled_isotropic(2, 0.5, 1.00000000009)
    src, out = tmp_path / "rho.json", tmp_path / "twirled.json"
    io.write_matrix_file(src, rho.matrix, rho.idx)
    assert cli.main(["twirl", "--input", str(src), "--mode", "exact", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "F = 0.5\n"
    bounds = []
    for path in (src, out):
        assert cli.main(["analyze", "--input", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        bounds.append((report["lower_bound"], report["upper_bound"]))
    assert bounds == [(1, 1), (1, 1)]


# ------------------------------------------------------------- Haar samples


def test_haar_first_moment_vanishes():
    # The same draws, in the same order, as one (real, imaginary) pair of
    # 2x2 normal blocks per sample; E U00 = 0 and, for N = 2, |U00|^2 is
    # uniform on [0, 1] (mean 1/2, variance 1/12).
    samples = 100_000
    x = np.random.default_rng(1234).normal(size=(samples, 2, 2, 2))
    u00 = kernels.haar_from_ginibre((x[:, 0] + 1j * x[:, 1]) / np.sqrt(2))[:, 0, 0]
    assert abs(u00.mean()) < 5 / np.sqrt(samples)
    assert abs(np.mean(np.abs(u00) ** 2) - 0.5) < 5 * np.sqrt(1 / 12 / samples)


# ------------------------------------------------------------- Monte Carlo


def test_twirl_mc_fixes_isotropic():
    rho = isotropic(2, 0.3)
    out = twirl_mc(rho, samples=500, seed=3)
    assert frob(out.matrix, rho.matrix) < 1e-12


def test_twirl_mc_converges_to_exact():
    rho = PureBipartiteState(np.array([1, 0, 0, 0], dtype=complex), BipartiteIndex(2, 2)).density()
    exact = twirl_exact(rho).matrix
    dists = {}
    for samples in (1_000, 10_000, 100_000):
        out = twirl_mc(rho, samples=samples, seed=11)
        dists[samples] = frob(out.matrix, exact)
    assert dists[100_000] < 1e-2
    assert dists[10_000] < 3 * dists[1_000]
    assert dists[100_000] < 3 * dists[10_000]
    # rough 1/sqrt(samples) scaling, generous factor for MC noise
    assert dists[100_000] < dists[1_000]


def test_twirl_mc_preserves_fidelity_exactly():
    rng = np.random.default_rng(22)
    rho = random_density(2, 2, rng)
    out = twirl_mc(rho, samples=300, seed=5)
    assert np.isclose(
        fidelity_with_max_entangled(out), fidelity_with_max_entangled(rho), atol=1e-10
    )


def test_twirl_mc_deterministic_given_seed():
    rng = np.random.default_rng(23)
    rho = random_density(2, 2, rng)
    a = twirl_mc(rho, samples=2500, seed=9).matrix
    b = twirl_mc(rho, samples=2500, seed=9).matrix
    assert np.array_equal(a, b)


def test_twirl_mc_draws_each_chunk_from_its_own_seed(monkeypatch):
    # Chunk c of seed s is (a + 1j b) / sqrt(2) with a, b drawn from
    # SeedSequence((s, c)), bit for bit, whole chunks first. The chunks share
    # one buffer, so each block is copied as it is handed to the Haar step;
    # blocks restart at each chunk boundary.
    blocks = []
    haar = kernels.haar_from_ginibre

    def record(gin):
        blocks.append(gin.copy())
        return haar(gin)

    monkeypatch.setattr(kernels, "haar_from_ginibre", record)
    samples = 2 * MC_CHUNK + 5
    twirl_mc(isotropic(3, 0.4), samples=samples, seed=9)
    block = MC_BLOCK_BYTES // (3**4 * 16)
    per_chunk = [block] * (MC_CHUNK // block) + [MC_CHUNK % block]
    assert [len(g) for g in blocks] == per_chunk * 2 + [5]
    drawn = [np.concatenate(blocks[:len(per_chunk)]),
             np.concatenate(blocks[len(per_chunk):-1]), blocks[-1]]
    assert [len(g) for g in drawn] == [MC_CHUNK, MC_CHUNK, 5]
    for chunk, gin in enumerate(drawn):
        rng = np.random.default_rng(np.random.SeedSequence((9, chunk)))
        shape = (len(gin), 3, 3)
        expected = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)
        assert np.array_equal(gin.view(np.float64), expected.view(np.float64))


def test_twirl_mc_rejects_zero_samples():
    with pytest.raises(InvariantViolation):
        twirl_mc(isotropic(2, 0.5), samples=0)


# ----------------------------------------------------------- Clifford group


def test_clifford_ensemble_structure():
    ens = clifford_ensemble_qubit()
    assert len(ens) == 24
    assert not ens.flags.writeable  # cached: a caller must not change it
    assert any(np.allclose(u, np.eye(2), atol=1e-12) for u in ens)
    for u in ens:
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_clifford_two_design_matches_exact_twirl():
    ens = clifford_ensemble_qubit()
    rng = np.random.default_rng(24)
    for _ in range(20):
        rho = random_density(2, 2, rng)
        acc = np.zeros((4, 4), dtype=complex)
        for u in ens:
            w = np.kron(u, u.conj())
            acc += w @ rho.matrix @ w.conj().T
        acc /= len(ens)
        assert frob(acc, twirl_exact(rho).matrix) < 1e-10


def test_clifford_twirl_of_zero_state():
    ens = clifford_ensemble_qubit()
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    acc = np.zeros((4, 4), dtype=complex)
    for u in ens:
        w = np.kron(u, u.conj())
        acc += np.outer(w @ v, (w @ v).conj())
    assert frob(acc / len(ens), isotropic(2, 0.5).matrix) < 1e-12


def _phase_free(u):
    i = int(np.argmax(np.abs(u.reshape(-1)) > 1e-8))
    return u / (u.reshape(-1)[i] / abs(u.reshape(-1)[i]))


def test_tetrahedral_ensemble_is_a_clifford_two_design():
    ens = tetrahedral_ensemble_qubit()
    assert len(ens) == 12
    cliff = [_phase_free(u) for u in clifford_ensemble_qubit()]
    for u in ens:
        assert any(np.allclose(_phase_free(u), c, atol=1e-12) for c in cliff)
    overlaps = np.abs(np.einsum("sij,tij->st", ens.conj(), ens)) ** 4
    assert abs(overlaps.mean() - 2.0) < 1e-12  # frame potential of a 2-design


def test_tetrahedral_twirl_is_the_isotropic_projection():
    ens = tetrahedral_ensemble_qubit()
    rng = np.random.default_rng(28)
    for _ in range(20):
        rho = random_density(2, 2, rng)
        acc = np.zeros((4, 4), dtype=complex)
        for u in ens:
            w = np.kron(u, u.conj())
            acc += w @ rho.matrix @ w.conj().T
        assert frob(acc / len(ens), twirl_exact(rho).matrix) < 1e-13


def test_two_pair_orbit_mixture_is_the_sector_projection():
    idx = BipartiteIndex(4, 4)
    sectors = twirl_sectors(idx)
    assert frob(sectors.sum(axis=0), np.eye(16)) < 1e-14
    assert [round(float(np.trace(e).real)) for e in sectors] == [1, 6, 9]
    rng = np.random.default_rng(29)
    for ens, size in ((tetrahedral_ensemble_qubit(), 288), (clifford_ensemble_qubit(), 1152)):
        psi = random_pure(4, 4, rng)
        amps = twirl_orbit(psi.amplitudes, idx, ens)
        assert amps.shape == (size, 16)
        mixture = amps.T @ amps.conj() / size
        weights = np.einsum("a,jab,b->j", psi.amplitudes.conj(), sectors, psi.amplitudes).real
        expected = np.einsum("j,jab->ab", weights / np.trace(sectors, axis1=1, axis2=2).real,
                             sectors)
        assert frob(mixture, expected) < 1e-13
        ranks = {schmidt_rank(PureBipartiteState(a, idx)) for a in amps}
        assert ranks == {schmidt_rank(psi)}


@pytest.mark.parametrize("ens", [clifford_ensemble_qubit(), tetrahedral_ensemble_qubit()],
                         ids=["clifford", "tetrahedral"])
def test_twirl_orbit_equals_per_unitary_kron(ens):
    # The broadcast Kronecker products form the same entries as np.kron and
    # the stacked matmul the same products, so the members are bit-identical.
    rng = np.random.default_rng(30)
    for _ in range(10):
        one = random_pure(2, 2, rng).amplitudes
        reference = np.array([np.kron(u, u.conj()) @ one for u in ens])
        assert np.array_equal(twirl_orbit(one, BipartiteIndex(2, 2), ens), reference)
        two = random_pure(4, 4, rng).amplitudes
        reference = np.array([np.kron(np.kron(u, v), np.kron(u.conj(), v.conj())) @ two
                              for u in ens for v in ens])
        swapped = reference.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3).reshape(-1, 16)
        assert np.array_equal(twirl_orbit(two, BipartiteIndex(4, 4), ens),
                              np.concatenate([reference, swapped]))


def test_sector_weights_project_onto_the_exact_twirl():
    # In the frame psi = (1 (x) U)|Psi+>, the state rotated by 1 (x) U has the
    # weights and the distance of rho in the standard frame.
    rng = np.random.default_rng(24)
    for n in (2, 3):
        rho = random_density(n, n, rng)
        scaled = DensityMatrix(rho.matrix * (1 + 9e-11), rho.idx)
        w = np.kron(np.eye(n), random_unitary(n, rng))
        turned = DensityMatrix(w @ rho.matrix @ w.conj().T, rho.idx)
        f = fidelity_with_max_entangled(rho)
        for state, psi in ((rho, max_entangled_vector(n)), (scaled, max_entangled_vector(n)),
                           (turned, w @ max_entangled_vector(n))):
            weights, dist = sector_weights(state, one_pair_sectors(psi))
            assert np.allclose(weights, [f, 1 - f], atol=1e-14)
            assert np.isclose(dist, frob(rho.matrix, twirl_exact(rho).matrix), atol=1e-14)
        invariant = twirl_exact(scaled)
        assert sector_weights(invariant, one_pair_sectors(max_entangled_vector(n)))[1] < 1e-15


def test_twirl_sectors_only_for_qubit_pairs():
    for d_a, d_b in ((3, 3), (2, 3), (4, 2), (9, 9)):
        assert twirl_sectors(BipartiteIndex(d_a, d_b)) is None
    with pytest.raises(InvariantViolation):
        twirl_orbit(np.ones(9) / 3, BipartiteIndex(3, 3), clifford_ensemble_qubit())


# ----------------------------------------------------------- pure ensembles


def clifford_orbit(psi):
    return twirl_orbit(psi.amplitudes, psi.idx, clifford_ensemble_qubit())


def orbit_mixture(amps):
    return amps.T @ amps.conj() / len(amps)


def test_twirl_pure_ensemble_invariant_state():
    amps = clifford_orbit(max_entangled(2))
    target = max_entangled(2).amplitudes
    assert np.allclose(np.abs(amps @ target.conj()), 1.0, atol=1e-12)
    assert frob(orbit_mixture(amps), max_entangled(2).density().matrix) < 1e-12


def test_twirl_pure_ensemble_product_state():
    psi = PureBipartiteState(np.array([1, 0, 0, 0], dtype=complex), BipartiteIndex(2, 2))
    amps = clifford_orbit(psi)
    assert schmidt_ranks(amps, psi.idx).tolist() == [1] * 24
    assert frob(orbit_mixture(amps), isotropic(2, 0.5).matrix) < 1e-12


def test_twirl_pure_ensemble_rank_two():
    amps = clifford_orbit(psi_k(2, 2))
    assert schmidt_ranks(amps, psi_k(2, 2).idx).tolist() == [2] * 24
    assert frob(orbit_mixture(amps), isotropic(2, 1.0).matrix) < 1e-12


def test_local_rotations_preserve_schmidt_rank():
    rng = np.random.default_rng(25)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        psi = random_pure(n, n, rng)
        u = random_unitary(n, rng)
        rotated = PureBipartiteState(np.kron(u, u.conj()) @ psi.amplitudes, psi.idx)
        assert schmidt_rank(rotated) == schmidt_rank(psi)


# --------------------------------------------------------- two-copy builder


def test_two_copy_construction_coefficients():
    mixture = two_copy_construction().mixture()
    s2 = np.sqrt(2)
    a, b1, b2, c = two_copy_coefficients(mixture)
    assert abs(a - (s2 - 1) ** 2 / 18) < 1e-10
    assert abs(b1 - (s2 - 1) / 6) < 1e-10
    assert abs(b2 - (s2 - 1) / 6) < 1e-10
    assert abs(c - 0.5) < 1e-10


def test_two_copy_construction_mixture():
    mixture = two_copy_construction().mixture()
    f = F_TIGHT
    target = tensor_copies(isotropic(2, f), 2)
    assert frob(mixture.matrix, target.matrix) < 1e-10
    # independent oracle for the pattern coefficients
    c, b, a = f * f, f * (1 - f) / 3, ((1 - f) / 3) ** 2
    s2 = np.sqrt(2)
    assert np.isclose(c, 0.5, atol=1e-14)
    assert np.isclose(b, (s2 - 1) / 6, atol=1e-14)
    assert np.isclose(a, (s2 - 1) ** 2 / 18, atol=1e-14)


def test_two_copy_construction_member_ranks():
    ensemble = two_copy_construction()
    assert np.isclose(ensemble.probs.sum(), 1.0, atol=1e-12)
    assert schmidt_ranks(ensemble.amps, ensemble.idx).tolist() == [2] * (24 * 24 * 2)
