"""Golden CLI outputs of the analysis layer, and oracles for the array
stability probes and the A(alpha) classification.

The sha256 values were recorded from the per-point implementation (one LU
solve per R(z) value, one scalar Durand-Kerner run per root-condition
probe) before the probes became array operations; the bytes must not move.
Two were re-pinned since:
- ``locus_ab3`` prints every locus digit, and the locus moved from
  term-by-term powers of r, rounded as CPython's ``complex ** int``, to
  Horner's rule for rho and sigma.  448 of its 512 rows changed.  Against
  the exact ratio (``tests/test_bit_identity.py``) Horner's worst relative
  error is 6.3e-14, the old evaluation's 1.8e-13.  The SVG goldens print 4
  decimals and kept their bytes.
- ``diffeq`` moved when Durand-Kerner's random start angles became fixed
  ones: its triple root prints as ``2.0+0j``, where it printed
  ``2.0+2.93874e-39j``, and its betas as exact reals, where they carried
  imaginary parts of 1e-39 to 1e-38.

The oracles use numpy alone: ``numpy.roots`` for the root condition and a
dense solve of (I - zA) w = 1 for the tableau amplification factor.
"""
import hashlib
import math

import numpy as np
import pytest

from odekit import cli
from odekit import driver
from odekit import linalg
from odekit import multistep as ms
from odekit import stability as sb
from odekit import steppers as st
from odekit.driver import stability_function, stability_object
from tests.conftest import LMM_MODEL_NAMES, lmm

BDF3_WINDOW = ["--re-min=-2.0", "--re-max=8.0", "--im-min=-5.0", "--im-max=5.0"]

GOLDEN = {
    "stability_rk4": (
        ["stability", "rk4", "--nx", "100", "--ny", "100"],
        "8147235337c79a79e60dce3d26eba6d714efe86bcc118d51f32792e101f1fa4f"),
    "stability_bdf3_svg": (
        ["stability", "bdf3", "--format", "svg", "--nx", "40", "--ny", "40", *BDF3_WINDOW],
        "62d17b8661e371395dbb6ba1b4917769ab32df9341c3ff68934f866e96160a51"),
    "stability_trbdf2": (
        ["stability", "trbdf2"],
        "9db8a386500bff58ff0a1ff85b6f92115223df83960fc681d6bec0221d5f9549"),
    "stability_gauss2": (
        ["stability", "gauss2"],
        "1bbe3405ef52a247c991d127f8177829dd7945f7038ededd93fc21000f99cef5"),
    "locus_bdf2_svg": (
        ["locus", "bdf2", "--format", "svg"],
        "080d5b3872df3b06d02d5a5e85756aa628d86f118d2dcfee6b795cba3873981f"),
    "locus_ab3": (
        ["locus", "ab3", "--samples", "512"],
        "33032aca11bc48a74f0d8b55139f5c6e843a640293f7e36e687cccd382c3b5c5"),
    "diffeq": (
        ["diffeq", "--coeffs=1,-5,6,4,-8", "--initial=-1,-7,-7,7", "--kmax", "40"],
        "f86a356b59039b70b6528821d39a9196be45f7e660c27451def7d7fdfbe9a246"),
}

@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_cli_output(case, tmp_path):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case", ["stability_bdf3_svg", "locus_ab3", "diffeq"])
def test_seed_changes_no_output_byte(case, tmp_path):
    # --seed is accepted and ignored: the benchmark still passes one
    argv, digest = GOLDEN[case]
    for seed in ("0", "1", "2147483648"):
        out = tmp_path / seed
        assert cli.main([*argv, "--seed", seed, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, seed


@pytest.mark.parametrize("name", ["bdf3", "leapfrog", "trap"])
def test_classification_ignores_its_seed(name):
    obj = stability_object(name)[1]
    expected = sb.classify_stability(obj)
    for seed in (0, 1, 2**31, -7):
        assert sb.classify_stability(obj, seed=seed) == expected, seed


SEEDLESS = {
    "durand_kerner": lambda: linalg.durand_kerner(np.array([[1.0, 0.0, -1.0]]), seed=0),
    "poly_roots": lambda: linalg.poly_roots([1.0, 0.0, -1.0], seed=0),
    "raster_multistep": lambda: sb.raster_multistep(lmm("bdf2"), (-1.0, 1.0, -1.0, 1.0), 2, 2,
                                                    seed=0),
    "root_condition": lambda: sb.root_condition(lmm("bdf2"), np.array([-1.0]), seed=0),
    "is_abs_stable": lambda: sb.is_abs_stable(lmm("bdf2"), -1.0, seed=0),
    "_classify_multistep": lambda: sb._classify_multistep(lmm("bdf2"), seed=0),
    "solve_difference_equation": lambda: sb.solve_difference_equation(
        sb.DifferenceEquation(np.array([1.0, -1.0]), np.array([1.0])), seed=0),
}


@pytest.mark.parametrize("name", sorted(SEEDLESS))
def test_analysis_takes_no_seed(name):
    with pytest.raises(TypeError, match="seed"):
        SEEDLESS[name]()


def _oracle_max_modulus(method, z):
    """Largest root modulus of the characteristic polynomial, by numpy.roots."""
    coeffs = np.concatenate(([1.0], -method.a)) - z * method.b
    return float(np.max(np.abs(np.roots(coeffs))))


def _assert_matches_oracle(method, zs, stable, failed):
    for z, ok, bad in zip(np.ravel(zs), np.ravel(stable), np.ravel(failed)):
        if bad:
            # only a vanishing leading coefficient may fail here
            assert abs(1.0 - z * method.b[0]) <= 1e-14, z
            continue
        mod = _oracle_max_modulus(method, z)
        if ok != (mod <= 1.0):
            assert abs(mod - 1.0) <= 1e-9, (z, mod, ok)


@pytest.mark.parametrize("name", LMM_MODEL_NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_root_condition_matches_numpy_on_classify_probes(name, seed):
    # ``seed`` draws the probes: two sets of 2000
    method = lmm(name)
    zs = scalar_probes(np.random.default_rng(seed), 2000)
    stable, failed = sb.root_condition(method, zs)
    _assert_matches_oracle(method, zs, stable, failed)


@pytest.mark.parametrize("name", LMM_MODEL_NAMES)
def test_root_condition_matches_numpy_on_raster(name):
    method = lmm(name)
    raster = sb.raster_multistep(method, (-4.0, 8.0, -6.0, 6.0), 40, 40)
    res, ims = raster.grid_centers()
    zs = res[None, :] + 1j * ims[:, None]
    stable, failed = sb.root_condition(method, zs)
    assert np.array_equal(stable, raster.member)
    assert int(np.count_nonzero(failed)) == raster.failed
    _assert_matches_oracle(method, zs, stable, failed)


def scalar_probes(rng, count):
    """Log-radially distributed points with Re z < 0, plus the imaginary axis."""
    probes = []
    for _ in range(count):
        re = -(10.0 ** rng.uniform(-2.0, 6.0))
        # the same draw as rng.choice([-1.0, 1.0]), at a fraction of its cost
        im = (10.0 ** rng.uniform(-2.0, 6.0)) * (-1.0, 1.0)[rng.integers(2)]
        probes.append(complex(re, im))
    for v in np.linspace(-1e3, 1e3, 41):
        probes.append(complex(0.0, float(v)))
    return np.array(probes)


# (a_stable, alpha.hex(), l_stable, failed_probes) of classify_stability.
# The bdf3-6 angles are read off the boundary locus: 86.0324, 73.3517,
# 51.8398 and 17.8398 degrees.
_RIGHT = "0x1.921fb54442d18p+0"  # pi/2
CLASSIFICATIONS = {
    **dict.fromkeys(["euler", "heun", "rk2mid", "ode12", "rk3", "rk4", "taylor2", "taylor3",
                     "theta:0.3"],
                    (False, "0x0.0p+0", False, 0)),
    **dict.fromkeys(["ieuler", "trbdf2"], (True, _RIGHT, True, 0)),
    **dict.fromkeys(["trap", "gauss2", "theta:0.7"], (True, _RIGHT, False, 0)),
    **dict.fromkeys(["leapfrog", "ab1", "ab2", "ab3", "ab4", "am2", "am3"],
                    (False, "0x0.0p+0", None, 0)),
    **dict.fromkeys(["am0", "am1", "bdf1", "bdf2"], (True, _RIGHT, None, 0)),
    "bdf3": (False, "0x1.80657474d802dp+0", None, 0),
    "bdf4": (False, "0x1.47bd0ae7e5306p+0", None, 0),
    "bdf5": (False, "0x1.cf3e99a175e9ap-1", None, 0),
    "bdf6": (False, "0x1.3ed5f22e6a9a7p-2", None, 0),
}


def test_classification_pins_cover_every_stability_name():
    assert {name for name, row in driver.METHODS.items() if row.kind} <= set(CLASSIFICATIONS)


@pytest.mark.parametrize("name", sorted(CLASSIFICATIONS))
def test_classification_is_pinned(name):
    c = sb.classify_stability(stability_object(name)[1])
    assert (c.a_stable, c.alpha.hex(), c.l_stable, c.failed_probes) == CLASSIFICATIONS[name]


def test_one_z_call_matches_batch():
    method = ms.bdf_coefficients(3)
    zs = scalar_probes(np.random.default_rng(5), 60)
    stable, _ = sb.root_condition(method, zs)
    assert [sb.is_abs_stable(method, z) for z in zs] == list(stable)


# A(alpha) of BDF3-6 in degrees, as published (Hairer & Wanner II, V.2)
BDF_ALPHA_DEG = {"bdf3": 86.03, "bdf4": 73.35, "bdf5": 51.84, "bdf6": 17.84}


def _wedge_edges(deg):
    """The rays z = -r e^{+-i deg} at 2001 log-spaced radii in 1e-3..1e3."""
    ray = -np.logspace(-3.0, 3.0, 2001) * np.exp(1j * math.radians(deg))
    return np.concatenate([ray, ray.conj()])


@pytest.mark.parametrize("name", sorted(BDF_ALPHA_DEG))
def test_bdf_alpha_matches_published_angle(name):
    c = sb.classify_stability(lmm(name))
    assert abs(math.degrees(c.alpha) - BDF_ALPHA_DEG[name]) <= 0.01


@pytest.mark.parametrize("name", sorted(BDF_ALPHA_DEG))
def test_bdf_alpha_is_sharp_on_dense_rays(name):
    method = lmm(name)
    deg = math.degrees(sb.classify_stability(method).alpha)
    for zs, inside in ((_wedge_edges(deg - 0.05), True), (_wedge_edges(deg + 0.05), False)):
        stable, failed = sb.root_condition(method, zs)
        _assert_matches_oracle(method, zs, stable, failed)
        assert not failed.any()
        assert stable.all() == inside


def _lu_route(tableau, z):
    """1 + z b^T (I - zA)^{-1} 1 by a dense complex solve."""
    s = tableau.stages
    w = np.linalg.solve(np.eye(s) - z * tableau.A, np.ones(s, dtype=complex))
    return 1.0 + z * (tableau.b @ w)


@pytest.mark.parametrize("name", sorted(st.TABLEAUS) + ["theta:0.3", "theta:0.7"])
def test_exact_r_matches_lu_route(name):
    tableau = st.theta_tableau(float(name[6:])) if name.startswith("theta:") else st.TABLEAUS[name]
    rng = np.random.default_rng(7)
    zs = 10.0 * np.sqrt(rng.uniform(0.0, 1.0, 400)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 400))
    exact = stability_function(name)(zs)
    for z, value in zip(zs, exact):
        old = _lu_route(tableau, z)
        assert abs(value - old) <= 1e-12 * abs(old), (z, value, old)
        assert st.rk_stability_value(tableau, complex(z)) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("name, coeffs", [("taylor2", [0.5, 1.0, 1.0]),
                                          ("taylor3", [1.0 / 6.0, 0.5, 1.0, 1.0])])
def test_taylor_r_is_truncated_exponential(name, coeffs):
    zs = np.linspace(-3.0, 1.0, 9) + 0.5j
    assert np.allclose(stability_function(name)(zs), np.polyval(coeffs, zs), rtol=1e-15, atol=0.0)
