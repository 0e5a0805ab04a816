"""Golden outputs of the integrators.

The sha256 values pin the bytes of ``odekit solve`` trajectory CSVs (and,
for runs the CLI cannot express, of the trajectory arrays) for the implicit
one-step methods, the coupled Gauss step, the Newton-corrected BDF
methods and leapfrog.  The Newton runs rest on ``lu_factor`` and ``lu_solve_factored``,
which are held to backward-error bounds rather than to bits, so a change
of their rounding may move a Newton pin within the solve tolerance;
CHANGES.md lists each re-pin with its old and new hash and the largest
deviation.  The fixed-point API pins factor nothing, and their bytes must
not move.
"""
import hashlib

import pytest

import odekit as ok
from odekit import cli
from odekit import multistep as ms

LAM = ["--param", "lam=-1e4", "--param", "y0=1.5"]

GOLDEN = {
    "lambda_cos_ieuler": (
        ["solve", "lambda_cos", "ieuler", "--h", "0.01", *LAM],
        "23f061f90959e627325d97d9687618f183ab6ee207771006c4a1acc0c8a82c1e"),
    "lambda_cos_trap": (
        ["solve", "lambda_cos", "trap", "--h", "0.01", *LAM],
        "928a72bf9603544d940edd7f721286168faff89495a80615ef16964136bbb5e1"),
    "lambda_cos_theta": (
        ["solve", "lambda_cos", "theta:0.3", "--h", "0.0004", "--t-end", "0.2", *LAM],
        "2862936a0b00979c9b0924b892036028f68a786a708cc43420c6b469ba35c787"),
    "stiff_sys_B_gauss2": (
        ["solve", "stiff_sys_B", "gauss2", "--h", "0.05"],
        "c3b0f43249f844a3b8f8c0e0ad73d96d762e217dc28cd523a72ccb308ec8bc22"),
    "mol_diffusion_bdf2": (
        ["solve", "mol_diffusion", "bdf2", "--h", "0.005", "--param", "m=10"],
        "a10ce1b8b5d28d44ba8f8908e2a858a9d6371359b1459e4ef00e4e1cc3ff0e9e"),
    # the benchmark's method-of-lines size: 40 unknowns, a tridiagonal
    # Newton matrix whose factors the banded substitution runs on
    "mol_diffusion_m40_bdf2": (
        ["solve", "mol_diffusion", "bdf2", "--h", "0.001", "--param", "m=40", "--t-end", "0.05"],
        "7b1a8de5aece520988397fe6c199e96d945b6a09c30b6e2c14c4730c1cc66c5d"),
    "mol_diffusion_m40_trbdf2": (
        ["solve", "mol_diffusion", "trbdf2", "--h", "0.001", "--param", "m=40", "--t-end", "0.05"],
        "32e0392f60ae54b6595e7e98b46b42950a2bd9f66b400df17089aa3b2ec10d0a"),
    # the bdf3 corrector keeps its Newton factors across steps
    "robertson_bdf3": (
        ["solve", "robertson", "bdf3", "--h", "0.002", "--t-end", "0.4"],
        "5df76bbcb56871676e25314bc0ceccfec2ceb69f4e8281e94d7ea7c65693ccdf"),
    # TR-BDF2 on a Jacobian that changes every step: one Newton matrix
    # factored per iteration, on a 2x2 and a 3x3 system
    "vdp_trbdf2": (
        ["solve", "vdp", "trbdf2", "--h", "0.001", "--param", "mu=100", "--t-end", "0.5"],
        "d01bef87678f07ffa110c30fd15b40a57b63aeb91ea31077b29847a57cd20198"),
    "robertson_trbdf2": (
        ["solve", "robertson", "trbdf2", "--h", "0.02", "--t-end", "4"],
        "261ed9a8d272ac24f8db548bd8c34e48be76020ed32d168c330f2faadbb98608"),
    # the two-step formula after its Heun start, and a Heun landing step
    # (h does not divide the span)
    "decay_leapfrog": (
        ["solve", "decay", "leapfrog", "--h", "0.03", "--t-end", "1"],
        "5bc1c86f4041f2dbad87eda0af789a48a0b304b9dd05e2c14b876a5b3dde692b"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_solve_output(case, tmp_path):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _trajectory_digest(traj):
    return hashlib.sha256(traj.times.tobytes() + traj.states.tobytes()).hexdigest()


# fixed-point iterations and bounded sweeps on a nonlinear problem
API_GOLDEN = {
    "am3_pece": (
        lambda p: ok.multistep_march(p, ms.am_method(3), 0.01, strategy="fixed-point",
                                     corrections=1, predictor=ms.ab_method(3)),
        "83af88bf977b12a5171820c83df458c590b243792b647977c6175b2ceb724981"),
    "bdf2_converge": (
        lambda p: ok.multistep_march(p, ms.bdf_coefficients(2), 0.01, strategy="fixed-point",
                                     corrections="converge"),
        "4204d0417e48e01488de89670e99e477f36b13999dc442dc32bf7ab74eedfe07"),
    "gauss2_fixed_point": (
        lambda p: ok.march(p, "gauss2", 0.01, strategy="fixed-point"),
        "c01e906014ab98770b5e3f2f5a5412ea17a7ffb064d14428bb52f8e96dcaeb6f"),
    "trap_fixed_point": (
        lambda p: ok.march(p, "trap", 0.01, strategy="fixed-point"),
        "6d76927539e778a084b92159429609f1fede9a77f3716c2e933132e69b90e9a0"),
}


@pytest.mark.parametrize("case", sorted(API_GOLDEN))
def test_golden_api_trajectory(case):
    run, digest = API_GOLDEN[case]
    traj = run(ok.get_problem("pendulum", t_end=2.0))
    assert _trajectory_digest(traj) == digest
