"""The method table ``driver.METHODS``: every name it holds runs and has the
stability model its row names, and every layer the benchmark tracer wraps
is still reached through the module attribute it patches."""
import importlib.util
import math
import re
from pathlib import Path

import pytest

import odekit
from odekit import cli, driver
from odekit.multistep import MultistepMethod
from odekit.problems import get_problem

TABLE_NAMES = list(driver.METHODS)


@pytest.mark.parametrize("name", TABLE_NAMES + ["theta:0.3"])
def test_every_name_integrates_decay(name):
    # decay carries the Taylor callbacks, so every one-step method runs on it
    traj = driver.integrate(get_problem("decay"), name, h=0.1, tol=1e-3)
    assert traj.times[-1] == 5.0
    assert abs(traj.final_state[0] - math.exp(-5.0)) < 1e-2
    assert not traj.stats.diverged


@pytest.mark.parametrize("name", [n for n, row in driver.METHODS.items() if row.kind])
def test_stability_object_has_the_table_kind(name):
    kind, obj = driver.stability_object(name)
    assert kind == driver.METHODS[name].kind
    assert isinstance(obj, MultistepMethod) == (kind == "multistep")
    assert (driver.stability_function(name) is None) == (kind == "multistep")


def test_leapfrog_and_bdf2_have_no_r():
    assert driver.stability_function("leapfrog") is None
    assert driver.stability_function("bdf2") is None


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_ode12_stability_is_the_midpoint_rules(capsys, fmt):
    # every accepted ode12 step is a midpoint-rule (rk2mid) step
    outputs = []
    for name in ("ode12", "rk2mid"):
        assert cli.main(["stability", name, "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""


def test_ode12_has_no_locus_as_rk2mid_has_none(capsys):
    results = []
    for name in ("ode12", "rk2mid"):
        results.append((cli.main(["locus", name]), capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == 2


def test_multistep_models_are_never_shared():
    first, second = driver.stability_object("bdf2")[1], driver.stability_object("bdf2")[1]
    assert first is not second
    first.a[0] = 0.0  # a caller that edits its copy leaves the next one whole
    assert driver.stability_object("bdf2")[1].a[0] == second.a[0] != 0.0


@pytest.mark.parametrize("name", ["bdf7", "x", "theta", "ode12 "])
def test_unknown_name_raises_before_the_grid(name):
    # h = -1 would make the grid raise "h must be positive"
    with pytest.raises(ValueError, match=f"^unknown method {re.escape(repr(name))}$"):
        driver.integrate(get_problem("decay"), name, h=-1.0)
    with pytest.raises(ValueError, match="^unknown method"):
        driver.stability_object(name)


def test_options_of_multistep_methods_raise_elsewhere():
    # bootstrap, predictor and corrections mean something to multistep
    # methods only; a stale ``strategy`` is rejected with them
    decay = get_problem("decay")
    options = dict(bootstrap="euler", predictor="nonsense", strategy="fixed-point")
    for name in ("rk4", "trap", "leapfrog", "ode12", "exact"):
        message = f"^method '{name}' takes no options; got bootstrap, predictor, strategy$"
        if name != "exact":
            with pytest.raises(TypeError, match=message):
                driver.integrate(decay, name, h=0.1, tol=1e-3, **options)
        with pytest.raises(TypeError, match=message):
            driver.run_study(decay, name, [0.1, 0.05], **options)
    with pytest.raises(TypeError, match="strategy"):
        driver.integrate(decay, "bdf2", h=0.1, strategy="fixed-point")
    assert driver.integrate(decay, "bdf2", h=0.1, bootstrap="euler", corrections=2)


def test_solve_help_lists_every_name(capsys):
    assert cli.main(["solve", "--help"]) == 0
    words = set(re.split(r"[\s,]+", capsys.readouterr().out))
    assert set(TABLE_NAMES) | {"theta:<v>"} <= words


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reaches_every_dispatch_path(tmp_path):
    """perfbench/tracing.py patches module attributes (driver.march,
    driver.ode12_solve, driver.stability_function, the two make_stepper,
    multistep.multistep_march, the lu_solve re-exports): a dispatch that
    bypassed one would lose its layer from the benchmark's traced runs."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        out = str(tmp_path / "out.csv")
        for argv in (["solve", "decay", "rk4", "--h", "0.5"],
                     ["solve", "decay", "bdf2", "--h", "0.5"],
                     ["solve", "adapt_demo", "ode12", "--tol", "1e-3"],
                     ["stability", "rk4", "--nx", "8", "--ny", "8"],
                     ["stability", "bdf3", "--nx", "8", "--ny", "8"]):
            assert cli.main([*argv, "--out", out]) == 0, argv
        odekit.classify_stability(driver.stability_object("trap")[1])
    finally:
        tracing.uninstall(patches)
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"core.march", "steppers.advance", "multistep.march", "adaptive.ode12",
            "driver.dispatch", "stability.probe", "stability.raster",
            "stability.classify"} <= recorded
