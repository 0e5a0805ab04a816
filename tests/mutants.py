"""Mutation checks: each row of MUTANTS plants one fault in one source file
and names the pytest selection that must fail on it, so that a refactor
which weakens the test that caught a fault is noticed (DeMillo, Lipton &
Sayward, "Hints on test data selection", IEEE Computer 1978).

    python tests/mutants.py          # every mutant
    python tests/mutants.py ID ...   # the named ones

The runner first runs the selections on an unchanged copy of ``src/``,
where they must pass.  Then, for each mutant, it copies ``src/`` to a
temporary directory, replaces the row's snippet (which must occur exactly
once) and runs the selection on the copy with ``-x -q -p no:cacheprovider``.
A mutant is killed when pytest reports a failed test; the runner exits 1 if
any mutant survives or any run ends otherwise (a snippet not found, an
import error, no tests collected).  ``tests/test_mutants.py`` checks in the
tier-1 suite that every snippet still applies.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    id: str
    file: str            # under src/odekit
    snippet: str         # replaced exactly once
    replacement: str
    selection: tuple     # pytest node ids, from the repository root


ENGINE = "tests/test_engine.py"

MUTANTS = (
    # the problem decides the iteration: Newton exactly when it has a Jacobian
    Mutant("newton-without-a-jacobian", "steppers.py",
           "        if jacobian is None:\n            u = [", "        if False:\n            u = [",
           (f"{ENGINE}::TestKernel::test_solve_implicit_runs_newton_exactly_with_a_jacobian",)),
    Mutant("no-newton-with-a-jacobian", "steppers.py",
           "        if jacobian is None:\n            u = [", "        if True:\n            u = [",
           (f"{ENGINE}::TestKernel::test_solve_implicit_runs_newton_exactly_with_a_jacobian",)),
    # a NaN residual entry fails the stopping test wherever it sits: max()
    # alone skips a NaN after a number
    Mutant("norm-without-its-nan-test", "linalg.py",
           "    if total != total and any(x != x for x in vals):\n",
           "    if False:\n",
           (f"{ENGINE}::TestKernel::test_a_nan_residual_behind_a_finite_entry_raises",)),
    # a lone weight scales the step first: (h w) k, not h (w k)
    Mutant("lone-weight-scales-the-stage", "steppers.py",
           "[hw * x for x in ks[j]] if y is None else [a + hw * x for a, x in zip(y, ks[j])]",
           "[h * (w * x) for x in ks[j]] if y is None else [a + h * (w * x) for a, x in zip(y, ks[j])]",
           ("tests/test_solve_golden.py::test_golden_solve_output",)),
    Mutant("bounded-sweeps-with-a-jacobian", "multistep.py",
           'if problem.jacobian is None and self._corrections != "converge":',
           'if self._corrections != "converge":',
           (f"{ENGINE}::TestLuReuse::test_multistep_counts_on_mol_bdf2",)),
    # PE(CE)^N takes exactly N sweeps, none for N = 0
    Mutant("zero-corrections-sweep-once", "multistep.py",
           "max(int(self._corrections), 0)", "max(int(self._corrections), 1)",
           (f"{ENGINE}::TestKernel::test_corrector_sweeps_are_bounded",)),
    Mutant("one-sweep-too-many", "steppers.py",
           "range(MAX_ITERS if sweeps is None else sweeps)",
           "range(MAX_ITERS if sweeps is None else sweeps + 1)",
           (f"{ENGINE}::TestKernel::test_corrector_sweeps_are_bounded",)),
    # make_stepper's third parameter accepts None alone
    Mutant("make-stepper-takes-a-strategy", "steppers.py",
           "    if unused is not None:\n",
           '    if unused not in (None, "fixed-point", "newton"):\n',
           (f"{ENGINE}::TestStepperTable::test_no_third_argument",)),
    # multistep options reach multistep methods only
    Mutant("one-step-methods-drop-options", "driver.py",
           "    if options and family != MULTISTEP:\n",
           "    if options and family == ADAPTIVE:\n",
           ("tests/test_method_table.py::test_options_of_multistep_methods_raise_elsewhere",)),
    # first same as last: the same t and the very same array
    Mutant("counting-rhs-without-the-t-test", "core.py",
           "        if y is self._y and t == self._t:\n",
           "        if y is self._y:\n",
           (f"{ENGINE}::TestFirstSameAsLast::test_reuse_needs_the_same_t_and_the_same_array",)),
    Mutant("counting-rhs-on-equal-values", "core.py",
           "        if y is self._y and t == self._t:\n",
           "        if np.array_equal(y, self._y) and t == self._t:\n",
           (f"{ENGINE}::TestFirstSameAsLast::test_reuse_needs_the_same_t_and_the_same_array",)),
    # every rhs value's shape is checked, not the first one's only
    Mutant("rhs-shape-checked-once", "core.py",
           "        if out.shape != self._shape:\n",
           "        if self._stats.rhs_evals == 1 and out.shape != self._shape:\n",
           ("tests/test_core.py::TestCallbackBoundary::test_a_wrong_shape_on_a_later_call_raises",)),
    # a callback's warnings reach the caller: the march silences none
    Mutant("callback-warnings-silenced", "core.py",
           "        out = np.asarray(self._rhs(t, np.array(y)), dtype=float)\n",
           "        with np.errstate(all=\"ignore\"):\n"
           "            out = np.asarray(self._rhs(t, np.array(y)), dtype=float)\n",
           ("tests/test_bit_identity.py::test_march_matches_reference",)),
    # the CLI boundary: no inf pixel in an SVG
    Mutant("svg-locus-pixel-may-be-inf", "cli.py",
           "            if not abs(px) < math.inf:\n",
           "            if math.isnan(px):\n",
           ("tests/test_cli.py::TestStability::test_svg_window_must_hold_the_locus_in_its_pixels",)),
    # the small real root of a 2x2 by Vieta's formula
    Mutant("eig-2x2-small-root-cancels", "linalg.py",
           "    if disc.real > 0:\n", "    if False:\n",
           ("tests/test_linalg.py::TestEig2x2::test_small_real_root_does_not_cancel",)),
    # Durand-Kerner's start is twisted off conjugate symmetry; untwisted, the
    # diffeq golden's real roots gain imaginary noise (any twist tried in
    # 0.05..2 gives the golden's bytes)
    Mutant("dk-start-untwisted", "linalg.py",
           "DK_START_TWIST = 0.4 ", "DK_START_TWIST = 0.0 ",
           ("tests/test_stability_golden.py::test_golden_cli_output",)),
    # a step argument the method does not use raises
    Mutant("fixed-step-drops-tol", "driver.py",
           "    if tol is not None:\n", "    if False:\n",
           ("tests/test_method_table.py::test_a_step_argument_the_method_does_not_use_raises",)),
    Mutant("ode12-drops-h", "driver.py",
           "        if h is not None:\n", "        if False:\n",
           ("tests/test_method_table.py::test_a_step_argument_the_method_does_not_use_raises",)),
    # an explicit formula takes no corrector options
    Mutant("explicit-formula-drops-predictor", "multistep.py",
           '(("predictor", predictor), ("corrections", corrections))',
           '(("corrections", corrections),)',
           ("tests/test_multistep.py::TestMarch::test_explicit_formula_rejects_corrector_options",)),
    Mutant("explicit-formula-drops-corrections", "multistep.py",
           '(("predictor", predictor), ("corrections", corrections))',
           '(("predictor", predictor),)',
           ("tests/test_multistep.py::TestMarch::test_explicit_formula_rejects_corrector_options",)),
    # --format only where it has two choices; --seed accepted but not listed
    Mutant("solve-offers-format-csv", "cli.py",
           'to this path")\n    add_shared(p)\n', 'to this path")\n    add_shared(p, "csv")\n',
           ("tests/test_cli.py::TestSharedOptions::test_format_is_offered_where_there_is_a_choice",)),
    Mutant("help-lists-seed", "cli.py",
           "help=argparse.SUPPRESS", 'help="ignored"',
           ("tests/test_cli.py::TestSharedOptions::test_seed_is_accepted_ignored_and_hidden",)),
)


def mutated_source(mutant: Mutant, root: Path = ROOT) -> str:
    """The text of ``mutant.file`` with the snippet replaced; LookupError
    unless the snippet occurs exactly once."""
    text = (root / "src" / "odekit" / mutant.file).read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise LookupError(f"{mutant.id}: the snippet occurs {count} times in {mutant.file}")
    return text.replace(mutant.snippet, mutant.replacement)


def _pytest(selection, mutant: Mutant | None = None) -> int:
    """pytest's exit code on ``selection``, run against a copy of src/ that
    carries ``mutant`` (none: unchanged)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            (src / "odekit" / mutant.file).write_text(mutated_source(mutant))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main(argv) -> int:
    ids = {m.id for m in MUTANTS}
    unknown = [a for a in argv if a not in ids]
    if unknown:
        print(f"unknown mutant ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not argv or m.id in argv]
    selection = sorted({node for m in mutants for node in m.selection})
    code = _pytest(selection)
    if code != 0:
        print(f"the selections fail on the unchanged source (pytest exit {code})")
        return 1
    bad = 0
    for mutant in mutants:
        start = time.perf_counter()
        try:
            code = _pytest(mutant.selection, mutant)
        except LookupError as exc:
            code, verdict = None, str(exc)
        else:
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        bad += code != 1
        print(f"{mutant.id}: {verdict} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
