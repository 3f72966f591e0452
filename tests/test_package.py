"""The package's top-level names, as the README lists them, and what
importing and running the package loads."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pnormtest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# the calibrate, test, split-test and simulate paths, at toy size
_NUMPY_PATHS = """
import numpy as np
import pnormtest
import pnormtest.cli
from pnormtest import calibrate_spec, default_spec, run_experiment, run_tests, split_test

spec = calibrate_spec(default_spec(8, 0.05), aux_rows=100)
rng = np.random.default_rng(0)
run_tests(rng.standard_normal((200, 8)), spec)
split_test(rng.standard_normal((400, 20)), 8, selection="greedy", p=2.0, spec=spec)
run_experiment({
    "experiment": "import_guard", "reps": 5, "seed": 1,
    "dgp": {"kind": "iv", "n": 40, "d": 4, "beta_true": 1.0, "pi": [0.1] * 4,
            "error_dist": "t", "t_dof": 8.0},
    "test": {"alpha": 0.05, "estimator": "truncated"},
})
"""

# the formula critical values, a quantile and a Toeplitz design
_SCIPY_PATHS = """
import numpy as np
from pnormtest import IvConfig, gen_iv, kappa_inf_exact, kappa_p_asymptotic
from pnormtest.gaussian_moments import normal_quantile

cfg = IvConfig(n=6, d=3, beta_true=1.0, pi=np.full(3, 0.5), instrument_cov="toeplitz", toeplitz_r=0.6)
print(repr(kappa_p_asymptotic(3, 50, 0.05)))
print(repr(kappa_inf_exact(50, 0.05)))
print(repr(normal_quantile(0.975)))
print(repr(gen_iv(cfg, 1.0, 7)[1].tolist()))
"""

_LIST_SCIPY = "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"


def _fresh_process(code: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def test_readme_lists_exactly_the_top_level_names():
    text = README.read_text()
    start = text.index("\n- ", text.index("The top-level namespace exports these names"))
    section = text[start : text.index("\n\n", start)]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(pnormtest.__all__)


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(pnormtest.__path__)), ids=str
)
def test_every_submodule_all_name_resolves(module):
    mod = importlib.import_module(f"pnormtest.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_import_and_numpy_paths_load_no_scipy():
    assert _fresh_process(_NUMPY_PATHS + _LIST_SCIPY) == ["[]"]


def test_formula_paths_load_scipy_and_keep_their_values():
    *values, loaded = _fresh_process(_SCIPY_PATHS + _LIST_SCIPY)
    assert "scipy.special" in loaded and "scipy.linalg" in loaded
    kappa_p, kappa_inf, quantile, row = map(ast.literal_eval, values)
    assert kappa_p == 4.943814663191365
    assert kappa_inf == 3.2834798161302423
    assert quantile == 1.959963984540054
    assert row == [1.6402341938106366, 1.654047008855213, 2.4535083696670883]
