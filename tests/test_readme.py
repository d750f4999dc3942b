"""The README stays in step with the package it documents."""

import os
import re

import ddgfrac
from ddgfrac import models

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _readme() -> str:
    with open(README) as fh:
        return fh.read()


def test_readme_export_list_matches_package_root():
    block = _readme().split("The package root exports:", 1)[1].split("\n\n")[1]
    listed = re.findall(r"`(\w+)`", block)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(ddgfrac.__all__)


def test_readme_library_use_runs():
    # the attribute names and shapes the snippet shows stay the real ones
    code = _readme().split("## Library use", 1)[1].split("```python\n", 1)[1]
    scope = {}
    exec(compile(code.split("```", 1)[0], README, "exec"), scope)
    spec, prob, state = scope["spec"], scope["prob"], scope["state"]
    assert state.shape == (spec.n_components, prob.n) and state.dtype == complex
    assert max(prob.field_errors(state, spec.T)) < 1e-5


def test_readme_size_constants_match_models():
    # every `NAME = value` the README quotes for the E-path sizes is the
    # value build_problem reads
    quoted = re.findall(r"`(MATRIX_FREE_MIN_DOF|FOLD_MIN_DOF) = ([\d,]+)`", _readme())
    assert {name for name, _ in quoted} == {"MATRIX_FREE_MIN_DOF", "FOLD_MIN_DOF"}
    for name, value in quoted:
        assert int(value.replace(",", "")) == getattr(models, name), name
