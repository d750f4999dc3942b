"""The README stays in step with the package it documents."""

import inspect
import os
import re

import ddgfrac

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_readme_export_list_matches_package_root():
    with open(README) as fh:
        text = fh.read()
    block = text.split("The package root exports:", 1)[1].split("\n\n")[1]
    listed = re.findall(r"`(\w+)`", block)
    exported = [name for name in ddgfrac.__all__
                if not inspect.ismodule(getattr(ddgfrac, name))]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(exported)
