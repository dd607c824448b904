"""Execute every documentation example so the docs can never rot.

Runs doctest over ``docs/*.md`` and over every ``src/repro`` module whose
source contains a ``>>>`` example, found by scanning the tree so a new
module's examples run without being listed.  It runs in the tier-1 suite,
and CI's docs job runs it again beside the ``examples/quickstart.py``
smoke.
"""

import doctest
import glob
import importlib
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DOCS = sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
SRC = os.path.join(REPO_ROOT, "src")


def _doctested_modules():
    """Dotted names of the ``repro`` modules whose source has ``>>>``."""
    names = []
    for path in glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            if ">>>" not in handle.read():
                continue
        module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
        names.append(module[: -len(".__init__")] if module.endswith(".__init__") else module)
    return sorted(names)


DOCTESTED_MODULES = _doctested_modules()


def test_docs_directory_is_populated():
    names = {os.path.basename(path) for path in DOCS}
    assert {"architecture.md", "faceted-semantics.md"} <= names


@pytest.mark.parametrize("path", DOCS, ids=[os.path.basename(p) for p in DOCS])
def test_markdown_examples_run(path):
    failures, tests = doctest.testfile(path, module_relative=False)
    assert tests > 0, f"{path} has no >>> examples"
    assert failures == 0


@pytest.mark.parametrize("name", DOCTESTED_MODULES)
def test_module_docstring_examples_run(name):
    module = importlib.import_module(name)
    failures, tests = doctest.testmod(module)
    assert tests > 0, f"{name} has no doctests"
    assert failures == 0
