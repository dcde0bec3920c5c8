"""Setuptools entry point.

The pinned offline environment has no ``wheel`` package, so PEP 517 editable
installs are unavailable; this classic ``setup.py`` keeps ``pip install -e .``
working through the legacy (setup.py develop) code path.  This file is the
package's only metadata (there is no ``pyproject.toml``); nothing needs an
install to run — ``PYTHONPATH=src`` is what the tests and CI use.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of C-Coll: an optimized error-controlled MPI collective "
        "framework integrated with lossy compression (IPDPS 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
