"""Legacy setuptools entry point.

The offline evaluation environment lacks the ``wheel`` package, which makes
PEP 660 editable installs impossible; this shim lets ``pip install -e .``
fall back to ``setup.py develop``.  All metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy>=1.24", "scipy>=1.17", "networkx>=3.0"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
