"""Setuptools build configuration.

Kept as a plain ``setup.py`` (rather than ``pyproject.toml``) so that
``python setup.py develop`` / ``pip install -e .`` work on minimal offline
environments where the ``wheel`` package (needed by PEP 517 editable installs)
is unavailable.
"""

from pathlib import Path

from setuptools import find_packages, setup

_version_ns = {}
exec((Path(__file__).parent / "src" / "repro" / "_version.py").read_text(), _version_ns)

setup(
    name="repro",
    version=_version_ns["__version__"],
    description=(
        "Cross-field enhanced error-bounded lossy compression for scientific "
        "data, with a chunked random-access archive store"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro=repro.store.cli:main",
        ]
    },
)
