"""Build configuration of the ``repro`` package (there is no pyproject.toml).

``pip install -e .`` installs the ``src/repro`` package with its runtime
requirements, NumPy and SciPy, under the version ``repro.__version__``
carries; the version is read from ``src/repro/__init__.py`` as text, so
building never imports the package.

The optional execution backends are exposed as extras so a host can opt
into the compiled kernel paths (``pip install -e ".[numba]"`` /
``".[cupy]"``); without them the library runs everywhere on the NumPy
reference backend with bit-identical results.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    extras_require={
        "numba": ["numba>=0.57"],
        "cupy": ["cupy-cuda12x>=12.0"],
        "backends": ["numba>=0.57", "cupy-cuda12x>=12.0"],
    },
)
