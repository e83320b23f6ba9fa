"""Setuptools entry point.

Plain ``setup.py`` metadata (no pyproject) so that
``pip install -e . --no-build-isolation`` works in offline environments
where the ``wheel`` package is unavailable.  Installing provides the
``repro`` package (src layout) and the ``repro`` console command.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single source of truth for the version: src/repro/_version.py.
VERSION = re.search(r'__version__ = "([^"]+)"',
                    Path("src/repro/_version.py").read_text()).group(1)

setup(
    name="repro-ldp-range-queries",
    version=VERSION,
    description=(
        "Reproduction of 'Answering Multi-Dimensional Range Queries under "
        "Local Differential Privacy' (Yang et al., VLDB 2020): TDG/HDG "
        "mechanisms, baselines, a typed query IR with a workload planner "
        "(range/marginal/point/count/top-k), a shard-mergeable aggregation "
        "pipeline and an online query-serving subsystem with snapshot "
        "persistence"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        # The core library deliberately avoids scipy; it is only useful for
        # ad-hoc analysis next to the benchmarks.
        "benchmarks": ["pytest", "scipy"],
        "test": ["pytest"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: Security",
    ],
)
