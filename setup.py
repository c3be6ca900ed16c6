"""Setuptools shim for environments without PEP 517 build isolation (offline installs)."""

from setuptools import setup

setup(
    name="repro",
    version="1.0.0",
    description="Discrete-event reproduction of reliable, rapid elasticity for streaming dataflows",
    package_dir={"": "src"},
    packages=[
        "repro",
        "repro.cluster",
        "repro.core",
        "repro.dataflow",
        "repro.elastic",
        "repro.engine",
        "repro.experiments",
        "repro.metrics",
        "repro.multi",
        "repro.obs",
        "repro.reliability",
        "repro.sim",
        "repro.workloads",
    ],
    python_requires=">=3.10",
    install_requires=["numpy"],
)
