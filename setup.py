from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # EON's C kernels are compiled on first use (repro.runtime.native).
    package_data={"repro.runtime": ["eon_kernels.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
