"""Benchmark workloads: synthetic generator, named suite, hand samples."""

from .generator import CProgramGenerator, GeneratorConfig, generate_program
from .programs import ALL_PROGRAMS
from .suite import (
    Benchmark,
    save_sources,
    FULL_SUITE,
    MEDIUM_SUITE,
    QUICK_SUITE,
    benchmark,
    select_benchmarks,
    suite,
    suite_names,
)

__all__ = [
    "ALL_PROGRAMS",
    "Benchmark",
    "CProgramGenerator",
    "FULL_SUITE",
    "GeneratorConfig",
    "MEDIUM_SUITE",
    "QUICK_SUITE",
    "benchmark",
    "generate_program",
    "save_sources",
    "select_benchmarks",
    "suite",
    "suite_names",
]
