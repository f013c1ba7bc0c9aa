"""The benchmark suite mirroring paper Table 1.

Each entry is a synthetic program (see :mod:`repro.workloads.generator`)
named after one of the paper's C benchmarks and scaled to span roughly
three orders of magnitude in AST size, like the original table.  Sizes
are reduced versus the paper (a pure-Python solver replaces their C
implementation); every measured claim is a *relative* factor, which is
size-stable once programs are large enough.

``suite("quick")`` is a small subset for CI; ``suite("full")`` is the
evaluation suite used by the experiment harness and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from ..andersen import AndersenProgram, analyze_unit
from ..cfront import ast, parse
from .generator import GeneratorConfig, generate_program


def _config(name: str, seed: int, functions: int, **overrides
            ) -> GeneratorConfig:
    """Derive secondary knobs from the primary size knob."""
    defaults = dict(
        globals_per_kind=max(3, functions // 3),
        structs=max(1, functions // 12),
        statements=(4, 10),
        main_calls_per_function=2,
    )
    defaults.update(overrides)
    return GeneratorConfig(name=name, seed=seed, functions=functions,
                           **defaults)


#: The full suite: names follow paper Table 1, sizes scaled down ~5x.
FULL_SUITE: Tuple[GeneratorConfig, ...] = (
    _config("allroots", seed=101, functions=4),
    _config("diff.diffh", seed=102, functions=6),
    _config("anagram", seed=103, functions=7),
    _config("genetic", seed=104, functions=9),
    _config("ks", seed=105, functions=11),
    _config("ul", seed=106, functions=13),
    _config("ft", seed=107, functions=16),
    _config("compress", seed=108, functions=20),
    _config("ratfor", seed=109, functions=25),
    _config("compiler", seed=110, functions=31),
    _config("assembler", seed=111, functions=39),
    _config("ML-typecheck", seed=112, functions=48),
    _config("eqntott", seed=113, functions=60),
    _config("simulator", seed=114, functions=75),
    _config("less-177", seed=115, functions=93),
    _config("li", seed=116, functions=115),
    _config("flex-2.4.7", seed=117, functions=130, feedback=0.25,
            shared_rw=0.05),
    _config("pmake", seed=118, functions=148),
    _config("make-3.75", seed=119, functions=168),
    _config("inform-5.5", seed=120, functions=190),
    _config("tar-1.11.2", seed=121, functions=214),
    _config("sgmls-1.1", seed=122, functions=240),
    _config("screen-3.5.2", seed=123, functions=268),
    _config("cvs-1.3", seed=124, functions=300),
)

#: Small subset for fast tests.
QUICK_SUITE: Tuple[GeneratorConfig, ...] = tuple(
    config for config in FULL_SUITE
    if config.name in (
        "allroots", "anagram", "ks", "compress", "compiler", "eqntott",
    )
)

#: Mid-size subset for the default benchmark harness run.
MEDIUM_SUITE: Tuple[GeneratorConfig, ...] = tuple(
    config for config in FULL_SUITE
    if config.name in (
        "allroots", "diff.diffh", "anagram", "genetic", "ks", "ul", "ft",
        "compress", "ratfor", "compiler", "assembler", "ML-typecheck",
        "eqntott", "simulator", "less-177", "li",
    )
)

_SUITES: Dict[str, Tuple[GeneratorConfig, ...]] = {
    "quick": QUICK_SUITE,
    "medium": MEDIUM_SUITE,
    "full": FULL_SUITE,
}


@dataclass
class Benchmark:
    """One suite entry: generated source plus lazily built artifacts."""

    config: GeneratorConfig
    source: str
    _unit: Optional[ast.TranslationUnit] = None
    _program: Optional[AndersenProgram] = None

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def lines_of_code(self) -> int:
        return self.source.count("\n") + 1

    @property
    def unit(self) -> ast.TranslationUnit:
        if self._unit is None:
            self._unit = parse(self.source, filename=self.name)
        return self._unit

    @property
    def ast_nodes(self) -> int:
        return self.unit.count_nodes()

    @property
    def program(self) -> AndersenProgram:
        """The generated Andersen constraint system (cached)."""
        if self._program is None:
            self._program = analyze_unit(
                self.unit, source_lines=self.lines_of_code
            )
        return self._program


@lru_cache(maxsize=None)
def _benchmark_for(config: GeneratorConfig) -> Benchmark:
    return Benchmark(config, generate_program(config))


def benchmark(name: str) -> Benchmark:
    """Look up one suite benchmark by its Table 1 name."""
    for config in FULL_SUITE:
        if config.name == name:
            return _benchmark_for(config)
    raise KeyError(f"unknown benchmark {name!r}")


def suite(which: str = "medium") -> List[Benchmark]:
    """Materialize a named suite ("quick", "medium", or "full")."""
    try:
        configs = _SUITES[which]
    except KeyError:
        raise KeyError(
            f"unknown suite {which!r}; choose from {sorted(_SUITES)}"
        ) from None
    return [_benchmark_for(config) for config in configs]


def select_benchmarks(which: str = "medium",
                      names: Optional[Iterable[str]] = None
                      ) -> List[Benchmark]:
    """A named suite, optionally restricted to the benchmarks in ``names``.

    Suite order is kept.  Raises :class:`KeyError` for an unknown suite
    or for any name the suite does not contain.
    """
    selected = suite(which)
    if names is None:
        return selected
    wanted = set(names)
    selected = [bench for bench in selected if bench.name in wanted]
    missing = wanted - {bench.name for bench in selected}
    if missing:
        raise KeyError(
            f"benchmarks not in suite {which!r}: {sorted(missing)}"
        )
    return selected


def suite_names(which: str = "medium") -> List[str]:
    return [config.name for config in _SUITES[which]]


def save_sources(directory: str, which: str = "medium") -> List[str]:
    """Write the generated C sources to ``directory`` for inspection.

    Returns the written file paths.  Useful for eyeballing workloads or
    feeding them to an external compiler/analyzer.
    """
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for bench in suite(which):
        safe = bench.name.replace("/", "_")
        path = os.path.join(directory, f"{safe}.c")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(bench.source)
        written.append(path)
    return written
