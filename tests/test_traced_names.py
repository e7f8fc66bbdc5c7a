"""Every name the benchmark tracer patches still exists in lahbell.

`benchmarks/tracing.py` resolves its TRACED names only when `--trace 1`
installs it, so a renamed or deleted function would otherwise surface only
in the benchmark's own tests. The file is loaded read-only, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lahbell_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    for sub in tracing.SUBMODULES:
        importlib.import_module(f"lahbell.{sub}")
    missing = []
    for module_name, names in tracing.TRACED.values():
        module = importlib.import_module(f"lahbell.{module_name}")
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = hasattr(module, name)
            if not found:
                missing.append(f"{module_name}.{name}")
    assert not missing, f"traced names gone from lahbell: {missing}"


def test_the_cdf_cache_reports_its_hits():
    # the tracer's montecarlo.cdf_cache_hit_ratio reads the LRU statistics of
    # the traced cumulative table
    montecarlo = importlib.import_module("lahbell.montecarlo")
    assert "_cumulative_table" in _load_tracing().TRACED["montecarlo.cdf"][1]
    assert callable(getattr(montecarlo._cumulative_table, "cache_info", None))
