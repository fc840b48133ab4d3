"""Names that the benchmark under perfbench/ reads or wraps by name.

perfbench/child.py records `twistsel.KERNEL_BACKEND` and perfbench/compare.py
refuses to compare records whose backends differ; perfbench/tracer.py wraps
each (module, attribute) of its TARGETS and rebinds every module-level alias
of the same function object.  Renaming any of these breaks the benchmark.
"""

import importlib.util
from pathlib import Path

import twistsel
from twistsel import _kernels, quadforms, reduction

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_kernel_backend_is_python():
    assert twistsel.KERNEL_BACKEND == "python"


def test_kernels_expose_traced_names():
    for name in ("count_points", "reduced_forms", "class_number"):
        assert callable(getattr(_kernels, name)), name


def test_callers_bind_the_kernel_functions():
    # the tracer's rebinding reaches a caller only through the same object
    assert quadforms._kernel_reduced_forms is _kernels.reduced_forms
    assert quadforms._kernel_class_number is _kernels.class_number
    assert reduction.count_points is _kernels.count_points


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, attr, _name, _mode in tracer.TARGETS:
        mod = importlib.import_module(f"twistsel.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"
