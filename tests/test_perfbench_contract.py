"""Names that the benchmark under perfbench/ reads or wraps by name.

perfbench/child.py records `twistsel.KERNEL_BACKEND` and perfbench/compare.py
refuses to compare records whose backends differ; perfbench/tracer.py wraps
each (module, attribute) of its TARGETS and rebinds every module-level alias
of the same function object.  Renaming any of these breaks the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import twistsel
from twistsel import _kernels, quadforms, rayclass, reduction

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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_exist():
    tracer = _load_tracer()
    for mod_name, attr, _name, _mode in tracer.TARGETS:
        mod = importlib.import_module(f"twistsel.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"


def _traced(monkeypatch, call):
    """(counts, span names) of one call under the benchmark's tracer, bindings restored after."""
    tracer_mod = _load_tracer()
    for mod_name, *_ in tracer_mod.TARGETS:
        importlib.import_module(f"twistsel.{mod_name}")
    with monkeypatch.context() as m:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "twistsel" or mod_name.startswith("twistsel."):
                for attr, value in list(vars(mod).items()):
                    if callable(value):
                        m.setattr(mod, attr, value)  # undone when the context closes
        tracer = tracer_mod.Tracer()
        tracer.install()
        call()
        return tracer.counts(), {span[0] for span in tracer.spans}


def test_a_check_reaches_the_traced_curve_level_targets(monkeypatch, capsys):
    # the curve-level facts travel in the hypothesis report, and every Tate run
    # and point count still goes through a traced name
    from twistsel import cli

    codes = []
    argv = ["check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d=-37"]
    _, spans = _traced(monkeypatch, lambda: codes.append(cli.main(argv)))
    assert codes == [0] and capsys.readouterr().out
    assert {"checker.hypothesis_check", "reduction.local_reduction", "reduction.ap"} <= spans


def test_tracer_counts_every_composition_of_both_layers(monkeypatch):
    # h(-724) = 10: the Sylow 5-walk composes through quadforms.compose
    counts, _ = _traced(monkeypatch, lambda: quadforms.ell_part(-724, 5))
    assert counts.get("quadforms.compose", 0) > 0
    # curve 26, d = -2033: h = 28 and 13 inert, so the connecting map runs (delta rank 1)
    data = []
    counts, spans = _traced(monkeypatch, lambda: data.append(rayclass.ray_class_data(-8132, (13,), 7)))
    assert (data[0].cl_ell_rank, data[0].w_ell_dim, data[0].delta_rank) == (1, 1, 1)
    assert counts.get("quadforms.compose", 0) > 0
    # and rayclass's torsion basis, grown by quadforms.join, composes beyond the class-group walk
    walk, _ = _traced(monkeypatch, lambda: quadforms.ell_part(-8132, 7))
    assert counts["quadforms.compose"] > walk["quadforms.compose"] > 0
    assert {"rayclass.ray_class_data", "rayclass.principal_generator"} <= spans
    # the bindings are restored
    assert quadforms.compose.__module__ == "twistsel.quadforms" and not hasattr(quadforms.compose, "__wrapped__")
