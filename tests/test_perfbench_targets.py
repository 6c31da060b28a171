"""The benchmark's traced run patches named functions on cvcat's modules
(``perfbench/tracing.py``'s ``TARGETS``). A refactor that drops or renames
one of those names would break the traced run; this test catches it here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert tracing.TARGETS
    assert missing == []
