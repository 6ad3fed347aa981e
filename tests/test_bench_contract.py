"""The names the benchmark under perfbench/ relies on.

perfbench wraps every function its ``spans.LAYERS`` lists, found in the
module ``cascade_synth.<layer>`` (methods in their class body), and its
workloads call the package namespace as ``cs.<name>`` and build a
``cs.RealizationDocument`` by keyword.  Removing or moving one of these
names, or a keyword, breaks the benchmark, so these tests fail first.
"""

import ast
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import cascade_synth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    # spans.py imports only the standard library, so loading it by path is safe
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_NAMES = [
    (layer, name) for layer, (names, _) in load_spans().LAYERS.items() for name in names
]
WORKLOADS = (PERFBENCH / "workloads.py").read_text()
WORKLOAD_NAMES = sorted(set(re.findall(r"\bcs\.([A-Za-z_]\w*)", WORKLOADS)))
DOCUMENT_CALLS = [
    node
    for node in ast.walk(ast.parse(WORKLOADS))
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "cs.RealizationDocument"
]


def test_names_were_found():
    assert len(SPAN_NAMES) >= 20 and "passive_realize" in WORKLOAD_NAMES
    assert DOCUMENT_CALLS


@pytest.mark.parametrize("layer, name", SPAN_NAMES, ids=[f"{l}.{n}" for l, n in SPAN_NAMES])
def test_span_resolves_in_its_layer(layer, name):
    home = importlib.import_module(f"cascade_synth.{layer}")
    if "." in name:
        cls_name, method = name.split(".")
        assert method in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, name))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_name_is_exported(name):
    assert name in cascade_synth.__all__
    assert hasattr(cascade_synth, name)


@pytest.mark.parametrize("call", DOCUMENT_CALLS, ids=lambda call: f"line-{call.lineno}")
def test_realization_document_keywords_are_init_fields(call):
    fields = dataclasses.fields(cascade_synth.RealizationDocument)
    assert not call.args
    assert {kw.arg for kw in call.keywords} <= {f.name for f in fields if f.init}
