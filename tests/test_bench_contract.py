"""The names the benchmark under perfbench/ relies on.

perfbench wraps every function its ``spans.LAYERS`` lists, found in the
module ``cascade_synth.<layer>`` (methods in their class body), and its
workloads call the package namespace as ``cs.<name>(...)``, often by
keyword.  Removing or moving one of these names, or a parameter one of
these calls passes, breaks the benchmark, so these tests fail first.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import cascade_synth
from cascade_synth.sampling import random_passive_system

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
WORKLOAD_CALLS = [
    node
    for node in ast.walk(ast.parse(WORKLOADS))
    if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("cs.")
]


def test_names_were_found():
    assert len(SPAN_NAMES) >= 20 and "passive_realize" in WORKLOAD_NAMES
    called = {ast.unparse(call.func) for call in WORKLOAD_CALLS}
    assert {"cs.RealizationDocument", "cs.certify_equivalence", "cs.SlhSystem"} <= called


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


@pytest.mark.parametrize(
    "call", WORKLOAD_CALLS, ids=lambda call: f"{ast.unparse(call.func)[3:]}-line-{call.lineno}"
)
def test_workload_call_binds_to_its_signature(call):
    # cs.A.b(...) calls the attribute b of the exported name A
    path = ast.unparse(call.func).split(".")[1:]
    target = functools.reduce(getattr, path, cascade_synth)
    signature = inspect.signature(target)
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    keywords = [kw.arg for kw in call.keywords]
    if starred or None in keywords:
        # *args or **kwargs: only the keywords written out can be checked
        assert set(keywords) - {None} <= set(signature.parameters)
    else:
        signature.bind(*call.args, **dict.fromkeys(keywords))


def test_spans_nest_as_the_benchmark_reads_them():
    # the benchmark reports each span's self time net of the spans it opens:
    # passive_realize opens decompose_cascade, which opens is_cascade_realizable
    original = cascade_synth.passive_realize
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        cascade_synth.passive_realize(random_passive_system(3, 2, 0))
    finally:
        tracer.uninstall()
    assert cascade_synth.passive_realize is original
    name_of = {span[0]: span[1] for span in tracer.spans}
    opened_by = {name: name_of.get(parent) for _, name, _, _, parent, _ in tracer.spans}
    assert opened_by["passive.passive_realize"] is None
    assert opened_by["realizability.decompose_cascade"] == "passive.passive_realize"
    assert opened_by["realizability.is_cascade_realizable"] == "realizability.decompose_cascade"
