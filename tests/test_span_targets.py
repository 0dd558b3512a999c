"""Tripwire for the benchmark's span targets.

``perfbench/spans.py`` names the ``longrec`` functions its traced run wraps,
as "module:attribute" or "module:Class.method". A target that no longer
resolves is dropped silently (the run lists its span as absent and reports
0 for it), so this test resolves every target and fails when one that
resolved before stops resolving. The file is loaded by path, so the test
runs under plain ``pytest`` without ``perfbench`` on the import path.
"""

import importlib
import importlib.util
from pathlib import Path

# Targets that resolve to nothing today; a benchmark mend that re-points
# them shrinks this set, and no other target may join it.
KNOWN_UNRESOLVED = {
    "longrec.attention:cross_causal_block",
    "longrec.attention:self_causal_block",
    "longrec.attention:attention_block_cached",
    "longrec.tensors:matmul",
    "longrec.tensors:matmul_t",
    "longrec.tensors:gelu",
    "longrec.tensors:masked_softmax",
}


def load_span_targets() -> dict:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def resolves(target: str) -> bool:
    """Whether ``target`` names a callable, looked up as the tracer does: a
    class attribute from the class's own namespace."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    value = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    return callable(value)


def test_span_targets_resolve_except_the_known_stale_ones():
    targets = [t for names in load_span_targets().values() for t in names]
    assert targets and len(set(targets)) == len(targets)
    unresolved = {t for t in targets if not resolves(t)}
    assert unresolved <= KNOWN_UNRESOLVED, sorted(unresolved - KNOWN_UNRESOLVED)


def test_resolves_tells_present_from_absent():
    assert resolves("longrec.serving:build_cache")
    assert resolves("longrec.model:LongRecModel.forward_tensor")
    assert not resolves("longrec.model:LongRecModel.no_such_method")
    assert not resolves("longrec.model:NoSuchClass.forward_tensor")
    assert not resolves("longrec.inputs:no_such_function")
