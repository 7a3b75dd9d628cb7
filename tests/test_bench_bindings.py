"""The benchmark's traced bindings must exist in the package.

``perfbench/tracing.py`` patches each binding in its ``TARGETS`` where the
package's callers look it up. Deleting or renaming one breaks only the
benchmark, whose own tests are not part of this suite, so this test resolves
every binding without running any workload.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "target", tracing.TARGETS, ids=[f"{t.module}:{t.attr}" for t in tracing.TARGETS]
)
def test_binding_resolves(target):
    owner, name = tracing._owner(target)
    # install() patches owner.__dict__[name], so an inherited attribute is not enough
    assert name in owner.__dict__, f"{target.module}.{target.attr} is gone"
    assert callable(getattr(owner, name))


def test_trace_keys_read_the_arguments_they_expect():
    from ual.pipeline import Trainer, predict_group

    # the train_epoch span is keyed by args[2], the predict_group span by args[0].id
    assert list(inspect.signature(Trainer.train_epoch).parameters)[2] == "epoch"
    assert list(inspect.signature(predict_group).parameters)[0] == "group"
