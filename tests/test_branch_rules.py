"""Each rule about a model branch, a stream key or a setting lives in one
function of ``src/ual``.

Which branch runs the quality filter and which samples is decided by
``pipeline._noise`` alone, every branch is inferred through one ``infer``
call with no type dispatch, and one check, ``pipeline._features``, names
the group whose feature dim does not match the model. One function,
``numerics._token``, turns a stream-key part into its token, and one,
``datagen_metrics.check_bounds``, refuses a setting that is not finite or
below its least value.
"""

import ast

import numpy as np
import pytest

from test_input_rules import _scopes_holding
from ual.numerics import SeededRng, derive_seeds

_BRANCH_CLASSES = {"FaceBranch", "ObjectBranch", "SceneBranch"}


def _reads_fiqe_apply(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "fiqe_apply"


def _dispatches_on_branch(node) -> bool:
    """``node`` is an ``isinstance`` call that names a branch class."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"):
        return False
    return any(isinstance(n, ast.Name) and n.id in _BRANCH_CLASSES
               for arg in node.args for n in ast.walk(arg))


def _raises_model_dim(node) -> bool:
    """``node`` raises a ``ShapeError`` whose message holds ``model dim``."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ShapeError"):
        return False
    return any(isinstance(n, ast.Constant) and isinstance(n.value, str) and "model dim" in n.value
               for n in ast.walk(node.exc))


def _calls_str_token(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_str_token")


def _raises_bounds_error(node) -> bool:
    """``node`` raises a ``ConfigError`` whose message holds ``must be finite``
    or ``must be >=``."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ConfigError"):
        return False
    return any(isinstance(n, ast.Constant) and isinstance(n.value, str)
               and ("must be finite" in n.value or "must be >=" in n.value)
               for n in ast.walk(node.exc))


def test_only_noise_and_validate_read_fiqe_apply():
    assert _scopes_holding(_reads_fiqe_apply) == {
        "pipeline.TrainingConfig.validate", "pipeline._noise"
    }


def test_no_isinstance_dispatch_on_branch_classes():
    assert _scopes_holding(_dispatches_on_branch) == set()


def test_model_dim_error_is_raised_only_by_features():
    assert _scopes_holding(_raises_model_dim) == {"pipeline._features"}


def test_only_the_token_function_hashes_strs():
    assert _scopes_holding(_calls_str_token) == {"numerics._token"}


def test_bounds_errors_are_raised_only_by_check_bounds():
    assert _scopes_holding(_raises_bounds_error) == {"datagen_metrics.check_bounds"}


@pytest.mark.parametrize("parts", [
    ("face",), (7,), (np.int32(7),), (np.uint64(2**64 - 1),), (-3,), (2**63,), (2**63 + 9,),
    (2**64,), (2**64 + 5,), (2**70 - 1,), ("train", "face", 3, "g-1"), (),
], ids=repr)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_derive_equals_derive_seeds(seed, parts):
    assert SeededRng(seed).derive(*parts).seed == int(derive_seeds(SeededRng(seed), *parts))


@pytest.mark.parametrize("part", [True, False, np.bool_(True), 1.5, np.float64(2.0),
                                  np.array([1.0]), np.array([1, "a"], dtype=object)],
                         ids=repr)
def test_derive_and_derive_seeds_refuse_other_parts(part):
    with pytest.raises(TypeError):
        SeededRng(1).derive(part)
    with pytest.raises(TypeError):
        derive_seeds(SeededRng(1), part)
