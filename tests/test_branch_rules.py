"""Each rule about a model branch lives in one function of ``src/ual``.

Which branch runs the quality filter and which samples is decided by
``pipeline._noise`` alone, every branch is inferred through one ``infer``
call with no type dispatch, and one check, ``pipeline._features``, names
the group whose feature dim does not match the model.
"""

import ast

from test_input_rules import _scopes_holding

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


def test_only_noise_and_validate_read_fiqe_apply():
    assert _scopes_holding(_reads_fiqe_apply) == {
        "pipeline.TrainingConfig.validate", "pipeline._noise"
    }


def test_no_isinstance_dispatch_on_branch_classes():
    assert _scopes_holding(_dispatches_on_branch) == set()


def test_model_dim_error_is_raised_only_by_features():
    assert _scopes_holding(_raises_model_dim) == {"pipeline._features"}
