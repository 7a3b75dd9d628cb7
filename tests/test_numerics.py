import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ual.errors import DataError, NumericError, ShapeError
from ual.numerics import (
    AffineMap,
    ParameterStore,
    SeededRng,
    block_normals,
    derive_seeds,
    gradient_check,
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
)


def affine(W, b):
    """An AffineMap holding the given weight and bias, with its store."""
    W = np.asarray(W, dtype=np.float64)
    unit = AffineMap("lin", W.shape[1], W.shape[0])
    store = ParameterStore()
    unit.register(store, SeededRng(0))
    store.set("lin.weight", W)
    store.set("lin.bias", b)
    return unit, store


class TestLinearForward:
    def test_identity(self):
        unit, store = affine(np.eye(2), [0.0, 0.0])
        assert np.allclose(unit.forward(store, np.array([[1.0, 0.0]])), [1.0, 0.0])

    def test_direct_substitution(self):
        unit, store = affine([[1.0, 1.0], [0.0, 1.0]], [1.0, 0.0])
        assert np.allclose(unit.forward(store, np.array([[1.0, 2.0]])), [4.0, 2.0])

    def test_random_map_matches_bruteforce(self):
        rng = SeededRng(3)
        x = rng.normals(8)
        W = rng.normals((4, 8))
        b = rng.normals(4)
        unit, store = affine(W, b)
        # independent oracle: explicit loops (summation order differs from
        # BLAS by at most an ulp, hence the machine-precision tolerance);
        # a stack of row stacks and a row stack are the forms the branches use
        expected = np.array([sum(W[i, j] * x[j] for j in range(8)) + b[i] for i in range(4)])
        np.testing.assert_allclose(
            unit.forward(store, x[None, None])[0, 0], expected, rtol=1e-14, atol=1e-14
        )
        np.testing.assert_allclose(
            unit.forward(store, x[None, :])[0], expected, rtol=1e-14, atol=1e-14
        )

    def test_dimension_mismatch(self):
        unit, store = affine(np.eye(2), [0.0, 0.0])
        with pytest.raises(ShapeError):
            unit.forward(store, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError):
            unit.forward(store, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            store.set("lin.bias", [0.0, 0.0, 0.0])


def softmax_ce_one(logits, label):
    """Loss and probability vector of one logit vector, run as a stack of one."""
    loss, probs = softmax_cross_entropy(np.asarray(logits)[None], [label])
    return float(loss[0]), probs[0]


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, probs = softmax_ce_one([0.0, 0.0, 0.0], 0)
        assert loss == pytest.approx(math.log(3.0), abs=1e-15)
        assert np.allclose(probs, [1 / 3] * 3)

    def test_confident_logits(self):
        loss, _ = softmax_ce_one([10.0, 0.0, 0.0], 0)
        # independent evaluation of -log(e^10 / (e^10 + 2))
        expected = math.log(math.exp(10.0) + 2.0) - 10.0
        assert loss == pytest.approx(expected, rel=1e-12)
        assert loss == pytest.approx(9.08e-5, rel=1e-2)

    def test_shift_invariance(self):
        base = np.array([0.3, -1.2, 2.0])
        _, p0 = softmax_ce_one(base, 1)
        _, p1 = softmax_ce_one(base + 123.456, 1)
        assert np.allclose(p0, p1, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            softmax_ce_one([0.0, 0.0], 2)
        with pytest.raises(DataError):
            softmax_ce_one([0.0, 0.0], -1)

    @given(st.lists(st.floats(-500, 500), min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_simplex_property(self, logits):
        probs = softmax(np.array(logits))
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_grad_is_probs_minus_onehot(self):
        _, p = softmax_cross_entropy([[0.1, 0.2, 0.3]], [2])
        g = softmax_cross_entropy_grad(p, [2])
        assert np.allclose(g, p - np.array([0.0, 0.0, 1.0]))


class TestSeededRng:
    def test_replay(self):
        a = SeededRng(99).normals(1000)
        b = SeededRng(99).normals(1000)
        assert np.array_equal(a, b)

    def test_moments(self):
        z = SeededRng(7).normals(100_000)
        assert abs(z.mean()) < 0.05
        assert 0.9 < z.var() < 1.1

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).normals(16), SeededRng(2).normals(16))

    def test_derive_independent_of_consumption(self):
        r = SeededRng(5)
        child_before = r.derive("x", 3).seed
        r.normals(100)
        assert r.derive("x", 3).seed == child_before

    def test_derive_distinguishes_parts(self):
        r = SeededRng(5)
        seeds = {
            r.derive("a").seed,
            r.derive("b").seed,
            r.derive("a", 0).seed,
            r.derive("a", 1).seed,
            r.derive(0, "a").seed,
        }
        assert len(seeds) == 5

    def test_integer_needs_a_positive_bound(self):
        with pytest.raises(ValueError, match=r"^integer\(\) needs n >= 1$"):
            SeededRng(1).integer(0)

    def test_uniform_range(self):
        u = SeededRng(11).uniforms(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_permutation(self):
        perm = SeededRng(13).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))
        assert np.array_equal(perm, SeededRng(13).permutation(50))

    @pytest.mark.parametrize("seed", [0, 13, 2**64 - 1])
    def test_permutation_matches_per_swap_loop(self, seed):
        # the draw-one-uniform-per-swap Fisher-Yates it replaces
        def per_swap(rng, n):
            idx = np.arange(n)
            for i in range(n - 1, 0, -1):
                j = rng.integer(i + 1)
                idx[i], idx[j] = idx[j], idx[i]
            return idx

        fast, slow = SeededRng(seed), SeededRng(seed)
        for n in range(71):
            perm = fast.permutation(n)
            assert perm.dtype == np.arange(1).dtype
            assert np.array_equal(perm, per_swap(slow, n))
        # both consumed the same number of words
        assert fast.uniform() == slow.uniform()

    def test_derive_follows_documented_algorithm(self):
        # independent python-int replay of the docstring's derivation
        mask = (1 << 64) - 1

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        def fnv(text):
            h = 0xCBF29CE484222325
            for byte in text.encode("utf-8"):
                h = ((h ^ byte) * 0x100000001B3) & mask
            return h

        cases = [(7, ("train", "face", 3, "g-1", 5)), (0, (-1, "é")), (2**64 - 1, (2**63,))]
        for seed, parts in cases:
            s = seed
            for part in parts:
                token = fnv(part) if isinstance(part, str) else mix(part & mask)
                s = mix(s ^ ((token + 0x9E3779B97F4A7C15) & mask))
            assert SeededRng(seed).derive(*parts).seed == s

    def test_derive_rejects_other_types(self):
        with pytest.raises(TypeError):
            SeededRng(1).derive(1.5)
        with pytest.raises(TypeError):
            derive_seeds(SeededRng(1), np.array([0.5]))


class TestStreamBlocks:
    """Vectorized stream derivation and block normals equal the scalar calls."""

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
    def test_int_parts_match_scalar_derive(self, k):
        parent = SeededRng(99).derive("train", "face", 4, "group-7")
        parts = np.arange(k) * 3 - 1  # includes a negative part
        seeds = derive_seeds(parent, parts)
        assert seeds.dtype == np.uint64 and seeds.shape == (k,)
        assert [int(s) for s in seeds] == [parent.derive(int(p)).seed for p in parts]
        assert [int(s) for s in derive_seeds(parent, parts.tolist())] == [int(s) for s in seeds]

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_str_suffix_matches_scalar_derive(self, k):
        parents = derive_seeds(SeededRng(5).derive("infer"), np.arange(k))
        for suffix in ("fiqe", "mc", ""):
            seeds = derive_seeds(parents, suffix)
            assert seeds.shape == (k,)
            assert [int(s) for s in seeds] == [
                SeededRng(int(p)).derive(suffix).seed for p in parents
            ]

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_str_array_parts_match_scalar_derive(self, k):
        parent = SeededRng(8).derive("train", "object", 2)
        ids = [f"train-{i:05d}" for i in range(k)] + ["g/é"][:k]
        for parts in (ids, np.array(ids)):
            seeds = derive_seeds(parent, parts)
            assert seeds.dtype == np.uint64 and seeds.shape == (len(ids),)
            assert [int(s) for s in seeds] == [parent.derive(gid).seed for gid in ids]
        grid = derive_seeds(parent, np.array(ids * 2).reshape(2, -1))
        assert grid.shape == (2, len(ids))
        assert [int(s) for s in grid[1]] == [parent.derive(gid).seed for gid in ids]

    def test_chained_derivation_equals_one_derive(self):
        root = SeededRng(3)
        ranks = [2, 0, 1, 1]
        seeds = derive_seeds(derive_seeds(root.derive("face", "g"), ranks), "mc")
        expected = [root.derive("face", "g", r).derive("mc").seed for r in ranks]
        assert [int(s) for s in seeds] == expected

    @pytest.mark.parametrize("shape", [1, 2, 7, 32, (8, 32), (3, 5), (5, 1), (0,), (2, 0)])
    @pytest.mark.parametrize("rows", [0, 1, 4])
    def test_block_normals_rows_equal_fresh_streams(self, shape, rows):
        seeds = derive_seeds(SeededRng(11), np.arange(rows))
        block = block_normals(seeds, shape)
        dims = (shape,) if isinstance(shape, int) else shape
        assert block.shape == (rows,) + dims
        assert block.flags["C_CONTIGUOUS"]
        for i in range(rows):
            row = SeededRng(int(seeds[i])).normals(shape)
            assert block[i].tobytes() == row.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 32, 33])
    def test_block_normals_prefix_of_a_longer_draw(self, d):
        # odd d gives odd and even n * d: an odd draw ends on the cosine half
        # of a Box-Muller pair whose sine half only the longer draw uses
        seeds = derive_seeds(SeededRng(21), np.arange(3))
        for m in (1, 2, 7, 40):
            longer = block_normals(seeds, (m, d))
            for n in range(1, m + 1):
                prefix = np.ascontiguousarray(longer[:, :n])
                assert block_normals(seeds, (n, d)).tobytes() == prefix.tobytes()

    def test_block_of_a_seed_grid(self):
        seeds = derive_seeds(SeededRng(2), np.arange(6)).reshape(2, 3)
        block = block_normals(seeds, 3)
        assert block.shape == (2, 3, 3)
        assert block[1, 2].tobytes() == SeededRng(int(seeds[1, 2])).normals(3).tobytes()


class TestParameterStore:
    def test_round_trip_bit_exact(self, tmp_path):
        store = ParameterStore()
        rng = SeededRng(21)
        store.register("a.weight", rng.normals((3, 4)))
        store.register("a.bias", np.array([0.1, -0.0, 1e-300]))
        path = tmp_path / "params.json"
        store.save(path)
        other = ParameterStore()
        other.register("a.weight", np.zeros((3, 4)))
        other.register("a.bias", np.zeros(3))
        other.restore(path)
        for name in store.names():
            assert store.get(name).tobytes() == other.get(name).tobytes()

    def test_unknown_name_on_load(self, tmp_path):
        store = ParameterStore()
        store.register("known", np.ones(2))
        store.register("extra", np.ones(1))
        path = tmp_path / "p.json"
        store.save(path)
        target = ParameterStore()
        target.register("known", np.zeros(2))
        with pytest.raises(DataError, match="unknown parameter"):
            target.restore(path)

    def test_missing_name_on_load(self, tmp_path):
        store = ParameterStore()
        store.register("known", np.ones(2))
        path = tmp_path / "p.json"
        store.save(path)
        target = ParameterStore()
        target.register("known", np.zeros(2))
        target.register("also", np.zeros(1))
        with pytest.raises(DataError, match="missing"):
            target.restore(path)

    def test_file_without_params_object(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"version": 1}\n')
        target = ParameterStore()
        target.register("known", np.zeros(2))
        with pytest.raises(DataError) as exc:
            target.restore(path)
        assert str(exc.value) == f"{path}: missing 'params' object"

    def test_get_unknown_name(self):
        store = ParameterStore()
        store.register("known", np.zeros(2))
        with pytest.raises(KeyError) as exc:
            store.get("other")
        assert exc.value.args == ("unknown parameter 'other'",)

    @pytest.mark.parametrize("edit,detail", [
        (lambda entry: entry.pop("shape"), "KeyError: 'shape'"),
        (lambda entry: entry.update(data=entry["data"][:-1]), "cannot reshape"),
        (lambda entry: entry.update(data=["x", 1.0, 2.0]), "could not convert"),
        (lambda entry: entry.update(shape=[2]), "cannot reshape"),
        (lambda entry: entry.update(shape=[3, 1]), "has shape (3,)"),
        (lambda entry: entry.update(data=[0.0, float("nan"), 1.0]), "non-finite"),
    ], ids=["no-shape", "short-data", "string", "wrong-shape", "registered-shape", "nan"])
    def test_bad_entry_names_file_and_parameter(self, tmp_path, edit, detail):
        import json

        store = ParameterStore()
        store.register("a.bias", np.array([0.5, 1.5, 2.5]))
        path = tmp_path / "p.json"
        store.save(path)
        doc = json.loads(path.read_text())
        edit(doc["params"]["a.bias"])
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="parameter 'a.bias'") as exc:
            store.restore(path)
        assert str(path) in str(exc.value) and detail in str(exc.value)

    def test_duplicate_register(self):
        store = ParameterStore()
        store.register("x", np.zeros(1))
        with pytest.raises(ValueError):
            store.register("x", np.zeros(1))

    def test_shape_mismatch_on_set(self):
        store = ParameterStore()
        store.register("x", np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            store.set("x", np.zeros(3))

    def test_subset(self):
        store = ParameterStore()
        store.register("face.w", np.ones(1))
        store.register("scene.w", np.ones(1))
        assert store.subset("face.").names() == ["face.w"]

    def test_non_finite_rejected_on_save(self, tmp_path):
        store = ParameterStore()
        store.register("x", np.array([np.nan]))
        with pytest.raises(NumericError):
            store.save(tmp_path / "p.json")


def _linear_ce_unit(seed):
    rng = SeededRng(seed)
    unit = AffineMap("unit", 6, 4)
    store = ParameterStore()
    unit.register(store, rng.derive("init"))
    x = rng.normals((1, 6))  # one row
    label = rng.integer(4)

    def loss_fn(s):
        grads = {}
        logits = unit.forward(s, x)
        loss, probs = softmax_cross_entropy(logits, label)
        unit.backward(s, x, softmax_cross_entropy_grad(probs, label), grads)
        return float(loss[0]), grads

    return loss_fn, store


class TestGradientCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_linear_softmax_ce_passes(self, seed):
        loss_fn, store = _linear_ce_unit(seed)
        res = gradient_check(loss_fn, store, tolerance=1e-4)
        assert res.passed, res.max_rel_error

    def test_zero_weight_unit_passes(self):
        loss_fn, store = _linear_ce_unit(0)
        store.get("unit.weight")[...] = 0.0
        store.get("unit.bias")[...] = 0.0
        res = gradient_check(loss_fn, store, tolerance=1e-4)
        assert res.passed

    def test_corrupted_backward_fails(self):
        loss_fn, store = _linear_ce_unit(1)

        def corrupted(s):
            loss, grads = loss_fn(s)
            return loss, {k: 2.0 * v for k, v in grads.items()}

        res = gradient_check(corrupted, store, tolerance=1e-4)
        assert not res.passed
        # doubling the gradient makes the relative error |2g - g| / 2g = 0.5... 1
        assert res.worst > 0.4

    def test_non_finite_gradient_reports_name(self):
        loss_fn, store = _linear_ce_unit(2)

        def broken(s):
            loss, grads = loss_fn(s)
            grads["unit.bias"] = grads["unit.bias"] * np.nan
            return loss, grads

        res = gradient_check(broken, store, tolerance=1e-4)
        assert not res.passed
        assert res.failure == "unit.bias"


def test_forward_backward_determinism():
    # fixed seed => bit-identical forward, backward, and sampled values
    def run():
        rng = SeededRng(31)
        unit = AffineMap("u", 5, 3)
        store = ParameterStore()
        unit.register(store, rng.derive("init"))
        x = rng.normals((1, 5))  # one row
        grads = {}
        logits = unit.forward(store, x)
        loss, probs = softmax_cross_entropy(logits, 1)
        dx = unit.backward(store, x, softmax_cross_entropy_grad(probs, 1), grads)
        return logits.tobytes(), repr(loss), dx.tobytes(), grads["u.weight"].tobytes()

    assert run() == run()
