"""Tests for the Module system and the feed-forward layers."""

import numpy as np
import pytest

from repro.nn import (
    Embedding,
    Flatten,
    Identity,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    initializers,
)
from repro.nn.module import Module
from repro.tensor import Tensor, check_gradients


class TestModuleSystem:
    def test_parameter_registration(self, rng):
        layer = Linear(4, 3, rng=rng)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]
        assert len(layer.parameters()) == 2

    def test_nested_module_parameters(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        assert len(model.parameters()) == 4
        names = [name for name, _ in model.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self, rng):
        layer = Linear(3, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(4, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_num_parameters(self, rng):
        layer = Linear(10, 5, rng=rng)
        assert layer.num_parameters() == 10 * 5 + 5

    def test_state_dict_roundtrip(self, rng):
        a = Linear(4, 3, rng=rng)
        b = Linear(4, 3, rng=np.random.default_rng(999))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self, rng):
        a = Linear(4, 3, rng=rng)
        state = a.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self, rng):
        a = Linear(4, 3, rng=rng)
        state = a.state_dict()
        state["weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_sequential_iteration_and_indexing(self, rng):
        model = Sequential(Linear(2, 2, rng=rng), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)
        assert len(list(iter(model))) == 2

    def test_sequential_append(self, rng):
        model = Sequential(Linear(2, 2, rng=rng))
        model.append(ReLU())
        assert len(model) == 2
        assert len(model.parameters()) == 2


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        layer = Linear(5, 3, rng=rng)
        x = Tensor(rng.normal(size=(7, 5)))
        out = layer(x)
        assert out.shape == (7, 3)
        assert np.allclose(out.data, x.data @ layer.weight.data.T + layer.bias.data)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradcheck(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = Tensor(rng.normal(size=(5, 4)))
        check_gradients(lambda: (layer(x) ** 2).sum(), layer.parameters())

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, -1)


class TestActivationsAndUtilityLayers:
    @pytest.mark.parametrize("layer_cls,fn", [
        (ReLU, lambda x: np.maximum(x, 0)),
        (Sigmoid, lambda x: 1 / (1 + np.exp(-x))),
        (Tanh, np.tanh),
    ])
    def test_activation_values(self, layer_cls, fn, rng):
        x = rng.normal(size=(3, 4))
        assert np.allclose(layer_cls()(Tensor(x)).data, fn(x))

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x

    def test_flatten(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3)))
        assert Flatten()(x).shape == (4, 6)


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(20, 6, rng=rng)
        out = emb(np.array([[1, 2, 3], [4, 5, 6]]))
        assert out.shape == (2, 3, 6)

    def test_out_of_range_raises(self, rng):
        emb = Embedding(10, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_invalid_constructor(self):
        with pytest.raises(ValueError):
            Embedding(0, 4)


class TestInitializers:
    @pytest.mark.parametrize("name", ["xavier_uniform", "xavier_normal", "he_normal",
                                      "uniform", "orthogonal"])
    def test_shapes(self, name, rng):
        init = initializers.get(name)
        assert init((16, 8), rng).shape == (16, 8)

    def test_unknown_initializer(self):
        with pytest.raises(KeyError):
            initializers.get("nope")

    def test_zeros(self):
        assert np.all(initializers.zeros((3, 3)) == 0)

    def test_orthogonal_is_orthogonal(self, rng):
        q = initializers.orthogonal((8, 8), rng)
        assert np.allclose(q @ q.T, np.eye(8), atol=1e-8)

    def test_orthogonal_requires_2d(self, rng):
        with pytest.raises(ValueError):
            initializers.orthogonal((4,), rng)

    def test_xavier_uniform_bounds(self, rng):
        w = initializers.xavier_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= limit + 1e-12)
