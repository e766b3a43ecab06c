"""GNN model conv semantics vs naive per-vertex loops, and full layers
(:class:`repro.mp.Layer` over each registered spec)."""

import numpy as np
import pytest

from repro.models import MODEL_NAMES, build_conv, reference_aggregate
from repro.models import functional as F
from repro.models.convspec import AttentionSpec, ConvWorkload
from repro.mp import Layer, MessageSpec, ReduceSpec, SelfTerm, bind, gcn_norm

from ..conftest import make_workload


def naive_conv(workload) -> np.ndarray:
    """Literal per-vertex double loop over Eq. (1) of the paper."""
    g = workload.graph
    X = workload.X.astype(np.float64)
    w = workload.resolved_edge_weights().astype(np.float64)
    out = np.zeros_like(X)
    for u in range(g.num_vertices):
        lo, hi = g.indptr[u], g.indptr[u + 1]
        msgs = [w[i] * X[g.indices[i]] for i in range(lo, hi)]
        if msgs:
            reduce_fn = {"sum": np.sum, "mean": np.mean, "max": np.max}
            out[u] = reduce_fn[workload.reduce](msgs, axis=0)
        if workload.self_coeff is not None:
            out[u] += workload.self_coeff[u] * X[u]
    return out.astype(np.float32)


class TestReferenceVsNaive:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_all_models(self, small_random, model):
        wl = make_workload(small_random, model, 8)
        np.testing.assert_allclose(
            reference_aggregate(wl), naive_conv(wl), rtol=1e-4, atol=1e-5
        )

    def test_max_reduce(self, small_random, rng):
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        wl = ConvWorkload(graph=small_random, X=X, reduce="max")
        np.testing.assert_allclose(
            reference_aggregate(wl), naive_conv(wl), rtol=1e-5, atol=1e-6
        )

    def test_empty_neighborhoods_zero(self, star_graph, rng):
        X = rng.standard_normal((star_graph.num_vertices, 4), dtype=np.float32)
        wl = ConvWorkload(graph=star_graph, X=X, reduce="sum")
        out = reference_aggregate(wl)
        assert np.all(out[1:] == 0)
        np.testing.assert_allclose(out[0], X[1:].sum(axis=0), rtol=1e-4)


class TestGCN:
    def test_norm_symmetric(self, tiny_graph):
        w, self_coeff = gcn_norm(tiny_graph)
        assert w.shape == (tiny_graph.num_edges,)
        assert np.all(w > 0) and np.all(w <= 1.0)
        # vertex A (deg 3): self coeff 1/4
        assert self_coeff[0] == pytest.approx(0.25)

    def test_figure1_example(self, tiny_graph):
        """Vertex A aggregates B, C, D weighted by degree (paper Fig. 1)."""
        X = np.eye(4, dtype=np.float32)
        wl = build_conv("gcn", tiny_graph, X)
        out = reference_aggregate(wl)
        # A's new feature mixes contributions from B, C, D and itself
        assert np.all(out[0] > 0)

    def test_layer_shapes(self, small_random, rng):
        layer = Layer.init("gcn", 8, 5, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X)
        assert out.shape == (small_random.num_vertices, 5)
        assert np.all(out >= 0)  # ReLU

    def test_layer_no_activation(self, small_random, rng):
        layer = Layer.init("gcn", 8, 5, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X, activation=False)
        assert np.any(out < 0)


class TestGIN:
    def test_self_term(self, chain_graph, rng):
        X = rng.standard_normal((chain_graph.num_vertices, 4), dtype=np.float32)
        wl = build_conv("gin", chain_graph, X)
        out = reference_aggregate(wl)
        # vertex 0 has no in-edges: output = (1+eps)*X[0] with eps=0
        np.testing.assert_allclose(out[0], X[0], rtol=1e-6)
        # vertex i>0: X[i] + X[i-1]
        np.testing.assert_allclose(out[3], X[3] + X[2], rtol=1e-5)

    def test_eps(self, chain_graph, rng):
        X = rng.standard_normal((chain_graph.num_vertices, 4), dtype=np.float32)
        wl = bind(
            "gin",
            MessageSpec(feature="src"),
            ReduceSpec(op="sum", self_term=SelfTerm(kind="eps", eps=0.5)),
            chain_graph,
            X,
        ).workload()
        out = reference_aggregate(wl)
        np.testing.assert_allclose(out[0], 1.5 * X[0], rtol=1e-6)

    def test_layer_then_linear(self, small_random, rng):
        """GIN's MLP is a Layer (dense + conv + ReLU) followed by linear,
        which equals conv-then-MLP because the conv is linear in X."""
        layer = Layer.init("gin", 8, 16, rng)
        w2 = F.xavier_uniform((16, 4), rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = F.linear(layer.forward(small_random, X), w2)
        assert out.shape == (small_random.num_vertices, 4)
        agg = reference_aggregate(build_conv("gin", small_random, X))
        manual = np.maximum(agg @ layer.weight, 0.0) @ w2
        np.testing.assert_allclose(out, manual, rtol=1e-4, atol=1e-4)


class TestSAGE:
    def test_mean_aggregation(self, chain_graph, rng):
        X = rng.standard_normal((chain_graph.num_vertices, 4), dtype=np.float32)
        wl = build_conv("sage", chain_graph, X)
        out = reference_aggregate(wl)
        np.testing.assert_allclose(out[5], X[4], rtol=1e-5)  # mean of one
        assert np.all(out[0] == 0)  # no neighbours

    def test_graphsage_alias(self, small_random, rng):
        X = rng.standard_normal((small_random.num_vertices, 4), dtype=np.float32)
        a = build_conv("sage", small_random, X)
        b = build_conv("graphsage", small_random, X)
        np.testing.assert_allclose(
            reference_aggregate(a), reference_aggregate(b)
        )

    def test_layer(self, small_random, rng):
        """The concat self-term's weight transforms the layer input."""
        layer = Layer.init("sage", 8, 6, rng)
        assert layer.self_weight is not None
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X, activation=False)
        assert out.shape == (small_random.num_vertices, 6)
        agg = reference_aggregate(build_conv("sage", small_random, X))
        manual = X @ layer.self_weight + agg @ layer.weight
        np.testing.assert_allclose(out, manual, rtol=1e-4, atol=1e-5)

    def test_self_weight_only_for_concat(self, rng):
        sage = Layer.init("sage", 4, 2, rng)
        with pytest.raises(ValueError, match="self_weight"):
            Layer("sage", sage.message, sage.reduce, weight=sage.weight)
        gcn = Layer.init("gcn", 4, 2, rng)
        assert gcn.self_weight is None
        with pytest.raises(ValueError, match="self_weight"):
            Layer(
                "gcn", gcn.message, gcn.reduce, weight=gcn.weight,
                self_weight=sage.self_weight,
            )


class TestGAT:
    def test_attention_weights_normalized(self, gat_workload):
        w = gat_workload.resolved_edge_weights()
        g = gat_workload.graph
        sums = np.zeros(g.num_vertices)
        dst = np.repeat(np.arange(g.num_vertices), g.in_degrees)
        np.add.at(sums, dst, w.astype(np.float64))
        nonempty = g.in_degrees > 0
        np.testing.assert_allclose(sums[nonempty], 1.0, rtol=1e-5)

    def test_output_in_convex_hull(self, small_random, rng):
        # softmax weights are convex: each output row bounded by neighbour
        # feature extremes
        X = rng.standard_normal((small_random.num_vertices, 4), dtype=np.float32)
        wl = make_workload(small_random, "gat", 4)
        out = reference_aggregate(wl)
        assert np.all(out <= wl.X.max() + 1e-5)
        assert np.all(out >= wl.X.min() - 1e-5)

    def test_layer(self, small_random, rng):
        layer = Layer.init("gat", 8, 6, rng)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        out = layer.forward(small_random, X)
        assert out.shape == (small_random.num_vertices, 6)
        assert np.all(out >= 0)  # ReLU

    def test_attention_bound_once(self, small_random, rng):
        """init binds the attention vectors, so forwards are repeatable."""
        layer = Layer.init("gat", 8, 6, rng)
        scale = layer.message.scale
        assert scale.a_src is not None and scale.a_src.shape == (6,)
        X = rng.standard_normal((small_random.num_vertices, 8), dtype=np.float32)
        np.testing.assert_array_equal(
            layer.forward(small_random, X), layer.forward(small_random, X)
        )


class TestConvWorkloadValidation:
    def test_bad_reduce(self, tiny_graph):
        with pytest.raises(ValueError, match="reduce"):
            ConvWorkload(graph=tiny_graph, X=np.ones((4, 2), np.float32),
                         reduce="prod")

    def test_bad_feature_rows(self, tiny_graph):
        with pytest.raises(ValueError, match="rows"):
            ConvWorkload(graph=tiny_graph, X=np.ones((3, 2), np.float32))

    def test_bad_edge_weights(self, tiny_graph):
        with pytest.raises(ValueError, match="per edge"):
            ConvWorkload(
                graph=tiny_graph,
                X=np.ones((4, 2), np.float32),
                edge_weights=np.ones(3, np.float32),
            )

    def test_attention_excludes_weights(self, tiny_graph):
        att = AttentionSpec(
            att_src=np.zeros(4, np.float32), att_dst=np.zeros(4, np.float32)
        )
        with pytest.raises(ValueError, match="exclusive"):
            ConvWorkload(
                graph=tiny_graph,
                X=np.ones((4, 2), np.float32),
                edge_weights=np.ones(6, np.float32),
                attention=att,
            )

    def test_attention_requires_sum(self, tiny_graph):
        att = AttentionSpec(
            att_src=np.zeros(4, np.float32), att_dst=np.zeros(4, np.float32)
        )
        with pytest.raises(ValueError, match="sum"):
            ConvWorkload(
                graph=tiny_graph,
                X=np.ones((4, 2), np.float32),
                attention=att,
                reduce="mean",
            )

    def test_unknown_model(self, tiny_graph):
        with pytest.raises(ValueError, match="unknown model"):
            build_conv("transformer", tiny_graph, np.ones((4, 2), np.float32))

    def test_edge_scalar_loads(self, small_random, rng):
        gcn = make_workload(small_random, "gcn", 4)
        gin = make_workload(small_random, "gin", 4)
        gat = make_workload(small_random, "gat", 4)
        assert gcn.edge_scalar_loads == 1
        assert gin.edge_scalar_loads == 0
        assert gat.edge_scalar_loads == 1
