"""Tests for the unified ExecutionConfig / EngineRuntime stack.

Covers config validation, mode wiring into the pattern layers, the float32
execution path (end-to-end dtype retention), and the pool-wide determinism
contract: one ``ExecutionConfig.seed`` fixes the whole pooled schedule, so two
runs with the same seed produce bit-identical training histories.
"""

import numpy as np
import pytest

from repro.dropout.layers import ApproxDropConnectLinear, ApproxRandomDropoutLinear
from repro.dropout.sampler import PatternSchedule
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import LSTMConfig, LSTMLanguageModel, MLPClassifier, MLPConfig
from repro.tensor import Tensor
from repro.training import (
    ClassifierTrainer,
    ClassifierTrainingConfig,
    LanguageModelTrainer,
    LanguageModelTrainingConfig,
)


def make_mlp(strategy="row", hidden=32, rate=0.5, seed=0) -> MLPClassifier:
    return MLPClassifier(MLPConfig(hidden_sizes=(hidden, hidden),
                                   drop_rates=(rate, rate),
                                   strategy=strategy, seed=seed))


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.mode == "pooled"
        assert config.dtype == "float64"
        assert config.np_dtype == np.dtype(np.float64)

    @pytest.mark.parametrize("kwargs", [
        {"mode": "bogus"},
        {"dtype": "float16"},
        {"optimizer": "adam"},
        {"recurrent": "sparse"},
        {"loss_head": "hierarchical"},
        {"loss_head_rate": 1.0},
        {"loss_head_rate": -0.1},
        {"head_shortlist": -1},
        {"head_clusters": 0},
        {"pool_size": 0},
        {"mode": "compact"},
        {"seed": -1},
        {"seed": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)

    def test_loss_head_defaults_to_dense(self):
        assert ExecutionConfig().loss_head == "dense"
        assert "head=sampled" in ExecutionConfig(loss_head="sampled").describe()

    def test_describe_mentions_mode_and_dtype(self):
        text = ExecutionConfig(mode="masked", dtype="float32").describe()
        assert "masked" in text and "float32" in text

    def test_recurrent_defaults_to_dense(self):
        assert ExecutionConfig().recurrent == "dense"
        assert "recurrent=tiled" in ExecutionConfig(recurrent="tiled").describe()


class TestEngineRuntimeBind:
    def test_pooled_mode_builds_pooled_schedule(self):
        model = make_mlp("row")
        schedule = EngineRuntime(ExecutionConfig(mode="pooled")).bind(model)
        assert isinstance(schedule, PatternSchedule)
        assert schedule.pooled_sites()
        for module in model.modules():
            if isinstance(module, ApproxRandomDropoutLinear):
                assert module.execution_mode == "compact"

    def test_masked_mode_configures_layers(self):
        """A masked schedule pools the same sites as a pooled one; only the
        layers' execution mode differs."""
        pooled = EngineRuntime(ExecutionConfig(mode="pooled")).bind(make_mlp("row"))
        model = make_mlp("row")
        schedule = EngineRuntime(ExecutionConfig(mode="masked")).bind(model)
        assert len(schedule.pooled_sites()) == 2
        assert schedule.pooled_sites() == pooled.pooled_sites()
        for module in model.modules():
            if isinstance(module, ApproxRandomDropoutLinear):
                assert module.execution_mode == "masked"

    def test_masked_and_compact_modes_match_numerically(self):
        """Dense-masked and compact execution compute the same function."""
        x = Tensor(np.random.default_rng(0).normal(size=(4, 24)))
        layers = [ApproxDropConnectLinear(24, 24, 0.5, rng=np.random.default_rng(3))
                  for _ in range(2)]
        pattern = layers[0].resample()
        for layer, mode in zip(layers, ("masked", "compact")):
            layer.execution_mode = mode
            layer.set_pattern(pattern)
        np.testing.assert_allclose(layers[0](x).data, layers[1](x).data,
                                   rtol=1e-10, atol=1e-12)

    def test_stats_structure(self):
        model = make_mlp("row")
        runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=5))
        schedule = runtime.bind(model)
        schedule.plan(4)
        for _ in range(4):
            schedule.step()
        stats = runtime.stats()
        assert stats["mode"] == "pooled"
        assert stats["runs"] == 1
        assert stats["steps"] == 4
        assert stats["pools"]["consumed"] == 4 * len(schedule.pooled_sites())
        assert {"hits", "misses", "currsize"} <= set(stats["tile_plan_cache"])
        assert {"num_buffers", "hits", "misses"} <= set(stats["workspace"])

    def test_per_model_stats_exclude_other_runs(self):
        """stats(model=...) restricts pool/step counters to that model's run,
        and earlier runs are archived (models released) at the next bind."""
        runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=5))
        per_run = {}
        models = {}
        for name, steps in (("first", 3), ("second", 5)):
            models[name] = make_mlp("row")
            schedule = runtime.bind(models[name])
            schedule.plan(steps)
            for _ in range(steps):
                schedule.step()
            per_run[name] = runtime.stats(model=models[name])
        assert per_run["first"]["steps"] == 3
        assert per_run["first"]["pools"]["consumed"] == 3 * 2  # 2 pooled sites
        assert per_run["second"]["steps"] == 5
        # Table-level totals still cover both runs after archival...
        assert runtime.stats()["steps"] == 8
        assert runtime.stats()["pools"]["consumed"] == 16
        # ...but the first model's pair was released at the second bind.
        assert runtime.stats(model=models["first"])["steps"] == 0
        assert len(runtime._bound) == 1


def make_lstm(strategy="row", hidden=16, vocab=60, seed=0) -> LSTMLanguageModel:
    return LSTMLanguageModel(LSTMConfig(
        vocab_size=vocab, embed_size=12, hidden_size=hidden, num_layers=2,
        drop_rates=(0.5, 0.5), strategy=strategy, seed=seed))


class TestRecurrentToggle:
    """ExecutionConfig.recurrent gates the LSTM recurrent DropConnect sites."""

    def _sites(self, model):
        from repro.dropout.layers import ApproxRecurrentDropConnect

        return [m for m in model.modules()
                if isinstance(m, ApproxRecurrentDropConnect)]

    def test_pattern_strategies_attach_gated_sites(self):
        model = make_lstm("row")
        sites = self._sites(model)
        assert len(sites) == 2  # one per LSTM layer
        assert all(not site.enabled for site in sites)  # inert by default
        assert not self._sites(make_lstm("original"))  # baseline stays dense

    def test_bind_tiled_enables_and_pools_the_sites(self):
        model = make_lstm("row")
        runtime = EngineRuntime(ExecutionConfig(mode="pooled",
                                                recurrent="tiled", seed=0))
        schedule = runtime.bind(model)
        sites = self._sites(model)
        assert all(site.enabled for site in sites)
        assert all(site.backend is runtime.backend for site in sites)
        # The enabled sites join the pooled schedule alongside the three
        # activation-dropout sites (input, inter-layer, output).
        pooled = schedule.pooled_sites()
        assert sum("RecurrentDropConnect" in name for name in pooled) == 2
        assert runtime.stats()["recurrent"] == "tiled"

    def test_bind_dense_disables_previously_enabled_sites(self):
        model = make_lstm("row")
        EngineRuntime(ExecutionConfig(recurrent="tiled", seed=0)).bind(model)
        assert all(site.enabled for site in self._sites(model))
        schedule = EngineRuntime(ExecutionConfig(recurrent="dense",
                                                 seed=0)).bind(model)
        assert all(not site.enabled for site in self._sites(model))
        assert not any("RecurrentDropConnect" in name
                       for name in schedule.pooled_sites())

    def test_tiled_training_step_runs_and_counts_backend_calls(self, tiny_corpus):
        model = make_lstm("row", vocab=tiny_corpus.vocab_size)
        runtime = EngineRuntime(ExecutionConfig(mode="pooled",
                                                recurrent="tiled", seed=0))
        trainer = LanguageModelTrainer(
            model, tiny_corpus,
            LanguageModelTrainingConfig(batch_size=5, seq_len=8, epochs=1,
                                        seed=0),
            runtime=runtime)
        inputs = tiny_corpus.train[:40].reshape(8, 5)
        targets = tiny_corpus.train[1:41].reshape(8, 5)
        loss, _ = trainer.train_step(inputs, targets, model.init_state(5))
        assert np.isfinite(loss)
        for param in model.parameters():
            assert param.grad is not None
        stats = runtime.stats(model=model)
        assert stats["recurrent"] == "tiled"
        assert stats["backend_calls"].get("gemm", 0) > 0

    def test_dense_vs_tiled_recurrent_equivalence_through_the_cell(self):
        """With the same pattern, masked and compact execution of the
        recurrent site compute the same function through a whole LSTM cell."""
        from repro.nn.recurrent import LSTMCell
        from repro.dropout.layers import ApproxRecurrentDropConnect

        rng = np.random.default_rng(0)
        cells = []
        for mode in ("masked", "compact"):
            site = ApproxRecurrentDropConnect(24, 0.5, enabled=True,
                                              rng=np.random.default_rng(1))
            site.execution_mode = mode
            cells.append(LSTMCell(10, 24, rng=np.random.default_rng(2),
                                  recurrent_dropout=site))
        pattern = cells[0].recurrent_dropout.resample()
        for cell in cells:
            cell.recurrent_dropout.set_pattern(pattern)
        x = Tensor(rng.normal(size=(3, 10)))
        state = (Tensor(rng.normal(size=(3, 24))), Tensor(rng.normal(size=(3, 24))))
        masked_out, _ = cells[0](x, state)
        compact_out, _ = cells[1](x, state)
        np.testing.assert_allclose(compact_out.data, masked_out.data,
                                   rtol=1e-10, atol=1e-12)


class TestLossHeadToggle:
    """ExecutionConfig.loss_head installs and wires the compact loss head."""

    def test_bind_dense_keeps_dense_head(self):
        from repro.heads import DenseSoftmaxHead

        model = make_lstm("row")
        EngineRuntime(ExecutionConfig(loss_head="dense", seed=0)).bind(model)
        assert isinstance(model.loss_head, DenseSoftmaxHead)

    def test_bind_sampled_installs_and_pools_the_head(self):
        from repro.heads import CompactSoftmaxHead

        model = make_lstm("row")
        runtime = EngineRuntime(ExecutionConfig(mode="pooled",
                                                loss_head="sampled",
                                                loss_head_rate=0.6, seed=0))
        schedule = runtime.bind(model)
        head = model.loss_head
        assert isinstance(head, CompactSoftmaxHead)
        assert head.vocab_size == model.config.vocab_size
        assert head.drop_rate == 0.6
        # Engine attributes applied like any pattern layer's...
        assert head.execution_mode == "compact"
        assert head.backend is runtime.backend
        # ...and the head joins the pooled schedule as one more site.
        assert sum("CompactSoftmaxHead" in name
                   for name in schedule.pooled_sites()) == 1

    def test_bind_adaptive_installs_and_configures_the_head(self):
        from repro.heads import AdaptiveSoftmaxHead

        model = make_lstm("row")
        runtime = EngineRuntime(ExecutionConfig(mode="pooled",
                                                loss_head="adaptive",
                                                head_shortlist=20,
                                                head_clusters=3, seed=0))
        schedule = runtime.bind(model)
        head = model.loss_head
        assert isinstance(head, AdaptiveSoftmaxHead)
        assert head.vocab_size == model.config.vocab_size
        assert head.shortlist == 20
        # Engine attributes applied like any head's...
        assert head.execution_mode == "compact"
        assert head.backend is runtime.backend
        # ...but the head draws no randomness, so it is NOT a pattern site.
        assert not any("AdaptiveSoftmaxHead" in name
                       for name in schedule.pooled_sites())

    def test_stats_report_adaptive_head_counters(self, tiny_corpus):
        model = make_lstm("row", vocab=tiny_corpus.vocab_size)
        runtime = EngineRuntime(ExecutionConfig(mode="pooled",
                                                loss_head="adaptive",
                                                head_shortlist=12,
                                                head_clusters=3, seed=0))
        trainer = LanguageModelTrainer(
            model, tiny_corpus,
            LanguageModelTrainingConfig(batch_size=5, seq_len=8, epochs=1,
                                        seed=0),
            runtime=runtime)
        inputs = tiny_corpus.train[:40].reshape(8, 5)
        targets = tiny_corpus.train[1:41].reshape(8, 5)
        loss, _ = trainer.train_step(inputs, targets, model.init_state(5))
        assert np.isfinite(loss)
        stats = runtime.stats(model=model)
        assert stats["loss_head"]["kind"] == "adaptive"
        assert stats["loss_head"]["shortlist"] == 12
        assert stats["loss_head"]["clusters"] == 3
        assert stats["loss_head"]["draws"] == 1
        assert stats["loss_head"]["cluster_activations"] >= 0
        assert stats["loss_head"]["kept_classes"] >= len(
            model.loss_head.head_classes)

    def test_bind_back_to_dense_removes_the_sampled_site(self):
        model = make_lstm("row")
        EngineRuntime(ExecutionConfig(loss_head="sampled", seed=0)).bind(model)
        schedule = EngineRuntime(ExecutionConfig(loss_head="dense",
                                                 seed=0)).bind(model)
        assert not any("CompactSoftmaxHead" in name
                       for name in schedule.pooled_sites())

    def test_stats_report_head_draws_and_kept_classes(self, tiny_corpus):
        model = make_lstm("row", vocab=tiny_corpus.vocab_size)
        runtime = EngineRuntime(ExecutionConfig(mode="pooled",
                                                loss_head="sampled", seed=0))
        trainer = LanguageModelTrainer(
            model, tiny_corpus,
            LanguageModelTrainingConfig(batch_size=5, seq_len=8, epochs=1,
                                        seed=0),
            runtime=runtime)
        inputs = tiny_corpus.train[:40].reshape(8, 5)
        targets = tiny_corpus.train[1:41].reshape(8, 5)
        loss, _ = trainer.train_step(inputs, targets, model.init_state(5))
        assert np.isfinite(loss)
        stats = runtime.stats(model=model)
        assert stats["loss_head"]["kind"] == "sampled"
        assert stats["loss_head"]["draws"] == 1
        assert 0 < stats["loss_head"]["kept_classes"] <= tiny_corpus.vocab_size

    def test_masked_mode_sampled_head_falls_back_to_dense_loss(self, tiny_corpus):
        """The conventional baseline computes nothing compactly: under
        mode="masked" the sampled head must not sample."""
        model = make_lstm("row", vocab=tiny_corpus.vocab_size)
        runtime = EngineRuntime(ExecutionConfig(mode="masked",
                                                loss_head="sampled", seed=0))
        trainer = LanguageModelTrainer(
            model, tiny_corpus,
            LanguageModelTrainingConfig(batch_size=5, seq_len=8, epochs=1,
                                        seed=0),
            runtime=runtime)
        inputs = tiny_corpus.train[:40].reshape(8, 5)
        targets = tiny_corpus.train[1:41].reshape(8, 5)
        trainer.train_step(inputs, targets, model.init_state(5))
        assert runtime.stats(model=model)["loss_head"]["draws"] == 0


class TestRebindResetsCounters:
    """Satellite: binding a second model with the same config must reseed the
    sites and keep per-run backend call counters clean (no stat bleed)."""

    def test_rebind_per_run_backend_calls_do_not_bleed(self, tiny_corpus):
        runtime = EngineRuntime(ExecutionConfig(mode="pooled",
                                                recurrent="tiled", seed=0))
        inputs = tiny_corpus.train[:40].reshape(8, 5)
        targets = tiny_corpus.train[1:41].reshape(8, 5)
        per_run = []
        for _ in range(2):
            model = make_lstm("row", vocab=tiny_corpus.vocab_size)
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=5, seq_len=8, epochs=1,
                                            seed=0),
                runtime=runtime)
            trainer.train_step(inputs, targets, model.init_state(5))
            per_run.append(runtime.stats(model=model))
        # No bleed: each per-model record covers exactly its own run (the
        # exact counts differ between runs because each bind deliberately
        # draws a fresh pattern stream), so the two records partition the
        # runtime-wide totals instead of the second doubling up the first.
        assert per_run[0]["backend_calls"] and per_run[1]["backend_calls"]
        totals = runtime.stats()["backend_calls"]
        for op in totals:
            assert totals[op] == (per_run[0]["backend_calls"].get(op, 0)
                                  + per_run[1]["backend_calls"].get(op, 0))
        # Steps/pool counters are likewise per-run, not cumulative.
        assert per_run[1]["steps"] == per_run[0]["steps"] == 1
        assert (per_run[1]["pools"]["consumed"]
                == per_run[0]["pools"]["consumed"] == 5)  # 5 pooled sites

    def test_rebind_reseeds_sites_deterministically(self):
        """Two runtimes with the same config replay identical per-bind
        streams: bind k of runtime A draws the same pools as bind k of B."""
        def pool_fingerprint(runtime):
            model = make_lstm("row")
            schedule = runtime.bind(model)
            schedule.plan(16)
            draws = []
            for _ in range(16):
                draws.append([(type(p).__name__, p.dp, p.bias)
                              for p in schedule.step().values()])
            return draws

        first = EngineRuntime(ExecutionConfig(mode="pooled",
                                              recurrent="tiled", seed=42))
        second = EngineRuntime(ExecutionConfig(mode="pooled",
                                               recurrent="tiled", seed=42))
        assert pool_fingerprint(first) == pool_fingerprint(second)   # bind 1
        assert pool_fingerprint(first) == pool_fingerprint(second)   # bind 2


class TestFloat32Path:
    def test_parameters_cast_and_logits_stay_float32(self, tiny_mnist):
        model = make_mlp("row", hidden=32)
        runtime = EngineRuntime(ExecutionConfig(mode="pooled", dtype="float32"))
        trainer = ClassifierTrainer(
            model, tiny_mnist,
            ClassifierTrainingConfig(batch_size=50, epochs=1, seed=0),
            runtime=runtime)
        for param in model.parameters():
            assert param.data.dtype == np.float32
        loss = trainer.train_step(tiny_mnist.train_images[:50],
                                  tiny_mnist.train_labels[:50])
        assert np.isfinite(loss)
        logits = model(Tensor(tiny_mnist.train_images[:8], dtype=np.float32))
        assert logits.data.dtype == np.float32
        for param in model.parameters():
            assert param.data.dtype == np.float32
            if param.grad is not None:
                assert param.grad.dtype == np.float32

    def test_float32_training_learns(self, tiny_mnist):
        model = make_mlp("row", hidden=48, rate=0.3)
        runtime = EngineRuntime(ExecutionConfig(mode="pooled", dtype="float32"))
        trainer = ClassifierTrainer(
            model, tiny_mnist,
            ClassifierTrainingConfig(batch_size=50, epochs=8, learning_rate=0.05,
                                     seed=0),
            runtime=runtime)
        result = trainer.train()
        assert result.final_metric > 0.5  # chance is 0.1
        assert result.engine_stats["dtype"] == "float32"

    def test_float32_lstm_stays_float32(self, tiny_corpus):
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=tiny_corpus.vocab_size, embed_size=16, hidden_size=24,
            num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
        runtime = EngineRuntime(ExecutionConfig(mode="pooled", dtype="float32"))
        trainer = LanguageModelTrainer(
            model, tiny_corpus,
            LanguageModelTrainingConfig(batch_size=5, seq_len=8, epochs=1, seed=0),
            runtime=runtime)
        state = model.init_state(5)
        assert state[0][0].data.dtype == np.float32
        inputs = tiny_corpus.train[:40].reshape(8, 5)
        targets = tiny_corpus.train[1:41].reshape(8, 5)
        loss, state = trainer.train_step(inputs, targets, state)
        assert np.isfinite(loss)
        assert state[0][0].data.dtype == np.float32
        for param in model.parameters():
            assert param.data.dtype == np.float32


class TestPoolWideDeterminism:
    """Satellite: one ExecutionConfig.seed fixes the whole pooled schedule."""

    def _train_mlp(self, dataset, exec_seed: int):
        model = make_mlp("row", hidden=32, seed=0)
        runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=exec_seed))
        trainer = ClassifierTrainer(
            model, dataset,
            ClassifierTrainingConfig(batch_size=50, epochs=2, seed=0),
            runtime=runtime)
        return trainer.train()

    def test_same_seed_bit_identical_histories(self, tiny_mnist):
        first = self._train_mlp(tiny_mnist, exec_seed=123)
        second = self._train_mlp(tiny_mnist, exec_seed=123)
        assert first.history.train_loss == second.history.train_loss
        assert first.history.eval_metric == second.history.eval_metric
        assert first.history.iterations == second.history.iterations

    def test_different_seeds_differ(self, tiny_mnist):
        first = self._train_mlp(tiny_mnist, exec_seed=123)
        second = self._train_mlp(tiny_mnist, exec_seed=321)
        assert first.history.train_loss != second.history.train_loss

    def test_same_seed_bit_identical_lstm_histories(self, tiny_corpus):
        def run():
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
                num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
            runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=9))
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=5, seq_len=10, epochs=1,
                                            seed=0),
                runtime=runtime)
            return trainer.train()

        first, second = run(), run()
        assert first.history.train_loss == second.history.train_loss
        assert first.history.eval_metric == second.history.eval_metric

    def test_same_seed_bit_identical_with_tiled_recurrent(self, tiny_corpus):
        """The determinism contract extends to the recurrent pattern sites:
        recurrent="tiled" adds two pooled sites and the single config seed
        still fixes the whole schedule bit-identically."""
        def run():
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
                num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
            runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=9,
                                                    recurrent="tiled"))
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=5, seq_len=10, epochs=1,
                                            seed=0),
                runtime=runtime)
            return trainer.train()

        first, second = run(), run()
        assert first.history.train_loss == second.history.train_loss
        assert first.history.eval_metric == second.history.eval_metric
        assert first.engine_stats["recurrent"] == "tiled"

    @pytest.mark.parametrize("strategy", ["row", "tile"])
    def test_same_seed_bit_identical_with_sampled_head(self, tiny_corpus,
                                                       strategy):
        """Satellite: the determinism contract extends to the sampled loss
        head — the class-pattern stream comes from the same pool-wide
        SeedSequence, so two runs with one ExecutionConfig.seed produce
        bit-identical training histories under loss_head="sampled", under
        either dropout strategy."""
        def run():
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
                num_layers=2, drop_rates=(0.5, 0.5), strategy=strategy, seed=0))
            runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=9,
                                                    recurrent="tiled",
                                                    loss_head="sampled"))
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=5, seq_len=10, epochs=1,
                                            seed=0),
                runtime=runtime)
            return trainer.train()

        first, second = run(), run()
        assert first.history.train_loss == second.history.train_loss
        assert first.history.eval_metric == second.history.eval_metric
        assert first.engine_stats["loss_head"]["kind"] == "sampled"
        assert first.engine_stats["loss_head"]["draws"] > 0
        assert (first.engine_stats["loss_head"]["kept_classes"]
                == second.engine_stats["loss_head"]["kept_classes"])

    def test_adaptive_head_bit_identical_across_runs(self, tiny_corpus):
        """The adaptive head draws no randomness, so a fixed
        ExecutionConfig.seed gives bit-identical training histories."""
        def run():
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
                num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
            runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=9,
                                                    recurrent="tiled",
                                                    loss_head="adaptive",
                                                    head_shortlist=12,
                                                    head_clusters=3))
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=5, seq_len=10, epochs=1,
                                            seed=0),
                runtime=runtime)
            return trainer.train()

        reference, rerun = run(), run()
        assert reference.history.train_loss == rerun.history.train_loss
        assert reference.history.eval_metric == rerun.history.eval_metric
        assert reference.engine_stats["loss_head"]["kind"] == "adaptive"
        assert reference.engine_stats["loss_head"]["draws"] > 0
        assert reference.engine_stats["loss_head"]["cluster_activations"] > 0

    def test_adaptive_and_dense_head_runs_differ(self, tiny_corpus):
        """Sanity: the factorized loss actually changes the training
        computation (gradients flow through the two-level softmax)."""
        def run(loss_head):
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
                num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
            runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=9,
                                                    loss_head=loss_head,
                                                    head_shortlist=12))
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=5, seq_len=10, epochs=1,
                                            seed=0),
                runtime=runtime)
            return trainer.train()

        assert (run("adaptive").history.train_loss
                != run("dense").history.train_loss)

    def test_sampled_and_dense_head_runs_differ(self, tiny_corpus):
        """Sanity: the loss-head toggle actually changes the training
        computation (while the eval path stays exact either way)."""
        def run(loss_head):
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
                num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
            runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=9,
                                                    loss_head=loss_head))
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=5, seq_len=10, epochs=1,
                                            seed=0),
                runtime=runtime)
            return trainer.train()

        assert (run("sampled").history.train_loss
                != run("dense").history.train_loss)

    def test_tiled_and_dense_recurrent_runs_differ(self, tiny_corpus):
        """Sanity: the toggle actually changes the computation."""
        def run(recurrent):
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
                num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
            runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=9,
                                                    recurrent=recurrent))
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=5, seq_len=10, epochs=1,
                                            seed=0),
                runtime=runtime)
            return trainer.train()

        assert (run("tiled").history.train_loss
                != run("dense").history.train_loss)

    def test_masked_mode_is_also_seed_deterministic(self, tiny_mnist):
        """The masked mode replays the same history from the same seed too."""
        def run():
            model = make_mlp("row", hidden=32, seed=0)
            runtime = EngineRuntime(ExecutionConfig(mode="masked", seed=11))
            trainer = ClassifierTrainer(
                model, tiny_mnist,
                ClassifierTrainingConfig(batch_size=50, epochs=1, seed=0),
                runtime=runtime)
            return trainer.train()

        assert run().history.train_loss == run().history.train_loss


class TestDtypePreservation:
    """The tensor stack must not silently upcast a float32 graph."""

    def test_op_chain_stays_float32(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True,
                   dtype=np.float32)
        w = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True,
                   dtype=np.float32)
        out = ((x * 2.0 + 1.0).matmul(w.transpose()) / 3.0).relu().sum()
        assert out.data.dtype == np.float32
        out.backward()
        assert x.grad.dtype == np.float32
        assert w.grad.dtype == np.float32

    def test_scalar_constants_adopt_tensor_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), dtype=np.float32)
        assert (1.0 - x).data.dtype == np.float32
        assert (1.0 / (x + 1.0)).data.dtype == np.float32

    def test_float64_default_unchanged(self):
        x = Tensor([1.0, 2.0])
        assert x.data.dtype == np.float64
        assert (x * 2.0).data.dtype == np.float64
        assert x.detach().data.dtype == np.float64
