"""Host memory as an exact check (ROADMAP item 5, first half).

Two statements about a warmed-up engine, both asserted here:

* what one ``train_step`` allocates and frees again is a fraction of the
  model (per-layer autograd temporaries) — no model-sized buffer is
  created per step, and none comes out of the arenas;
* what the engine holds between steps is
  :func:`repro.runtime.stats.expected_host_resident`, byte for byte, so
  a model-sized buffer that sneaks in fails a test instead of hiding
  inside the benchmark's 10 % ``peak_rss_mb`` bound.
"""

import threading
import tracemalloc

import pytest

from repro.api import TrainingConfig, create_engine
from repro.errors import TrainingError
from repro.memory import aggregate_arena_stats, size_class, thread_arena
from repro.nn import LanguageModel, gpt2_config, make_lm_dataset
from repro.runtime import expected_host_resident

#: ``bench/workloads.py``'s update-bound shape (1.72 M parameters), and
#: a small one whose shards and subgroups have ragged tails.
BENCH_MODEL = dict(vocab_size=256, dim=256, num_layers=2, num_heads=4,
                   max_seq_len=16)
SMALL_MODEL = dict(vocab_size=64, dim=32, num_layers=2, num_heads=2,
                   max_seq_len=8)

SU = dict(use_transfer_handler=False)
SU_O_C = dict(use_transfer_handler=True, compression_ratio=0.02,
              error_feedback=True)


def _loss(model, tokens):
    return model.loss(tokens)


def _engine(mode, shape, storage_dir, **config):
    model = LanguageModel(gpt2_config(**shape), seed=0)
    return create_engine(
        mode, model, _loss, str(storage_dir),
        config=TrainingConfig(optimizer="adam",
                              optimizer_kwargs={"lr": 1e-3}, **config))


def _batches(shape):
    tokens = make_lm_dataset(num_sequences=8, seq_len=shape["max_seq_len"] + 1,
                             vocab_size=shape["vocab_size"], seed=0)
    return tokens.reshape(4, 2, -1)


def _expected(engine):
    config = engine.config
    return expected_host_resident(
        engine.num_params, engine.engine_name,
        shard_sizes=[shard.count for shard in getattr(engine, "shards", ())],
        subgroup_elements=config.subgroup_elements,
        states_per_param=engine.optimizer.states_per_param,
        compression_ratio=config.compression_ratio,
        error_feedback=config.error_feedback, workers=engine.workers,
        transfer_handler=config.use_transfer_handler)


def _in_fresh_thread(body):
    """Run ``body`` on a new thread — a new, empty arena — and return
    what it returns, with every other arena's bytes as the second
    element: pool threads die with their engine, so whatever the
    process held before is all that is not ``body``'s."""
    stats = aggregate_arena_stats()
    others = stats.pooled_bytes + stats.bytes_in_use
    outcome = []

    def run():
        try:
            outcome.append((body(), None))
        except BaseException as exc:  # re-raised on the test's thread
            outcome.append((None, exc))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    value, error = outcome[0]
    if error is not None:
        raise error
    return value, others


# ----------------------------------------------------------------------
# one warm step allocates a fraction of the model, and no arena block
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode,config", [
    ("baseline", dict(raid_members=2)),
    ("smart", dict(num_csds=2, parallel_csds=1, **SU)),
    ("smart", dict(num_csds=2, parallel_csds=1, **SU_O_C)),
], ids=["baseline", "smart-su", "smart-su+o+c"])
def test_warm_step_allocates_less_than_the_model(tmp_path, mode, config):
    """``parallel_csds=1`` puts every allocation on the traced thread.
    The commit before the flat gradient buffer measured 2.4 x the fp32
    model here (a copy per ``.grad``, the gathered copy, float64
    squares); what is left, 0.86 x, is autograd's own temporaries."""
    batches = _batches(BENCH_MODEL)
    with _engine(mode, BENCH_MODEL, tmp_path, **config) as engine:
        for step in range(3):
            engine.train_step(batches[step])
        warm = engine.arena_stats().allocations
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            engine.train_step(batches[3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 1.5 * 4 * engine.num_params
        for step in range(4):
            engine.train_step(batches[step])
        assert engine.arena_stats().allocations == warm


# ----------------------------------------------------------------------
# what an engine holds between steps == the closed form
# ----------------------------------------------------------------------
def _resident_after_warmup(mode, shape, storage_dir, extra=None, **config):
    def body():
        batches = _batches(shape)
        with _engine(mode, shape, storage_dir, **config) as engine:
            for step in range(4):
                engine.train_step(batches[step])
            if extra is not None:
                extra(engine)
            return engine.host_resident(), _expected(engine)

    (measured, expected), others = _in_fresh_thread(body)
    measured["arenas"] -= others
    return measured, expected


@pytest.mark.parametrize("shape,mode,config", [
    (SMALL_MODEL, "baseline", dict(raid_members=2, subgroup_elements=5000)),
    (SMALL_MODEL, "smart", dict(num_csds=2, parallel_csds=1,
                                subgroup_elements=5000, **SU)),
    (SMALL_MODEL, "smart", dict(num_csds=2, parallel_csds=2,
                                subgroup_elements=5000, **SU)),
    (SMALL_MODEL, "smart", dict(num_csds=2, parallel_csds=1,
                                subgroup_elements=5000, **SU_O_C)),
    (SMALL_MODEL, "smart", dict(num_csds=2, parallel_csds=2,
                                subgroup_elements=5000, **SU_O_C)),
    (BENCH_MODEL, "baseline", dict(raid_members=2)),
    (BENCH_MODEL, "smart", dict(num_csds=2, parallel_csds=2, **SU_O_C)),
], ids=["baseline", "su-1", "su-2", "su+o+c-1", "su+o+c-2",
        "bench-baseline_raid0", "bench-smart_suoc"])
def test_host_resident_equals_closed_form(tmp_path, shape, mode, config):
    measured, expected = _resident_after_warmup(mode, shape, tmp_path,
                                                **config)
    assert measured == expected
    if shape is BENCH_MODEL:
        # Which owners may hold a model's worth of bytes: the working
        # copy, the gradients and (SU+O+C) the residuals.
        model_bytes = expected["flat_params"]
        assert {owner for owner, held in expected.items()
                if held > model_bytes // 2} == {
            "flat_params", "flat_grads",
            *(["ef_residual"] if config.get("compression_ratio") else [])}
        assert expected["arenas"] <= 6 << 20    # 27.9 MB before


def test_a_shard_sized_checkout_breaks_the_closed_form(tmp_path):
    """The buffer this check exists to catch: a shard-sized scratch on
    the step path, returned to the pool or not."""
    config = dict(num_csds=2, parallel_csds=1, **SU_O_C)

    def pooled(engine):
        with thread_arena().checkout(engine.shards[0].count):
            pass

    def leaked(engine):
        thread_arena().acquire(engine.shards[0].count)

    for sneak in (pooled, leaked):
        measured, expected = _resident_after_warmup(
            "smart", BENCH_MODEL, tmp_path / sneak.__name__, extra=sneak,
            **config)
        shard = expected["flat_params"] // 4 // 2
        assert measured["arenas"] - expected["arenas"] == \
            4 * size_class(shard)
        del measured["arenas"], expected["arenas"]
        assert measured == expected


def test_accumulator_is_the_one_extra_model_sized_buffer(tmp_path):
    def body():
        batches = _batches(SMALL_MODEL)
        with _engine("baseline", SMALL_MODEL, tmp_path) as engine:
            engine.train_step_accumulated([(batches[0],), (batches[1],)])
            engine.train_step(batches[2])
            return engine.host_resident(), _expected(engine)

    (measured, expected), others = _in_fresh_thread(body)
    measured["arenas"] -= others
    assert measured.pop("grad_accumulator") == expected["flat_grads"]
    assert expected.pop("grad_accumulator") == 0
    assert measured == expected


def test_host_resident_says_what_it_does_not_cover(tmp_path):
    with _engine("host_offload", SMALL_MODEL, None) as engine:
        with pytest.raises(TrainingError, match="ROADMAP item 5"):
            engine.host_resident()
    with _engine("smart", SMALL_MODEL, tmp_path, num_csds=2,
                 parallel_csds=2, parallel_backend="process") as engine:
        with pytest.raises(TrainingError, match="thread backend"):
            engine.host_resident()
    with pytest.raises(TrainingError, match="unknown mode"):
        expected_host_resident(1000, "host")
