"""The benchmark's workloads and the package functions its trace wraps.

`--seed` drives only the synthetic data generator, so one seed gives one set
of dialogs, images and held-out split. Model initialisation and the training
shuffle use the fixed `TrainConfig.seed`: the model under test stays the same
across seeds, as a checkpoint would, which keeps the seed-to-seed spread of
the held-out metrics narrow. README.md gives the layer each workload stresses
or bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_images: int      # images per train() call; 0: the workload never trains
    val_images: int        # images validated after each epoch inside train()
    heldout_images: int    # images of the held-out split (final evaluation, eval_rank's calls)
    chunk_images: int = 0  # eval_rank: images ranked per evaluate() call
    traced_calls: int = 3  # train() calls, or passes over the held-out split, traced
    synthetic: dict = field(default_factory=dict)  # SyntheticConfig fields
    train: dict = field(default_factory=dict)      # TrainConfig fields

    @property
    def trains(self) -> bool:
        return self.train_images > 0

    def tiny(self) -> "Workload":
        """A seconds-long copy for the self-tests."""
        return replace(self, train_images=min(self.train_images, 2),
                       val_images=min(self.val_images, 1), heldout_images=2,
                       chunk_images=min(self.chunk_images, 1), traced_calls=1)


LONG_HISTORY = dict(rounds=10, mu=12, num_colors=12, num_shapes=12, d_v=24)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train_short_multitask",
            why="3-round multitask training: every training layer runs, candidate BiLSTMs "
                "dominate the forward; history is short, so a history cache has nothing to save",
            train_images=40, val_images=10, heldout_images=1200,
            train=dict(loss_mode="multitask", batch_size=32, max_epochs=1),
        ),
        Workload(
            name="train_long_history_gen",
            why="10-round generative training: O(R^2) history re-encoding and recurrence "
                "dominate; no discriminative decoder, so candidate-encoder changes should not move it",
            train_images=12, val_images=3, heldout_images=180,
            synthetic=LONG_HISTORY,
            train=dict(loss_mode="generative", batch_size=32, max_epochs=1),
        ),
        Workload(
            name="eval_rank",
            why="inference only, both decoders rank candidates on 3-round dialogs: no tape, "
                "backward or Adam, so only read-path and candidate-scoring changes move it",
            train_images=0, val_images=0, heldout_images=400, chunk_images=20,
            traced_calls=1,
        ),
    )
}

# Package functions the traced run wraps: the per-layer metrics, by module.
LAYER_FUNCTIONS = [
    "data.generate_synthetic",
    "model.prepare_units",
    "model.forward_unit",
    "model.infer_unit_scores",
    "encoders.encode_tokens",
    "encoders.encode_history",
    "encoders.fuse_context",
    "encoders.project_regions",
    "grounding.prior_ground",
    "grounding.posterior_ground",
    "grounding.bridge_loss",
    "decoders.fuse_for_decoder",
    "decoders.generative_loss",
    "decoders.generative_rank",
    "decoders.discriminative_loss_and_rank",
    "decoders.discriminative_scores",
    "autodiff.lstm_step",
    "autodiff.backward",
    "training.adam_step",
    "evaluation.evaluate",
]

# Counts read from the arguments of a wrapped call: backward(loss, tape) and
# encode_history(elements, params).
LAYER_COUNTS = {
    "autodiff.backward": ("autodiff.tape_nodes_per_unit",
                          lambda args, kw: len((args[1] if len(args) > 1 else kw["tape"]).nodes)),
    "encoders.encode_history": ("encoders.encode_history.rows_per_unit",
                                lambda args, kw: len(args[0] if args else kw["elements"])),
}


def layer_metric_names() -> list[str]:
    names = []
    for fn in LAYER_FUNCTIONS:
        names += [f"{fn}.calls_per_unit", f"{fn}.total_ms_per_unit", f"{fn}.self_ms_per_unit"]
    names += [name for name, _ in LAYER_COUNTS.values()]
    names.append("trace.overhead_ms_per_unit")
    return names


def layer_metric_unit(name: str) -> str:
    if name.endswith("_ms_per_unit"):
        return "ms"
    return "count"
