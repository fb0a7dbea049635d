"""Test helpers that the package itself does not need: a one-value
vocabulary lookup, the generator's click probability of one (user, item)
pair, a sequence branch materialized as its own padded batch, and the
per-name gradient composition the tape's one dense vector replaced."""

import numpy as np

from msnetlab.autodiff import Gradients, ParamStore, Tape, Tensor, sigmoid
from msnetlab.datagen import GeneratorConfig, ItemSpec, UserSpec
from msnetlab.features import OOV_INDEX, SampleBatch, Vocab


def lookup(vocab: Vocab, value: int) -> int:
    """``vocab``'s index of ``value``, from its first-seen order;
    ``OOV_INDEX`` for a value it never saw."""
    values = vocab.ordered_values()
    return values.index(value) + 1 if value in values else OOV_INDEX


def true_ctr(user: UserSpec, item: ItemSpec, config: GeneratorConfig) -> float:
    """Ground-truth click probability: a logistic in the user's affinity
    for the item's category and the item's quality."""
    affinity = float(user.preference[item.category_id])
    z = config.ctr_bias + config.ctr_w_affinity * affinity \
        + config.ctr_w_quality * item.quality
    return float(sigmoid(z))


def physical_split(batch: SampleBatch, keep: np.ndarray) -> SampleBatch:
    """Materialize one branch as its own padded sequence.

    Positions outside ``keep`` are rewritten to padding in place (index 0,
    flags false, mask false), the same padding policy the encoder uses.
    Attention over the physical branch must match attention over the full
    sequence with ``keep`` as the mask, bit for bit.
    """
    keep = np.asarray(keep, dtype=bool)
    return SampleBatch(
        target_item=batch.target_item.copy(),
        target_category=batch.target_category.copy(),
        seq_item=np.where(keep, batch.seq_item, 0),
        seq_category=np.where(keep, batch.seq_category, 0),
        seq_mask=keep.copy(),
        seq_limited=np.where(keep, batch.seq_limited, False),
        labels=batch.labels.copy(),
        is_new=batch.is_new.copy(),
        is_limited=batch.is_limited.copy(),
    )


def per_name_gradients(tape: Tape, loss: Tensor) -> dict[str, np.ndarray]:
    """Each dense parameter's gradient as an array of its own, as a reverse
    sweep over ``tape``'s nodes leaves it at the parameter's leaf, and a
    zero array of its shape for a parameter off the loss path.  The sweep
    runs the tape's own node closures, so use a tape that ``backward``
    will not run."""
    nodes = tape._nodes
    grads = [None] * len(nodes)
    grads[loss.node] = np.ones_like(loss.values)
    for nid in range(len(nodes) - 1, -1, -1):
        if grads[nid] is not None:
            nodes[nid].backward(grads[nid], grads)
    params = tape.params
    out = {}
    for name in params.names():
        if name not in params.embedding_names:
            g = grads[tape._leaf_node[name]]
            out[name] = np.zeros(params.values[name].shape) if g is None else g
    return out


def gradients_of(params: ParamStore, by_name: dict) -> Gradients:
    """``Gradients`` for ``params`` from per-name gradients: the dense
    arrays concatenated in creation order, the tables' ``SparseRows`` as
    given."""
    dense_names = [n for n in params.names() if n not in params.embedding_names]
    dense = np.concatenate([np.zeros(0)] + [np.reshape(by_name[n], -1)
                                            for n in dense_names])
    return Gradients(dense, {n: by_name[n] for n in params.names()
                             if n in params.embedding_names},
                     params.dense_views(dense))
