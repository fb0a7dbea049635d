"""Test helpers that the package itself does not need: a one-value
vocabulary lookup, the generator's click probability of one (user, item)
pair, a sequence branch materialized as its own padded batch, meta nets
made exact no-ops, the per-name gradient composition the tape's one dense
vector replaced, and the per-position key/value composition the per-entry
cache replaced."""

import numpy as np

from msnetlab import model
from msnetlab.autodiff import Gradients, ParamStore, Tape, Tensor, sigmoid
from msnetlab.datagen import GeneratorConfig, ItemSpec, UserSpec
from msnetlab.features import OOV_INDEX, SampleBatch, Vocab, embed
from msnetlab.seqmodel import META_SCALE, META_SHIFT, target_attention


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


def zero_meta_outputs(params: ParamStore) -> None:
    """Zero the output layers of both meta nets in ``params``, in place.
    The scaling weights become 2*sigmoid(0) = 1 and the shift's norm ratio
    v becomes 0, both exactly, so the meta keys, values and query are the
    raw item and target embeddings bit for bit."""
    for layer in (META_SCALE[-1], META_SHIFT[-1]):
        for name in layer:
            params.values[name][:] = 0.0


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


def per_position_forward(tape: Tape, config: "model.ModelConfig",
                         batch: SampleBatch) -> tuple[Tensor, Tensor]:
    """``(p, total loss)`` of ``batch`` as the model composed them before
    keys and values came from a per-entry cache: each branch embeds its
    own positions and runs ``_branch_kv`` on one row per position, and the
    aux loss gathers the target rows once more."""
    emb, interests = None, []
    for (prefix, meta), mask in zip(model._branches(config),
                                    model._branch_masks(config, batch)):
        emb = embed(tape, batch, mask,
                    emb and (emb.target_id, emb.target_side))
        target = emb.target_id, emb.target_side
        if not interests:
            e_target = tape.concat_cols(list(target))
        k, v = model._branch_kv(tape, prefix, meta, emb.seq_id, emb.seq_side)
        query = model._branch_query(tape, meta, target, e_target)
        interests.append(target_attention(tape, prefix, query, k, v, mask,
                                          config.n_heads,
                                          config.d_head).interest)
    p = model._mlp_head(tape, config,
                        tape.concat_cols(interests + [e_target]))
    aux = None
    if config.architecture == model.ARCH_MSNET and config.alpha > 0.0:
        aux = model.loss_aux(tape, embed(
            tape, batch, batch.seq_mask & batch.seq_limited))
    return p, model.total_loss(tape, tape.bce(p, batch.labels), aux,
                               config.alpha)
