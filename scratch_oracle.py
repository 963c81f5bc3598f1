import sys
import numpy as np
from grounddial.data import SyntheticConfig, generate_synthetic
from grounddial.model import init_model_params, prepare_units, encode_context, named_parameters, pack_batch, zero_grads
from grounddial.grounding import cross_attend
from grounddial.encoders import encode_tokens
from grounddial.decoders import fuse_for_decoder, generative_loss
from grounddial.training import TrainConfig, OptimizerState, adam_step, lr_at
from grounddial import autodiff as ad
from grounddial.autodiff import Tape, backward, Tensor

mode = sys.argv[1]  # oracle | uniform
ds_train = generate_synthetic(SyntheticConfig(num_images=500, seed=7))
ds_val = generate_synthetic(SyntheticConfig(num_images=80, seed=1007), split="val")
cfg = TrainConfig(seed=1)
params = init_model_params(np.random.default_rng(1), len(ds_train.vocab), d_v=16)
named = named_parameters(params)
state = OptimizerState()
train_units = prepare_units(ds_train, cfg.seq_len, cfg.max_history)
val_units = prepare_units(ds_val, cfg.seq_len, cfg.max_history)

def batch_loss(units, params):
    batch = pack_batch(units)
    x, I = encode_context(params, batch)
    y = encode_tokens(batch.answers, batch.q_mask.shape[1], params.encoder, "answer")
    _, I_x_post = cross_attend(I, ad.add(x, y), x, batch.q_mask, params.grounding, "rows",
                               batch.region_mask)
    B, mu, d_q = I_x_post.shape
    if mode == "oracle":
        G = np.zeros((B, mu))
        for b, u in enumerate(units):
            G[b, u.gt_grounding[0]] = 1.0
    else:
        G = batch.region_mask / batch.region_mask.sum(axis=1, keepdims=True)
    v_post = ad.reshape(ad.bmm(Tensor(G.reshape(B, 1, mu)), I_x_post), (B, d_q))
    fused = fuse_for_decoder(x, batch.q_mask, v_post, params.decoder)
    return generative_loss(fused, [u.answer_targets for u in units], params.encoder.embedding,
                           params.decoder)

rng = np.random.default_rng(0)
for epoch in range(20):
    lr = lr_at(epoch)
    order = rng.permutation(len(train_units))
    tot, n = 0.0, 0
    for start in range(0, len(train_units), 32):
        batch = [train_units[int(i)] for i in order[start:start+32]]
        zero_grads(params)
        with Tape() as tape:
            loss = batch_loss(batch, params)
        backward(loss, tape)
        adam_step(named, state, lr)
        tot += loss.item() * len(batch); n += len(batch)
    if epoch % 3 == 0 or epoch == 19:
        vl = sum(batch_loss(val_units[s:s+32], params).item() * len(val_units[s:s+32])
                 for s in range(0, len(val_units), 32)) / len(val_units)
        print(f"{mode} ep{epoch:2d}: train L_G={tot/n:.3f} val L_G={vl:.3f}", flush=True)
