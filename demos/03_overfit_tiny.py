"""Overfit a tiny network on a single 8-slice phantom.

A sanity run showing that gradients flow end to end through the encoder,
the attention bridge and the decoder: a few hundred Adam steps drive the
training loss far down and the predicted masks onto the ground truth.

Run:  python demos/03_overfit_tiny.py
"""

from vesselseg.losses import bcej_loss, binarize, dice_metric
from vesselseg.model import predict_probabilities, scaled_config
from vesselseg.phantom import PhantomSpec, generate
from vesselseg.training import TrainConfig, train

spec = PhantomSpec(
    dims=(8, 128, 128), seed=11, trunk_radius_px=44.0, branch_radius_px=14.0, bifurcation_z=6
)
volume, mask = generate(spec)
config = scaled_config(128, width_divisor=8, bridge_layers=1, d_model=32, num_heads=2)
train_cfg = TrainConfig(learning_rate=1e-3, batch_size=1, epochs=200, seed=0)

print(f"training on {volume.meta.num_slices} slices of {volume.meta.height}px ...")
checkpoint, log = train(config, train_cfg, [(volume, mask)])
for entry in log.entries[::40] + [log.entries[-1]]:
    print(f"  epoch {entry.epoch:3d}  loss {entry.train_loss:.4f}  train IoU {entry.train_iou:.4f}")

probs = predict_probabilities(checkpoint.params, volume.voxels, train_cfg.hu_window)
print(f"\nfinal train BCEJ {bcej_loss(probs, mask.voxels):.4f}")
print(f"final train Dice {dice_metric(binarize(probs), mask.voxels):.4f}")
print(f"wall clock {log.wall_clock_sec:.0f}s")
