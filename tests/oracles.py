"""Closed-form trap oracles and a plain logit gradient, for the tests only.

The oracles compute the planted subnetwork's output b = ReLU(epsilon -
sum_m |a_m - eta_m|), the loss it induces and their derivatives in the
margin from the formulas alone, in float64 and without the engine, so a
network that agrees with them agrees with the trap's definition.
`logit_grad` backpropagates one logit through every layer with no
shortcut, the same way `test_differential.reference_gradient` does for
the loss. `forward` and `init_dead` are the plain whole-network passes
the tests read logits and dead networks from. `cols_by_windows` and
`conv_by_windows` are Conv2D's forward written over numpy's
sliding-window view, the reference for the layer's own gathers, and
`conv_backward_by_windows` its backward over those windows.
`duplicates_by_dict` is the exact-duplicate scan written as one dict
keyed by every train image's bytes, the reference for the hashed scan;
`row_hashes_by_matmul` is the row hash as one integer matmul over every
row at once, the reference for the chunked einsum. `draw_by_complement`
is `sample_run`'s draw with the non-member target chosen from the list
of every unchosen row, the reference for the searchsorted draw.
"""

import math

import numpy as np

from fedtrap.datasets import _HASH_SEED, DuplicateReport


class KinkError(ValueError):
    """Derivative requested exactly on a ReLU boundary."""


def _deviation(a, etas) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    etas = np.asarray(etas, dtype=np.float64).reshape(-1)
    if a.shape != etas.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {etas.shape}")
    return float(np.abs(a - etas).sum())


def trap_output_oracle(a, etas, epsilon: float) -> float:
    """b = ReLU(epsilon - sum |a_m - eta_m|)."""
    return max(0.0, epsilon - _deviation(a, etas))


def trap_eps_grad_oracle(a, etas, epsilon: float) -> int:
    """db/d(margin): 1 inside the l1 ball of radius epsilon, else 0."""
    dev = _deviation(a, etas)
    if dev == epsilon:
        raise KinkError("deviation sits exactly on the margin boundary")
    return 1 if dev < epsilon else 0


def trap_loss_oracle(b: float, y: int, y_t: int, num_classes: int) -> float:
    """Cross-entropy when only the target logit is lifted by b above the rest."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    hit = 1.0 if y == y_t else 0.0
    return -b * hit + math.log(num_classes - 1 + math.exp(b))


def trap_loss_eps_grad_oracle(a, etas, epsilon: float, y: int, y_t: int,
                              num_classes: int) -> float:
    """d(loss)/d(margin): indicator times (softmax mass at the target - hit)."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    indicator = trap_eps_grad_oracle(a, etas, epsilon)
    if not indicator:
        return 0.0
    b = trap_output_oracle(a, etas, epsilon)
    hit = 1.0 if y == y_t else 0.0
    return math.exp(b) / (num_classes - 1 + math.exp(b)) - hit


def logit_grad(net, x, logit_index: int) -> np.ndarray:
    """Flat gradient of logits[logit_index] for one input (not through the loss)."""
    h = np.asarray(x, dtype=net.dtype)[None]
    caches = []
    for layer, views in zip(net.layers, net.views):
        h, cache = layer.forward(h, *views)
        caches.append(cache)
    d = np.zeros_like(h)
    d[0, logit_index] = 1.0
    grad = np.zeros(net.layout.total, dtype=net.dtype)
    for i in range(len(net.layers) - 1, -1, -1):
        d, pgrads = net.layers[i].backward(d, caches[i], *net.views[i])
        for name, g in pgrads.items():
            grad[net.layout.slice_of(i, name)] = g.ravel()
    return grad


def forward(net, x) -> np.ndarray:
    """Logits for a single input -> (L,) or a batch (N,...) -> (N,L), every layer in turn."""
    h = np.asarray(x, dtype=net.dtype)
    single = h.shape == net.input_shape
    if single:
        h = h[None]
    for layer, views in zip(net.layers, net.views):
        h, _ = layer.forward(h, *views)
    return h[0] if single else h


def init_dead(net) -> None:
    """All weights 0, all biases -1: every hidden ReLU is dead."""
    for views in net.views:
        if views:
            weight, bias = views
            weight[...] = 0.0
            bias[...] = -1.0


def cols_by_windows(x, k):
    """Window-major im2col, (n, c, h, w) -> C-ordered (n, oh*ow, c*k*k)."""
    n, c, h, w = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n, (h - k + 1) * (w - k + 1), c * k * k)


def conv_by_windows(layer, x, weight, bias):
    """Conv2D's forward arithmetic over `cols_by_windows`, with the bias
    broadcast over the output positions: (output, cols)."""
    n = x.shape[0]
    oc, oh, ow = layer.out_shape(x.shape[1:])
    cols = cols_by_windows(x, layer.kernel_size)
    out = cols @ weight.reshape(oc, -1).T + bias
    return out.transpose(0, 2, 1).reshape(n, oc, oh, ow), cols


def conv_backward_by_windows(layer, dout, x, cols, weight):
    """Conv2D's backward arithmetic over the reference `cols`: (dx, grads)."""
    n, oc, oh, ow = dout.shape
    dflat = dout.reshape(n, oc, oh * ow).transpose(0, 2, 1)
    dw = np.tensordot(dflat, cols, axes=([0, 1], [0, 1])).reshape(weight.shape)
    dx = layer._cols_to_image(dflat @ weight.reshape(oc, -1), x.shape)
    return dx, {"weight": dw, "bias": dout.sum(axis=(0, 2, 3))}


def duplicates_by_dict(train, test) -> DuplicateReport:
    """`find_exact_duplicates` as a dict from each train image's bytes to its
    rows, looked up with each test image's bytes."""
    train_labels, test_labels = train.labels.tolist(), test.labels.tolist()
    groups: dict[bytes, list[int]] = {}
    for i in range(len(train)):
        groups.setdefault(train.images[i].tobytes(), []).append(i)

    within, mism_within = [], []
    for members in groups.values():
        if len(members) < 2:
            continue
        within.append(group := tuple(members))
        if len({train_labels[i] for i in members}) > 1:
            mism_within.append(group)

    cross, mism_cross, shared = [], [], set()
    for j in range(len(test)):
        members = groups.get(test.images[j].tobytes(), ())
        for i in members:
            cross.append((i, j))
            if train_labels[i] != test_labels[j]:
                mism_cross.append((i, j))
        if members:
            shared.add(members[0])

    return DuplicateReport(
        within_train=tuple(sorted(within)),
        cross_split=tuple(sorted(cross)),
        mismatched_within=tuple(sorted(mism_within)),
        mismatched_cross=tuple(sorted(mism_cross)),
        cross_images=len(shared),
    )


def row_hashes_by_matmul(images) -> np.ndarray:
    """`datasets._row_hashes` in one piece: every row zero-padded to whole
    uint64 words, then one integer matmul with the same odd multipliers."""
    n, width = len(images), math.prod(images.shape[1:])
    words = max(1, -(-width // 8))
    buf = np.zeros((n, 8 * words), dtype=np.uint8)
    buf[:, :width] = images.reshape(n, width)
    multipliers = np.random.PCG64(_HASH_SEED).random_raw(words) | np.uint64(1)
    return buf.view(np.uint64) @ multipliers


def draw_by_complement(pool: int, num_samples: int, member_flag: int,
                       seed: int) -> tuple[np.ndarray, int]:
    """`sample_run`'s rows and target, the non-member target drawn by
    `rng.choice` from every row of the pool left unchosen."""
    rng = np.random.default_rng(seed)
    chosen = rng.choice(pool, size=num_samples, replace=False)
    if member_flag:
        return chosen, int(rng.choice(chosen))
    outside = np.ones(pool, dtype=bool)
    outside[chosen] = False
    return chosen, int(rng.choice(np.flatnonzero(outside)))
