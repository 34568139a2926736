"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately slow and literal (nested loops, dense
matrices, finite differences) and shares no code with the package under
test. Tests compare the fast implementations against these.
"""

import math

import numpy as np


def conv2d_direct(x, k):
    """Same-size zero-padded cross-correlation by explicit summation."""
    c_in, height, width = x.shape
    c_out, c_in_k, kh, kw = k.shape
    assert c_in == c_in_k
    ph, pw = kh // 2, kw // 2
    out = np.zeros((c_out, height, width))
    for o in range(c_out):
        for i in range(c_in):
            for r in range(height):
                for s in range(width):
                    acc = 0.0
                    for a in range(kh):
                        for b in range(kw):
                            rr, ss = r + a - ph, s + b - pw
                            if 0 <= rr < height and 0 <= ss < width:
                                acc += k[o, i, a, b] * x[i, rr, ss]
                    out[o, r, s] += acc
    return out


def conv2d_adjoint_weights_direct(u, x, kh, kw):
    """Gradient of <conv2d_direct(x, K), u> in K, one unit kernel at a time."""
    grad = np.zeros((u.shape[0], x.shape[0], kh, kw))
    for i in range(x.shape[0]):
        for a in range(kh):
            for b in range(kw):
                unit = np.zeros((1, 1, kh, kw))
                unit[0, 0, a, b] = 1.0
                shifted = conv2d_direct(x[i:i + 1], unit)[0]
                for o in range(u.shape[0]):
                    grad[o, i, a, b] = np.sum(shifted * u[o])
    return grad


def inner(a, b):
    return float(np.sum(np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)))


def central_fd(f, x, step):
    """Central finite differences of scalar f at every coordinate of x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += step
        xm[i] -= step
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * step)
    return g


def forward_diff_matrix_rows(height, width):
    """Dense matrix of the vertical forward difference on an H x W image."""
    m = np.zeros(((height - 1) * width, height * width))
    for r in range(height - 1):
        for s in range(width):
            m[r * width + s, (r + 1) * width + s] = 1.0
            m[r * width + s, r * width + s] = -1.0
    return m


def forward_diff_matrix_cols(height, width):
    """Dense matrix of the horizontal forward difference on an H x W image."""
    m = np.zeros((height * (width - 1), height * width))
    for r in range(height):
        for s in range(width - 1):
            m[r * (width - 1) + s, r * width + s + 1] = 1.0
            m[r * (width - 1) + s, r * width + s] = -1.0
    return m


def smoother_value_direct(y):
    """0.5 * (|grad1 y|^2 + |grad2 y|^2) summed over channels, by loops."""
    total = 0.0
    for c in range(y.shape[0]):
        for r in range(y.shape[1] - 1):
            for s in range(y.shape[2]):
                total += 0.5 * (y[c, r + 1, s] - y[c, r, s]) ** 2
        for r in range(y.shape[1]):
            for s in range(y.shape[2] - 1):
                total += 0.5 * (y[c, r, s + 1] - y[c, r, s]) ** 2
    return total


def argmax_direct(output):
    """Per-pixel argmax over channels, ties to the lowest class index."""
    channels, height, width = output.shape
    cls = np.zeros((height, width), dtype=np.int64)
    for r in range(height):
        for s in range(width):
            best, best_v = 0, output[0, r, s]
            for c in range(1, channels):
                if output[c, r, s] > best_v:
                    best, best_v = c, output[c, r, s]
            cls[r, s] = best
    return cls


def iou_direct(pred, truth, num_classes):
    """Per-class IoU over labeled truth pixels by exhaustive counting."""
    per_class = {}
    ious = []
    for k in range(num_classes):
        inter = union = 0
        for r in range(truth.shape[0]):
            for s in range(truth.shape[1]):
                if truth[r, s] < 0:
                    continue
                p, t = pred[r, s] == k, truth[r, s] == k
                if p and t:
                    inter += 1
                if p or t:
                    union += 1
        per_class[k] = (inter, union)
        if union > 0:
            ious.append(inter / union)
    miou = sum(ious) / len(ious) if ious else 0.0
    return per_class, miou


def softmax_xent_direct(selected):
    """Mean cross-entropy and per-entry gradients from the raw formulas."""
    n = len(selected)
    value = 0.0
    grads = []
    for logits, cls in selected:
        exps = [math.exp(v) for v in logits]
        z = sum(exps)
        probs = [e / z for e in exps]
        value += -math.log(probs[cls])
        g = np.array(probs)
        g[cls] -= 1.0
        grads.append(g / n)
    return value / n, grads


def forward_steps_direct(lift_k, layer_ks, project_k, h, data, act):
    """Step-by-step forward recursion using the loop convolution."""
    fns = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}
    f = fns[act]
    y = conv2d_direct(data, lift_k)
    states = [y]
    for k in layer_ks:
        y = y - h * f(conv2d_direct(y, k))
        states.append(y)
    return states, conv2d_direct(y, project_k)


def nearest_signature_classify(data, signatures):
    """Per-pixel nearest spectral signature in Euclidean distance."""
    channels, height, width = data.shape
    out = np.zeros((height, width), dtype=np.int64)
    for r in range(height):
        for s in range(width):
            d = [float(np.sum((data[:, r, s] - sig) ** 2)) for sig in signatures]
            out[r, s] = int(np.argmin(d))
    return out


def mask_position(mask):
    """Coordinates of the single 1 in a one-hot H x W mask."""
    pos = np.argwhere(mask == 1.0)
    assert pos.shape == (1, 2)
    return int(pos[0, 0]), int(pos[0, 1])
