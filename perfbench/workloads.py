"""The benchmark's workloads: set-up, one timed operation, output checks.

Every workload builds its scene from the workload seed and uses the default
model (width 32, 10 steps, tanh, h = 1, 16 bands, 2 classes, 200/50 point
labels). Configs are built from ``training.parse_config`` text, and only
public functions of stepseg are called.
"""

from __future__ import annotations

import math

import numpy as np

from stepseg import adjoint, losses, network, regularizer, synth, training

ALPHA = 1e-3
N_TRAIN, N_VAL = 200, 50
FD_STEP = 1e-4
FD_RTOL = 1e-6


def make_scene(seed: int, size: int):
    spec = synth.make_scene_spec(seed=seed, height=size, width=size)
    data, truth = synth.gen_scene(spec)
    train_sel, val_sel = synth.sample_labels(
        truth, synth.LabelBudget(n_train=N_TRAIN, n_val=N_VAL, seed=seed))
    return training.Dataset(data=data, truth=truth, train=train_sel, val=val_sel)


def default_params(config, dataset):
    return training.init_params(
        bands=dataset.data.shape[0], num_classes=2, width=config.width,
        steps=config.steps, activation=config.activation, h=config.h,
        seed=config.seed)


def _arrays(bundle_or_params):
    return ([bundle_or_params.lift] + list(bundle_or_params.layers)
            + [bundle_or_params.project])


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class Workload:
    """One timed operation repeated on inputs made once by ``setup``."""

    name = ""
    operation = ""
    size = 64
    config_text = ""

    def setup(self, seed: int):
        self.dataset = make_scene(seed, self.size)
        self.config = training.parse_config(self.config_text)
        self.params = default_params(self.config, self.dataset)
        self.warmup = adjoint.gradient(self.params, self.dataset.data,
                                       self.dataset.train, ALPHA)

    def op(self):
        raise NotImplementedError

    def checks(self, outputs) -> list[bool]:
        """One flag per timed operation, plus any once-per-run checks."""
        raise NotImplementedError

    def val_miou(self, outputs) -> float:
        return 0.0


class Train64(Workload):
    """One fixed-length ``train`` run on the 64x64 scene at alpha = 1e-3."""

    name = "train-64"
    operation = "one 50-iteration train run"
    config_text = f"alpha={ALPHA!r}\niterations=50\neval_every=25\naugmentation=true\n"

    def op(self):
        return training.train(self.config, self.dataset.data,
                              self.dataset.train, self.dataset.val)

    def checks(self, outputs):
        first = outputs[0].history
        return [result.status == "ok"
                and len(result.history) == self.config.iterations
                and all(_finite(log.loss, log.objective) for log in result.history)
                and _finite(result.history[-1].val_miou)
                and result.history == first
                for result in outputs]

    def val_miou(self, outputs):
        return outputs[0].history[-1].val_miou


class Grad256(Workload):
    """Repeated ``gradient`` calls with fixed parameters on a 256x256 scene."""

    name = "grad-256"
    operation = "one gradient call; op_s_p50 is grad_s_p50"
    size = 256

    def op(self):
        return adjoint.gradient(self.params, self.dataset.data,
                                self.dataset.train, ALPHA)

    def checks(self, outputs):
        reference = _arrays(self.warmup)
        flags = [all(np.array_equal(a, b) for a, b in zip(_arrays(g), reference))
                 and g.loss == self.warmup.loss
                 and g.regularizer == self.warmup.regularizer
                 for g in outputs]
        return flags + [self._directional_check()]

    def _objective(self, params) -> float:
        output = network.forward(params, self.dataset.data).output
        labels = self.dataset.train
        loss, _ = losses.softmax_xent_matrix(
            network.select_matrix(output, labels), labels.classes)
        return loss + ALPHA * regularizer.smoother_value(output)

    def _directional_check(self) -> bool:
        """Central difference of the objective along v against <g, v>.

        v mixes the gradient's direction with a seeded random one, so the
        check is not only along g and the derivative is far from zero.
        """
        grads = _arrays(self.warmup)
        rng = np.random.default_rng(0)
        noise = [rng.standard_normal(g.shape) for g in grads]
        g_norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
        n_norm = math.sqrt(sum(float(np.sum(r * r)) for r in noise))
        v = [g / g_norm + r / n_norm for g, r in zip(grads, noise)]
        v_norm = math.sqrt(sum(float(np.sum(d * d)) for d in v))
        v = [d / v_norm for d in v]
        expected = sum(float(np.sum(g * d)) for g, d in zip(grads, v))

        def shifted(eps):
            base = _arrays(self.params)
            moved = [p + eps * d for p, d in zip(base, v)]
            return network.NetworkParams(
                lift=moved[0], layers=tuple(moved[1:-1]), project=moved[-1],
                h=self.params.h, activation=self.params.activation)

        fd = (self._objective(shifted(FD_STEP))
              - self._objective(shifted(-FD_STEP))) / (2 * FD_STEP)
        return abs(fd - expected) <= FD_RTOL * abs(expected)


WORKLOADS = {w.name: w for w in (Train64, Grad256)}
