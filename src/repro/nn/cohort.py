"""Batched "cohort" tensor programs: M same-architecture clients as one model.

The serial executor trains each client's model replica one at a time — for
the paper's regime (small CNN/LSTM models × many selected clients per
round) that spends most of its time in per-call numpy overhead rather than
arithmetic. Every client in a round trains the same architecture (paper
§5.1), so M clients are one program with one more leading axis: this module
stacks every parameter, gradient and optimizer slot of M clients along a
leading *client axis* ``C`` and runs the template model's own
``forward``/``backward`` over the stacks, so one batched BLAS call
(``np.matmul`` over the leading axis) advances all M clients per layer per
step.

There is no second layer library. Every layer in ``nn/{layers,conv,
pooling,norm,rnn}.py`` is written over ``(*lead, N, …)`` inputs and
``(*lead, *shape)`` parameters; :func:`stack_module` copies the template's
``Module`` tree, sets ``lead = (C,)`` and lays it out as one ``(C, P)``
parameter arena (and ``(C, P)`` gradients, ``(C, B)`` buffers): member
``i``'s parameters are row ``i``, and each ``Parameter`` is a
``(C, *shape)`` strided view across the rows. Residual topologies
(WideResNet with group norm) need nothing more — the model's own
``forward`` runs.

Implementation notes
--------------------
* Contractions use broadcast-batched ``np.matmul`` rather than folded
  ``einsum`` subscripts (``"fk,nkl->nfl"`` → ``"cfk,cnkl->cnfl"``): on this
  substrate a planned batched einsum runs 2–5× slower than ``matmul``
  because numpy's einsum cannot dispatch batch contractions to BLAS.
* Ragged batches are handled by padding to the widest member batch and
  masking: padded rows carry exactly-zero loss gradients, so they
  contribute zeros to every parameter gradient. A layer that reduces over
  the batch axis (``BatchNorm2d``) reads the per-member valid row counts
  (:meth:`CohortModel.set_member_rows`) and reduces a ragged member over
  its own slice.
* Per-client early stopping (FedCA Eq. 2–4) and per-client iteration
  budgets (FedAda) drop members out of the cohort via the *active mask*
  passed to :meth:`CohortSGD.step` — a masked member's parameters are
  frozen bitwise (the whole step, including weight decay, is multiplied by
  its row of the ``(C, 1)`` mask), and the caller stops drawing its
  batches so the member's data RNG stream stays exactly where a serial
  run would leave it.
* The serial executor remains the oracle, and a full-width cohort member
  equals its serial twin in bytes: the leading axis only batches per-member
  BLAS calls and elementwise passes, zero rows add exact zeros, and the
  loss is the serial expression per member. A padded member's products run
  at the padded row count, where BLAS promises no bits; the engine decides
  who is ever padded (``runtime/cohort.py``, ``tests/test_cohort.py``,
  ``DESIGN.md`` §12).
"""

from __future__ import annotations

import copy

import numpy as np

from . import functional as F
from .layers import Dropout
from .module import Module

__all__ = [
    "CohortModel",
    "CohortSGD",
    "cohort_softmax_cross_entropy",
    "stack_module",
]


def stack_module(template: Module, cohort_size: int) -> Module:
    """A copy of the template's own ``Module`` tree laid out as zeroed
    ``(C, P)`` / ``(C, B)`` arenas, with ``lead = (C,)`` and one shared
    ``rows`` array on every module, in training mode."""
    stacked = copy.deepcopy(template)
    lead = (cohort_size,)
    rows = np.zeros(cohort_size, dtype=np.int64)

    def zeros(shape: tuple[int, ...]) -> np.ndarray:
        # A read-only stand-in until the walk below lays out the arenas
        # and re-points everything into them.
        return np.broadcast_to(np.float32(0), lead + shape)

    for _, module in stacked.named_modules():
        module.lead, module.rows = lead, rows
        for p in module._parameters.values():
            p.data = p.grad = zeros(p.data.shape)
        for name, buf in module._buffers.items():
            module._set_buffer(name, zeros(buf.shape))
    stacked.arena()
    return stacked.train()


class CohortModel:
    """M stacked client replicas of one architecture.

    ``params[name].data[i]`` is member ``i``'s value of parameter ``name``
    (a zero-copy view of the stacked tensor). Names and order are the
    template model's ``named_parameters()`` — it is the same tree — so
    per-member view dicts are drop-in replacements for serial
    ``state_dict``s in the FedCA sampling/retransmission machinery.
    """

    def __init__(self, template: Module, cohort_size: int) -> None:
        if cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        self.cohort_size = cohort_size
        self.module = stack_module(template, cohort_size)
        self.params = dict(self.module.named_parameters())
        self.buffers = dict(self.module.named_buffers())
        self._dropouts = [
            (name, m) for name, m in self.module.named_modules() if isinstance(m, Dropout)
        ]

    # ------------------------------------------------------------------
    def bind_member_models(self, models: list[Module]) -> None:
        """Attach the members' serial replicas (per-member Dropout RNGs)."""
        if len(models) != self.cohort_size:
            raise ValueError("need exactly one member model per cohort slot")
        if not self._dropouts:
            return
        member_layers = [dict(m.named_modules()) for m in models]
        for name, dropout in self._dropouts:
            dropout.members = [layers[name] for layers in member_layers]

    def set_member_rows(self, rows: np.ndarray) -> None:
        """Publish this step's per-member valid row counts (0 for a member
        that sits the step out) into the ``rows`` the whole tree shares."""
        self.module.rows[...] = rows

    # ------------------------------------------------------------------
    def load_global(self, params: np.ndarray, buffers: np.ndarray) -> None:
        """Broadcast the server's ``(P,)`` parameters and ``(B,)`` buffers
        into every member row."""
        arena = self.module.arena()
        arena.values[...] = params
        arena.buffers[...] = buffers

    def member_params(self, i: int) -> dict[str, np.ndarray]:
        """Member ``i``'s parameter views (zero-copy)."""
        arena = self.module.arena()
        return arena.layout.views(arena.values[i])

    def stacked_update(self, params: np.ndarray) -> np.ndarray:
        """Accumulated updates for the whole cohort in one subtract against
        the round-start ``(P,)`` global parameters: row ``i`` of the
        ``(C, P)`` result is member ``i``'s ``w_local − w_global``.
        Per-member result dicts are zero-copy views into it
        (:meth:`member_update`), so nothing is unstacked."""
        return self.module.arena().values - params

    def member_update(self, stacked: np.ndarray, i: int) -> dict[str, np.ndarray]:
        """Member ``i``'s update dict as views into :meth:`stacked_update`."""
        return self.module.arena().layout.views(stacked[i])

    def write_back(self, models: list[Module]) -> None:
        """Copy each member's trained row into its serial replica, leaving
        the replicas exactly as a serial round would: a round's result
        reports the replica's buffers, and anything may inspect
        ``client.model`` between rounds."""
        arena = self.module.arena()
        for i, model in enumerate(models):
            own = model.arena()
            own.values[...] = arena.values[i]
            own.buffers[...] = arena.buffers[i]

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.module.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.module.forward(x)

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        return self.module.backward(g)


# ----------------------------------------------------------------------
# Loss and optimizer
# ----------------------------------------------------------------------
def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1)`` — the same pairwise reduce and float32 divide —
    without its Python wrapper, which costs more than summing a handful of
    rows."""
    return np.add.reduce(a, axis=-1) / np.float32(a.shape[-1])


def cohort_softmax_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-member softmax cross-entropy over padded ``(C, B, K)`` logits.

    ``counts[i]`` is member ``i``'s number of valid rows (0 for masked-out
    members); rows at or beyond a member's count carry exactly-zero
    gradient, and each member's loss and gradient are the bytes
    :func:`~repro.nn.loss.softmax_cross_entropy` returns for its valid rows
    alone: a float32 mean over them and ``grad / n``. Full-width members
    share one vectorised pass; a ragged member's mean is taken over its own
    slice, because a pairwise sum over a padded row count rounds
    differently.

    Returns ``(loss, grad)`` with ``loss`` shape ``(C,)`` (``0.0`` for
    members with no valid rows) and ``grad`` shaped like ``logits``.
    """
    c, b, _ = logits.shape
    if labels.shape != (c, b):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    counts = np.asarray(counts)
    ci = np.arange(c)[:, None]
    bi = np.arange(b)[None, :]
    picked = F.log_softmax(logits, axis=2)[ci, bi, labels]  # (C, B)
    loss = (-_row_mean(picked)).astype(np.float64)
    grad = F.softmax(logits, axis=2)
    grad[ci, bi, labels] -= 1.0
    grad /= np.maximum(counts, 1).astype(np.float32)[:, None, None]
    if counts.min() < b:
        for i, n in enumerate(counts.tolist()):
            if n < b:
                loss[i] = -_row_mean(picked[i, :n]) if n else 0.0
                grad[i, n:] = 0.0
    return loss, grad.astype(np.float32, copy=False)


class CohortSGD:
    """Batched SGD/momentum step over stacked parameters with an active
    mask: a masked member's parameters do not move at all — the *entire*
    effective step (including the weight-decay component, which is nonzero
    even at zero loss gradient) is multiplied by the mask, exactly
    reproducing a serial client that simply stopped calling ``step()``.

    ``mu > 0`` adds FedProx's proximal pull ``mu * (w − anchor)`` toward
    ``anchor``, the round-start ``(P,)`` global parameter vector every
    member was broadcast — the stacked form of
    :class:`~repro.nn.optim.ProxSGD`."""

    def __init__(
        self,
        model: CohortModel,
        lr: float,
        *,
        weight_decay: float = 0.0,
        momentum: float = 0.0,
        mu: float = 0.0,
        anchor: np.ndarray | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if mu < 0:
            raise ValueError("mu must be non-negative")
        self.model = model
        self.lr = lr
        self.weight_decay = weight_decay
        self.momentum = momentum
        self.mu = mu
        if mu and anchor is None:
            raise ValueError("a proximal step (mu > 0) needs the anchor state")
        self._anchor = anchor if mu else None
        self._velocity: np.ndarray | None = (
            np.zeros_like(model.module.arena().values) if momentum > 0.0 else None
        )

    def step(self, active: np.ndarray | None = None) -> None:
        """One masked update of the whole ``(C, P)`` arena.

        ``active`` is a ``(C,)`` boolean mask; ``None`` means all members
        step. Velocity rows of inactive members are updated-but-unused:
        within one round a member never re-activates (stops are terminal
        and budgets are prefixes), and optimizers never outlive a round.
        """
        arena = self.model.module.arena()
        data, grad = arena.values, arena.grads
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self._anchor is not None:
            grad = grad + self.mu * (data - self._anchor)
        if self._velocity is not None:
            v = self._velocity
            v *= self.momentum
            v += grad
            grad = v
        if active is None or active.all():
            data -= self.lr * grad  # == lr * grad * 1.0, one pass fewer
        else:
            data -= self.lr * grad * active.astype(np.float32)[:, None]

    def zero_grad(self) -> None:
        self.model.zero_grad()
