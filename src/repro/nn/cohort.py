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
  budgets (FedAda) take a member out of the stacked program: the caller
  writes its row back, closes the live rows into a prefix and
  narrows the stack to it (:meth:`CohortModel.narrow`), so a stopped member's
  parameters are frozen (it is never stepped again), its data RNG stream
  stops where a serial run leaves it, and it costs no compute.
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
    (a zero-copy view of the stacked tensor), and row ``i`` of the arena's
    ``(C, P)`` values is member ``i``'s whole vector. Names, order and
    layout are the template model's — it is the same tree — so a row reads
    like a serial replica's arena.

    The stack runs at :attr:`width` ``≤ C``: :meth:`narrow` re-points every
    parameter, gradient, buffer and ``rows`` view at the first ``width``
    rows of the same ``(C, …)`` arenas, so the members that left a round
    cost no compute and no width is ever allocated twice.
    """

    def __init__(self, template: Module, cohort_size: int) -> None:
        if cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        self.cohort_size = self.width = cohort_size
        self.module = stack_module(template, cohort_size)
        self.params = dict(self.module.named_parameters())
        self._full = self.module.arena()
        self._rows = self.module.rows
        #: Per width: the narrowed walk, lead, ``rows`` and tensor views.
        self._narrowed: dict[int, tuple] = {}
        self._modules = [m for _, m in self.module.named_modules()]
        self._dropouts = [
            (name, m) for name, m in self.module.named_modules() if isinstance(m, Dropout)
        ]

    # ------------------------------------------------------------------
    def narrow(self, width: int, models: list[Module]) -> None:
        """Run on the first ``width`` rows from the next step on, member
        ``i`` being ``models[i]``'s client. The per-member GEMM shapes do
        not change, so neither do a member's bytes (DESIGN.md §12)."""
        views = self._narrowed.get(width)
        if views is None:
            full = self._full
            values, grads = full.values[:width], full.grads[:width]
            buffers = full.buffers[:width]
            views = self._narrowed[width] = (
                full._replace(values=values, grads=grads, buffers=buffers),
                (width,),
                self._rows[:width],
                list(zip(full.layout.views(values).values(), full.layout.views(grads).values())),
                list(full.buffer_layout.views(buffers).values()),
            )
        walk, lead, rows, params, buffers = views
        for module in self._modules:
            module.lead, module.rows = lead, rows
        for p, (value, grad) in zip(self._full.parameters, params):
            p.data, p.grad = value, grad
        for (_, owner, local), view in zip(self._full.buffer_slots, buffers):
            owner._set_buffer(local, view)
        # Nothing registers into a stacked tree, so the walk is current
        # whatever was built elsewhere since.
        walk = walk._replace(stamp=Module._structure_token)
        object.__setattr__(self.module, "_walk_cache", walk)
        self.width = width
        self.bind_member_models(models)

    def bind_member_models(self, models: list[Module]) -> None:
        """Attach the live members' serial replicas (per-member Dropout
        RNGs), in row order."""
        if len(models) != self.width:
            raise ValueError("need exactly one member model per live row")
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
        into every live member row."""
        arena = self.module.arena()
        arena.values[...] = params
        arena.buffers[...] = buffers

    def stacked_update(self, params: np.ndarray, width: int) -> np.ndarray:
        """Accumulated updates of the program's first ``width`` rows in one
        subtract against the round-start ``(P,)`` global parameters: row
        ``j`` is ``w_local − w_global`` of the member that ended the round in
        row ``j``. Per-member result dicts are zero-copy views into it
        (``CohortEngine.member_update``), so nothing is unstacked."""
        return self._full.values[:width] - params

    def write_back(self, models: list[Module], slots) -> None:
        """Copy the trained rows at ``slots`` into the members' serial
        replicas ``models``, leaving each exactly as a serial round would: a
        round's result reports the replica's buffers, and anything may
        inspect ``client.model`` between rounds."""
        arena = self.module.arena()
        for slot, model in zip(slots, models):
            own = model.arena()
            own.values[...] = arena.values[slot]
            own.buffers[...] = arena.buffers[slot]

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
    log_probs, grad = F.log_softmax_and_softmax(logits, axis=2)
    picked = log_probs[ci, bi, labels]  # (C, B)
    loss = (-_row_mean(picked)).astype(np.float64)
    grad[ci, bi, labels] -= 1.0
    grad /= np.maximum(counts, 1).astype(np.float32)[:, None, None]
    if counts.min() < b:
        for i, n in enumerate(counts.tolist()):
            if n < b:
                loss[i] = -_row_mean(picked[i, :n]) if n else 0.0
                grad[i, n:] = 0.0
    return loss, grad.astype(np.float32, copy=False)


class CohortSGD:
    """Batched SGD/momentum step over the live rows of stacked parameters.
    A member that left the stack (:meth:`CohortModel.narrow`) is not
    stepped at all, exactly as a serial client that stopped calling
    ``step()``.

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
        #: Per-member slots, row ``i`` member ``i``'s at full width: they
        #: move with the member when the stack closes ranks.
        self.state: tuple[np.ndarray, ...] = (
            (np.zeros_like(model.module.arena().values),) if momentum > 0.0 else ()
        )

    def step(self) -> None:
        """One update of the live ``(width, P)`` rows."""
        arena = self.model.module.arena()
        data, grad = arena.values, arena.grads
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self._anchor is not None:
            grad = grad + self.mu * (data - self._anchor)
        if self.state:
            v = self.state[0][: len(data)]
            v *= self.momentum
            v += grad
            grad = v
        data -= self.lr * grad
