"""Run history: per-round records, time-to-accuracy extraction, and the
record format — the exported JSON and the checkpoint's columns.

A round's per-client events are one :class:`ClientEventTable`, not a dict
per client; this module is the only one that knows its layout.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from graphlib import TopologicalSorter
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "ClientEventTable", "RoundRecord", "RunHistory",
    "history_to_dict", "history_to_json", "history_from_dict",
]

#: What a scalar column holds where a row's dict lacks the key, and what
#: ``early_stop_iteration`` holds for None.
ABSENT, NONE = -2, -1
# Each scheme's event dict spells a subsequence of these keys, in this
# order: FedAvg, FedProx and FedAda iterations_run; DeadlineStop adds
# early_stop_iteration; FedCA the anchor/eager/retransmitted triple and, on
# anchor rounds, profiling_bytes; the wire layer appends "wire".
_KEYS = (
    "anchor", "iterations_run", "early_stop_iteration", "eager", "retransmitted",
    "profiling_bytes", "wire",
)
_SHAPES = frozenset(
    tuple(key for key, on in zip(_KEYS, (fca, True, stop, fca, fca, prof, wire)) if on)
    for fca, stop, prof, wire in itertools.product((False, True), repeat=4)
)
_SCALARS = (
    ("cid", "<i4"), ("anchor", "i1"), ("iterations_run", "<i4"),
    ("early_stop_iteration", "<i4"), ("profiling_bytes", "<i8"),
    ("raw_bytes", "<i8"), ("wire_bytes", "<i8"),
)
#: The optional column groups, each by the key that brings it: a table
#: carries a group only when one of its rows has that key.
_GROUPS = {
    "anchor": ("anchor", "eager", "retransmitted"),
    "early_stop_iteration": ("early_stop_iteration",),
    "profiling_bytes": ("profiling_bytes",),
    "wire": ("raw_bytes", "wire_bytes"),
}
_EVERY_GROUP = frozenset(_GROUPS)
_I16, _I32 = 2**15 - 1, 2**31 - 1
_MISSING = object()


@functools.lru_cache(maxsize=None)
def _dtype(width: int, groups: frozenset = _EVERY_GROUP) -> np.dtype:
    # One structured row per client, so a round's table is one array.
    dropped = {name for group in _EVERY_GROUP - groups for name in _GROUPS[group]}
    fields = [*_SCALARS, ("eager", "<i2", (width,)), ("retransmitted", "u1", (-(-width // 8),))]
    return np.dtype([field for field in fields if field[0] not in dropped])


def _blank_value(name: str) -> int:
    """What column ``name`` holds in a row whose dict lacks its key."""
    return {"eager": -1, "retransmitted": 0}.get(name, ABSENT)


def _blank(rows: int, width: int) -> np.ndarray:
    """``rows`` rows whose dicts carry no key, with every column."""
    data = np.empty(rows, _dtype(width))
    for name in data.dtype.names:
        data[name] = _blank_value(name)
    return data


def _narrow(data: np.ndarray, width: int) -> np.ndarray:
    """``data`` (every column) cut to the groups some row of it carries."""
    groups = frozenset(
        group for group, names in _GROUPS.items() if (data[names[0]] != ABSENT).any()
    )
    out = np.empty(len(data), _dtype(width, groups))
    for name in out.dtype.names:
        out[name] = data[name]
    return out


def _count(value: Any, hi: int = 2**63 - 1, lo: int = 0) -> int:
    if (type(value) is int or isinstance(value, np.integer)) and lo <= value <= hi:
        return int(value)
    raise ValueError(f"{value!r} is not an integer in [{lo}, {hi}]")


class ClientEventTable:
    """One round's client events: a row per result, in results order.

    ``data`` is one structured array with the columns ``cid``, a tri-state
    ``anchor`` (1, 0 or ``ABSENT``), ``iterations_run``,
    ``early_stop_iteration`` (``NONE`` for None), ``profiling_bytes``, the
    wire's ``raw_bytes`` and ``wire_bytes``, an ``(n, L)`` int16 ``eager``
    matrix of send iterations over ``layers`` (−1: not sent) and a
    bit-packed ``retransmitted`` matrix. A key a row's dict lacks is
    ``ABSENT`` there. ``cid`` and ``iterations_run`` are always there; the
    other columns come in groups — ``anchor`` with ``eager`` and
    ``retransmitted``, ``raw_bytes`` with ``wire_bytes`` — and a table
    carries a group only when one of its rows has its key, so a FedAvg row
    is 8 bytes. :meth:`column` reads a column the table lacks as blank.
    """

    __slots__ = ("layers", "data")

    def __init__(self, layers: tuple[str, ...], data: np.ndarray) -> None:
        self.layers, self.data = layers, data

    @classmethod
    def from_events(
        cls, layers: Sequence[str], events: Mapping[int, dict]
    ) -> "ClientEventTable":
        """The table of ``{client id: event dict}``, whose :meth:`rows` are
        those dicts. Raises ``ValueError`` on a key no scheme emits, keys out
        of order, or a value of the wrong type or range: exported and cached
        JSON arrive here too."""
        layers = tuple(layers)
        index = {name: j for j, name in enumerate(layers)}
        scalars = []
        eager = np.full((len(events), len(layers)), -1, np.int16)
        again = np.zeros(eager.shape, bool)
        for i, (cid, ev) in enumerate(events.items()):
            if type(ev) is not dict or tuple(ev) not in _SHAPES:
                raise ValueError(f"client {cid!r}: {ev!r} is not a client-round record")
            stop, wire = ev.get("early_stop_iteration", _MISSING), ev.get("wire", _MISSING)
            if wire is not _MISSING and (
                type(wire) is not dict or tuple(wire) != ("raw_bytes", "wire_bytes")
            ):
                raise ValueError(f"client {cid!r}: wire {wire!r} is not a byte-count pair")
            if "anchor" in ev:
                if type(ev["anchor"]) is not bool:
                    raise ValueError(f"client {cid!r}: anchor {ev['anchor']!r} is not a bool")
                cls._fill_eager(ev["eager"], ev["retransmitted"], index, eager[i], again[i])
            scalars.append((
                _count(cid, _I32),
                int(ev.get("anchor", ABSENT)),
                _count(ev["iterations_run"], _I32),
                ABSENT if stop is _MISSING else NONE if stop is None else _count(stop, _I32),
                _count(ev["profiling_bytes"]) if "profiling_bytes" in ev else ABSENT,
                ABSENT if wire is _MISSING else _count(wire["raw_bytes"]),
                ABSENT if wire is _MISSING else _count(wire["wire_bytes"]),
            ))
        data = np.empty(len(events), _dtype(len(layers)))
        for (name, _), column in zip(_SCALARS, np.array(scalars, np.int64).reshape(-1, 7).T):
            data[name] = column
        data["eager"], data["retransmitted"] = eager, np.packbits(again, axis=1)
        return cls(layers, _narrow(data, len(layers)))

    @staticmethod
    def _fill_eager(
        sent: Any, retrans: Any, index: dict, eager: np.ndarray, again: np.ndarray
    ) -> None:
        if type(sent) is not dict or type(retrans) is not list:
            raise ValueError(f"eager {sent!r} / retransmitted {retrans!r} are malformed")
        last = (0, -1)
        for name, tau in sent.items():
            key = (_count(tau, _I16, lo=1), index.get(name, -1))
            if key[1] < 0 or key <= last:
                raise ValueError(f"eager layer {name!r} is unknown or out of (τ, layer) order")
            eager[key[1]], last = key[0], key
        rank = {name: k for k, name in enumerate(sent)}
        last_rank = -1
        for name in retrans:
            if type(name) is not str or rank.get(name, -1) <= last_rank:
                raise ValueError(f"retransmitted {retrans!r} is not eager layers in eager order")
            again[index[name]], last_rank = True, rank[name]

    def column(self, name: str) -> np.ndarray:
        """Column ``name``, blank (every row lacks its key) where the table
        does not carry it."""
        if name in self.data.dtype.names:
            return self.data[name]
        field = _dtype(len(self.layers)).fields[name][0]
        return np.full((len(self.data), *field.shape), _blank_value(name), field.base)

    @property
    def retransmitted(self) -> np.ndarray:
        """``(n, L)`` bool: the layer rode the tail again."""
        packed = self.column("retransmitted")
        return np.unpackbits(packed, axis=1, count=len(self.layers)).astype(bool)

    def rows(self) -> list[dict[str, Any]]:
        """Each row as the dict it was built from: the same keys in the same
        order, eager layers in (τ, layout) order, plain ints."""
        layers = self.layers
        columns = [self.column(name).tolist() for name, _ in _SCALARS]
        # A table without the anchor group has no row that reads these.
        eager = "eager" in self.data.dtype.names
        sent_rows = self.data["eager"].tolist() if eager else itertools.repeat(None)
        again_rows = self.retransmitted.tolist() if eager else itertools.repeat(None)
        out = []
        for _, anchor, its, stop, prof, raw, wire, sent, again in zip(
            *columns, sent_rows, again_rows
        ):
            row: dict[str, Any] = {} if anchor == ABSENT else {"anchor": bool(anchor)}
            row["iterations_run"] = its
            if stop != ABSENT:
                row["early_stop_iteration"] = None if stop == NONE else stop
            if anchor != ABSENT:
                order = sorted((tau, j) for j, tau in enumerate(sent) if tau >= 0)
                row["eager"] = {layers[j]: tau for tau, j in order}
                row["retransmitted"] = [layers[j] for _, j in order if again[j]]
            if prof != ABSENT:
                row["profiling_bytes"] = prof
            if raw != ABSENT:
                row["wire"] = {"raw_bytes": raw, "wire_bytes": wire}
            out.append(row)
        return out


_SUMMARY = (
    "round_index", "start_time", "end_time", "accuracy", "mean_loss",
    "collected_clients", "straggler_clients", "mean_iterations", "total_bytes",
)


@dataclass(frozen=True)
class RoundRecord:
    """Summary of one communication round, and its clients' events."""

    round_index: int
    start_time: float
    end_time: float
    accuracy: float
    mean_loss: float
    collected_clients: tuple[int, ...]
    straggler_clients: tuple[int, ...]
    mean_iterations: float
    total_bytes: int
    events: ClientEventTable

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def client_events(self) -> Mapping[int, dict[str, Any]]:
        """Read-only ``{client id: event dict}``, built from the table."""
        cids = self.events.data["cid"].tolist()
        return MappingProxyType(dict(zip(cids, self.events.rows())))

    def summary(self) -> dict[str, Any]:
        """Every field but the events, as plain data in export order."""
        out = {name: getattr(self, name) for name in _SUMMARY}
        out["collected_clients"] = list(self.collected_clients)
        out["straggler_clients"] = list(self.straggler_clients)
        return out

    @classmethod
    def from_summary(
        cls, summary: Mapping[str, Any], events: ClientEventTable
    ) -> "RoundRecord":
        fields = {name: summary[name] for name in _SUMMARY}
        fields["collected_clients"] = tuple(fields["collected_clients"])
        fields["straggler_clients"] = tuple(fields["straggler_clients"])
        return cls(**fields, events=events)


@dataclass
class RunHistory:
    """Ordered round records plus derived efficiency metrics."""

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        if self.records and record.round_index <= self.records[-1].round_index:
            raise ValueError("round records must be appended in order")
        self.records.append(record)

    # ------------------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        return len(self.records)

    @property
    def total_time(self) -> float:
        return self.records[-1].end_time if self.records else 0.0

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy if self.records else 0.0

    def best_accuracy(self) -> float:
        return max((r.accuracy for r in self.records), default=0.0)

    def mean_round_time(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.duration for r in self.records) / len(self.records)

    # ------------------------------------------------------------------
    def time_to_accuracy(self, target: float) -> tuple[float, int] | None:
        """First ``(sim_time, rounds_taken)`` at which the global model's
        test accuracy reached ``target``; None if never reached.

        Matches the paper's Table 1 convention: time is measured at the end
        of the round whose evaluation first meets the target.
        """
        for record in self.records:
            if record.accuracy >= target:
                return record.end_time, record.round_index + 1
        return None

    def accuracy_series(self) -> tuple[list[float], list[float]]:
        """``(times, accuracies)`` for time-to-accuracy curves (Fig. 7/9/10)."""
        return (
            [r.end_time for r in self.records],
            [r.accuracy for r in self.records],
        )

    # ------------------------------------------------------------------
    def early_stop_iterations(self) -> list[int]:
        """All early-stop trigger iterations across rounds/clients (Fig. 8a)."""
        stops = np.concatenate(
            [np.empty(0, np.int32)]
            + [r.events.column("early_stop_iteration") for r in self.records]
        )
        return stops[stops >= 0].tolist()

    def eager_iterations(self, *, effective: bool) -> list[int]:
        """Eager-transmission trigger iterations across rounds/clients/layers
        (Fig. 8b).

        With ``effective=True``, a layer that was later retransmitted counts
        at the round's final iteration (its update only became valid then) —
        the paper's "w/ retransmission" CDF. With ``effective=False`` the raw
        trigger iteration is used.
        """
        out: list[int] = []
        for record in self.records:
            data = record.events.data
            if "eager" not in data.dtype.names:
                continue
            rows, cols = np.nonzero(data["eager"] >= 0)
            tau = data["eager"][rows, cols]
            moment = np.where(
                effective & record.events.retransmitted[rows, cols],
                data["iterations_run"][rows],
                tau,
            )
            out += moment[np.lexsort((cols, tau, rows))].tolist()
        return out

    # ------------------------------------------------------------------
    def state(self) -> dict[str, Any]:
        """Checkpoint form: the round summaries, and each event column over
        the whole run as one array; a column no row uses is left out."""
        layers = self.records[0].events.layers if self.records else ()
        if any(r.events.layers != layers for r in self.records):
            raise ValueError("a history's event tables must share one layer order")
        blank = _blank(1, len(layers))
        columns = {}
        for name in blank.dtype.names:
            column = np.concatenate(
                [blank[name][:0]] + [r.events.column(name) for r in self.records]
            )
            if (column != blank[name]).any():
                columns[name] = column
        return {
            "records": [r.summary() for r in self.records],
            "layers": list(layers),
            "rows": np.array([len(r.events.data) for r in self.records], np.int64),
            "columns": columns,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "RunHistory":
        """Inverse of :meth:`state`; one that does not fit raises
        ``KeyError``, ``TypeError`` or ``ValueError``."""
        layers = tuple(state["layers"])
        bounds = [0, *itertools.accumulate(int(n) for n in state["rows"])]
        data = _blank(bounds[-1], len(layers))
        for name, column in state["columns"].items():
            data[name] = column
        history = cls()
        for summary, start, stop in zip(state["records"], bounds[:-1], bounds[1:], strict=True):
            table = ClientEventTable(layers, _narrow(data[start:stop], len(layers)))
            history.append(RoundRecord.from_summary(summary, table))
        return history


# ----------------------------------------------------------------------
# Plain-data export
# ----------------------------------------------------------------------
def history_to_dict(history: RunHistory) -> dict[str, Any]:
    """Full-fidelity plain-data representation (JSON-safe)."""
    return {
        "num_rounds": history.num_rounds,
        "total_time": history.total_time,
        "final_accuracy": history.final_accuracy,
        "records": [
            {
                **r.summary(),
                "client_events": {str(cid): ev for cid, ev in r.client_events.items()},
            }
            for r in history.records
        ],
    }


def history_to_json(history: RunHistory, *, indent: int | None = None) -> str:
    return json.dumps(history_to_dict(history), indent=indent)


def history_from_dict(data: Mapping[str, Any]) -> RunHistory:
    """Inverse of :func:`history_to_dict`; a client event no scheme emits
    raises ``ValueError``."""
    events = [
        {int(cid): ev for cid, ev in rec["client_events"].items()}
        for rec in data["records"]
    ]
    if any(list(map(str, e)) != list(r["client_events"]) for e, r in zip(events, data["records"])):
        raise ValueError("client ids must be decimal integers as history_to_dict spells them")
    # The JSON does not name the model's layout, but any layer order that
    # keeps each dict's same-iteration layers in their order gives the same
    # rows. A cycle raises graphlib.CycleError, a ValueError.
    graph: TopologicalSorter = TopologicalSorter()
    for ev in (ev for round_events in events for ev in round_events.values()):
        sent = ev.get("eager") if type(ev) is dict else None
        items = list(sent.items()) if type(sent) is dict else []
        for name, _ in items:
            graph.add(name)
        for (a, ta), (b, tb) in zip(items, items[1:]):
            if ta == tb:
                graph.add(b, a)
    layers = tuple(graph.static_order())
    history = RunHistory()
    for rec, round_events in zip(data["records"], events):
        table = ClientEventTable.from_events(layers, round_events)
        history.append(RoundRecord.from_summary(rec, table))
    return history
