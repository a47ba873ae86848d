"""Fuzz the serve front door through its connection loop.

Arbitrary JSON objects go to one :class:`BackgroundServer`: random
``op`` and ``id``, junk or valid scenarios, and junk in every
per-request field (``priority`` including inf, NaN and huge ints;
``faults``; ``fidelity``; ``client_id``).  ``trace`` names a directory
the server writes to, so it is pinned to a temporary directory.  Every
line must get exactly one response within a timeout, and a ``ping``
must still answer on the same connection afterwards.
"""

from __future__ import annotations

import json
import socket

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.run import Runner, scenario, workload
from repro.serve import BackgroundServer, scenario_to_wire
from repro.serve.protocol import decode_line, encode_line

#: Seconds one response may take; a dropped request shows as a timeout.
_REPLY_TIMEOUT_S = 10.0


@workload("fuzz_test.cell")
def _cell(x: int = 0) -> list[tuple]:
    return [(x, x + 1)]


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=12)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_valid_scenarios = st.builds(
    lambda x, fid: scenario_to_wire(scenario("fuzz_test.cell", x=x,
                                             fidelity=fid)),
    st.integers(-3, 3),
    st.sampled_from(["full", "analytic", "hybrid"]),
)
#: A well-formed value per optional submit field.
_valid_fields = {
    "id": st.integers(),
    "priority": st.integers(-5, 5),
    "faults": st.sampled_from([None, "jitter:amplitude=1ms;seed=3"]),
    "fidelity": st.sampled_from([None, "analytic", "hybrid", "full"]),
    "client_id": st.none() | st.text(max_size=6),
}
#: Junk per field, biased toward values a decoder trips over.
_junk_fields = {
    "op": st.sampled_from(["stats", "ping", "frobnicate"]) | _json,
    "id": _json,
    "scenario": _json,
    "priority": st.sampled_from(
        [float("inf"), float("-inf"), float("nan"), 10**300, -(10**300),
         "high", [1]]
    ) | _json,
    "faults": st.sampled_from(["drop:probability=2", "bogus", "seed=x"])
    | _json,
    "fidelity": st.sampled_from(["quick", ""]) | _json,
    "client_id": _json,
}


@st.composite
def _messages(draw, trace_dir: str) -> dict:
    """A valid submit with some optional fields, then one field junk."""
    message = {"op": "submit", "scenario": draw(_valid_scenarios)}
    for name, valid in _valid_fields.items():
        if draw(st.booleans()):
            message[name] = draw(valid)
    if draw(st.booleans()):
        message["trace"] = trace_dir
    junk = draw(st.sampled_from(sorted(_junk_fields)))
    message[junk] = draw(_junk_fields[junk])
    return message


@pytest.fixture(scope="module")
def single_door():
    with BackgroundServer(Runner(jobs=1, cache=None)) as server:
        yield server.port


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz-trace"))


def _exchange(port: int, message: dict) -> None:
    with socket.create_connection(
        ("127.0.0.1", port), timeout=_REPLY_TIMEOUT_S
    ) as sock:
        reader = sock.makefile("rb")
        sock.sendall(json.dumps(message).encode() + b"\n")
        reply = decode_line(reader.readline())
        assert reply["status"] in {"ok", "error", "rejected", "stats", "pong"}
        if message["op"] == "submit":
            assert reply["status"] in {"ok", "error", "rejected"}
        sock.sendall(encode_line({"op": "ping", "id": "after"}))
        pong = decode_line(reader.readline())
        assert pong["id"] == "after" and pong["status"] == "pong"


_SETTINGS = settings(max_examples=60, deadline=None)


@pytest.mark.parametrize("door", ["single_door"])
def test_every_line_gets_one_reply(door, request, trace_dir):
    port = request.getfixturevalue(door)

    @_SETTINGS
    @given(message=_messages(trace_dir))
    def check(message):
        _exchange(port, message)

    check()
